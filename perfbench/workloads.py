"""The three benchmark workloads: inputs from a seed, one op, its oracle.

Each workload generates all of its inputs from the workload seed when it
is constructed (that is part of set-up) and hands the program only those
inputs. `run(i)` is op number i and is the only timed call; `judge(i,
output)` raises `OracleFailure` when the output is wrong. `setup_runs`
is how many cold set-ups a run times for `setup_s` (fewer where one
costs seconds); `single_threaded` says whether the runner may place the
ops on the CPUs in turn.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import threading

from oracle import (
    CRITERION_8_CONJUGATION,
    CRITERION_8_ROUNDTRIP,
    CRITERION_10_EXACT,
    CRITERION_11_PRODUCT_RULE,
    OracleFailure,
    check_residuals,
    check_verify_report,
)

THETA = 0.7071067811865476  # the default --theta
# criterion 10's four (l1, l2, v, w) sample points
PAIR_SAMPLES = ((0, 0, 0.15, 0.4), (1, 0, 0.7, 0.2), (0, 1, 0.3, 0.8), (-1, 1, 0.5, 0.1))
# an inner product whose samples all fall below this is degenerate (zero)
NONZERO_FLOOR = 1e-6
INPUT_SETS = 8


def _worst(values):
    """Largest value, NaN if any value is NaN (unlike the builtin max)."""
    values = list(values)
    return math.nan if any(v != v for v in values) else max(values)


def _profile(cf, rng, freqs=(0.0,)):
    return cf.GaussSum1.bump(
        width=rng.uniform(1.0, 2.0),
        center=rng.uniform(-0.8, 0.8),
        freq=rng.choice(freqs),
        poly=(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
    )


def _outer(cf, rng, freqs=(-1.0, 0.0, 1.0)):
    return cf.GaussSum2.outer(_profile(cf, rng, freqs), _profile(cf, rng, freqs))


class VerifyAll:
    """`rotalab verify all` in process, cycling through a few report seeds."""

    name = "verify-all"
    trace_ops = 3
    cycle = 3
    single_threaded = False  # the check pool runs on every CPU
    setup_runs = 3

    def __init__(self, rotalab, seed, workdir):
        self.rotalab = rotalab
        self.seeds = random.Random(seed).sample(range(1, 1_000_000), self.cycle)
        self.path = os.path.join(workdir, f"verify-all-{os.getpid()}.json")
        self.first = {}

    def run(self, i):
        seed = self.seeds[i % self.cycle]
        if os.path.exists(self.path):
            os.remove(self.path)
        return self.rotalab.cli.main(["verify", "all", "--seed", str(seed), "--output", self.path])

    def judge(self, i, code):
        with open(self.path, "rb") as handle:
            data = handle.read()
        os.remove(self.path)
        check_verify_report(code, data)
        first = self.first.setdefault(i % self.cycle, data)
        if first != data:
            raise OracleFailure(f"seed {self.seeds[i % self.cycle]} gave different report bytes")

    @contextlib.contextmanager
    def check_threads(self):
        """Collect the ids of the threads that run registered checks."""
        registry = self.rotalab.checks._REGISTRY
        saved = {suite: list(items) for suite, items in registry.items()}
        threads = set()

        def spy(fn):
            def counted(*args):
                threads.add(threading.get_ident())
                return fn(*args)

            return counted

        try:
            for items in registry.values():
                items[:] = [(cid, spy(fn)) for cid, fn in items]
            yield threads
        finally:
            for suite, items in saved.items():
                registry[suite][:] = items


class PairEvaluators:
    """Module-axiom identities at criterion 10's scale, evaluated point by point."""

    name = "pair-evaluators"
    trace_ops = INPUT_SETS
    single_threaded = True
    setup_runs = 5
    b = 2

    def __init__(self, rotalab, seed, workdir):
        self.rotalab = rotalab
        cf, bm, du = rotalab.closedform, rotalab.bimodules, rotalab.duality
        grid = bm.RGrid(10.0, 128)
        rng = random.Random(seed)
        self.inputs = []
        for _ in range(INPUT_SETS):
            phi = bm.ZTRFunction(4, 8, grid, {(0, 0): _profile(cf, rng), (1, -1): _profile(cf, rng)})
            psi = bm.ZTRFunction(4, 8, grid, {(0, 1): _profile(cf, rng), (-1, 0): _profile(cf, rng)})
            f1 = du.SB2Function(
                1, 4, grid, grid,
                {(0, 0): _outer(cf, rng, (0.0,)), (1, 1): _outer(cf, rng, (0.0,))},
            )
            f2 = du.SB2Function(
                1, 4, grid, grid,
                {(0, 1): _outer(cf, rng, (0.0,)), (-1, 0): _outer(cf, rng, (0.0,))},
            )
            xi = {
                (0, 0, 0, 0): complex(rng.uniform(0.2, 1.0), 0.0),
                (1, 0, 0, 1): complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            }
            self.inputs.append((phi, psi, f1, f2, xi))

    @staticmethod
    def _compare(left, right):
        """(largest |left - right|, largest |right|) over the sample points."""
        pairs = [(left.value(*s), right.value(*s)) for s in PAIR_SAMPLES]
        return _worst(abs(a - c) for a, c in pairs), _worst(abs(c) for _, c in pairs)

    def run(self, i):
        bm, du = self.rotalab.bimodules, self.rotalab.duality
        phi, psi, f1, f2, xi = self.inputs[i % INPUT_SETS]
        b = self.b
        inner = bm.pair_module_inner(phi, psi, THETA, b)
        residuals, sizes = {}, {}
        residuals["pair.hermitian"], sizes["pair"] = self._compare(
            inner.star(), bm.pair_module_inner(psi, phi, THETA, b)
        )
        residuals["pair.right_linear"], sizes["pair.right"] = self._compare(
            bm.pair_module_inner(phi, bm.pair_module_right(psi, xi, THETA, b), THETA, b),
            inner.right_mult(xi),
        )
        base = du.base_inner(f1, f2, THETA, "closed")
        residuals["base.hermitian"], sizes["base"] = self._compare(
            base.star(), du.base_inner(f2, f1, THETA, "closed")
        )
        moved = du.transformed_inner(f1, f2, THETA, b, "closed")
        residuals["transformed.hermitian"], sizes["transformed"] = self._compare(
            moved.star(), du.transformed_inner(f2, f1, THETA, b, "closed")
        )
        return residuals, sizes

    def judge(self, i, output):
        residuals, sizes = output
        check_residuals(residuals, dict.fromkeys(residuals, CRITERION_10_EXACT))
        for name, size in sizes.items():
            if not (math.isfinite(size) and size > NONZERO_FLOOR):
                raise OracleFailure(f"{name} inner product is degenerate ({size!r})")


class TransformCycle:
    """Closed-form constructions of criteria 8 and 11: build many terms, evaluate few."""

    name = "transform-cycle"
    trace_ops = 2 * INPUT_SETS
    single_threaded = True
    setup_runs = 5
    b = 2
    # criterion 8's four layer-key pairs, each used by two input sets
    keys = (((0, 0), (-1, 1)), ((0, 0), (2, 2)), ((1, -1), (-1, 1)), ((1, -1), (2, 2))) * 2

    def __init__(self, rotalab, seed, workdir):
        self.rotalab = rotalab
        cf, bm, du, nc = rotalab.closedform, rotalab.bimodules, rotalab.duality, rotalab.nctorus
        grid = bm.RGrid(10.0, 128)
        rng = random.Random(seed)
        self.inputs = []
        for key1, key2 in self.keys:
            fn = du.SB2Function(
                2, 6, grid, grid, {key1: _outer(cf, rng), key2: _outer(cf, rng).scale(0.5j)}
            )
            phi = bm.ZTRFunction(4, 8, grid, {(0, 0): _profile(cf, rng), (1, 1): _profile(cf, rng)})
            a = nc.SmoothElement(
                {
                    (1, 1): complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
                    (0, 1): complex(rng.uniform(-1.0, 1.0), 0.0),
                },
                THETA,
            )
            self.inputs.append((fn, phi, a))

    def run(self, i):
        bm, du = self.rotalab.bimodules, self.rotalab.duality
        fn, phi, a = self.inputs[i % INPUT_SETS]
        b = self.b
        roundtrip, conjugation, product = [], [], []
        for bb in (1, 2):
            back = du.full_transform(du.full_transform(fn, bb, THETA), bb, THETA, inverse=True)
            roundtrip.append(back.max_abs_difference(fn))
            conjugation.extend(du.conjugation_report(fn, bb, THETA).values())
        xi_a = {(0, 0, p, q): c for (p, q), c in a.coeffs.items()}
        for sign in (1, -1):
            corr = du.angular_weight_correction(a, sign)
            xi_corr = {(0, 0, p, q): c for (p, q), c in corr.coeffs.items()}
            lhs = du.layered_line_dirac(bm.pair_module_right(phi, xi_a, THETA, b), sign, b)
            rhs = bm.pair_module_right(
                du.layered_line_dirac(phi, sign, b), xi_a, THETA, b
            ) + bm.pair_module_right(phi, xi_corr, THETA, b).scale(b)
            product.append(lhs.max_abs_difference(rhs))
        return {
            "roundtrip": _worst(roundtrip),
            "conjugation": _worst(conjugation),
            "product_rule": _worst(product),
        }

    def judge(self, i, residuals):
        check_residuals(
            residuals,
            {
                "roundtrip": CRITERION_8_ROUNDTRIP,
                "conjugation": CRITERION_8_CONJUGATION,
                "product_rule": CRITERION_11_PRODUCT_RULE,
            },
        )


WORKLOADS = {w.name: w for w in (VerifyAll, PairEvaluators, TransformCycle)}
