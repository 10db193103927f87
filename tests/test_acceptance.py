"""Acceptance gate: fifteen numbered criteria, one test and one line each.

Every test prints a single CRITERION nn PASS line after its assertions,
so the verbose run reads as a checklist. Tolerances are pinned here and
are not configurable.
"""

import cmath
import json
import math
import random
import time

import numpy as np

from rotalab import bimodules as bm
from rotalab import duality as du
from rotalab.checks import _pair_difference
from rotalab.cli import main as cli_main
from rotalab.closedform import GaussSum
from rotalab.groupoids import (
    flow_compose,
    flow_transport,
    lattice_arrow_from_times,
    lattice_compose,
    rotation_compose,
    transversal_roundtrip,
)
from rotalab.ktheory import KClass, twist_apply, twist_compose
from rotalab.nctorus import (
    SmoothElement,
    _worst,
    basis_dim,
    interior_mask,
    nct_adjoint,
    nct_dolbeault,
    nct_multiply,
    nct_represent,
    pair_multiply,
)
from rotalab.oscillator import (
    dirac_eigenvalues,
    grid_dirac_plus_staggered,
    kernel_dims,
    ladder_block,
    oracle_radius,
)
from rotalab.sampling import (
    flow_chain,
    lattice_chain,
    rotation_chain,
    shear,
    transversal_point,
)

THETA = 0.7071067811865476
GRID = bm.RGrid(10.0, 128)
TWO_PI = 2.0 * math.pi


def _stamp(n: int, message: str):
    print(f"CRITERION {n:02d} PASS: {message}")


def _profile(rng, freqs=(0.0,)):
    return GaussSum.bump(
        width=rng.uniform(1.0, 2.0),
        center=rng.uniform(-0.8, 0.8),
        freq=rng.choice(freqs),
        poly=(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
    )


def _tr(rng, freqs=(-1.0, 0.0, 1.0), modes=(-2, -1, 0, 1, 2)):
    chosen = rng.sample(list(modes), 3)
    return bm.TRFunction(8, GRID, {m: _profile(rng, freqs) for m in chosen})


def _outer(rng, freqs=(-1.0, 0.0, 1.0)):
    return GaussSum.outer(_profile(rng, freqs), _profile(rng, freqs))


def _sb_pair(rng, freqs=(-1.0, 0.0, 1.0)):
    f1 = du.SB2Function(
        1, 4, GRID, GRID, {(0, 0): _outer(rng, freqs), (1, 1): _outer(rng, freqs)}
    )
    f2 = du.SB2Function(
        1, 4, GRID, GRID, {(0, 1): _outer(rng, freqs), (-1, 0): _outer(rng, freqs)}
    )
    return f1, f2


def _twelve_set(rng):
    out = []
    for key1 in [(0, 0), (1, -1)]:
        for key2 in [(-1, 1), (2, 2)]:
            for _ in range(3):
                out.append(
                    du.SB2Function(
                        2, 6, GRID, GRID,
                        {key1: _outer(rng), key2: _outer(rng).scale(0.5j)},
                    )
                )
    return out


# ---------------------------------------------------------------------------
# criteria 1-3: oscillator and flat-torus spectra
# ---------------------------------------------------------------------------


def test_criterion_01_oscillator_singular_values():
    started = time.monotonic()
    lam, level = 1.0, 64
    a_plus = ladder_block(lam, level)
    sv = np.sort(np.linalg.svd(a_plus, compute_uv=False))
    expected = np.sqrt(2.0 * lam * np.arange(1, level))
    rel = np.abs(sv[:59] - expected[:59]) / expected[:59]
    assert np.max(rel) < 1e-10
    radius = oracle_radius(lam)
    nodes = np.linspace(-radius, radius, 1024)
    grid_sv = np.sort(
        np.linalg.svd(grid_dirac_plus_staggered(lam, nodes), compute_uv=False)
    )
    assert np.max(np.abs(grid_sv[:10] - expected[:10])) < 1e-3
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _stamp(1, f"ladder singular values and grid oracle agree ({elapsed:.2f}s)")


def test_criterion_02_fredholm_index_signs():
    for lam in (0.5, 1.0, TWO_PI):
        for slope, index in ((lam, 1), (-lam, -1)):
            plus, minus = kernel_dims(slope, 32)
            assert plus - minus == index
    _stamp(2, "kernel imbalance is +1 for positive slopes, -1 for negative")


def _dolbeault_dense(size):
    """The odd flat-torus operator as a dense matrix, from its two block diagonals."""
    upper, lower = nct_dolbeault(size, size)
    zero = np.zeros((basis_dim(size, size),) * 2, dtype=complex)
    return np.block([[zero, np.diag(upper)], [np.diag(lower), zero]])


def test_criterion_03_flat_torus_square():
    size = 8
    d = _dolbeault_dense(size)
    n = basis_dim(size, size)
    upper_block = d[:n, n:]
    lower_block = d[n:, :n]
    # both graded blocks are diagonal matrices, so their product is the
    # elementwise product of the diagonals; split real and imaginary parts
    # by hand because the fused complex multiply drifts by one ulp
    assert np.max(np.abs(upper_block - np.diag(np.diag(upper_block)))) == 0.0
    assert np.max(np.abs(lower_block - np.diag(np.diag(lower_block)))) == 0.0
    upper = np.diag(upper_block)
    lower = np.diag(lower_block)
    expected = np.array(
        [
            (TWO_PI * k) ** 2 + (TWO_PI * l) ** 2
            for l in range(-size, size + 1)
            for k in range(-size, size + 1)
        ]
    )
    square_real = upper.real * lower.real - upper.imag * lower.imag
    square_imag = upper.real * lower.imag + upper.imag * lower.real
    assert np.array_equal(square_real, expected)
    assert np.max(np.abs(square_imag)) == 0.0
    assert np.max(np.abs(d - d.conj().T)) < 1e-12
    assert np.max(np.abs(d[:n, :n])) == 0.0
    assert np.max(np.abs(d[n:, n:])) == 0.0
    _stamp(3, "flat-torus operator is odd self-adjoint with exact diagonal square")


# ---------------------------------------------------------------------------
# criteria 4-6: representations and exact groupoids
# ---------------------------------------------------------------------------


def test_criterion_04_commuting_representations():
    size = 8
    rng = np.random.default_rng(17)
    elements = [SmoothElement.u_power(1, THETA), SmoothElement.v_power(1, THETA)]
    for _ in range(5):
        coeffs = {}
        for _ in range(4):
            key = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            coeffs[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        elements.append(SmoothElement(coeffs, THETA))
    lefts = [(a, nct_represent(a, "left", size, size)) for a in elements]
    rights = [(a, nct_represent(a, "right", size, size)) for a in elements]
    residuals = []
    for a, la in lefts:
        for c, rc in rights:
            wa, wc = a.window(), c.window()
            mask = interior_mask(size, size, wa[0] + wc[0], wa[1] + wc[1])
            residuals.append(float(np.max(np.abs((la @ rc - rc @ la)[:, mask]))))
    worst = _worst(residuals)
    assert worst < 1e-10
    _stamp(4, f"left and right actions commute on interior blocks ({worst:.1e})")


def test_criterion_05_exact_groupoid_suite():
    started = time.monotonic()
    rng = random.Random(19)
    violations = 0

    def batch(chains, compose):
        bad = 0
        for f, h, j in chains:
            if compose(compose(f, h), j) != compose(f, compose(h, j)):
                bad += 1
            if not compose(f, f.inverse()).is_unit:
                bad += 1
            if not compose(f.inverse(), f).is_unit:
                bad += 1
        return bad

    violations += batch([rotation_chain(rng) for _ in range(1000)], rotation_compose)
    violations += batch([flow_chain(rng, 3) for _ in range(1000)], flow_compose)
    violations += batch(
        [lattice_chain(rng, shear(1 + i % 3), 3) for i in range(1000)], lattice_compose
    )
    assert violations == 0
    from rotalab.sampling import unimodular

    for _ in range(100):
        m, n = unimodular(rng), unimodular(rng)
        a = flow_chain(rng, 1)[0]
        assert flow_transport(flow_transport(a, m), n) == flow_transport(a, n @ m)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _stamp(5, f"3000 exact law triples and 100 functorial pairs ({elapsed:.2f}s)")


def test_criterion_06_equivalence_roundtrips():
    rng = random.Random(23)
    for i in range(500):
        b = 1 + i % 3
        z = transversal_point(rng, b)
        assert transversal_roundtrip(z, rng.randint(-3, 3), rng.randint(-3, 3)) == z
    for i in range(500):
        b = 1 + i % 3
        a = lattice_chain(rng, shear(b), 1)[0]
        t1, t2 = a.first_time(), a.second_time()
        assert lattice_arrow_from_times(a.range[0], a.range[1], t1, t2, shear(b)) == a
    _stamp(6, "transversal and label-time roundtrips exact on 1000 samples")


# ---------------------------------------------------------------------------
# criteria 7-9: unitaries, the composite transform, the resolvent
# ---------------------------------------------------------------------------


def test_criterion_07_rescaling_unitary_and_conjugation():
    rng = random.Random(29)
    unitarity = []
    for i in range(12):
        b = 1 + i % 2
        phi, psi = _tr(rng), _tr(rng)
        moved = bm.sheared_module_inner(
            bm.shear_unitary(phi, b), bm.shear_unitary(psi, b), b, "closed"
        )
        fixed = bm.line_module_inner(phi, psi, "closed")
        unitarity.append(moved.max_abs_difference(fixed))
    worst = _worst(unitarity)
    assert worst < 1e-6
    conjugation = []
    for b in (1, 2):
        phi = _tr(rng)
        for sign in (1, -1):
            inner_op = bm.sheared_dirac(bm.shear_unitary(phi, b), sign, b)
            conjugated = bm.shear_unitary(inner_op, b, inverse=True).scale(b)
            expected = bm.TRFunction(
                phi.mode_max,
                GRID,
                {
                    m: p.mul_poly((0.0, TWO_PI * b)) + p.derivative().scale(sign)
                    for m, p in phi.profiles.items()
                },
            )
            conjugation.append(conjugated.max_abs_difference(expected))
    conj_worst = _worst(conjugation)
    assert conj_worst < 1e-6
    _stamp(7, f"12-pair unitarity {worst:.1e}, conjugation {conj_worst:.1e}")


def test_criterion_08_composite_transform_suite():
    rng = random.Random(31)
    family = _twelve_set(rng)
    round_worst = _worst(
        du.full_transform(du.full_transform(fn, b, THETA), b, THETA, inverse=True)
        .max_abs_difference(fn)
        for fn in family
        for b in (1, 2)
    )
    assert round_worst < 1e-6
    conj_worst = _worst(
        residual
        for b in (1, 2)
        for residual in du.conjugation_report(family[0], b, THETA).values()
    )
    assert conj_worst < 1e-6
    f1, f2 = _sb_pair(rng)
    unitarity = []
    for b in (1, 2):
        fixed = du.base_inner(f1, f2, THETA, "closed")
        moved = du.transformed_inner(
            du.full_transform(f1, b, THETA),
            du.full_transform(f2, b, THETA),
            THETA,
            b,
            "closed",
        )
        unitarity.append(_pair_difference(fixed, moved))
    unit_worst = _worst(unitarity)
    assert unit_worst < 1e-6
    _stamp(
        8,
        f"roundtrip {round_worst:.1e}, conjugation {conj_worst:.1e}, "
        f"unitarity {unit_worst:.1e}",
    )


def test_criterion_09_resolvent_pointwise():
    rng = random.Random(37)
    residuals = []
    for _ in range(2):
        f1, f2 = _sb_pair(rng)
        for sign in (1, -1):
            residuals.append(du.resolvent_residual(f1, f2, sign))
    worst = _worst(residuals)
    assert worst < 1e-12
    _stamp(9, f"shifted operator inverts pointwise ({worst:.1e})")


# ---------------------------------------------------------------------------
# criterion 10: module axioms across all seven structures
# ---------------------------------------------------------------------------


def _line_structure(rng):
    phi, psi = _tr(rng), _tr(rng)
    fa = bm.CTValued({-1: 0.4 + 0.1j, 0: 1.0, 1: 0.3 - 0.2j})
    fb = bm.CTValued({0: 0.6, 1: 0.25j})
    assoc = bm.line_module_right(bm.line_module_right(phi, fa), fb).max_abs_difference(
        bm.line_module_right(phi, fa.mul(fb))
    )
    closed = bm.line_module_inner(phi, psi, "closed")
    linear = bm.line_module_inner(phi, bm.line_module_right(psi, fa), "closed").max_abs_difference(
        closed.mul(fa)
    )
    herm = closed.star().max_abs_difference(bm.line_module_inner(psi, phi, "closed"))
    grid = bm.line_module_inner(phi, bm.line_module_right(psi, fa), "grid").max_abs_difference(
        bm.line_module_inner(phi, psi, "grid").mul(fa)
    )
    return _worst((assoc, linear, herm)), grid


def _sheared_structure(rng):
    b = 2
    phi = _tr(rng, freqs=(0.0,), modes=(-1, 0, 1))
    psi = _tr(rng, freqs=(0.0,), modes=(-1, 0, 1))
    fa = bm.CTValued({0: 0.8, 1: 0.3j})
    fb = bm.CTValued({-1: 0.2, 0: 0.5})
    assoc = bm.line_module_left(
        bm.line_module_left(phi, fa, b), fb, b
    ).max_abs_difference(bm.line_module_left(phi, fa.mul(fb), b))
    closed = bm.sheared_module_inner(phi, psi, b, "closed")
    linear = bm.sheared_module_inner(
        phi, bm.line_module_left(psi, fa, b), b, "closed"
    ).max_abs_difference(closed.mul(fa))
    herm = closed.star().max_abs_difference(bm.sheared_module_inner(psi, phi, b, "closed"))
    grid = bm.sheared_module_inner(
        phi, bm.line_module_left(psi, fa, b), b, "grid"
    ).max_abs_difference(bm.sheared_module_inner(phi, psi, b, "grid").mul(fa))
    return _worst((assoc, linear, herm)), grid


def _descended_structure(rng):
    psi1 = bm.ZTRFunction(4, 8, GRID, {(0, 0): _profile(rng), (1, 1): _profile(rng)})
    psi2 = bm.ZTRFunction(4, 8, GRID, {(0, 1): _profile(rng), (-1, 0): _profile(rng)})
    a = SmoothElement({(0, 0): 0.7, (1, 1): 0.5 - 0.2j}, THETA)
    c = SmoothElement({(0, 0): 0.4, (-1, 0): 0.25}, THETA)
    assoc = bm.descended_right(bm.descended_right(psi1, a), c).max_abs_difference(
        bm.descended_right(psi1, nct_multiply(a, c))
    )
    closed = bm.descended_inner(psi1, psi2, THETA, "closed")
    linear = bm.descended_inner(
        psi1, bm.descended_right(psi2, a), THETA, "closed"
    ).max_abs_difference(nct_multiply(closed, a))
    herm = nct_adjoint(closed).max_abs_difference(
        bm.descended_inner(psi2, psi1, THETA, "closed")
    )
    grid = bm.descended_inner(
        psi1, bm.descended_right(psi2, a), THETA, "grid"
    ).max_abs_difference(nct_multiply(bm.descended_inner(psi1, psi2, THETA, "grid"), a))
    return _worst((assoc, linear, herm)), grid


def _pair_structure(rng):
    b = 2
    phi = bm.ZTRFunction(4, 8, GRID, {(0, 0): _profile(rng), (1, -1): _profile(rng)})
    psi = bm.ZTRFunction(4, 8, GRID, {(0, 1): _profile(rng), (-1, 0): _profile(rng)})
    xi = {(0, 0, 0, 0): 0.5, (1, 0, 0, 1): 0.7 - 0.2j}
    eta = {(0, 1, 1, 0): 0.4 + 0.3j}
    assoc = bm.pair_module_right(
        bm.pair_module_right(phi, xi, THETA, b), eta, THETA, b
    ).max_abs_difference(bm.pair_module_right(phi, pair_multiply(xi, eta, THETA), THETA, b))
    inner = bm.pair_module_inner(phi, psi, THETA, b)
    linear = bm.pair_module_inner(
        phi, bm.pair_module_right(psi, xi, THETA, b), THETA, b
    ).max_abs_difference(inner.right_mult(xi))
    herm = inner.star().max_abs_difference(bm.pair_module_inner(psi, phi, THETA, b))
    return _worst((assoc, linear, herm)), None


def _descent_structure(rng):
    b = 2
    f1 = bm.ZTRFunction(4, 8, GRID, {(0, 0): _profile(rng), (1, 1): _profile(rng)})
    f2 = bm.ZTRFunction(4, 8, GRID, {(0, 1): _profile(rng), (-1, 0): _profile(rng)})
    p, q, pp, qq = 1, 1, 0, 1
    product = nct_multiply(
        SmoothElement({(p, q): 1.0}, THETA), SmoothElement({(pp, qq): 1.0}, THETA)
    )
    ((cp, cq), z) = next(iter(product.coeffs.items()))
    assoc = bm.descent_right(
        bm.descent_right(f1, p, q, THETA, b), pp, qq, THETA, b
    ).max_abs_difference(bm.descent_right(f1, cp, cq, THETA, b).scale(z))
    closed = bm.descent_inner(f1, f2, THETA, b, "closed")
    generator = SmoothElement({(p, q): 1.0}, THETA)
    linear = bm.descent_inner(
        f1, bm.descent_right(f2, p, q, THETA, b), THETA, b, "closed"
    ).max_abs_difference(nct_multiply(closed, generator))
    herm = nct_adjoint(closed).max_abs_difference(bm.descent_inner(f2, f1, THETA, b, "closed"))
    grid = bm.descent_inner(
        f1, bm.descent_right(f2, p, q, THETA, b), THETA, b, "grid"
    ).max_abs_difference(
        nct_multiply(bm.descent_inner(f1, f2, THETA, b, "grid"), generator)
    )
    return _worst((assoc, linear, herm)), grid


def _base_structure(rng):
    # frequency-free envelopes keep the net grid modulation inside the
    # quadrature bandwidth on the sampled route
    f1, f2 = _sb_pair(rng, freqs=(0.0,))
    big = du.SB2Function(3, 8, GRID, GRID, dict(f1.profiles))
    xi = {(1, 1, 0, 1): 0.8 - 0.3j, (0, 0, 1, 0): 0.4}
    eta = {(0, 1, 1, 0): 0.5 + 0.2j}
    assoc = du.base_right_act(
        du.base_right_act(big, xi, THETA), eta, THETA
    ).max_abs_difference(du.base_right_act(big, pair_multiply(xi, eta, THETA), THETA))
    closed = du.base_inner(f1, f2, THETA, "closed")
    linear = _pair_difference(
        du.base_inner(f1, du.base_right_act(f2, xi, THETA), THETA, "closed"),
        closed.right_mult(xi),
    )
    herm = _pair_difference(closed.star(), du.base_inner(f2, f1, THETA, "closed"))
    grid = _pair_difference(du.base_inner(f1, f2, THETA, "grid"), closed)
    return _worst((assoc, linear, herm)), grid


def _transformed_structure(rng):
    b = 2
    f1, f2 = _sb_pair(rng, freqs=(0.0,))
    big = du.SB2Function(3, 8, GRID, GRID, dict(f1.profiles))
    xi = {(1, 1, 0, 1): 0.8 - 0.3j, (0, 0, 1, 0): 0.4}
    eta = {(0, 1, 1, 0): 0.5 + 0.2j}
    assoc = du.transformed_right_act(
        du.transformed_right_act(big, xi, THETA, b), eta, THETA, b
    ).max_abs_difference(
        du.transformed_right_act(big, pair_multiply(xi, eta, THETA), THETA, b)
    )
    closed = du.transformed_inner(f1, f2, THETA, b, "closed")
    linear = _pair_difference(
        du.transformed_inner(f1, du.transformed_right_act(f2, xi, THETA, b), THETA, b, "closed"),
        closed.right_mult(xi),
    )
    herm = _pair_difference(closed.star(), du.transformed_inner(f2, f1, THETA, b, "closed"))
    grid = _pair_difference(du.transformed_inner(f1, f2, THETA, b, "grid"), closed)
    return _worst((assoc, linear, herm)), grid


def test_criterion_10_module_axiom_suite():
    rng = random.Random(41)
    structures = {
        "line": _line_structure,
        "sheared": _sheared_structure,
        "descended": _descended_structure,
        "pair": _pair_structure,
        "descent": _descent_structure,
        "base": _base_structure,
        "transformed": _transformed_structure,
    }
    exacts, quads = [], []
    for name, runner in structures.items():
        exact, quad = runner(rng)
        assert exact < 1e-12, f"{name}: exact-case residual {exact:.3e}"
        exacts.append(exact)
        if quad is not None:
            assert quad < 1e-8, f"{name}: quadrature residual {quad:.3e}"
            quads.append(quad)
    worst_exact, worst_quad = _worst(exacts), _worst(quads)
    _stamp(10, f"seven structures, exact {worst_exact:.1e}, quadrature {worst_quad:.1e}")


# ---------------------------------------------------------------------------
# criteria 11-14: product rules, damping trend, twists, lower bound
# ---------------------------------------------------------------------------


def test_criterion_11_product_rules_and_creation():
    rng = random.Random(43)
    b = 2
    phi = bm.ZTRFunction(4, 8, GRID, {(0, 0): _profile(rng), (1, 1): _profile(rng)})
    a = SmoothElement({(1, 1): 0.6 - 0.2j, (0, 1): 0.4}, THETA)
    residuals = []
    for sign in (1, -1):
        xi_a = {(0, 0, p, q): c for (p, q), c in a.coeffs.items()}
        corr = du.angular_weight_correction(a, sign)
        xi_corr = {(0, 0, p, q): c for (p, q), c in corr.coeffs.items()}
        lhs = du.layered_line_dirac(bm.pair_module_right(phi, xi_a, THETA, b), sign, b)
        rhs = bm.pair_module_right(
            du.layered_line_dirac(phi, sign, b), xi_a, THETA, b
        ) + bm.pair_module_right(phi, xi_corr, THETA, b).scale(b)
        residuals.append(lhs.max_abs_difference(rhs))
        lhs2 = du.descended_line_dirac(bm.descended_left(a, phi, b), sign, b)
        rhs2 = bm.descended_left(
            a, du.descended_line_dirac(phi, sign, b), b
        ) + bm.descended_left(corr, phi, b).scale(b)
        residuals.append(lhs2.max_abs_difference(rhs2))
        psi = _profile(rng)
        outer = du.outer_with_profile(phi, psi)
        lhs3 = du.transformed_dirac(outer, sign, b) - du.outer_with_profile(
            phi, du.profile_dirac(psi, sign, b)
        )
        rhs3 = du.outer_with_profile(du.layered_line_dirac(phi, sign, b), psi)
        residuals.append(lhs3.max_abs_difference(rhs3))
    worst = _worst(residuals)
    assert worst < 1e-6
    _stamp(11, f"both product rules and the creation identity ({worst:.1e})")


def test_criterion_12_heat_damping_trend():
    f = lambda x: np.exp(-(x**2))

    def dense_norm(lam, level):
        # test-local reference: f(D) - P through a dense eigh of the odd operator
        a_plus = ladder_block(lam, level)
        dim_minus, dim_plus = a_plus.shape
        d = np.block(
            [[np.zeros((dim_plus, dim_plus)), a_plus.T], [a_plus, np.zeros((dim_minus, dim_minus))]]
        )
        vals, vecs = np.linalg.eigh(d)
        projector = np.zeros_like(d)
        i = 0 if lam > 0 else dim_plus
        projector[i, i] = 1.0
        return float(np.linalg.norm((vecs * f(vals)) @ vecs.T - projector, 2))

    def block_norm(lam, level):
        vals = dirac_eigenvalues(lam, level)
        return float(np.max(np.abs(f(vals) - (vals == 0))))

    for level in (24, 32):
        for lam in (1.0, 4.0, 16.0, 64.0, -3.0):
            dense = dense_norm(lam, level)
            assert abs(block_norm(lam, level) - dense) <= 1e-14 * dense
    norms = [block_norm(lam, 32) for lam in (1.0, 4.0, 16.0, 64.0)]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.05
    _stamp(12, f"contrast decreases {['%.3f' % v for v in norms]} with tail < 0.05")


def test_criterion_13_twist_group():
    samples = [
        KClass((1, 0), (1, 1)),
        KClass((0, 1), (0, 0)),
        KClass((2, -3), (5, -7)),
        KClass((-4, 9), (-1, 2)),
    ]
    for cls in samples:
        for b in range(-10, 11):
            assert twist_apply(-b, twist_apply(b, cls)) == cls
            for b_next in range(-10, 11):
                stacked = twist_apply(b_next, twist_apply(b, cls))
                assert stacked == twist_apply(twist_compose(b, b_next), cls)
    _stamp(13, "twist composition and inverses exact for degrees up to 10")


def test_criterion_14_diagonal_lower_bound():
    rng = random.Random(47)
    family = _twelve_set(rng)
    samples = [(0, 0.2, 0.5), (1, 0.6, -0.3), (0, 0.8, 1.1)]
    worst = _worst(
        (du.transformed_lower_bound_gap(fn, THETA, b, samples) for fn in family for b in (1, 2)),
        floor=-math.inf,
    )
    assert worst < 1e-6
    _stamp(14, f"diagonal dominates the line integral (margin {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 15: full-run determinism
# ---------------------------------------------------------------------------


def test_criterion_15_report_determinism(tmp_path):
    started = time.monotonic()
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    assert cli_main(["verify", "all", "--seed", "0", "--output", str(out1)]) == 0
    assert cli_main(["verify", "all", "--seed", "0", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["all_pass"] is True
    elapsed = time.monotonic() - started
    assert elapsed < 180.0
    _stamp(15, f"two full runs byte-identical in {elapsed:.1f}s")
