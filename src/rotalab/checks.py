"""Named verification checks grouped into runnable suites.

Each check draws its randomness from a seed derived from the run seed
and its own identifier, so a rerun with the same configuration yields
the same numbers. Checks are independent and run one after another; the
assembled report is sorted by identifier. Residuals reduce through
`_worst` or `np.max`, which both keep a NaN, so a NaN anywhere in a check
reaches the report and fails it. A check that raises fails too: its
entry has a NaN max_error and tolerance and an `error` field naming the
exception, and the other checks still run.
"""

import cmath
import math
import random
import zlib
from dataclasses import replace

import numpy as np

from . import bimodules as bm
from . import duality as du
from .closedform import GaussSum
from .groupoids import (
    FlowArrow,
    LineOrbitPoint,
    flow_act_on_line_orbit,
    flow_compose,
    flow_transport,
    lattice_arrow_from_times,
    lattice_arrow_to_times,
    lattice_compose,
    rotation_compose,
    transversal_roundtrip,
)
from .ktheory import KClass, twist_apply, twist_compose, twist_matrix
from .nctorus import (
    SmoothElement,
    _worst,
    basis_labels,
    interior_mask,
    nct_adjoint,
    nct_dolbeault,
    nct_multiply,
    nct_represent,
    nct_trace,
    pair_multiply,
)
from .oscillator import (
    bidiagonal_singular_values,
    functional_calculus,
    grid_dirac_plus_staggered,
    kernel_projector,
    kernel_dims,
    ladder_block,
    oracle_radius,
)
from .sampling import (
    flow_chain,
    lattice_chain,
    rational,
    rotation_chain,
    shear,
    theta_scalar,
    torus_point,
    transversal_point,
    unimodular,
)
from .scalars import THETA, IntMatrix2, ThetaScalar, torus_reduce

TWO_PI = 2.0 * math.pi
# tolerances of the closed-form checks and of the checks that route through quadrature
TOL_EXACT = 1e-10
TOL_QUAD = 1e-6

SUITE_NAMES = ("algebra", "oscillator", "groupoids", "bimodules", "duality", "ktheory")

_REGISTRY = {name: [] for name in SUITE_NAMES}


def _register(suite: str, name: str):
    def wrap(fn):
        _REGISTRY[suite].append((f"{suite}.{name}", fn))
        return fn

    return wrap


def _rng_for(check_id: str, seed: int) -> random.Random:
    return random.Random((seed * 1000003) ^ zlib.crc32(check_id.encode()))


# ---------------------------------------------------------------------------
# shared samplers for the analytic suites
# ---------------------------------------------------------------------------


def _profile(rng, freqs=(0.0,)):
    return GaussSum.bump(
        width=rng.uniform(1.0, 2.0),
        center=rng.uniform(-0.8, 0.8),
        freq=rng.choice(freqs),
        poly=(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
    )


def _random_tr(rng, grid):
    modes = rng.sample([-2, -1, 0, 1, 2], 3)
    return bm.TRFunction(8, grid, {m: _profile(rng, (-1.0, 0.0, 1.0)) for m in modes})


def _random_element(rng, theta, window=2, terms=3):
    coeffs = {}
    for _ in range(terms):
        key = (rng.randint(-window, window), rng.randint(-window, window))
        coeffs[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return SmoothElement(coeffs, theta)


def _sb_pair(rng, grid):
    def outer():
        return GaussSum.outer(_profile(rng), _profile(rng))

    f1 = du.SB2Function(
        1, 4, grid, grid, {(0, 0): outer(), (1, 1): outer()}
    )
    f2 = du.SB2Function(
        1, 4, grid, grid, {(0, 1): outer(), (-1, 0): outer()}
    )
    return f1, f2


_PAIR_SAMPLES = [(0, 0, 0.15, 0.4), (1, 0, 0.7, 0.2), (0, 1, 0.3, 0.8), (-1, 1, 0.5, 0.1)]


def _pair_difference(left, right):
    """Largest |left - right| over the sample points; NaN if any is NaN."""
    return _worst(abs(left.value(*s) - right.value(*s)) for s in _PAIR_SAMPLES)


# ---------------------------------------------------------------------------
# algebra suite: exact scalars and the truncated representations
# ---------------------------------------------------------------------------


@_register("algebra", "scalar_ring_laws")
def _scalar_ring_laws(cfg, rng):
    trials, bad = 200, 0
    for _ in range(trials):
        a = theta_scalar(rng)
        b = theta_scalar(rng)
        c = ThetaScalar.of(rational(rng))
        if (a + b) * c != a * c + b * c:
            bad += 1
        if (a * b) * c != a * (b * c):
            bad += 1
        if a + (b + c) != (a + b) + c:
            bad += 1
    return "quadratic scalar ring", {"trials": trials}, float(bad), 0.0


@_register("algebra", "torus_translation")
def _torus_translation(cfg, rng):
    trials, bad = 200, 0
    for _ in range(trials):
        x = torus_point(rng)
        t = theta_scalar(rng)
        moved = torus_reduce(x.x + t)
        back = torus_reduce(moved.x - t)
        if back != x:
            bad += 1
    return "circle translation roundtrip", {"trials": trials}, float(bad), 0.0


@_register("algebra", "generator_commutation")
def _generator_commutation(cfg, rng):
    theta = cfg.theta
    u = SmoothElement.u_power(1, theta)
    v = SmoothElement.v_power(1, theta)
    vu = nct_multiply(v, u)
    uv = nct_multiply(u, v).scale(cmath.exp(TWO_PI * 1j * theta))
    err = vu.max_abs_difference(uv)
    return "generator exchange relation", {"theta": theta}, err, TOL_EXACT


@_register("algebra", "adjoint_antihomomorphism")
def _adjoint_antihom(cfg, rng):
    errs = []
    for _ in range(10):
        a = _random_element(rng, cfg.theta)
        b = _random_element(rng, cfg.theta)
        lhs = nct_adjoint(nct_multiply(a, b))
        rhs = nct_multiply(nct_adjoint(b), nct_adjoint(a))
        errs.append(lhs.max_abs_difference(rhs))
        errs.append(nct_adjoint(nct_adjoint(a)).max_abs_difference(a))
    return "star reverses products", {"trials": 10}, _worst(errs), TOL_EXACT


@_register("algebra", "trace_properties")
def _trace_properties(cfg, rng):
    errs = []
    for _ in range(10):
        a = _random_element(rng, cfg.theta)
        b = _random_element(rng, cfg.theta)
        square = nct_trace(nct_multiply(nct_adjoint(a), a))
        centrality = abs(nct_trace(nct_multiply(a, b)) - nct_trace(nct_multiply(b, a)))
        # against the floor 0, -square.real counts only its negative part
        errs += [abs(square.imag), -square.real, centrality]
    return "trace positivity and centrality", {"trials": 10}, _worst(errs), TOL_EXACT


@_register("algebra", "representation_interior")
def _representation_interior(cfg, rng):
    size = 6
    errs = []
    for _ in range(3):
        a = _random_element(rng, cfg.theta)
        b = _random_element(rng, cfg.theta)
        wa, wb = a.window(), b.window()
        mask = interior_mask(size, size, wa[0] + wb[0], wa[1] + wb[1])
        pl = nct_represent(a, "left", size, size)
        pr = nct_represent(b, "right", size, size)
        errs.append(float(np.max(np.abs((pl @ pr - pr @ pl)[:, mask]))))
        pab = nct_represent(nct_multiply(a, b), "left", size, size)
        pbl = nct_represent(b, "left", size, size)
        errs.append(float(np.max(np.abs((pl @ pbl - pab)[:, mask]))))
    return "commuting truncated representations", {"window": size}, _worst(errs), TOL_EXACT


# ---------------------------------------------------------------------------
# oscillator suite: ladder spectrum, index, flat-torus operator
# ---------------------------------------------------------------------------


@_register("oscillator", "singular_value_law")
def _singular_value_law(cfg, rng):
    lam, level = cfg.lam, max(cfg.level_cut, 8)
    a_plus = ladder_block(lam, level)
    sv = np.sort(np.linalg.svd(a_plus, compute_uv=False))
    keep = max(1, level - 5)
    expected = np.sqrt(2.0 * abs(lam) * np.arange(1, level))
    rel = np.abs(sv[:keep] - expected[:keep]) / expected[:keep]
    return (
        "ladder singular values",
        {"lambda": lam, "levels": level, "compared": keep},
        float(np.max(rel)),
        TOL_EXACT,
    )


@_register("oscillator", "grid_oracle")
def _grid_oracle(cfg, rng):
    lam = cfg.lam
    radius = oracle_radius(lam, 0.0)
    # at a negative slope the block keeps a near-kernel singular value, compared with 0
    levels = np.arange(1, 11) if lam > 0 else np.arange(11)
    coarse, fine = (
        bidiagonal_singular_values(
            grid_dirac_plus_staggered(lam, 0.0, np.linspace(-radius, radius, n))
        )[: len(levels)]
        for n in (257, 513)
    )
    # the scheme is O(h^2) and 513 nodes halve the spacing of 257 on the same interval, so
    # Richardson's extrapolate cancels the h^2 term and leaves the h^4 one
    extrapolate = (4.0 * fine - coarse) / 3.0
    expected = np.sqrt(2.0 * abs(lam) * levels)
    err = float(np.max(np.abs(extrapolate - expected)))
    # the singular values scale with sqrt(|lambda|), and so does the tolerance
    tol = 1e-5 * math.sqrt(abs(lam))
    return "finite-difference spectral oracle", {"lambda": lam, "nodes": [257, 513]}, err, tol


@_register("oscillator", "index_signs")
def _index_signs(cfg, rng):
    bad = 0
    for lam in (0.5, 1.0, TWO_PI):
        for slope, index, kernels in ((lam, 1, (1, 0)), (-lam, -1, (0, 1))):
            pair = kernel_dims(slope, 32)
            if pair[0] - pair[1] != index:
                bad += 1
            # the index alone is cols - rows for any block; each kernel is not
            if pair != kernels:
                bad += 1
    return "kernel imbalance of the split operator", {"slopes": [0.5, 1.0, TWO_PI]}, float(bad), 0.0


@_register("oscillator", "dolbeault_square")
def _dolbeault_square(cfg, rng):
    size = min(cfg.mode_cut, 8)
    upper, lower = nct_dolbeault(size, size)
    labels = basis_labels(size, size)
    expected = np.array([(TWO_PI * k) ** 2 + (TWO_PI * l) ** 2 for l, k in labels])
    diag_err = float(np.max(np.abs(upper * lower - expected)))
    # self-adjoint: the lower block diagonal is the conjugate of the upper
    sym_err = float(np.max(np.abs(lower - upper.conj())))
    return (
        "flat-torus operator squares diagonally",
        {"window": size},
        _worst((diag_err, sym_err)),
        1e-12,
    )


@_register("oscillator", "heat_contrast_decay")
def _heat_contrast_decay(cfg, rng):
    f = lambda x: np.exp(-(x**2))
    level = 24
    norms = []
    for lam in (1.0, 4.0, 16.0, 64.0):
        diff = functional_calculus(f, lam, level) - kernel_projector(lam, level)
        norms.append(float(np.linalg.norm(diff, 2)))
    rises = [b - a for a, b in zip(norms, norms[1:])]
    err = _worst(rises + [norms[-1] - 0.05])
    return (
        "heat damping concentrates on the kernel",
        {"slopes": [1.0, 4.0, 16.0, 64.0], "final_norm": norms[-1]},
        err,
        0.0,
    )


# ---------------------------------------------------------------------------
# groupoid suite: exact composition laws and equivalences
# ---------------------------------------------------------------------------


def _batch_laws(chains, compose):
    bad = 0
    for f, h, j in chains:
        if compose(compose(f, h), j) != compose(f, compose(h, j)):
            bad += 1
        if not compose(f, f.inverse()).is_unit:
            bad += 1
        if not compose(f.inverse(), f).is_unit:
            bad += 1
    return bad


@_register("groupoids", "rotation_laws")
def _rotation_laws(cfg, rng):
    trials = 300
    chains = [rotation_chain(rng) for _ in range(trials)]
    bad = _batch_laws(chains, rotation_compose)
    return "orbit groupoid laws", {"triples": trials}, float(bad), 0.0


@_register("groupoids", "flow_laws")
def _flow_laws(cfg, rng):
    trials = 300
    chains = [flow_chain(rng, 3) for _ in range(trials)]
    bad = _batch_laws(chains, flow_compose)
    # each chain's first arrow carries the line-orbit point over its source to its range
    for arrow, _, _ in chains:
        sx, sy = arrow.source
        point = LineOrbitPoint(sx - sy.x * THETA, sy.x)
        if flow_act_on_line_orbit(arrow, point).position() != arrow.range:
            bad += 1
    return "flow groupoid laws", {"triples": trials}, float(bad), 0.0


@_register("groupoids", "lattice_laws")
def _lattice_laws(cfg, rng):
    trials = 100
    bad = 0
    for b in (1, 2, 3):
        g = shear(b)
        chains = [lattice_chain(rng, g, 3) for _ in range(trials)]
        bad += _batch_laws(chains, lattice_compose)
        # each chain's first arrow has the source of the flow arrow by its first time
        for a, _, _ in chains:
            if FlowArrow.from_time(*a.range, a.first_time()).source != a.source:
                bad += 1
    return "doubled-label groupoid laws", {"triples": 3 * trials}, float(bad), 0.0


@_register("groupoids", "matrix_functoriality")
def _matrix_functoriality(cfg, rng):
    trials, bad = 50, 0
    for _ in range(trials):
        m, n = unimodular(rng), unimodular(rng)
        a = flow_chain(rng, 1)[0]
        if flow_transport(flow_transport(a, m), n) != flow_transport(a, n @ m):
            bad += 1
        f, h = flow_chain(rng, 2)
        if flow_transport(flow_compose(f, h), m) != flow_compose(
            flow_transport(f, m), flow_transport(h, m)
        ):
            bad += 1
    return "matrix transport is functorial", {"pairs": trials}, float(bad), 0.0


@_register("groupoids", "transversal_roundtrip")
def _transversal_roundtrip(cfg, rng):
    trials, bad = 100, 0
    for b in (1, 2, 3):
        for _ in range(trials):
            z = transversal_point(rng, b)
            if transversal_roundtrip(z, rng.randint(-3, 3), rng.randint(-3, 3)) != z:
                bad += 1
    return "transversal relabeling roundtrip", {"samples": 3 * trials}, float(bad), 0.0


@_register("groupoids", "lattice_times_roundtrip")
def _lattice_times_roundtrip(cfg, rng):
    trials, bad = 100, 0
    for b in (1, 2, 3):
        g = shear(b)
        for _ in range(trials):
            a = lattice_chain(rng, g, 1)[0]
            t1, t2 = lattice_arrow_to_times(a)
            if lattice_arrow_from_times(a.range[0], a.range[1], t1, t2, g) != a:
                bad += 1
    return "label pair to time pair roundtrip", {"samples": 3 * trials}, float(bad), 0.0


# ---------------------------------------------------------------------------
# bimodule suite: inner products, unitaries, descent
# ---------------------------------------------------------------------------


def _grid_of(cfg):
    return bm.RGrid(cfg.radius, cfg.grid_nodes)


@_register("bimodules", "line_inner_dual_routes")
def _line_inner_dual_routes(cfg, rng):
    grid = _grid_of(cfg)
    errs = []
    for _ in range(3):
        phi, psi = _random_tr(rng, grid), _random_tr(rng, grid)
        errs.append(
            bm.line_module_inner(phi, psi, "grid").max_abs_difference(
                bm.line_module_inner(phi, psi, "closed")
            )
        )
    return "line pairing, quadrature vs closed form", {"pairs": 3}, _worst(errs), 1e-8


@_register("bimodules", "line_axioms")
def _line_axioms(cfg, rng):
    grid = _grid_of(cfg)
    theta = cfg.theta
    errs = []
    for _ in range(2):
        phi, psi = _random_tr(rng, grid), _random_tr(rng, grid)
        f = bm.CTValued({-1: 0.4 + 0.1j, 0: 1.0, 1: 0.3 - 0.2j})
        inner = bm.line_module_inner(phi, psi, "closed")
        lhs = bm.line_module_inner(phi, bm.line_module_right(psi, f), "closed")
        errs.append(lhs.max_abs_difference(inner.mul(f)))
        sym = inner.star()
        errs.append(sym.max_abs_difference(bm.line_module_inner(psi, phi, "closed")))
        adj_l = bm.line_module_inner(bm.line_module_left(phi, f, 1), psi, "closed")
        adj_r = bm.line_module_inner(phi, bm.line_module_left(psi, f.star(), 1), "closed")
        errs.append(adj_l.max_abs_difference(adj_r))
        tr = bm.line_module_translate(phi, 3, theta)
        cov = bm.line_module_inner(tr, bm.line_module_translate(psi, 3, theta), "closed")
        errs.append(cov.max_abs_difference(inner.rotate(3, theta)))
    return "line module axioms", {"pairs": 2, "theta": theta}, _worst(errs), TOL_EXACT


@_register("bimodules", "shear_unitarity")
def _shear_unitarity(cfg, rng):
    grid = _grid_of(cfg)
    b = cfg.b
    errs = []
    for _ in range(12):
        phi, psi = _random_tr(rng, grid), _random_tr(rng, grid)
        moved = bm.sheared_module_inner(
            bm.shear_unitary(phi, b), bm.shear_unitary(psi, b), b, "closed"
        )
        fixed = bm.line_module_inner(phi, psi, "closed")
        errs.append(moved.max_abs_difference(fixed))
    return "rescaling unitary preserves pairings", {"pairs": 12, "b": b}, _worst(errs), TOL_QUAD


@_register("bimodules", "dirac_conjugation")
def _dirac_conjugation(cfg, rng):
    grid = _grid_of(cfg)
    errs = []
    for b in (1, 2):
        phi = _random_tr(rng, grid)
        for sign in (1, -1):
            inner_op = bm.sheared_dirac(bm.shear_unitary(phi, b), sign, b)
            conjugated = bm.shear_unitary(inner_op, b, inverse=True).scale(b)
            expected = phi.map(
                lambda m, p: p.mul_poly((0.0, TWO_PI * b)) + p.derivative().scale(sign)
            )
            errs.append(conjugated.max_abs_difference(expected))
    return (
        "conjugated line operator is weighted position plus derivative",
        {"b_values": [1, 2]},
        _worst(errs),
        TOL_QUAD,
    )


@_register("bimodules", "descended_axioms")
def _descended_axioms(cfg, rng):
    grid = _grid_of(cfg)
    theta, b = cfg.theta, cfg.b
    psi1 = bm.ZTRFunction(4, 8, grid, {(0, 0): _profile(rng), (1, 1): _profile(rng)})
    psi2 = bm.ZTRFunction(4, 8, grid, {(0, 1): _profile(rng), (-1, 0): _profile(rng)})
    a = _random_element(rng, theta, window=1, terms=2)
    unit = bm.descended_left(SmoothElement.unit(theta), psi1, b).max_abs_difference(psi1)
    lhs = bm.descended_inner(bm.descended_left(a, psi1, b), psi2, theta, "closed")
    rhs = bm.descended_inner(psi1, bm.descended_left(nct_adjoint(a), psi2, b), theta, "closed")
    inner = bm.descended_inner(psi1, psi2, theta, "closed")
    hodge = nct_adjoint(inner)
    compat = bm.descended_inner(psi1, bm.descended_right(psi2, a), theta, "closed")
    direct = nct_multiply(inner, a)
    worst = _worst(
        (
            unit,
            lhs.max_abs_difference(rhs),
            hodge.max_abs_difference(bm.descended_inner(psi2, psi1, theta, "closed")),
            compat.max_abs_difference(direct),
        )
    )
    return "descended module axioms", {"theta": theta, "b": b}, worst, TOL_EXACT


@_register("bimodules", "pair_associativity")
def _pair_associativity(cfg, rng):
    grid = _grid_of(cfg)
    theta, b = cfg.theta, cfg.b
    phi = bm.ZTRFunction(4, 8, grid, {(0, 0): _profile(rng), (1, -1): _profile(rng)})
    xi = {(0, 0, 0, 0): 0.5, (1, 0, 0, 1): 0.7 - 0.2j}
    # eta's second term does not commute with xi's second, so a reversed product shows
    eta = {(0, 1, 1, 0): 0.4 + 0.3j, (0, 1, 0, 1): -0.3 + 0.1j}
    stacked = bm.pair_module_right(bm.pair_module_right(phi, xi, theta, b), eta, theta, b)
    direct = bm.pair_module_right(phi, pair_multiply(xi, eta, theta), theta, b)
    worst = stacked.max_abs_difference(direct)
    return "doubled action is associative", {"theta": theta, "b": b}, worst, 1e-10


@_register("bimodules", "descent_oracle")
def _descent_oracle(cfg, rng):
    grid = _grid_of(cfg)
    theta = cfg.theta
    f1 = bm.ZTRFunction(2, 8, grid, {(0, 0): _profile(rng), (1, 1): _profile(rng)})
    f2 = bm.ZTRFunction(2, 8, grid, {(0, 1): _profile(rng), (-1, 0): _profile(rng)})
    inner = bm.descent_inner(f1, f2, theta, 1, "closed")
    oracle = bm.descent_inner_oracle(f1, f2, theta, 1)
    errs = []
    for l in (-1, 0, 1):
        layer = bm.CTValued({m: c for (m, ll), c in inner.coeffs.items() if ll == l})
        for x in (0.15, 0.6):
            errs.append(abs(layer.value_at(x) - oracle(x, l)))
    worst = _worst(errs)
    return "descent pairing against the fiber average", {"theta": theta}, worst, 1e-8


# ---------------------------------------------------------------------------
# duality suite: the composite transform and its certificates
# ---------------------------------------------------------------------------


@_register("duality", "composite_roundtrip")
def _composite_roundtrip(cfg, rng):
    grid = _grid_of(cfg)
    errs = []
    for _ in range(2):
        fn, _ = _sb_pair(rng, grid)
        for b in sorted({1, cfg.b}):
            back = du.full_transform(du.full_transform(fn, b, cfg.theta), b, cfg.theta, inverse=True)
            errs.append(back.max_abs_difference(fn))
    return "composite transform inverts", {"b_values": sorted({1, cfg.b})}, _worst(errs), TOL_QUAD


@_register("duality", "conjugation_residuals")
def _conjugation_residuals(cfg, rng):
    grid = _grid_of(cfg)
    fn, _ = _sb_pair(rng, grid)
    worst = _worst(v for b in (1, 2) for v in du.conjugation_report(fn, b, cfg.theta).values())
    return "transported multipliers and derivatives", {"b_values": [1, 2]}, worst, TOL_QUAD


@_register("duality", "transform_unitarity")
def _transform_unitarity(cfg, rng):
    grid = _grid_of(cfg)
    f1, f2 = _sb_pair(rng, grid)
    b = cfg.b
    fixed = du.base_inner(f1, f2, cfg.theta, "closed")
    moved = du.transformed_inner(
        du.full_transform(f1, b, cfg.theta),
        du.full_transform(f2, b, cfg.theta),
        cfg.theta,
        b,
        "closed",
    )
    return "pairings agree through the transform", {"b": b}, _pair_difference(fixed, moved), TOL_QUAD


@_register("duality", "resolvent_identity")
def _resolvent_identity(cfg, rng):
    grid = _grid_of(cfg)
    f1, f2 = _sb_pair(rng, grid)
    worst = _worst((du.resolvent_residual(f1, f2, 1), du.resolvent_residual(f1, f2, -1)))
    return "shifted operator inverts pointwise", {"signs": [1, -1]}, worst, 1e-12


@_register("duality", "leibniz_creation")
def _leibniz_creation(cfg, rng):
    grid = _grid_of(cfg)
    theta, b = cfg.theta, max(1, abs(cfg.b))
    phi = bm.ZTRFunction(4, 8, grid, {(0, 0): _profile(rng), (1, 1): _profile(rng)})
    a = SmoothElement({(1, 1): 0.6 - 0.2j, (0, 1): 0.4}, theta)
    errs = []
    for sign in (1, -1):
        xi_a = {(0, 0, p, q): c for (p, q), c in a.coeffs.items()}
        corr = du.angular_weight_correction(a, sign)
        xi_corr = {(0, 0, p, q): c for (p, q), c in corr.coeffs.items()}
        lhs = du.layered_line_dirac(bm.pair_module_right(phi, xi_a, theta, b), sign, b)
        rhs = bm.pair_module_right(
            du.layered_line_dirac(phi, sign, b), xi_a, theta, b
        ) + bm.pair_module_right(phi, xi_corr, theta, b).scale(b)
        errs.append(lhs.max_abs_difference(rhs))
        lhs2 = du.descended_line_dirac(bm.descended_left(a, phi, b), sign, b)
        rhs2 = bm.descended_left(
            a, du.descended_line_dirac(phi, sign, b), b
        ) + bm.descended_left(corr, phi, b).scale(b)
        errs.append(lhs2.max_abs_difference(rhs2))
        psi = _profile(rng)
        outer = du.outer_with_profile(phi, psi, grid)
        lhs3 = du.transformed_dirac(outer, sign, b) - du.outer_with_profile(
            phi, du.profile_dirac(psi, sign, b), grid
        )
        rhs3 = du.outer_with_profile(du.layered_line_dirac(phi, sign, b), psi, grid)
        errs.append(lhs3.max_abs_difference(rhs3))
    return "product rules for the split operator", {"b": b}, _worst(errs), TOL_QUAD


@_register("duality", "diagonal_lower_bound")
def _diagonal_lower_bound(cfg, rng):
    grid = _grid_of(cfg)
    f1, _ = _sb_pair(rng, grid)
    samples = [(0, 0.2, 0.5), (1, 0.6, -0.3), (0, 0.8, 1.1)]
    # the signed largest gap, negative while the bound holds, so the report shows its margin
    worst = _worst(
        (
            du.transformed_lower_bound_gap(f1, cfg.theta, b, samples)
            for b in sorted({1, abs(cfg.b) or 1})
        ),
        floor=-math.inf,
    )
    return "diagonal dominates the line integral", {"samples": len(samples)}, worst, TOL_QUAD


@_register("duality", "inner_dual_routes")
def _duality_dual_routes(cfg, rng):
    grid = _grid_of(cfg)
    f1, f2 = _sb_pair(rng, grid)
    base_grid = du.base_inner(f1, f2, cfg.theta, "grid")
    base_closed = du.base_inner(f1, f2, cfg.theta, "closed")
    b = max(1, abs(cfg.b))
    t_grid = du.transformed_inner(f1, f2, cfg.theta, b, "grid")
    t_closed = du.transformed_inner(f1, f2, cfg.theta, b, "closed")
    worst = _worst(
        (_pair_difference(base_grid, base_closed), _pair_difference(t_grid, t_closed))
    )
    return "pairings, quadrature vs closed form", {"b": b}, worst, 1e-8


# ---------------------------------------------------------------------------
# integer invariant suite
# ---------------------------------------------------------------------------

_K_SAMPLES = [
    KClass((1, 0), (1, 1)),
    KClass((0, 1), (0, 0)),
    KClass((2, -3), (5, -7)),
    KClass((-4, 9), (-1, 2)),
]


@_register("ktheory", "twist_group_law")
def _twist_group_law(cfg, rng):
    bad = 0
    for cls in _K_SAMPLES:
        for b in range(-10, 11):
            for b_next in range(-10, 11):
                stacked = twist_apply(b_next, twist_apply(b, cls))
                if stacked != twist_apply(twist_compose(b, b_next), cls):
                    bad += 1
    return "twists compose additively", {"degree_window": 10}, float(bad), 0.0


@_register("ktheory", "twist_inverse")
def _twist_inverse(cfg, rng):
    bad = 0
    for cls in _K_SAMPLES:
        for b in range(-10, 11):
            if twist_apply(-b, twist_apply(b, cls)) != cls:
                bad += 1
            if (twist_matrix(b) @ twist_matrix(-b)) != IntMatrix2.identity():
                bad += 1
    return "opposite twists cancel", {"degree_window": 10}, float(bad), 0.0


@_register("ktheory", "fixed_parts")
def _fixed_parts(cfg, rng):
    bad = 0
    for b in range(-10, 11):
        if twist_apply(b, KClass((1, 0), (2, 3))).k0 != (1, 0):
            bad += 1
        for cls in _K_SAMPLES:
            # the direction the ktheory docstring states, (x, y) -> (x + b*y, y)
            x, y = cls.k0
            if twist_apply(b, cls) != KClass((x + b * y, y), cls.k1):
                bad += 1
    return "unit class and odd part are fixed", {"degree_window": 10}, float(bad), 0.0


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def run_suite(name: str, config) -> dict:
    """Run every check in the named suite and assemble a sorted report.

    Only theta mod 1 matters to A_theta, so the checks see theta reduced
    into [0, 1) once, here; the config block keeps the angle as given.
    """
    suites = SUITE_NAMES if name == "all" else (name,)
    reduced = replace(config, theta=config.theta - math.floor(config.theta))
    entries = []
    for check_id, fn in [item for suite in suites for item in _REGISTRY[suite]]:
        raised = {}
        try:
            anchor, params, max_error, tolerance = fn(reduced, _rng_for(check_id, config.seed))
        except Exception as exc:
            anchor, params, max_error, tolerance = "", {}, math.nan, math.nan
            raised = {"error": f"{type(exc).__name__}: {exc}"}
        entries.append(
            {
                "check_id": check_id,
                "anchor": anchor,
                "params": params,
                "max_error": float(max_error),
                "tolerance": float(tolerance),
                "pass": bool(max_error <= tolerance),
                **raised,
            }
        )
    entries.sort(key=lambda entry: entry["check_id"])
    return {
        "suite": name,
        "config": config.as_dict(),
        "checks": entries,
        "all_pass": all(entry["pass"] for entry in entries),
    }
