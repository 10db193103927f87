"""Transform layer: the two module structures and split operators.

The composite transform is built from closed-form substitutions, so the
roundtrip, conjugation and unitarity checks come out near machine
precision; the stated tolerances are the contract-level bounds.
"""

import cmath
import math
import random

import numpy as np
import pytest

from rotalab.bimodules import (
    APairValued,
    RGrid,
    ZTRFunction,
    descended_left,
    pair_module_right,
)
from rotalab import bimodules as bm
from rotalab import checks
from rotalab import duality as du
from rotalab.checks import _pair_difference
from rotalab.cli import RunConfig
from rotalab.closedform import GaussSum
from rotalab.duality import (
    SB2Function,
    angular_weight_correction,
    base_dirac,
    base_inner,
    base_right_act,
    conjugation_report,
    descended_line_dirac,
    fourier_slot_quadrature,
    fourier_slot_transform,
    full_transform,
    layered_line_dirac,
    outer_with_profile,
    profile_dirac,
    resolvent_residual,
    shear_substitution,
    transformed_dirac,
    transformed_inner,
    transformed_lower_bound_gap,
    transformed_right_act,
)
from rotalab.errors import AliasingDetected, TruncationTooSmall
from rotalab.nctorus import SmoothElement, _worst

THETA = 0.7071067811865476
GRID = RGrid(10.0, 128)
TWO_PI = 2.0 * math.pi


def bump(width, center, freq=0.0, poly=(1.0,)):
    return GaussSum.bump(width=width, center=center, freq=freq, poly=poly)


def sb(profiles, z_max=2, mode_max=6):
    return SB2Function(z_max, mode_max, GRID, GRID, profiles)


def standard_function():
    return sb(
        {
            (0, 0): GaussSum.outer(bump(1.3, 0.2), bump(1.1, -0.3)),
            (1, 1): GaussSum.outer(bump(1.6, -0.4, 1.0), bump(1.4, 0.1)),
            (-1, -2): GaussSum.outer(bump(1.2, 0.0, 0.0, (0.0, 1.0)), bump(1.8, 0.2)),
        }
    )


def small_pair():
    f1 = SB2Function(
        1, 4, GRID, GRID,
        {
            (0, 0): GaussSum.outer(bump(1.3, 0.2), bump(1.1, -0.3)),
            (1, 1): GaussSum.outer(bump(1.6, -0.4), bump(1.4, 0.1)),
        },
    )
    f2 = SB2Function(
        1, 4, GRID, GRID,
        {
            (0, 1): GaussSum.outer(bump(1.5, -0.1), bump(1.2, 0.3)),
            (-1, 0): GaussSum.outer(bump(1.2, 0.3), bump(1.7, -0.2)),
        },
    )
    return f1, f2


def twelve_element_set():
    shapes = [
        lambda: GaussSum.outer(bump(1.2, 0.3), bump(1.5, -0.2)),
        lambda: GaussSum.outer(bump(1.8, -0.4, 1.0), bump(1.1, 0.1)),
        lambda: GaussSum.outer(bump(1.4, 0.0, 0.0, (0.0, 1.0)), bump(1.3, 0.4)),
    ]
    out = []
    for key1 in [(0, 0), (1, -1)]:
        for key2 in [(-1, 1), (2, 2)]:
            for shape in shapes:
                out.append(sb({key1: shape(), key2: shape().scale(0.5j)}))
    return out


# (l1, l2, v, w) sample points with both jumps nonzero among them
COSET_SAMPLES = [
    (0, 0, 0.15, 0.4),
    (1, 0, 0.7, 0.2),
    (0, 1, 0.3, 0.8),
    (-1, 1, 0.5, 0.1),
    (1, -2, 0.85, 0.35),
    (2, 1, 0.05, 0.6),
]


def coset_pair():
    """small_pair plus modulated, polynomial-weighted profiles in more modes."""
    f1, f2 = small_pair()
    f1 = f1 + SB2Function(
        1, 4, GRID, GRID,
        {(0, -1): GaussSum.outer(bump(1.4, 0.1, 1.0, (0.5, 1.0)), bump(1.3, -0.2))},
    )
    f2 = f2 + SB2Function(
        1, 4, GRID, GRID,
        {(0, 2): GaussSum.outer(bump(1.2, -0.3), bump(1.5, 0.2, -1.0, (1.0, -0.5)))},
    )
    return f1, f2


def _profile_pairs(fn1, fn2, k1, k_other):
    for (kk1, m1), g1 in fn1.profiles.items():
        if kk1 != k1:
            continue
        for (kk2, m2), g2 in fn2.profiles.items():
            if kk2 == k_other:
                yield m1, g1, m2, g2


def base_inner_per_point(fn1, fn2, theta, l1, l2, v, w):
    """The closed route of base_inner, restricted and integrated per coset point."""
    cut = int(math.ceil(fn1.rgrid.radius + fn1.z_max + 2))
    total = 0j
    for k1 in range(-fn1.z_max, fn1.z_max + 1):
        k_other = k1 + l2 - l1
        if abs(k_other) > fn2.z_max:
            continue
        x1 = v - k1 * theta
        x2 = v - (k1 + l2) * theta
        for k2 in range(-cut, cut + 1):
            rho = k2 + k1 * theta - v + w
            for m1, g1, m2, g2 in _profile_pairs(fn1, fn2, k1, k_other):
                line1 = g1.conjugate().restrict_line((0.0, 1.0), (rho, 0.0))
                line2 = g2.restrict_line((0.0, 1.0), (rho, 0.0))
                phase = cmath.exp(-TWO_PI * 1j * m1 * x1) * cmath.exp(TWO_PI * 1j * m2 * x2)
                total += phase * (line1 * line2).modulate(l2).integral()
    return total


def transformed_inner_per_point(fn1, fn2, theta, b, l1, l2, v, w):
    """The closed route of transformed_inner, restricted and integrated per coset point."""
    cut = int(math.ceil(abs(b) * (fn1.rgrid.radius + 2) + fn1.z_max + 2))
    total = 0j
    for k1 in range(-fn1.z_max, fn1.z_max + 1):
        k_other = k1 + l2 - l1
        if abs(k_other) > fn2.z_max:
            continue
        x2 = v - l1 * theta
        for k2 in range(-cut, cut + 1):
            c0 = (k2 + k1 * theta - v + w) / b
            for m1, g1, m2, g2 in _profile_pairs(fn1, fn2, k1, k_other):
                line1 = g1.conjugate().restrict_line((-1.0, 1.0), (c0, 0.0))
                line2 = g2.restrict_line((-1.0, 1.0), (c0 + l1, float(-l2)))
                phase = cmath.exp(-TWO_PI * 1j * m1 * v) * cmath.exp(TWO_PI * 1j * m2 * x2)
                total += phase * (line1 * line2).integral()
    return total


class TestClosedCosetSums:
    def test_base_inner_matches_per_point_integrals(self):
        f1, f2 = coset_pair()
        gram = base_inner(f1, f2, THETA, "closed")
        for l1, l2, v, w in COSET_SAMPLES:
            expected = base_inner_per_point(f1, f2, THETA, l1, l2, v, w)
            assert abs(gram.value(l1, l2, v, w) - expected) < 1e-13

    @pytest.mark.parametrize("b", [1, 2])
    def test_transformed_inner_matches_per_point_integrals(self, b):
        f1, f2 = coset_pair()
        gram = transformed_inner(f1, f2, THETA, b, "closed")
        for l1, l2, v, w in COSET_SAMPLES:
            expected = transformed_inner_per_point(f1, f2, THETA, b, l1, l2, v, w)
            assert abs(gram.value(l1, l2, v, w) - expected) < 1e-13

    @pytest.mark.parametrize(
        "build",
        [
            lambda f1, f2: base_inner(f1, f2, THETA, "closed"),
            lambda f1, f2: transformed_inner(f1, f2, THETA, 1, "closed"),
            lambda f1, f2: transformed_inner(f1, f2, THETA, 2, "closed"),
        ],
        ids=["base", "transformed-b1", "transformed-b2"],
    )
    def test_kept_line_integrals_do_not_depend_on_request_order(self, build):
        f1, f2 = coset_pair()
        forward, backward = build(f1, f2), build(f1, f2)
        first = [forward.value(*s) for s in COSET_SAMPLES]
        last = [backward.value(*s) for s in reversed(COSET_SAMPLES)]
        assert first == last[::-1]
        assert [forward.value(*s) for s in reversed(COSET_SAMPLES)] == last


def _layer_samples(fn, k, x, r, s):
    """Layer k of fn at circle point x, or None when fn has no profile there."""
    total = None
    for (kk, m), g in fn.profiles.items():
        if kk == k:
            piece = g(r, s) * cmath.exp(TWO_PI * 1j * m * x)
            total = piece if total is None else total + piece
    return total


def base_inner_per_offset(fn1, fn2, theta, l1, l2, v, w):
    """The quadrature route of base_inner, one coset offset at a time."""
    cut = int(math.ceil(fn1.rgrid.radius + fn1.z_max + 2))
    t, wt = fn1.sgrid.nodes(), fn1.sgrid.weights()
    total = 0j
    for k1 in range(-fn1.z_max, fn1.z_max + 1):
        k_other = k1 + l2 - l1
        if abs(k_other) > fn2.z_max:
            continue
        for k2 in range(-cut, cut + 1):
            rho = k2 + k1 * theta - v + w
            left = _layer_samples(fn1, k1, v - k1 * theta, rho, t)
            right = _layer_samples(fn2, k_other, v - (k1 + l2) * theta, rho, t)
            if left is None or right is None:
                continue
            total += complex(np.sum(wt * np.exp(TWO_PI * 1j * t * l2) * np.conj(left) * right))
    return total


def transformed_inner_per_offset(fn1, fn2, theta, b, l1, l2, v, w):
    """The quadrature route of transformed_inner, one coset offset at a time."""
    cut = int(math.ceil(abs(b) * (fn1.rgrid.radius + 2) + fn1.z_max + 2))
    t, wt = fn1.sgrid.nodes(), fn1.sgrid.weights()
    total = 0j
    for k1 in range(-fn1.z_max, fn1.z_max + 1):
        k_other = k1 + l2 - l1
        if abs(k_other) > fn2.z_max:
            continue
        for k2 in range(-cut, cut + 1):
            c0 = (k2 + k1 * theta - v + w) / b
            left = _layer_samples(fn1, k1, v, c0 - t, t)
            right = _layer_samples(fn2, k_other, v - l1 * theta, c0 - t + l1, t - l2)
            if left is None or right is None:
                continue
            total += complex(np.sum(wt * np.conj(left) * right))
    return total


class TestQuadratureCosetSums:
    """The quadrature routes over all offsets at once against the per-offset loops.

    coset_pair has layer 1 only in f1 and layer -1 only in f2, and
    COSET_SAMPLES has jumps with l1 != 0 and with l2 != 0.
    """

    def test_base_inner_matches_per_offset_sums(self):
        f1, f2 = coset_pair()
        gram = base_inner(f1, f2, THETA, "grid")
        for l1, l2, v, w in COSET_SAMPLES:
            expected = base_inner_per_offset(f1, f2, THETA, l1, l2, v, w)
            assert abs(gram.value(l1, l2, v, w) - expected) < 1e-13

    @pytest.mark.parametrize("b", [1, 2])
    def test_transformed_inner_matches_per_offset_sums(self, b):
        f1, f2 = coset_pair()
        gram = transformed_inner(f1, f2, THETA, b, "grid")
        for l1, l2, v, w in COSET_SAMPLES:
            expected = transformed_inner_per_offset(f1, f2, THETA, b, l1, l2, v, w)
            assert abs(gram.value(l1, l2, v, w) - expected) < 1e-13

    def test_slot_quadrature_of_a_missing_layer_is_zero(self):
        got = fourier_slot_quadrature(standard_function(), 2, 0.2, 0.1, [0.5, -1.0])
        assert got.dtype == complex and np.array_equal(got, np.zeros(2))


def split_grid_pair(seed):
    """Random profile pairs whose first slot has a coarse rule and whose second slot a fine one."""
    rng = random.Random(seed)
    rgrid, sgrid = RGrid(10.0, 24), RGrid(10.0, 128)

    def outer():
        return GaussSum.outer(checks._profile(rng), checks._profile(rng))

    f1 = SB2Function(1, 4, rgrid, sgrid, {(0, 0): outer(), (1, 1): outer()})
    f2 = SB2Function(1, 4, rgrid, sgrid, {(0, 1): outer(), (-1, 0): outer()})
    return f1, f2


@pytest.mark.parametrize("seed", range(5))
def test_quadrature_integrates_the_second_slot_on_its_own_rule(seed):
    """Both pairings integrate over the second slot, so a coarse first-slot rule costs nothing."""
    f1, f2 = split_grid_pair(seed)
    pairings = (
        lambda route: base_inner(f1, f2, THETA, route),
        lambda route: transformed_inner(f1, f2, THETA, 2, route),
    )
    for pairing in pairings:
        assert _pair_difference(pairing("grid"), pairing("closed")) < 1e-8


def windowed_pair_sum(fn1, fn2, layer_pair, l_max):
    """The layer loop pairing each layer of fn1 with every partner inside fn2's window.

    It calls layer_pair also where fn2 holds no profile at the partner layer.
    """

    def fn(l1, l2, v, w):
        total = 0j
        for k1 in fn1.layers():
            k2 = k1 + l2 - l1
            if abs(k2) <= fn2.z_max:
                total += layer_pair(k1, k2, l1, l2, v, w)
        return np.asarray(total).tolist()

    return APairValued(fn, l_max, THETA)


def pair_inner_every_partner(phi, psi, b):
    """pair_module_inner on windowed_pair_sum, with numpy's sum method per layer pair."""
    offsets = bm._coset_offsets(abs(b), phi.grid.radius + 2, phi.z_max)

    def layer_pair(k1, k2, l1, l2, v, w):
        v = np.asarray(v)[..., None]
        r0 = (offsets + k1 * THETA + w - v) / b
        left = phi.eval_at(k1, v, r0)
        right = psi.eval_at(k2, v - l1 * THETA, r0 + l1)
        out = np.empty(r0.shape[:-1], dtype=complex)
        out.real = (left.real * right.real + left.imag * right.imag).sum(axis=-1)
        out.imag = (left.real * right.imag - left.imag * right.real).sum(axis=-1)
        return out

    return windowed_pair_sum(phi, psi, layer_pair, 2 * phi.z_max)


def _closed_sum_per_call(fn1, fn2, k1, k2, line, x1, x2, offsets):
    """The closed coset sum with each line factor, the conjugate included, built per call."""
    total = 0j
    for m1, g1 in fn1.layer_profiles(k1).items():
        for m2, g2 in fn2.layer_profiles(k2).items():
            h = line(g1, g2)
            ph1 = cmath.exp(-TWO_PI * 1j * m1 * x1)
            ph2 = cmath.exp(TWO_PI * 1j * m2 * x2)
            total += ph1 * ph2 * complex(np.sum(h(offsets)))
    return total


def base_inner_every_partner(fn1, fn2, route):
    """base_inner on windowed_pair_sum, its closed route building every factor per call."""
    offsets = bm._coset_offsets(1, fn1.rgrid.radius, fn1.z_max)
    t, wt = fn1.sgrid.nodes(), fn1.sgrid.weights()

    def layer_pair(k1, k2, l1, l2, v, w):
        x1 = v - k1 * THETA
        x2 = v - (k1 + l2) * THETA
        rho = offsets + k1 * THETA - v + w
        if route == "closed":

            def line(g1, g2):
                return (g1.conjugate() * g2).modulate(0, l2).integral_slot(1)

            return _closed_sum_per_call(fn1, fn2, k1, k2, line, x1, x2, rho)
        left = fn1.eval_at(k1, x1, rho[:, None], t)
        right = fn2.eval_at(k2, x2, rho[:, None], t)
        return complex(np.sum(wt * np.exp(TWO_PI * 1j * t * l2) * np.conj(left) * right))

    return windowed_pair_sum(fn1, fn2, layer_pair, 2 * max(fn1.z_max, fn2.z_max))


def transformed_inner_every_partner(fn1, fn2, b, route):
    """transformed_inner on windowed_pair_sum, its closed route building every factor per call."""
    offsets = bm._coset_offsets(abs(b), fn1.rgrid.radius + 2, fn1.z_max)
    t, wt = fn1.sgrid.nodes(), fn1.sgrid.weights()

    def layer_pair(k1, k2, l1, l2, v, w):
        x2 = v - l1 * THETA
        c0 = (offsets + k1 * THETA - v + w) / b
        if route == "closed":

            def line(g1, g2):
                left = g1.conjugate().affine(1.0, -1.0, 0.0, 1.0, 0.0, 0.0)
                right = g2.affine(1.0, -1.0, 0.0, 1.0, float(l1), float(-l2))
                return (left * right).integral_slot(1)

            return _closed_sum_per_call(fn1, fn2, k1, k2, line, v, x2, c0)
        left = fn1.eval_at(k1, v, c0[:, None] - t, t)
        right = fn2.eval_at(k2, x2, c0[:, None] - t + l1, t - l2)
        return complex(np.sum(wt * np.conj(left) * right))

    return windowed_pair_sum(fn1, fn2, layer_pair, 2 * max(fn1.z_max, fn2.z_max))


# a right multiplier with terms where p1 q1 != 0 and where p2 q2 != 0
SKIP_XI = {(0, 0, 0, 0): 0.7, (1, 1, 0, 0): 0.3 - 0.2j, (0, 0, 1, -1): -0.4 + 0.1j}


def transversal_pair():
    """Layers {0, 1} and {-1, 0} in windows of 4, so most in-window partners hold no profile."""
    rng = random.Random(28)

    def profile():
        return GaussSum.bump(
            rng.uniform(1.0, 2.0), rng.uniform(-0.8, 0.8), rng.choice((-1, 1)),
            (rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )

    phi = ZTRFunction(4, 8, GRID, {(0, 0): profile(), (1, -1): profile()})
    psi = ZTRFunction(4, 8, GRID, {(0, 1): profile(), (-1, 0): profile()})
    return phi, psi


class TestPartnerSkipKeepsTheBits:
    """Each evaluator against the loop over every in-window partner, bit for bit.

    The reference calls each layer pair also where the partner layer holds
    no profile, and builds each closed line factor per call. Both function
    pairs have in-window partner layers without a profile at the samples.
    """

    @staticmethod
    def assert_same_bits(got, expected):
        for form, reference in (
            (got, expected),
            (got.star(), expected.star()),
            (got.right_mult(SKIP_XI), expected.right_mult(SKIP_XI)),
        ):
            for sample in checks._PAIR_SAMPLES:
                value = form.value(*sample)
                assert type(value) is complex
                assert value == reference.value(*sample)

    @staticmethod
    def assert_skips_a_partner(fn1, fn2):
        assert any(
            abs(k + l2 - l1) <= fn2.z_max and k + l2 - l1 not in fn2.layers()
            for l1, l2, _, _ in checks._PAIR_SAMPLES
            for k in fn1.layers()
        )

    @pytest.mark.parametrize("b", [1, 2])
    def test_pair_module_inner(self, b):
        phi, psi = transversal_pair()
        self.assert_skips_a_partner(phi, psi)
        self.assert_same_bits(
            bm.pair_module_inner(phi, psi, THETA, b), pair_inner_every_partner(phi, psi, b)
        )

    @pytest.mark.parametrize("route", ["closed", "grid"])
    def test_base_inner(self, route):
        f1, f2 = coset_pair()
        self.assert_skips_a_partner(f1, f2)
        self.assert_same_bits(
            base_inner(f1, f2, THETA, route), base_inner_every_partner(f1, f2, route)
        )

    @pytest.mark.parametrize("route", ["closed", "grid"])
    @pytest.mark.parametrize("b", [1, 2])
    def test_transformed_inner(self, b, route):
        f1, f2 = coset_pair()
        self.assert_skips_a_partner(f1, f2)
        self.assert_same_bits(
            transformed_inner(f1, f2, THETA, b, route),
            transformed_inner_every_partner(f1, f2, b, route),
        )


class TestStandardSet:
    def test_standard_set_decays_at_boundary(self):
        """The quadrature tests rely on the test functions vanishing at the grid edge."""
        for fn in twelve_element_set():
            r, s = (grid.nodes() for grid in fn.grids)
            rings = ((r[[0, -1], None], s[None, :]), (r[:, None], s[None, [0, -1]]))
            edge = _worst(
                float(np.max(np.abs(g(*ring)))) for g in fn.profiles.values() for ring in rings
            )
            assert edge < 1e-12 * fn.sup_norm()


class TestBaseModule:
    def test_unit_tensor_is_identity(self):
        fn = standard_function()
        acted = base_right_act(fn, {(0, 0, 0, 0): 1.0}, THETA)
        assert acted.max_abs_difference(fn) == 0.0

    def test_second_factor_shift_generator_substitutes(self):
        fn = standard_function()
        k2 = 1
        acted = base_right_act(fn, {(0, 0, 0, k2): 1.0}, THETA)
        for k in (0, 1):
            for x, r, s in [(0.2, 0.4, -0.3), (0.7, -1.1, 0.6)]:
                direct = fn.eval_at(k - k2, x + k2 * THETA, r, s) * cmath.exp(
                    -TWO_PI * 1j * k2 * s
                )
                assert abs(acted.eval_at(k, x, r, s) - direct) < 1e-14

    def test_window_escape_raises(self):
        fn = standard_function()
        with pytest.raises(TruncationTooSmall):
            base_right_act(fn, {(0, 3, 0, 0): 1.0}, THETA)

    def test_inner_star_symmetry(self):
        f1, f2 = small_pair()
        forward = base_inner(f1, f2, THETA, "closed").star()
        backward = base_inner(f2, f1, THETA, "closed")
        assert _pair_difference(forward, backward) < 1e-12

    def test_inner_right_compatibility(self):
        f1, f2 = small_pair()
        xi = {(1, 1, 0, 1): 0.8 - 0.3j}
        lhs = base_inner(f1, base_right_act(f2, xi, THETA), THETA, "closed")
        rhs = base_inner(f1, f2, THETA, "closed").right_mult(xi)
        assert _pair_difference(lhs, rhs) < 1e-12

    def test_inner_diagonal_real(self):
        f1, _ = small_pair()
        gram = base_inner(f1, f1, THETA, "closed")
        for v in (0.1, 0.5, 0.85):
            value = gram.value(0, 0, v, v)
            assert value.imag == 0.0
            assert value.real > 0.0

    def test_inner_dual_routes(self):
        f1, f2 = small_pair()
        grid_route = base_inner(f1, f2, THETA, "grid")
        closed_route = base_inner(f1, f2, THETA, "closed")
        assert _pair_difference(grid_route, closed_route) < 1e-8


class TestBaseDirac:
    def test_square_is_radius_squared(self):
        fn = standard_function()
        twice = base_dirac(base_dirac(fn, 1), -1)
        expected = SB2Function(
            fn.z_max, fn.mode_max, fn.rgrid, fn.sgrid,
            {
                key: g.mul_poly([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
                for key, g in fn.profiles.items()
            },
        )
        assert twice.max_abs_difference(expected) < 1e-13

    def test_plus_and_minus_adjoint_in_inner(self):
        f1, f2 = small_pair()
        lhs = base_inner(base_dirac(f1, 1), f2, THETA, "closed")
        rhs = base_inner(f1, base_dirac(f2, -1), THETA, "closed")
        assert _pair_difference(lhs, rhs) < 1e-12

    def test_restriction_to_zero_second_slot_multiplies_by_r(self):
        fn = standard_function()
        plus = base_dirac(fn, 1)
        for k, x, r in [(0, 0.3, 0.7), (1, 0.6, -1.2)]:
            assert abs(plus.eval_at(k, x, r, 0.0) - r * fn.eval_at(k, x, r, 0.0)) < 1e-14


class TestTransforms:
    def test_slot_fourier_fixes_selfdual_gaussian(self):
        selfdual = bump(TWO_PI, 0.0)
        fn = sb({(0, 0): GaussSum.outer(bump(1.0, 0.0), selfdual)})
        moved = fourier_slot_transform(fn)
        assert moved.max_abs_difference(fn) < 1e-13

    def test_slot_fourier_roundtrip(self):
        fn = standard_function()
        back = fourier_slot_transform(fourier_slot_transform(fn), inverse=True)
        assert back.max_abs_difference(fn) < 1e-13

    def test_shear_substitution_roundtrip_exact(self):
        fn = standard_function()
        for b in (1, 2, 3):
            back = shear_substitution(
                shear_substitution(fn, b, THETA), b, THETA, inverse=True
            )
            assert back.max_abs_difference(fn) < 1e-13

    def test_composite_roundtrip_on_twelve_functions(self):
        for fn in twelve_element_set():
            for b in (1, 2):
                back = full_transform(full_transform(fn, b, THETA), b, THETA, inverse=True)
                assert back.max_abs_difference(fn) < 1e-6

    def test_quadrature_route_matches_closed_form(self):
        fn = standard_function()
        closed = fourier_slot_transform(fn)
        s_values = [0.5, 1.5, -2.0]
        got = fourier_slot_quadrature(fn, 0, 0.2, 0.1, s_values)
        for i, s in enumerate(s_values):
            assert abs(got[i] - closed.eval_at(0, 0.2, 0.1, s)) < 1e-10

    def test_quadrature_route_detects_aliasing(self):
        fn = standard_function()
        with pytest.raises(AliasingDetected):
            fourier_slot_quadrature(fn, 0, 0.2, 0.1, [5.0])


class TestConjugation:
    def test_residuals_small_on_standard_function(self):
        fn = standard_function()
        for b in (1, 2):
            report = conjugation_report(fn, b, THETA)
            for value in report.values():
                assert value < 1e-6

    def test_zero_function_gives_zero_residuals(self):
        zero = sb({})
        report = conjugation_report(zero, 1, THETA)
        assert all(value == 0.0 for value in report.values())

    def test_conjugated_multiplication_is_linear_in_shear(self):
        fn = standard_function()

        def conjugated_mul_r(b):
            moved = full_transform(fn, b, THETA, inverse=True)
            multiplied = SB2Function(
                moved.z_max, moved.mode_max, moved.rgrid, moved.sgrid,
                {key: g.mul_poly([[0.0], [1.0]]) for key, g in moved.profiles.items()},
            )
            return full_transform(multiplied, b, THETA)

        doubled = conjugated_mul_r(2)
        single = conjugated_mul_r(1)
        assert doubled.max_abs_difference(single.scale(2.0)) < 1e-12


class TestResolvent:
    def test_pointwise_residual_tiny(self):
        rng = random.Random(5)
        f1, f2 = small_pair()
        for sign in (1, -1):
            assert resolvent_residual(f1, f2.scale(rng.uniform(0.5, 2.0)), sign) < 1e-12

    def test_shifted_operators_adjoint_in_inner(self):
        f1, f2 = small_pair()
        lhs = base_inner(base_dirac(f1, 1) + f1.scale(1j), f2, THETA, "closed")
        rhs = base_inner(f1, base_dirac(f2, -1) + f2.scale(-1j), THETA, "closed")
        assert _pair_difference(lhs, rhs) < 1e-12


class TestTransformedModule:
    def test_unit_tensor_is_identity(self):
        f1, _ = small_pair()
        acted = transformed_right_act(f1, {(0, 0, 0, 0): 1.0}, THETA, 2)
        assert acted.max_abs_difference(f1) == 0.0

    def test_transform_is_unitary_between_structures(self):
        f1, f2 = small_pair()
        for b in (1, 2):
            fixed = base_inner(f1, f2, THETA, "closed")
            moved = transformed_inner(
                full_transform(f1, b, THETA),
                full_transform(f2, b, THETA),
                THETA,
                b,
                "closed",
            )
            assert _pair_difference(fixed, moved) < 1e-6

    def test_inner_right_compatibility(self):
        f1, f2 = small_pair()
        xi = {(1, 1, 0, 1): 0.8 - 0.3j}
        for b in (1, 2):
            lhs = transformed_inner(
                f1, transformed_right_act(f2, xi, THETA, b), THETA, b, "closed"
            )
            rhs = transformed_inner(f1, f2, THETA, b, "closed").right_mult(xi)
            assert _pair_difference(lhs, rhs) < 1e-12

    def test_inner_dual_routes(self):
        f1, f2 = small_pair()
        grid_route = transformed_inner(f1, f2, THETA, 2, "grid")
        closed_route = transformed_inner(f1, f2, THETA, 2, "closed")
        assert _pair_difference(grid_route, closed_route) < 1e-8

    def test_diagonal_dominates_single_line_integral(self):
        f1, _ = small_pair()
        samples = [(0, 0.2, 0.5), (1, 0.6, -0.3), (0, 0.8, 1.1)]
        for b in (1, 2):
            assert transformed_lower_bound_gap(f1, THETA, b, samples) < 1e-6


class TestSplitOperators:
    def test_unit_correction_vanishes(self):
        one = SmoothElement.unit(THETA)
        for sign in (1, -1):
            assert angular_weight_correction(one, sign).coeffs == {}

    def test_shift_generator_correction_is_itself(self):
        shift = SmoothElement.u_power(1, THETA)
        for sign in (1, -1):
            corrected = angular_weight_correction(shift, sign)
            assert corrected.max_abs_difference(shift) == 0.0

    def test_layered_side_product_rule(self):
        phi = ZTRFunction(4, 8, GRID, {(0, 0): bump(1.3, 0.2), (1, 1): bump(1.6, -0.4, 1.0)})
        a = SmoothElement({(1, 1): 0.6 - 0.2j, (0, 1): 0.4}, THETA)
        b = 2
        for sign in (1, -1):
            xi_a = {(0, 0, p, q): c for (p, q), c in a.coeffs.items()}
            corr = angular_weight_correction(a, sign)
            xi_corr = {(0, 0, p, q): c for (p, q), c in corr.coeffs.items()}
            lhs = layered_line_dirac(pair_module_right(phi, xi_a, THETA, b), sign, b)
            rhs = pair_module_right(
                layered_line_dirac(phi, sign, b), xi_a, THETA, b
            ) + pair_module_right(phi, xi_corr, THETA, b).scale(b)
            assert lhs.max_abs_difference(rhs) < 1e-12

    def test_descended_side_product_rule(self):
        psi = ZTRFunction(4, 8, GRID, {(0, 0): bump(1.2, 0.1), (-1, 1): bump(1.5, 0.3)})
        a = SmoothElement({(1, 1): 0.6 - 0.2j, (0, 1): 0.4}, THETA)
        b = 2
        for sign in (1, -1):
            corr = angular_weight_correction(a, sign)
            lhs = descended_line_dirac(descended_left(a, psi, b), sign, b)
            rhs = descended_left(
                a, descended_line_dirac(psi, sign, b), b
            ) + descended_left(corr, psi, b).scale(b)
            assert lhs.max_abs_difference(rhs) < 1e-12

    def test_creation_identity_on_outer_products(self):
        phi = ZTRFunction(4, 8, GRID, {(0, 0): bump(1.3, 0.2), (1, 1): bump(1.6, -0.4, 1.0)})
        psi = bump(1.4, -0.2, 0.0, (0.3, 1.0))
        b = 2
        for sign in (1, -1):
            outer = outer_with_profile(phi, psi)
            lhs = transformed_dirac(outer, sign, b) - outer_with_profile(
                phi, profile_dirac(psi, sign, b)
            )
            rhs = outer_with_profile(layered_line_dirac(phi, sign, b), psi)
            assert lhs.max_abs_difference(rhs) < 1e-6


class TestNanResiduals:
    def test_sup_norm_keeps_nan(self):
        fn = standard_function() + sb(
            {(2, 2): GaussSum.outer(bump(1.0, 0.0, 0.0, (math.nan,)), bump(1.0, 0.0))}
        )
        assert math.isnan(fn.sup_norm())

    @staticmethod
    def nan_in_layer_one():
        return standard_function() + sb(
            {(1, 2): GaussSum.outer(bump(1.0, 0.0, 0.0, (math.nan,)), bump(1.0, 0.0))}
        )

    def test_lower_bound_gap_keeps_nan_and_its_sign(self):
        samples = [(0, 0.2, 0.5), (1, 0.6, -0.3)]
        assert math.isnan(transformed_lower_bound_gap(self.nan_in_layer_one(), THETA, 1, samples))
        # finite input keeps the signed gap, not clamped at zero
        assert transformed_lower_bound_gap(standard_function(), THETA, 1, samples) < 0.0

    def test_diagonal_lower_bound_check_keeps_nan(self, monkeypatch):
        monkeypatch.setattr(du, "transformed_lower_bound_gap", lambda *args: math.nan)
        check = dict(checks._REGISTRY["duality"])["duality.diagonal_lower_bound"]
        _, _, max_error, _ = check(RunConfig(), random.Random(0))
        assert math.isnan(max_error)

    def test_diagonal_lower_bound_check_reports_the_signed_gap(self, monkeypatch):
        gaps = []
        original = du.transformed_lower_bound_gap

        def recorded(*args):
            gaps.append(original(*args))
            return gaps[-1]

        monkeypatch.setattr(du, "transformed_lower_bound_gap", recorded)
        check = dict(checks._REGISTRY["duality"])["duality.diagonal_lower_bound"]
        _, _, max_error, _ = check(RunConfig(), random.Random(0))
        # the largest gap itself, negative while the bound holds, not clamped at zero
        assert gaps and max_error == max(gaps) < 0.0

    def test_resolvent_residual_keeps_nan(self):
        for sign in (1, -1):
            assert math.isnan(resolvent_residual(self.nan_in_layer_one(), standard_function(), sign))
            assert math.isnan(resolvent_residual(standard_function(), self.nan_in_layer_one(), sign))
            assert resolvent_residual(standard_function(), standard_function(), sign) < 1e-12

    def test_check_pair_difference_keeps_nan(self):
        finite = APairValued(lambda l1, l2, v, w: 1.0, 1, THETA)
        broken = APairValued(lambda l1, l2, v, w: math.nan if l2 == 1 else 1.0, 1, THETA)
        assert math.isnan(_pair_difference(finite, broken))
        assert _pair_difference(finite, finite) == 0.0


def _line_function():
    return bm.TRFunction(4, GRID, {0: bump(1.2, 0.1), 1: bump(1.4, -0.2, 0.5)})


def _layered_function():
    return ZTRFunction(3, 8, GRID, {(0, 0): bump(1.2, 0.1), (1, 1): bump(1.4, -0.2, 0.5)})


SIGN_GUARDED = {
    "sheared_dirac": lambda s: bm.sheared_dirac(_line_function(), s, 1),
    "base_dirac": lambda s: base_dirac(standard_function(), s),
    "transformed_dirac": lambda s: transformed_dirac(standard_function(), s, 1),
    "layered_line_dirac": lambda s: layered_line_dirac(_layered_function(), s, 1),
    "profile_dirac": lambda s: profile_dirac(bump(1.2, 0.1), s, 1),
    "angular_weight_correction": lambda s: angular_weight_correction(
        SmoothElement({(1, 1): 1.0}, THETA), s
    ),
    "resolvent_residual": lambda s: resolvent_residual(standard_function(), standard_function(), s),
    "descended_line_dirac": lambda s: descended_line_dirac(_layered_function(), s, 1),
}
SHEAR_GUARDED = {
    "sheared_module_inner": lambda: bm.sheared_module_inner(_line_function(), _line_function(), 0),
    "shear_unitary": lambda: bm.shear_unitary(_line_function(), 0),
    "sheared_dirac": lambda: bm.sheared_dirac(_line_function(), 1, 0),
    "pair_module_inner": lambda: bm.pair_module_inner(
        _layered_function(), _layered_function(), THETA, 0
    ),
    "shear_substitution": lambda: shear_substitution(standard_function(), 0, THETA),
    "transformed_right_act": lambda: transformed_right_act(
        standard_function(), {(0, 0, 0, 0): 1.0}, THETA, 0
    ),
    "transformed_inner": lambda: transformed_inner(
        standard_function(), standard_function(), THETA, 0
    ),
}
GUARDED_CALLS = [
    pytest.param(lambda call=call, s=s: call(s), "sign", id=f"{name}-sign={s}")
    for name, call in SIGN_GUARDED.items()
    for s in (0, 2)
] + [pytest.param(call, "shear", id=f"{name}-b=0") for name, call in SHEAR_GUARDED.items()]


@pytest.mark.parametrize("call, precondition", GUARDED_CALLS)
def test_a_sign_outside_plus_minus_one_or_a_zero_shear_raises(call, precondition):
    with pytest.raises(ValueError, match=precondition):
        call()


# single-term elements of the doubled algebra, as (p1, q1, p2, q2)
DOUBLED_TERMS = [
    (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
    (0, 0, 0, 1), (1, -1, 2, 1), (-2, 1, -1, -1),
]


def _one_layer_function():
    return sb({(0, 0): GaussSum.outer(bump(1.3, 0.2), bump(1.1, -0.3))}, z_max=1)


# each right action with its operand, and a key whose term would leave the layer window
ZERO_STEP_ACTIONS = {
    "pair_module_right": (
        lambda xi: pair_module_right(_layered_function(), xi, THETA, 2),
        (0, 9, 0, 0),
    ),
    "base_right_act": (lambda xi: base_right_act(_one_layer_function(), xi, THETA), (0, 5, 0, 0)),
    "transformed_right_act": (
        lambda xi: transformed_right_act(_one_layer_function(), xi, THETA, 2),
        (0, 5, 0, 0),
    ),
}


@pytest.mark.parametrize("act, key", ZERO_STEP_ACTIONS.values(), ids=ZERO_STEP_ACTIONS.keys())
def test_a_zero_coefficient_past_the_layer_window_is_skipped(act, key):
    assert act({key: 0.0}).profiles == {}
    with pytest.raises(TruncationTooSmall):
        act({key: 1.0})


@pytest.mark.parametrize("b", [1, 2, -3])
def test_transform_side_action_is_the_transversal_action_tensored(b):
    # on phi (x) p the transform-side action moves phi as the transversal action
    # does and p by s -> s + q2 with the plane wave e^{2 pi i p2 b s}
    phi = ZTRFunction(
        3, 8, GRID,
        {(0, 0): bump(1.2, 0.1), (1, 1): bump(1.4, -0.2, 0.5), (-1, -2): bump(1.1, 0.3)},
    )
    p = bump(1.3, -0.1, 0.2)
    for p1, q1, p2, q2 in DOUBLED_TERMS:
        xi = {(p1, q1, p2, q2): 0.7 - 0.4j}
        lhs = transformed_right_act(outer_with_profile(phi, p), xi, THETA, b)
        moved = pair_module_right(phi, xi, THETA, b)
        rhs = outer_with_profile(moved, p.affine(1.0, float(q2)).modulate(p2 * b))
        assert lhs.max_abs_difference(rhs) < 1e-14
