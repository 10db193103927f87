"""Transform layer: seminorms, the two module structures, and split operators.

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
from rotalab import checks
from rotalab import duality as du
from rotalab.checks import _pair_difference
from rotalab.cli import RunConfig
from rotalab.closedform import GaussSum1, GaussSum2
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
    i_norm,
    layered_line_dirac,
    outer_with_profile,
    profile_dirac,
    resolvent_residual,
    resolvent_solve,
    sb_seminorm,
    shear_substitution,
    transformed_dirac,
    transformed_inner,
    transformed_lower_bound_gap,
    transformed_right_act,
)
from rotalab.errors import AliasingDetected, TruncationTooSmall
from rotalab.nctorus import SmoothElement

THETA = 0.7071067811865476
GRID = RGrid(10.0, 128)
TWO_PI = 2.0 * math.pi


def bump(width, center, freq=0.0, poly=(1.0,)):
    return GaussSum1.bump(width=width, center=center, freq=freq, poly=poly)


def sb(profiles, z_max=2, mode_max=6):
    return SB2Function(z_max, mode_max, GRID, GRID, profiles)


def standard_function():
    return sb(
        {
            (0, 0): GaussSum2.outer(bump(1.3, 0.2), bump(1.1, -0.3)),
            (1, 1): GaussSum2.outer(bump(1.6, -0.4, 1.0), bump(1.4, 0.1)),
            (-1, -2): GaussSum2.outer(bump(1.2, 0.0, 0.0, (0.0, 1.0)), bump(1.8, 0.2)),
        }
    )


def small_pair():
    f1 = SB2Function(
        1, 4, GRID, GRID,
        {
            (0, 0): GaussSum2.outer(bump(1.3, 0.2), bump(1.1, -0.3)),
            (1, 1): GaussSum2.outer(bump(1.6, -0.4), bump(1.4, 0.1)),
        },
    )
    f2 = SB2Function(
        1, 4, GRID, GRID,
        {
            (0, 1): GaussSum2.outer(bump(1.5, -0.1), bump(1.2, 0.3)),
            (-1, 0): GaussSum2.outer(bump(1.2, 0.3), bump(1.7, -0.2)),
        },
    )
    return f1, f2


def twelve_element_set():
    shapes = [
        lambda: GaussSum2.outer(bump(1.2, 0.3), bump(1.5, -0.2)),
        lambda: GaussSum2.outer(bump(1.8, -0.4, 1.0), bump(1.1, 0.1)),
        lambda: GaussSum2.outer(bump(1.4, 0.0, 0.0, (0.0, 1.0)), bump(1.3, 0.4)),
    ]
    out = []
    for key1 in [(0, 0), (1, -1)]:
        for key2 in [(-1, 1), (2, 2)]:
            for shape in shapes:
                out.append(sb({key1: shape(), key2: shape().scale(0.5j)}))
    return out


SAMPLES = [(0, 0, 0.15, 0.4), (1, 0, 0.7, 0.2), (0, 1, 0.3, 0.8), (-1, 1, 0.5, 0.1)]


def pair_difference(left: APairValued, right: APairValued) -> float:
    return max(abs(left.value(*s) - right.value(*s)) for s in SAMPLES)


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
        {(0, -1): GaussSum2.outer(bump(1.4, 0.1, 1.0, (0.5, 1.0)), bump(1.3, -0.2))},
    )
    f2 = f2 + SB2Function(
        1, 4, GRID, GRID,
        {(0, 2): GaussSum2.outer(bump(1.2, -0.3), bump(1.5, 0.2, -1.0, (1.0, -0.5)))},
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
    t, wt = fn1.rgrid.nodes(), fn1.rgrid.weights()
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


class TestSeminorms:
    def test_weight_zero_is_plain_sup(self):
        fn = sb({(0, 0): GaussSum2.outer(bump(1.0, 0.0), bump(1.0, 0.0))})
        assert abs(sb_seminorm(fn, 0) - fn.sup_norm()) < 1e-12

    def test_homogeneous_under_scaling(self):
        fn = standard_function()
        for n, alpha in [(0, (0, 0)), (2, (1, 0)), (4, (0, 2))]:
            assert abs(
                sb_seminorm(fn.scale(2.0), n, alpha) - 2.0 * sb_seminorm(fn, n, alpha)
            ) < 1e-9

    def test_heavier_tail_weighs_more(self):
        light = sb({(0, 0): GaussSum2.outer(bump(2.0, 0.0), bump(2.0, 0.0))})
        heavy = sb({(0, 0): GaussSum2.outer(bump(0.5, 0.0), bump(0.5, 0.0))})
        assert sb_seminorm(heavy, 6) > sb_seminorm(light, 6)

    def test_monotone_in_weight_on_outward_mass(self):
        fn = sb({(2, 0): GaussSum2.outer(bump(1.0, 2.0), bump(1.0, 0.0))})
        values = [sb_seminorm(fn, n) for n in (0, 2, 4, 6)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_standard_set_decays_at_boundary(self):
        for fn in twelve_element_set():
            assert fn.boundary_decay_ratio() < 1e-12


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
        assert pair_difference(forward, backward) < 1e-12

    def test_inner_right_compatibility(self):
        f1, f2 = small_pair()
        xi = {(1, 1, 0, 1): 0.8 - 0.3j}
        lhs = base_inner(f1, base_right_act(f2, xi, THETA), THETA, "closed")
        rhs = base_inner(f1, f2, THETA, "closed").right_mult(xi)
        assert pair_difference(lhs, rhs) < 1e-12

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
        assert pair_difference(grid_route, closed_route) < 1e-8


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
        assert pair_difference(lhs, rhs) < 1e-12

    def test_restriction_to_zero_second_slot_multiplies_by_r(self):
        fn = standard_function()
        plus = base_dirac(fn, 1)
        for k, x, r in [(0, 0.3, 0.7), (1, 0.6, -1.2)]:
            assert abs(plus.eval_at(k, x, r, 0.0) - r * fn.eval_at(k, x, r, 0.0)) < 1e-14


class TestTransforms:
    def test_slot_fourier_fixes_selfdual_gaussian(self):
        selfdual = bump(TWO_PI, 0.0)
        fn = sb({(0, 0): GaussSum2.outer(bump(1.0, 0.0), selfdual)})
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
    def test_zero_data_gives_zero_solution(self):
        zero = sb({})
        phi1, phi2 = resolvent_solve(zero, zero, 1)
        assert phi1 == {} and phi2 == {}

    def test_pointwise_residual_tiny(self):
        rng = random.Random(5)
        f1, f2 = small_pair()
        for sign in (1, -1):
            assert resolvent_residual(f1, f2.scale(rng.uniform(0.5, 2.0)), sign) < 1e-12

    def test_shifted_operators_adjoint_in_inner(self):
        f1, f2 = small_pair()
        lhs = base_inner(base_dirac(f1, 1) + f1.scale(1j), f2, THETA, "closed")
        rhs = base_inner(f1, base_dirac(f2, -1) + f2.scale(-1j), THETA, "closed")
        assert pair_difference(lhs, rhs) < 1e-12


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
            assert pair_difference(fixed, moved) < 1e-6

    def test_inner_right_compatibility(self):
        f1, f2 = small_pair()
        xi = {(1, 1, 0, 1): 0.8 - 0.3j}
        for b in (1, 2):
            lhs = transformed_inner(
                f1, transformed_right_act(f2, xi, THETA, b), THETA, b, "closed"
            )
            rhs = transformed_inner(f1, f2, THETA, b, "closed").right_mult(xi)
            assert pair_difference(lhs, rhs) < 1e-12

    def test_inner_dual_routes(self):
        f1, f2 = small_pair()
        grid_route = transformed_inner(f1, f2, THETA, 2, "grid")
        closed_route = transformed_inner(f1, f2, THETA, 2, "closed")
        assert pair_difference(grid_route, closed_route) < 1e-8

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
            outer = outer_with_profile(phi, psi, GRID)
            lhs = transformed_dirac(outer, sign, b) - outer_with_profile(
                phi, profile_dirac(psi, sign, b), GRID
            )
            rhs = outer_with_profile(layered_line_dirac(phi, sign, b), psi, GRID)
            assert lhs.max_abs_difference(rhs) < 1e-6


class TestINorm:
    def delta(self, coeff, theta=THETA):
        return APairValued(
            lambda l1, l2, v, w: coeff if (l1, l2) == (0, 0) else 0j, 1, theta
        )

    def test_point_mass_at_unit_gives_modulus(self):
        assert abs(i_norm(self.delta(0.7 + 0.1j)) - abs(0.7 + 0.1j)) < 1e-14

    def test_subadditive(self):
        f1, f2 = small_pair()
        g1 = base_inner(f1, f2, THETA, "closed")
        g2 = self.delta(0.5 - 0.3j)
        total = i_norm(g1 + g2, points=2)
        assert total <= i_norm(g1, points=2) + i_norm(g2, points=2) + 1e-10

    def test_gram_norm_finite_and_positive(self):
        f1, f2 = small_pair()
        value = i_norm(base_inner(f1, f2, THETA, "closed"), points=2)
        assert math.isfinite(value)
        assert value > 0.0

    def test_bounded_against_seminorm_across_family(self):
        _, f2 = small_pair()
        ratios = []
        for i in range(10):
            center = -0.9 + 0.2 * i
            scalec = 0.5 + 0.3 * i
            f1 = SB2Function(
                1, 4, GRID, GRID,
                {
                    (0, 0): GaussSum2.outer(bump(1.3, center), bump(1.1, -center)).scale(scalec),
                    (1, 1): GaussSum2.outer(bump(1.6, -0.4), bump(1.4, center)),
                },
            )
            gram = i_norm(base_inner(f1, f2, THETA, "closed"), points=2)
            weight = sb_seminorm(f1, 6)
            ratios.append(gram / weight)
        assert all(math.isfinite(r) for r in ratios)
        assert max(ratios) <= 25.0 * min(ratios)


class TestNanResiduals:
    def test_sup_norm_and_seminorm_keep_nan(self):
        fn = standard_function() + sb(
            {(2, 2): GaussSum2.outer(bump(1.0, 0.0, 0.0, (math.nan,)), bump(1.0, 0.0))}
        )
        assert math.isnan(fn.sup_norm())
        assert math.isnan(sb_seminorm(fn, 0))
        assert math.isnan(sb_seminorm(fn, 4, (1, 0)))

    def test_i_norm_keeps_nan(self):
        gram = APairValued(
            lambda l1, l2, v, w: math.nan if (l1, l2) == (1, 0) else 1.0, 1, THETA
        )
        assert math.isnan(i_norm(gram, points=2))

    @staticmethod
    def nan_in_layer_one():
        return standard_function() + sb(
            {(1, 2): GaussSum2.outer(bump(1.0, 0.0, 0.0, (math.nan,)), bump(1.0, 0.0))}
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

    def test_resolvent_residual_keeps_nan(self):
        for sign in (1, -1):
            assert math.isnan(resolvent_residual(self.nan_in_layer_one(), standard_function(), sign))
            assert math.isnan(resolvent_residual(standard_function(), self.nan_in_layer_one(), sign))
            assert resolvent_residual(standard_function(), standard_function(), sign) < 1e-12

    def test_boundary_decay_ratio_keeps_nan(self):
        assert math.isnan(self.nan_in_layer_one().boundary_decay_ratio())
        assert standard_function().boundary_decay_ratio() < 1e-12

    def test_check_pair_difference_keeps_nan(self):
        finite = APairValued(lambda l1, l2, v, w: 1.0, 1, THETA)
        broken = APairValued(lambda l1, l2, v, w: math.nan if l2 == 1 else 1.0, 1, THETA)
        assert math.isnan(_pair_difference(finite, broken))
        assert _pair_difference(finite, finite) == 0.0
