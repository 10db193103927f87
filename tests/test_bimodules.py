"""Module structures: inner products, actions, the unitary and the operators.

Identities that only regroup phases and shifts are checked near machine
precision. Identities that compare the quadrature route against the
closed-form route, or two genuinely different quadrature sums, get the
looser tolerances. Test profiles keep net modulation frequencies at or
below two so the default 128-node rule stays accurate.
"""

import cmath
import math
import random

import numpy as np
import pytest

from rotalab.bimodules import (
    ORACLE_Y_COUNT,
    APairValued,
    CTValued,
    RGrid,
    TRFunction,
    ZTRFunction,
    _coset_offsets,
    descended_inner,
    descended_left,
    descended_right,
    descent_inner,
    descent_inner_oracle,
    descent_left,
    descent_right,
    line_module_inner,
    line_module_left,
    line_module_right,
    line_module_translate,
    pair_module_inner,
    pair_module_right,
    shear_unitary,
    sheared_dirac,
    sheared_module_inner,
)
from rotalab.closedform import GaussSum
from rotalab.duality import SB2Function, base_inner, transformed_inner
from rotalab.errors import GridMismatch, TruncationTooSmall
from rotalab.nctorus import (
    SmoothElement,
    lambda_power,
    nct_adjoint,
    nct_multiply,
    nct_trace,
    pair_multiply,
)

THETA = 0.7071067811865476
GRID = RGrid(10.0, 128)
TWO_PI = 2.0 * math.pi


def bump(width, center, freq=0.0, poly=(1.0,)):
    return GaussSum.bump(width=width, center=center, freq=freq, poly=poly)


def random_profile(rng, freqs=(-1, 0, 1)):
    return bump(
        rng.uniform(1.0, 2.0),
        rng.uniform(-0.8, 0.8),
        rng.choice(freqs),
        (rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )


def random_tr(rng, mode_max=8, modes=(-2, -1, 0, 1, 2), freqs=(-1, 0, 1)):
    chosen = rng.sample(list(modes), 3)
    return TRFunction(mode_max, GRID, {m: random_profile(rng, freqs) for m in chosen})


def random_ztr(rng, z_max=4, mode_max=8, layers=(-1, 0, 1), freqs=(0,)):
    profiles = {}
    for _ in range(3):
        key = (rng.choice(list(layers)), rng.randrange(-2, 3))
        profiles[key] = random_profile(rng, freqs)
    return ZTRFunction(z_max, mode_max, GRID, profiles)


class TestLineModule:
    def test_inner_dual_routes(self):
        rng = random.Random(11)
        for _ in range(4):
            phi, psi = random_tr(rng), random_tr(rng)
            grid_route = line_module_inner(phi, psi, "grid")
            closed_route = line_module_inner(phi, psi, "closed")
            assert grid_route.max_abs_difference(closed_route) < 1e-8

    def test_inner_hermitian(self):
        rng = random.Random(12)
        phi, psi = random_tr(rng), random_tr(rng)
        forward = line_module_inner(phi, psi)
        backward = line_module_inner(psi, phi)
        assert forward.star().max_abs_difference(backward) < 1e-12

    def test_self_inner_mode_zero_positive(self):
        phi = TRFunction(8, GRID, {0: bump(1.5, 0.3), 1: bump(1.2, -0.2, 1.0)})
        value = line_module_inner(phi, phi).coefficient(0)
        assert abs(value.imag) < 1e-12
        assert value.real > 0.1

    def test_far_separated_profiles_give_tiny_inner(self):
        phi = TRFunction(8, GRID, {0: bump(2.0, -6.0)})
        psi = TRFunction(8, GRID, {0: bump(2.0, 6.0)})
        assert line_module_inner(phi, psi).max_abs_difference(CTValued({})) < 1e-10

    def test_right_action_compatible_with_inner(self):
        rng = random.Random(13)
        phi, psi = random_tr(rng), random_tr(rng)
        f = CTValued({0: 0.4, 1: 0.3 - 0.2j, -2: 0.1j})
        lhs = line_module_inner(phi, line_module_right(psi, f))
        rhs = line_module_inner(phi, psi).mul(f)
        assert lhs.max_abs_difference(rhs) < 1e-12

    def test_left_action_adjoint_through_conjugate(self):
        rng = random.Random(14)
        phi, psi = random_tr(rng), random_tr(rng)
        f = CTValued({1: 0.5, -1: 0.2 + 0.4j})
        for b in (1, 2):
            lhs = line_module_inner(line_module_left(phi, f, b), psi)
            rhs = line_module_inner(phi, line_module_left(psi, f.star(), b))
            assert lhs.max_abs_difference(rhs) < 1e-12

    def test_left_and_right_actions_commute(self):
        rng = random.Random(15)
        phi = random_tr(rng)
        f = CTValued({1: 0.7})
        g = CTValued({-1: 0.3, 0: 0.5})
        one_way = line_module_right(line_module_left(phi, f, 2), g)
        other_way = line_module_left(line_module_right(phi, g), f, 2)
        assert one_way.max_abs_difference(other_way) < 1e-14

    def test_translation_group_law(self):
        rng = random.Random(16)
        phi = random_tr(rng)
        twice = line_module_translate(line_module_translate(phi, 1, THETA), 2, THETA)
        direct = line_module_translate(phi, 3, THETA)
        assert twice.max_abs_difference(direct) < 1e-13

    def test_translation_covariance_of_inner(self):
        rng = random.Random(17)
        phi, psi = random_tr(rng), random_tr(rng)
        for l in (1, 2):
            moved = line_module_inner(
                line_module_translate(phi, l, THETA),
                line_module_translate(psi, l, THETA),
                "closed",
            )
            fixed = line_module_inner(phi, psi, "closed").rotate(l, THETA)
            assert moved.max_abs_difference(fixed) < 1e-12

    def test_translation_twists_right_action(self):
        rng = random.Random(18)
        phi = random_tr(rng)
        f = CTValued({1: 0.6, -1: 0.25j})
        lhs = line_module_translate(line_module_right(phi, f), 2, THETA)
        rhs = line_module_right(line_module_translate(phi, 2, THETA), f.rotate(2, THETA))
        assert lhs.max_abs_difference(rhs) < 1e-13

    def test_mode_window_escape_raises(self):
        phi = TRFunction(1, GRID, {1: bump(1.0, 0.0)})
        with pytest.raises(TruncationTooSmall):
            line_module_right(phi, CTValued({1: 1.0}))
        with pytest.raises(TruncationTooSmall):
            line_module_left(phi, CTValued({1: 1.0}), 1)

    def test_mixed_grids_raise(self):
        phi = TRFunction(4, GRID, {0: bump(1.0, 0.0)})
        psi = TRFunction(4, RGrid(10.0, 64), {0: bump(1.0, 0.0)})
        with pytest.raises(GridMismatch):
            line_module_inner(phi, psi)


class TestShearedModule:
    def test_inner_dual_routes_on_low_modes(self):
        rng = random.Random(21)
        for b in (1, 2):
            phi = random_tr(rng, modes=(-1, 0, 1), freqs=(0,))
            psi = random_tr(rng, modes=(-1, 0, 1), freqs=(0,))
            grid_route = sheared_module_inner(phi, psi, b, "grid")
            closed_route = sheared_module_inner(phi, psi, b, "closed")
            assert grid_route.max_abs_difference(closed_route) < 1e-6

    def test_right_action_compatible_with_inner(self):
        rng = random.Random(22)
        phi, psi = random_tr(rng), random_tr(rng)
        f = CTValued({0: 0.4, 1: 0.3 - 0.2j})
        for b in (1, 2):
            lhs = sheared_module_inner(phi, line_module_left(psi, f, b), b)
            rhs = sheared_module_inner(phi, psi, b).mul(f)
            assert lhs.max_abs_difference(rhs) < 1e-12

    def test_left_action_adjoint_through_conjugate(self):
        rng = random.Random(23)
        phi, psi = random_tr(rng), random_tr(rng)
        f = CTValued({1: 0.5, -1: 0.2 + 0.4j})
        lhs = sheared_module_inner(line_module_right(phi, f), psi, 2)
        rhs = sheared_module_inner(phi, line_module_right(psi, f.star()), 2)
        assert lhs.max_abs_difference(rhs) < 1e-12

    def test_unit_left_action_is_identity(self):
        rng = random.Random(24)
        phi = random_tr(rng)
        acted = line_module_right(phi, CTValued({0: 1.0}))
        assert acted.max_abs_difference(phi) == 0.0

    def test_right_by_wave_then_conjugate_wave_is_identity(self):
        rng = random.Random(25)
        phi = random_tr(rng, modes=(-2, -1, 0, 1))
        z = CTValued({1: 1.0})
        zbar = CTValued({-1: 1.0})
        roundtrip = line_module_left(line_module_left(phi, z, 2), zbar, 2)
        assert roundtrip.max_abs_difference(phi) < 1e-14

    def test_self_inner_function_nonnegative(self):
        rng = random.Random(27)
        phi = random_tr(rng)
        diag = sheared_module_inner(phi, phi, 2, "closed")
        for x in np.linspace(0.0, 1.0, 7):
            value = diag.value_at(float(x))
            assert value.real > -1e-10
            assert abs(value.imag) < 1e-10


class TestShearUnitary:
    def test_unitarity_on_twelve_pairs(self):
        rng = random.Random(31)
        for b in (1, 2):
            for _ in range(6):
                phi = random_tr(rng)
                psi = random_tr(rng)
                moved = sheared_module_inner(
                    shear_unitary(phi, b), shear_unitary(psi, b), b
                )
                fixed = line_module_inner(phi, psi)
                assert moved.max_abs_difference(fixed) < 1e-6

    def test_forward_inverse_roundtrip(self):
        rng = random.Random(32)
        for b in (1, 2, 3):
            phi = random_tr(rng)
            back = shear_unitary(shear_unitary(phi, b), b, inverse=True)
            assert back.max_abs_difference(phi) < 1e-12
            forth = shear_unitary(shear_unitary(phi, b, inverse=True), b)
            assert forth.max_abs_difference(phi) < 1e-12

    def test_applied_twice_scales_by_inverse_shear(self):
        rng = random.Random(33)
        phi = random_tr(rng)
        twice = shear_unitary(shear_unitary(phi, 2), 2)
        assert twice.max_abs_difference(phi.scale(0.5)) < 1e-13

    def test_single_mode_profile_transforms_explicitly(self):
        gamma = bump(1.3, 0.4, 0.0, (1.0, 0.5))
        phi = TRFunction(4, GRID, {1: gamma})
        image = shear_unitary(phi, 1)
        expected = gamma.affine(-1.0, 0.0).modulate(1)
        r = GRID.nodes()
        assert np.max(np.abs(image.profile(1)(r) - expected(r))) < 1e-14


class TestShearedDirac:
    def test_conjugation_gives_weighted_position_plus_derivative(self):
        rng = random.Random(41)
        phi = random_tr(rng)
        for b in (1, 2):
            for sign in (1, -1):
                inner_op = sheared_dirac(shear_unitary(phi, b), sign, b)
                conjugated = shear_unitary(inner_op, b, inverse=True).scale(b)
                expected = TRFunction(
                    phi.mode_max,
                    GRID,
                    {
                        m: p.mul_poly((0.0, TWO_PI * b)) + p.derivative().scale(sign)
                        for m, p in phi.profiles.items()
                    },
                )
                assert conjugated.max_abs_difference(expected) < 1e-12

    def test_opposite_signs_are_adjoint_in_pairing(self):
        rng = random.Random(42)
        phi = random_tr(rng, modes=(-1, 0, 1), freqs=(0,))
        psi = random_tr(rng, modes=(-1, 0, 1), freqs=(0,))
        for b in (1, 2):
            lhs = sheared_module_inner(sheared_dirac(phi, 1, b), psi, b, "closed")
            rhs = sheared_module_inner(phi, sheared_dirac(psi, -1, b), b, "closed")
            assert lhs.max_abs_difference(rhs) < 1e-12
            lhs_grid = sheared_module_inner(sheared_dirac(phi, 1, b), psi, b)
            rhs_grid = sheared_module_inner(phi, sheared_dirac(psi, -1, b), b)
            assert lhs_grid.max_abs_difference(rhs_grid) < 1e-6

    def test_mode_zero_function_loses_angular_term(self):
        gamma = bump(1.1, 0.2)
        phi = TRFunction(4, GRID, {0: gamma})
        image = sheared_dirac(phi, 1, 2)
        expected = gamma.derivative().scale(-0.5) + gamma.mul_poly((0.0, -TWO_PI))
        r = GRID.nodes()
        assert np.max(np.abs(image.profile(0)(r) - expected(r))) < 1e-14


class TestDescendedModule:
    def test_unit_acts_as_identity_on_both_sides(self):
        rng = random.Random(51)
        psi = random_ztr(rng)
        one = SmoothElement.unit(THETA)
        assert descended_left(one, psi, 2).max_abs_difference(psi) == 0.0
        assert descended_right(psi, one).max_abs_difference(psi) == 0.0

    def test_right_shift_generator_moves_layer_index(self):
        gamma = bump(1.4, 0.1)
        psi = ZTRFunction(3, 8, GRID, {(0, 1): gamma})
        shifted = descended_right(psi, SmoothElement.u_power(1, THETA))
        assert set(shifted.profiles) == {(1, 1)}
        r = GRID.nodes()
        assert np.max(np.abs(shifted.profile(1, 1)(r) - gamma(r))) == 0.0

    def test_left_and_right_actions_commute(self):
        rng = random.Random(52)
        psi = random_ztr(rng)
        a = SmoothElement({(0, 0): 0.7, (1, 0): 0.5 - 0.2j, (0, 1): 0.3j}, THETA)
        c = SmoothElement({(0, 0): 0.4, (1, 1): 0.6j, (-1, 0): 0.25}, THETA)
        for b in (1, 2):
            one_way = descended_left(a, descended_right(psi, c), b)
            other_way = descended_right(descended_left(a, psi, b), c)
            assert one_way.max_abs_difference(other_way) < 1e-13

    def test_left_action_is_a_homomorphism(self):
        rng = random.Random(53)
        psi = random_ztr(rng)
        a = SmoothElement({(1, 0): 0.5, (0, 1): 0.3j}, THETA)
        c = SmoothElement({(0, 0): 0.4, (-1, 1): 0.2}, THETA)
        for b in (1, 2):
            stepwise = descended_left(a, descended_left(c, psi, b), b)
            together = descended_left(nct_multiply(a, c), psi, b)
            assert stepwise.max_abs_difference(together) < 1e-13

    def test_inner_right_compatibility(self):
        rng = random.Random(54)
        psi1, psi2 = random_ztr(rng), random_ztr(rng)
        c = SmoothElement({(0, 0): 0.4, (1, 1): 0.6j, (-1, 0): 0.25}, THETA)
        lhs = descended_inner(psi1, descended_right(psi2, c), THETA)
        rhs = nct_multiply(descended_inner(psi1, psi2, THETA), c)
        assert lhs.max_abs_difference(rhs) < 1e-12

    def test_inner_hermitian(self):
        rng = random.Random(55)
        psi1, psi2 = random_ztr(rng), random_ztr(rng)
        forward = nct_adjoint(descended_inner(psi1, psi2, THETA))
        backward = descended_inner(psi2, psi1, THETA)
        assert forward.max_abs_difference(backward) < 1e-12

    def test_left_action_adjoint_exact_route(self):
        rng = random.Random(56)
        psi1, psi2 = random_ztr(rng), random_ztr(rng)
        a = SmoothElement({(0, 0): 0.7, (1, 0): 0.5 - 0.2j, (0, 1): 0.3j}, THETA)
        for b in (1, 2):
            lhs = descended_inner(descended_left(a, psi1, b), psi2, THETA, "closed")
            rhs = descended_inner(
                psi1, descended_left(nct_adjoint(a), psi2, b), THETA, "closed"
            )
            assert lhs.max_abs_difference(rhs) < 1e-13

    def test_left_action_adjoint_quadrature_route(self):
        rng = random.Random(57)
        psi1 = random_ztr(rng, freqs=(0,))
        psi2 = random_ztr(rng, freqs=(0,))
        a = SmoothElement({(0, 0): 0.7, (1, 0): 0.5 - 0.2j}, THETA)
        lhs = descended_inner(descended_left(a, psi1, 1), psi2, THETA)
        rhs = descended_inner(psi1, descended_left(nct_adjoint(a), psi2, 1), THETA)
        assert lhs.max_abs_difference(rhs) < 1e-8

    def test_inner_dual_routes(self):
        rng = random.Random(58)
        psi1, psi2 = random_ztr(rng), random_ztr(rng)
        grid_route = descended_inner(psi1, psi2, THETA, "grid")
        closed_route = descended_inner(psi1, psi2, THETA, "closed")
        assert grid_route.max_abs_difference(closed_route) < 1e-8

    def test_self_inner_trace_nonnegative(self):
        rng = random.Random(59)
        psi = random_ztr(rng)
        gram = descended_inner(psi, psi, THETA)
        trace = nct_trace(gram)
        assert abs(trace.imag) < 1e-12
        assert trace.real > 0.0

    def test_layer_window_escape_raises(self):
        psi = ZTRFunction(1, 8, GRID, {(1, 0): bump(1.0, 0.0)})
        with pytest.raises(TruncationTooSmall):
            descended_right(psi, SmoothElement.u_power(1, THETA))


# (l1, l2, v, w) sample points with both jumps nonzero among them
COSET_SAMPLES = [
    (0, 0, 0.15, 0.4),
    (1, 0, 0.7, 0.2),
    (0, 1, 0.3, 0.8),
    (-1, 1, 0.5, 0.1),
    (1, -2, 0.85, 0.35),
    (2, 1, 0.05, 0.6),
]


def pair_inner_per_point(phi, psi, theta, b, l1, l2, v, w):
    """The pair-valued inner product summed one coset point at a time."""
    cut = int(math.ceil(abs(b) * (phi.grid.radius + 2) + phi.z_max + 2))
    total = 0j
    for k2 in range(-phi.z_max, phi.z_max + 1):
        k_psi = k2 + l2 - l1
        if abs(k_psi) > psi.z_max:
            continue
        for k1 in range(-cut, cut + 1):
            r0 = (k1 + k2 * theta + w - v) / b
            left = phi.eval_at(k2, v, r0)
            if left == 0:
                continue
            right = psi.eval_at(k_psi, v - l1 * theta, r0 + l1)
            total += left.conjugate() * right
    return total


class TestPairModule:
    def make_pair(self, rng, z_max=3):
        f1 = ZTRFunction(
            z_max,
            8,
            GRID,
            {
                (0, 0): random_profile(rng, (0,)),
                (1, 1): random_profile(rng, (0,)),
            },
        )
        f2 = ZTRFunction(
            z_max,
            8,
            GRID,
            {
                (0, 1): random_profile(rng, (0,)),
                (-1, 0): random_profile(rng, (0,)),
            },
        )
        return f1, f2

    def test_unit_tensor_acts_as_identity(self):
        rng = random.Random(61)
        f1, _ = self.make_pair(rng)
        acted = pair_module_right(f1, {(0, 0, 0, 0): 1.0}, THETA, 2)
        assert acted.max_abs_difference(f1) == 0.0

    def test_first_factor_generator_matches_displayed_phase(self):
        gamma = bump(1.3, 0.2)
        phi = ZTRFunction(3, 8, GRID, {(1, 1): gamma})
        l1, k1 = 2, 1
        acted = pair_module_right(phi, {(l1, k1, 0, 0): 1.0}, THETA, 1)
        for v in (0.15, 0.7):
            for r in (-0.5, 1.2):
                direct = (
                    gamma(r - k1)
                    * cmath.exp(TWO_PI * 1j * 1 * (v + k1 * THETA))
                    * cmath.exp(TWO_PI * 1j * l1 * (v + k1 * THETA))
                )
                assert abs(acted.eval_at(0, v, r) - direct) < 1e-14

    def test_right_action_associative_against_base_product(self):
        rng = random.Random(62)
        phi, _ = self.make_pair(rng, z_max=6)
        xi = {(1, 1, 0, 1): 0.8 - 0.3j, (0, 0, 1, 0): 0.4}
        eta = {(0, 1, 1, 1): 0.5j, (1, 0, 0, 0): 0.7}
        stepwise = pair_module_right(
            pair_module_right(phi, xi, THETA, 2), eta, THETA, 2
        )
        together = pair_module_right(phi, pair_multiply(xi, eta, THETA), THETA, 2)
        assert stepwise.max_abs_difference(together) < 1e-10

    def test_inner_right_compatibility(self):
        rng = random.Random(63)
        f1, f2 = self.make_pair(rng)
        xi = {(1, 1, 0, 1): 0.8 - 0.3j, (0, 1, 1, 1): 0.5 + 0.4j}
        for b in (1, 2):
            lhs = pair_module_inner(
                f1, pair_module_right(f2, xi, THETA, b), THETA, b
            )
            rhs = pair_module_inner(f1, f2, THETA, b).right_mult(xi)
            assert lhs.max_abs_difference(rhs) < 1e-10

    @pytest.mark.parametrize("xi", [{}, {(1, 1, 0, 1): 0.0, (0, 2, 1, -1): 0j}])
    def test_right_mult_by_zero_is_the_zero_form(self, xi):
        form = APairValued(lambda l1, l2, v, w: complex(1 + l1, v - w), 2, THETA)
        product = form.right_mult(xi)
        assert product.l_max == form.l_max
        zero = APairValued(lambda l1, l2, v, w: 0j, 2, THETA)
        assert product.max_abs_difference(zero) == 0.0

    def test_inner_star_symmetry(self):
        rng = random.Random(64)
        f1, f2 = self.make_pair(rng)
        for b in (1, 2):
            forward = pair_module_inner(f1, f2, THETA, b).star()
            backward = pair_module_inner(f2, f1, THETA, b)
            assert forward.max_abs_difference(backward) < 1e-12

    def test_self_inner_diagonal_nonnegative(self):
        rng = random.Random(65)
        f1, _ = self.make_pair(rng)
        gram = pair_module_inner(f1, f1, THETA, 2)
        for v in (0.1, 0.45, 0.8):
            for w in (0.2, 0.6):
                value = gram.value(0, 0, v, w)
                assert value.imag == 0.0
                assert value.real >= 0.0

    def test_layer_disjoint_supports_pair_to_zero(self):
        phi = ZTRFunction(3, 8, GRID, {(2, 0): bump(1.0, 0.0)})
        psi = ZTRFunction(3, 8, GRID, {(0, 0): bump(1.0, 0.0)})
        gram = pair_module_inner(phi, psi, THETA, 1)
        assert gram.value(0, 0, 0.3, 0.6) == 0j

    def test_jump_reach_covers_the_wider_second_window(self):
        # psi's only layer lies past phi's window, so its jump pair (0, 5) is
        # nonzero only when the reach counts psi's window too
        phi = ZTRFunction(1, 8, GRID, {(0, 0): bump(1.0, 0.0)})
        psi = ZTRFunction(5, 8, GRID, {(5, 0): bump(1.0, 0.0)})
        gram = pair_module_inner(phi, psi, THETA, 1)
        assert gram.l_max >= phi.z_max + psi.z_max
        assert abs(gram.value(0, 5, 0.3, 0.6)) > 1.0
        zero = APairValued(lambda l1, l2, v, w: 0j, 0, THETA)
        assert gram.max_abs_difference(zero) > 0.0

    def test_coset_array_matches_per_point_sum(self):
        rng = random.Random(66)
        phi, psi = self.make_pair(rng)
        phi = phi + ZTRFunction(3, 8, GRID, {(-1, 2): random_profile(rng, (1,))})
        psi = psi + ZTRFunction(3, 8, GRID, {(1, -1): random_profile(rng, (-1,))})
        for b in (1, 2):
            gram = pair_module_inner(phi, psi, THETA, b)
            for l1, l2, v, w in COSET_SAMPLES:
                expected = pair_inner_per_point(phi, psi, THETA, b, l1, l2, v, w)
                assert abs(gram.value(l1, l2, v, w) - expected) < 1e-13

    @pytest.mark.parametrize("b", [1, 2])
    def test_phi_layer_that_underflows_on_the_coset_window(self, b):
        # e^{-200 r^2} is exactly 0 for |r| > 2, so most coset offsets meet a
        # zero phi layer; the sum over all offsets equals the sum over the rest
        narrow = bump(400.0, 0.0)
        phi = ZTRFunction(3, 8, GRID, {(0, 0): narrow, (1, 1): narrow.scale(0.5j)})
        psi = ZTRFunction(
            3,
            8,
            GRID,
            {
                (0, 1): bump(1.5, 0.3),
                (1, 0): bump(1.2, -0.4),
                (-1, 0): bump(1.1, 0.2),
                (-3, 1): bump(1.4, -0.1),
                (2, 0): bump(1.3, 0.0),
            },
        )
        offsets = _coset_offsets(b, GRID.radius + 2, phi.z_max)
        left = phi.eval_at(0, 0.3, (offsets + 0.6 - 0.3) / b)
        assert np.any(left == 0) and np.any(left != 0)
        gram = pair_module_inner(phi, psi, THETA, b)
        for l1, l2, v, w in COSET_SAMPLES:
            value = gram.value(l1, l2, v, w)
            expected = pair_inner_per_point(phi, psi, THETA, b, l1, l2, v, w)
            assert cmath.isfinite(value) and expected != 0
            assert abs(value - expected) <= 1e-15 * abs(expected)


class TestDescentBimodule:
    def make_pair(self, rng):
        f1 = ZTRFunction(
            2, 8, GRID,
            {(0, 0): random_profile(rng, (0,)), (1, 1): random_profile(rng, (0,))},
        )
        f2 = ZTRFunction(
            2, 8, GRID,
            {(0, 1): random_profile(rng, (0,)), (-1, 0): random_profile(rng, (0,))},
        )
        return f1, f2

    def test_left_unit_is_identity(self):
        rng = random.Random(71)
        phi, _ = self.make_pair(rng)
        assert descent_left(phi, 0, 0, THETA).max_abs_difference(phi) == 0.0
        assert descent_right(phi, 0, 0, THETA, 2).max_abs_difference(phi) == 0.0

    def test_right_wave_generator_matches_displayed_multiplier(self):
        gamma = bump(1.2, 0.3)
        phi = ZTRFunction(2, 8, GRID, {(0, 1): gamma})
        l2, b = 2, 2
        acted = descent_right(phi, l2, 0, THETA, b)
        for v in (0.2, 0.65):
            for r in (-0.8, 0.9):
                direct = phi.eval_at(0, v, r) * cmath.exp(
                    TWO_PI * 1j * l2 * (v + r * b)
                )
                assert abs(acted.eval_at(0, v, r) - direct) < 1e-14

    @pytest.mark.parametrize("p1, q1", [(2, -1), (-1, 1)])
    def test_left_generator_matches_displayed_formula(self, p1, q1):
        phi, _ = self.make_pair(random.Random(77))
        acted = descent_left(phi, p1, q1, THETA)
        for k in (-1, 0, 1, 2):
            for x in (0.2, 0.65):
                for r in (-0.8, 0.9):
                    direct = cmath.exp(TWO_PI * 1j * p1 * x) * phi.eval_at(
                        k - q1, x - q1 * THETA, r + q1
                    )
                    assert abs(acted.eval_at(k, x, r) - direct) < 1e-14

    def test_left_and_right_actions_commute(self):
        rng = random.Random(72)
        phi, _ = self.make_pair(rng)
        one_way = descent_right(descent_left(phi, 1, 1, THETA), 1, 0, THETA, 2)
        other_way = descent_left(descent_right(phi, 1, 0, THETA, 2), 1, 1, THETA)
        assert one_way.max_abs_difference(other_way) < 1e-13

    def test_inner_right_compatibility_with_generator(self):
        rng = random.Random(73)
        f1, f2 = self.make_pair(rng)
        p2, q2, b = 1, 1, 2
        lhs = descent_inner(f1, descent_right(f2, p2, q2, THETA, b), THETA, b, "closed")
        generator = SmoothElement({(p2, q2): 1.0}, THETA)
        rhs = nct_multiply(descent_inner(f1, f2, THETA, b, "closed"), generator)
        assert lhs.max_abs_difference(rhs) < 1e-12

    def test_inner_left_adjoint_with_generator(self):
        rng = random.Random(74)
        f1, f2 = self.make_pair(rng)
        p1, q1, b = 1, 1, 2
        lhs = descent_inner(descent_left(f1, p1, q1, THETA), f2, THETA, b, "closed")
        adjoint = nct_adjoint(SmoothElement({(p1, q1): 1.0}, THETA))
        ((np_, nq), z) = next(iter(adjoint.coeffs.items()))
        rhs = descent_inner(
            f1, descent_left(f2, np_, nq, THETA).scale(z), THETA, b, "closed"
        )
        assert lhs.max_abs_difference(rhs) < 1e-12

    def test_inner_dual_routes(self):
        rng = random.Random(75)
        f1, f2 = self.make_pair(rng)
        grid_route = descent_inner(f1, f2, THETA, 2, "grid")
        closed_route = descent_inner(f1, f2, THETA, 2, "closed")
        assert grid_route.max_abs_difference(closed_route) < 1e-6

    def test_inner_agrees_with_collapsed_pair_inner(self):
        rng = random.Random(76)
        f1, f2 = self.make_pair(rng)
        inner = descent_inner(f1, f2, THETA, 1, "closed")
        oracle = descent_inner_oracle(f1, f2, THETA, 1)
        for l in (-1, 0, 1):
            for x in (0.15, 0.6):
                primary = sum(
                    c * cmath.exp(TWO_PI * 1j * m * x)
                    for (m, ll), c in inner.coeffs.items()
                    if ll == l
                )
                assert abs(primary - oracle(x, l)) < 1e-9


# (x, l) points for the fiber average, l reaching past the layers both functions hold
ORACLE_POINTS = [(0.15, -1), (0.6, 0), (0.93, 1), (0.0, 2), (0.41, -3)]
ORACLE_YS = (np.arange(ORACLE_Y_COUNT) + 0.5) / ORACLE_Y_COUNT


class TestBatchedFiberAverage:
    """An array of first circle points reads the bits of each point alone."""

    def make_pair(self, seed):
        rng = random.Random(seed)
        return tuple(random_ztr(rng, z_max=2, freqs=(-1, 0, 1)) for _ in range(2))

    def test_layer_evaluation_at_an_array_of_points(self):
        f1, _ = self.make_pair(80)
        r = np.linspace(-3.0, 3.0, 7)
        for k in f1.layers():
            batch = f1.eval_at(k, ORACLE_YS[:, None], r)
            assert batch.shape == (ORACLE_Y_COUNT, r.size)
            for i, y in enumerate(ORACLE_YS.tolist()):
                assert batch[i].tobytes() == f1.eval_at(k, y, r).tobytes()

    @pytest.mark.parametrize("b", [1, 2])
    def test_pair_value_at_an_array_of_points(self, b):
        f1, f2 = self.make_pair(99)
        pair = pair_module_inner(f1, f2, THETA, b)
        for x, l in ORACLE_POINTS:
            batch = pair.value(0, l, ORACLE_YS, x)
            assert len(batch) == ORACLE_Y_COUNT
            for i in range(ORACLE_Y_COUNT):
                point = pair.value(0, l, ORACLE_YS[i], x)
                assert type(point) is complex and batch[i] == point

    @pytest.mark.parametrize("b", [1, 2])
    def test_array_value_is_one_entry_per_point_at_every_jump(self, b):
        # at l = -3 and 2 no partner layer holds a profile, and at l = 3 none is in f2's window
        f1, f2 = self.make_pair(99)
        pair = pair_module_inner(f1, f2, THETA, b)
        for l in range(-3, 4):
            batch = pair.value(0, l, ORACLE_YS, 0.37)
            assert type(batch) is list and len(batch) == ORACLE_Y_COUNT
            assert all(type(value) is complex for value in batch)

    @pytest.mark.parametrize("b", [1, 2])
    def test_point_value_is_the_real_sum_over_each_layer_pair(self, b):
        # reference: one point at a time, each layer's phases from cmath.exp and
        # the two real sums taken over the coset offsets
        def layer(fn, k, x, r):
            total = 0j
            for m, p in fn.layer_profiles(k).items():
                total += p(r) * cmath.exp(TWO_PI * 1j * m * x)
            return total

        f1, f2 = self.make_pair(95)
        pair = pair_module_inner(f1, f2, THETA, b)
        offsets = _coset_offsets(b, GRID.radius + 2, f1.z_max)
        for x, l in ORACLE_POINTS:
            for v in ORACLE_YS[::7].tolist():
                expected = 0j
                for k1 in f1.layers():
                    if abs(k1 + l) <= f2.z_max:
                        r0 = (offsets + k1 * THETA + x - v) / b
                        left, right = layer(f1, k1, v, r0), layer(f2, k1 + l, v, r0)
                        re = float(np.sum(left.real * right.real + left.imag * right.imag))
                        im = float(np.sum(left.real * right.imag - left.imag * right.real))
                        expected += complex(re, im)
                assert pair.value(0, l, v, x) == expected

    @pytest.mark.parametrize("b", [1, 2])
    def test_oracle_is_the_point_loop_summed_in_order(self, b):
        f1, f2 = self.make_pair(98)
        pair = pair_module_inner(f1, f2, THETA, b)
        oracle = descent_inner_oracle(f1, f2, THETA, b)
        for x, l in ORACLE_POINTS:
            total = 0j
            for y in ORACLE_YS:
                total += pair.value(0, l, float(y), x)
            assert oracle(x, l) == total / ORACLE_Y_COUNT

    def test_oracle_with_no_layer_pair_in_reach_is_zero(self):
        f1, f2 = self.make_pair(88)
        assert descent_inner_oracle(f1, f2, THETA, 1)(0.3, 5) == 0j


@pytest.mark.parametrize(
    "inner",
    [lambda f, g: descended_inner(f, g, THETA), lambda f, g: descent_inner(f, g, THETA, 2)],
    ids=["descended", "descent"],
)
@pytest.mark.parametrize("profiles", [{(0, 0): bump(1.0, 0.0)}, {}], ids=["full", "empty"])
def test_layer_inner_products_reject_mixed_grids(inner, profiles):
    f = ZTRFunction(2, 2, GRID, profiles)
    g = ZTRFunction(2, 2, RGrid(10.0, 64), {(1, 0): bump(1.0, 0.0)})
    for pair in ((f, g), (g, f)):
        with pytest.raises(GridMismatch):
            inner(*pair)


@pytest.mark.parametrize(
    "inner, cls",
    [
        (lambda f, g: pair_module_inner(f, g, THETA, 2), ZTRFunction),
        (lambda f, g: base_inner(f, g, THETA), SB2Function),
        (lambda f, g: transformed_inner(f, g, THETA, 2), SB2Function),
    ],
    ids=["pair", "base", "transformed"],
)
def test_pair_valued_inner_products_reject_mixed_grids(inner, cls):
    f = single_profile(cls, (0, 0))
    g = single_profile(cls, (1, 0), grid=RGrid(10.0, 64))
    for pair in ((f, g), (g, f)):
        with pytest.raises(GridMismatch):
            inner(*pair)


EMPTY_TR = TRFunction(2, GRID, {})
EMPTY_ZTR = ZTRFunction(2, 2, GRID, {})
EMPTY_SB2 = SB2Function(2, 2, GRID, GRID, {})


@pytest.mark.parametrize(
    "inner",
    [
        lambda route: line_module_inner(EMPTY_TR, EMPTY_TR, route),
        lambda route: sheared_module_inner(EMPTY_TR, EMPTY_TR, 2, route),
        lambda route: descended_inner(EMPTY_ZTR, EMPTY_ZTR, THETA, route),
        lambda route: descent_inner(EMPTY_ZTR, EMPTY_ZTR, THETA, 2, route),
        lambda route: base_inner(EMPTY_SB2, EMPTY_SB2, THETA, route),
        lambda route: transformed_inner(EMPTY_SB2, EMPTY_SB2, THETA, 2, route),
    ],
    ids=["line", "sheared", "descended", "descent", "base", "transformed"],
)
def test_unknown_route_raises_with_no_profile_to_pair(inner):
    with pytest.raises(ValueError, match="unknown route 'bogus'"):
        inner("bogus")


def single_profile(cls, key, grid=GRID, poly=(1.0,)):
    """A function of container class cls with one bump at (layer, mode) key."""
    p = bump(1.0, 0.0, poly=poly)
    if cls is TRFunction:
        return TRFunction(2, grid, {key[1]: p})
    if cls is ZTRFunction:
        return ZTRFunction(2, 2, grid, {key: p})
    return SB2Function(2, 2, grid, grid, {key: GaussSum.outer(p, bump(1.0, 0.0))})


@pytest.mark.parametrize("cls", [TRFunction, ZTRFunction, SB2Function])
class TestKeyedProfiles:
    def test_out_of_window_key_raises(self, cls):
        keys = [(0, 3)] if cls is TRFunction else [(0, 3), (-3, 0)]
        for key in keys:
            with pytest.raises(TruncationTooSmall):
                single_profile(cls, key)

    def test_mixed_grids_raise(self, cls):
        f = single_profile(cls, (0, 1))
        g = single_profile(cls, (0, 1), grid=RGrid(10.0, 64))
        with pytest.raises(GridMismatch):
            f + g

    def test_difference_norm_is_the_sup_norm_of_the_difference(self, cls):
        f = single_profile(cls, (0, 0)) + single_profile(cls, (1, 1)).scale(0.5j)
        g = single_profile(cls, (0, 0)).scale(0.25) + single_profile(cls, (-1, 0))
        points, zero = f._mesh(), GaussSum()
        # each key's profile difference, sampled on the mesh
        per_key = max(
            float(np.max(np.abs((f.profiles.get(key, zero) - g.profiles.get(key, zero))(*points))))
            for key in set(f.profiles) | set(g.profiles)
        )
        assert f.max_abs_difference(g) == (f - g).sup_norm() == per_key > 0
        with pytest.raises(GridMismatch):
            f.max_abs_difference(single_profile(cls, (0, 0), grid=RGrid(10.0, 64)))

    def test_nan_residual_is_not_hidden(self, cls):
        finite = single_profile(cls, (0, 0))
        broken = finite + single_profile(cls, (1, 1), poly=(math.nan,))
        doubled = finite.scale(2.0)
        assert 0.5 < doubled.max_abs_difference(finite) <= 1.0
        assert math.isnan(broken.max_abs_difference(doubled))
        assert math.isnan(doubled.max_abs_difference(broken))


class TestNanResiduals:
    def test_circle_valued_difference_keeps_nan(self):
        broken = CTValued({0: 1.0, 1: math.nan})
        assert math.isnan(broken.max_abs_difference(CTValued({})))
        assert math.isnan(CTValued({}).max_abs_difference(broken))

    def test_pair_valued_difference_keeps_nan(self):
        broken = APairValued(lambda l1, l2, v, w: math.nan if v > 0.5 else 1.0, 1, THETA)
        zero = APairValued(lambda l1, l2, v, w: 0j, 1, THETA)
        assert math.isnan(broken.max_abs_difference(zero))
        assert math.isnan(zero.max_abs_difference(broken))
