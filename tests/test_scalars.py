"""Exact scalar layer: ring arithmetic, circle reduction, matrix actions."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotalab.errors import DegreeOverflow, InvalidMu, PoleAtTheta
from rotalab.scalars import (
    IntMatrix2,
    ThetaScalar,
    TorusPoint,
    mobius_defect,
    mobius_transform,
    require_nonzero_defect,
    torus_reduce,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=12
)
small_ints = st.integers(min_value=-5, max_value=5)
HALF, THIRD = ThetaScalar(Fraction(1, 2)), Fraction(1, 3)
THETA_S = ThetaScalar.theta()


def theta_scalars():
    return st.builds(ThetaScalar, rationals, rationals, rationals)


def det_one_matrices():
    """All of SL(2, Z) with entries in [-5, 5], as a sampled list."""
    mats = [
        IntMatrix2(a, b, c, d)
        for a in range(-5, 6)
        for b in range(-5, 6)
        for c in range(-5, 6)
        for d in range(-5, 6)
        if a * d - b * c == 1
    ]
    return st.sampled_from(mats)


class TestRingArithmetic:
    def test_sum_cancels_theta(self):
        one_plus = ThetaScalar(1, 1)
        one_minus = ThetaScalar(1, -1)
        assert one_plus + one_minus == ThetaScalar(2)

    def test_product_hits_degree_two(self):
        one_plus = ThetaScalar(1, 1)
        one_minus = ThetaScalar(1, -1)
        assert one_plus * one_minus == ThetaScalar(1, 0, -1)

    def test_cubic_overflows(self):
        with pytest.raises(DegreeOverflow):
            ThetaScalar.theta() * ThetaScalar.theta_squared()

    def test_eval_is_polynomial_evaluation(self):
        s = ThetaScalar(Fraction(1, 2), 3, Fraction(-1, 4))
        theta = 0.7071067811865476
        expected = 0.5 + 3 * theta - 0.25 * theta**2
        assert s.evalf(theta) == pytest.approx(expected, abs=1e-15)

    @given(theta_scalars(), theta_scalars(), theta_scalars())
    def test_addition_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(theta_scalars(), st.fractions(max_denominator=12))
    def test_rational_multiplication_distributes(self, a, f):
        assert a * f + a * f == a * (2 * f)


class TestTorusReduction:
    def test_reduce_moves_rational_part_only(self):
        p = torus_reduce(ThetaScalar(Fraction(7, 3), 2, -1))
        assert p.x == ThetaScalar(Fraction(1, 3), 2, -1)

    def test_reduce_idempotent(self):
        p = torus_reduce(ThetaScalar(Fraction(-9, 4), 1))
        assert torus_reduce(p.x) == p

    @given(theta_scalars(), small_ints)
    def test_integer_shifts_invisible(self, s, n):
        assert torus_reduce(s) == torus_reduce(s + n)

    @given(theta_scalars())
    def test_canonical_rational_part_in_unit_interval(self, s):
        p = torus_reduce(s)
        assert 0 <= p.x.p < 1

    def test_numeric_value_reduced_mod_one(self):
        theta = 0.7071067811865476
        p = torus_reduce(ThetaScalar(0, 2))
        assert p.evalf(theta) == pytest.approx((2 * theta) % 1.0, abs=1e-15)


class TestMatrixLayer:
    def test_defect_of_shear(self):
        assert mobius_defect(IntMatrix2(1, 1, 0, 1)) == ThetaScalar(1)

    def test_defect_of_identity(self):
        assert mobius_defect(IntMatrix2.identity()) == ThetaScalar(0)

    def test_defect_of_rotation(self):
        assert mobius_defect(IntMatrix2(0, -1, 1, 0)) == ThetaScalar(-1, 0, -1)

    def test_transform_shear(self):
        assert mobius_transform(IntMatrix2(1, 1, 0, 1), 0.5) == pytest.approx(1.5)

    def test_transform_rotation(self):
        assert mobius_transform(IntMatrix2(0, -1, 1, 0), 2.0) == pytest.approx(-0.5)

    def test_pole_detection(self):
        with pytest.raises(PoleAtTheta):
            mobius_transform(IntMatrix2(0, -1, 1, 0), 0.0)

    def test_zero_defect_guard(self):
        with pytest.raises(InvalidMu):
            require_nonzero_defect(IntMatrix2.identity())

    @settings(max_examples=100)
    @given(det_one_matrices(), det_one_matrices())
    def test_transform_is_an_action(self, g, h):
        # numeric composition law at a generic irrational point
        theta = 1.0 / math.sqrt(2.0)
        via_product = mobius_transform(g @ h, theta)
        via_steps = mobius_transform(g, mobius_transform(h, theta))
        assert via_steps == pytest.approx(via_product, abs=1e-12)

    @settings(max_examples=100)
    @given(det_one_matrices())
    def test_zero_defect_iff_theta_fixed(self, g):
        mu = mobius_defect(g)
        fixes = all(
            abs(mobius_transform(g, t) - t) < 1e-9
            for t in (0.7071067811865476, 1.4142135623730951, 0.318309886,
                      2.718281828, 0.5773502691896258)
        )
        assert (mu == ThetaScalar(0)) == fixes

    @given(det_one_matrices())
    def test_inverse_is_matrix_inverse(self, g):
        assert g @ g.inverse() == IntMatrix2.identity()

    @pytest.mark.parametrize(
        "x, y, image",
        [
            (2, -1, (1, 1)),
            (THETA_S, 3, (ThetaScalar(9, 2), ThetaScalar(3, 1))),
            (
                1,
                TorusPoint(HALF + THETA_S),
                (TorusPoint(HALF + 3 * THETA_S), TorusPoint(HALF + THETA_S)),
            ),
            (THIRD, THETA_S, (2 * THIRD + 3 * THETA_S, THIRD + THETA_S)),
        ],
    )
    def test_pair_image_keeps_its_values_and_types(self, x, y, image):
        # a TorusPoint entry wraps both image entries onto the circle
        got = IntMatrix2(2, 3, 1, 1).apply_pair(x, y)
        assert got == image
        assert [type(entry) for entry in got] == [type(entry) for entry in image]

    @given(det_one_matrices(), theta_scalars(), theta_scalars())
    def test_pair_action_respects_products(self, g, x, y):
        gx, gy = g.apply_pair(x, y)
        hx, hy = g.inverse().apply_pair(gx, gy)
        assert (hx, hy) == (x, y)


class TestHashability:
    def test_scalars_usable_as_keys(self):
        d = {ThetaScalar(1, 2): "a", TorusPoint(ThetaScalar(Fraction(1, 2))): "b"}
        assert d[ThetaScalar(1, 2)] == "a"
        assert d[torus_reduce(ThetaScalar(Fraction(3, 2)))] == "b"


# ---------------------------------------------------------------------------
# the integer-numerator representation against a plain Fraction triple
# ---------------------------------------------------------------------------

# coefficients that are often zero, so products both stay in degree two and
# overflow, and denominators large enough to make the shared one non-trivial
coefficients = st.one_of(
    st.just(Fraction(0)),
    rationals,
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
)
triples = st.tuples(coefficients, coefficients, coefficients)
nonzero_rationals = st.fractions(max_denominator=50).filter(lambda f: f != 0)


def ref_of(s):
    return (s.p, s.q, s.r)


def ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def ref_mul(x, y):
    """Product of coefficient triples, or None when theta^3 or theta^4 appears."""
    (p1, q1, r1), (p2, q2, r2) = x, y
    if q1 * r2 + r1 * q2 != 0 or r1 * r2 != 0:
        return None
    return (p1 * p2, p1 * q2 + q1 * p2, p1 * r2 + q1 * q2 + r1 * p2)


class TestIntegerNumeratorRepresentation:
    @given(triples, triples)
    def test_add_sub_neg_agree_with_reference(self, x, y):
        s, t = ThetaScalar(*x), ThetaScalar(*y)
        assert ref_of(s) == x
        assert ref_of(s + t) == ref_add(x, y)
        assert ref_of(s - t) == tuple(a - b for a, b in zip(x, y))
        assert ref_of(-s) == tuple(-a for a in x)

    @given(triples, triples)
    def test_product_and_overflow_agree_with_reference(self, x, y):
        s, t = ThetaScalar(*x), ThetaScalar(*y)
        expected = ref_mul(x, y)
        if expected is None:
            with pytest.raises(DegreeOverflow):
                s * t
        else:
            assert ref_of(s * t) == expected

    @given(triples, small_ints)
    def test_int_operands_agree_with_reference(self, x, n):
        s = ThetaScalar(*x)
        assert ref_of(s * n) == ref_of(n * s) == tuple(a * n for a in x)
        assert ref_of(s + n) == ref_of(n + s) == ref_add(x, (n, 0, 0))
        assert ref_of(n - s) == tuple(b - a for a, b in zip(x, (n, 0, 0)))

    @given(triples, nonzero_rationals)
    def test_division_by_rational_agrees_with_reference(self, x, f):
        s = ThetaScalar(*x)
        expected = tuple(a / f for a in x)
        assert ref_of(s / f) == expected
        assert ref_of(s / ThetaScalar(f)) == expected

    def test_division_guards(self):
        with pytest.raises(ValueError):
            ThetaScalar(1) / ThetaScalar(1, 1)
        with pytest.raises(ZeroDivisionError):
            ThetaScalar(1, 2) / 0

    @given(triples, triples, nonzero_rationals)
    def test_equal_values_hash_equally(self, x, y, f):
        s, t = ThetaScalar(*x), ThetaScalar(*y)
        for same in ((s + t) - t, (s * f) / f, ThetaScalar(*ref_of(s)), copy.copy(s)):
            assert same == s
            assert hash(same) == hash(s)
        assert (s == t) == (x == y)

    @given(triples)
    def test_torus_point_reduces_rational_part_only(self, x):
        point = torus_reduce(ThetaScalar(*x))
        p, q, r = ref_of(point.x)
        assert 0 <= p < 1
        assert (p - x[0]).denominator == 1
        assert (q, r) == (x[1], x[2])

    @given(triples, st.floats(min_value=-4.0, max_value=4.0))
    def test_evalf_is_bit_equal_to_fraction_floats(self, x, theta):
        p, q, r = x
        expected = float(p) + float(q) * theta + float(r) * theta * theta
        assert ThetaScalar(*x).evalf(theta).hex() == expected.hex()

    @pytest.mark.parametrize("name", ["p", "q", "r", "_a", "_d", "extra"])
    def test_assignment_raises(self, name):
        s = ThetaScalar(1, 2, 3)
        with pytest.raises(AttributeError):
            setattr(s, name, Fraction(5))
        with pytest.raises(AttributeError):
            delattr(s, name)
        assert s == ThetaScalar(1, 2, 3)

    def test_torus_point_is_frozen(self):
        point = torus_reduce(ThetaScalar(Fraction(1, 2)))
        with pytest.raises(AttributeError):
            point.x = ThetaScalar(0)

    @pytest.mark.parametrize("bad", [0.5, "1", None, ThetaScalar(1)])
    def test_constructor_rejects_non_rationals(self, bad):
        with pytest.raises(TypeError, match="expected int or Fraction"):
            ThetaScalar(0, bad)

    def test_coercion_rejects_floats(self):
        with pytest.raises(TypeError, match="expected int or Fraction, got float"):
            ThetaScalar.of(0.5)
        with pytest.raises(TypeError):
            ThetaScalar(1) + 0.5

    def test_canonical_form_and_views(self):
        s = ThetaScalar(Fraction(1, 2), Fraction(-1, 3), 2)
        assert (s._a, s._b, s._c, s._d) == (3, -2, 12, 6)
        assert repr(s) == "1/2 - 1/3*theta + 2*theta^2"
        assert ThetaScalar.of(4).as_integer() == 4
        assert ThetaScalar(Fraction(8, 2)).is_integer
        assert not ThetaScalar(Fraction(1, 2)).is_integer
        assert pickle.loads(pickle.dumps(s)) == s

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_deepcopy_keep_value_and_type(self, protocol):
        s = ThetaScalar(Fraction(-7, 4), 3, Fraction(1, 6))
        point = torus_reduce(s)
        for value in (s, point):
            for copied in (pickle.loads(pickle.dumps(value, protocol)), copy.deepcopy(value)):
                assert copied == value and type(copied) is type(value)
        assert type(pickle.loads(pickle.dumps(point, protocol)).x) is ThetaScalar
