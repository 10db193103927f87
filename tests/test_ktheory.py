"""Exact checks for the integer invariants and the twist action."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rotalab.ktheory import KClass, twist_apply, twist_compose, twist_matrix
from rotalab.scalars import IntMatrix2

SMALL_INT = st.integers(min_value=-50, max_value=50)

SAMPLE_CLASSES = [
    KClass((1, 0), (1, 1)),
    KClass((0, 1), (0, 0)),
    KClass((2, -3), (5, -7)),
    KClass((-4, 9), (-1, 2)),
]


class TestKClass:
    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError):
            KClass((1.0, 0), (0, 0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            KClass((1, 0, 0), (0, 0))

    def test_equality_is_structural(self):
        assert KClass((1, 2), (3, 4)) == KClass((1, 2), (3, 4))
        assert KClass((1, 2), (3, 4)) != KClass((1, 2), (4, 3))


class TestIntegralDegree:
    @pytest.mark.parametrize("degree", [2.7, 0.5, 1.9, 2.0, Fraction(3, 1), "1"])
    def test_a_non_integral_degree_raises(self, degree):
        cls = KClass((0, 1), (0, 0))
        with pytest.raises(TypeError):
            twist_matrix(degree)
        with pytest.raises(TypeError):
            twist_apply(degree, cls)
        with pytest.raises(TypeError):
            twist_compose(degree, 0)
        with pytest.raises(TypeError):
            twist_compose(0, degree)

    def test_integer_like_degrees_are_accepted(self):
        assert twist_matrix(True) == IntMatrix2(1, 1, 0, 1)
        assert twist_apply(-2, KClass((0, 1), (0, 0))).k0 == (-2, 1)
        assert twist_compose(True, 2) == 3


class TestTwistAction:
    def test_degree_two_shears_second_generator(self):
        moved = twist_apply(2, KClass((0, 1), (0, 0)))
        assert moved.k0 == (2, 1)

    def test_degree_zero_is_identity(self):
        for cls in SAMPLE_CLASSES:
            assert twist_apply(0, cls) == cls

    def test_unit_class_is_fixed_for_every_degree(self):
        for b in range(-10, 11):
            assert twist_apply(b, KClass((1, 0), (2, 3))).k0 == (1, 0)

    def test_action_is_additive_over_degree_window(self):
        for cls in SAMPLE_CLASSES:
            for b in range(-10, 11):
                for b_next in range(-10, 11):
                    stacked = twist_apply(b_next, twist_apply(b, cls))
                    direct = twist_apply(twist_compose(b, b_next), cls)
                    assert stacked == direct

    def test_opposite_degrees_cancel(self):
        assert twist_compose(3, -3) == 0
        for cls in SAMPLE_CLASSES:
            assert twist_apply(-3, twist_apply(3, cls)) == cls

    def test_compose_adds(self):
        assert twist_compose(1, 1) == 2

    def test_odd_part_never_moves(self):
        for cls in SAMPLE_CLASSES:
            for b in range(-10, 11):
                assert twist_apply(b, cls).k1 == cls.k1


class TestTwistMatrix:
    def test_matrix_composition_matches_degree_addition(self):
        for b in range(-10, 11):
            for b_next in range(-10, 11):
                product = twist_matrix(b_next) @ twist_matrix(b)
                assert product == twist_matrix(twist_compose(b, b_next))

    def test_determinant_one(self):
        for b in range(-10, 11):
            assert twist_matrix(b).det() == 1

    def test_degree_map_is_injective(self):
        images = {twist_matrix(b) for b in range(-10, 11)}
        assert len(images) == 21

    def test_degree_zero_is_identity_matrix(self):
        assert twist_matrix(0) == IntMatrix2.identity()


class TestTwistProperties:
    @given(SMALL_INT, SMALL_INT, SMALL_INT, SMALL_INT, SMALL_INT, SMALL_INT)
    def test_action_additive_and_odd_fixed(self, x, y, p, q, b, b_next):
        cls = KClass((x, y), (p, q))
        stacked = twist_apply(b_next, twist_apply(b, cls))
        assert stacked == twist_apply(b + b_next, cls)
        assert stacked.k1 == (p, q)

    @given(SMALL_INT, SMALL_INT, SMALL_INT)
    def test_explicit_shear_formula(self, x, y, b):
        assert twist_apply(b, KClass((x, y), (0, 0))).k0 == (x + b * y, y)
