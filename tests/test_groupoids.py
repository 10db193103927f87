"""Exact groupoid laws, matrix transport, and the transversal actions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotalab.errors import (
    DegreeOverflow,
    InvalidMu,
    NotComposable,
    NotInFg,
    NotInReduction,
    UnsupportedMatrix,
)
from rotalab.groupoids import (
    BalancedPair,
    FlowArrow,
    LatticeFlowArrow,
    LineOrbitPoint,
    RotationArrow,
    TransversalPoint,
    balanced_to_transversal,
    flow_act_on_line_orbit,
    flow_compose,
    flow_transport,
    lattice_act_on_transversal,
    lattice_arrow_from_times,
    lattice_compose,
    lattice_times_to_labels_numeric,
    reduction_iso,
    rotation_act_on_line_orbit,
    rotation_compose,
    rotation_pair_act_on_transversal,
    transversal_roundtrip,
    transversal_to_balanced,
)
from rotalab.sampling import (
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
from rotalab.scalars import (
    THETA,
    ZERO,
    IntMatrix2,
    ThetaScalar,
    TorusPoint,
    mobius_defect,
    torus_reduce,
)

THETA_NUM = 0.7071067811865476


def frac(n, d=1):
    return Fraction(n, d)


# ---------------------------------------------------------------------------
# rotation groupoid
# ---------------------------------------------------------------------------


class TestRotationGroupoid:
    def test_compose_example(self):
        x = torus_reduce(frac(1, 3))
        f = RotationArrow(x, 2)
        h = RotationArrow(x - THETA * 2, 3)
        assert rotation_compose(f, h) == RotationArrow(x, 5)

    def test_source_formula(self):
        x = torus_reduce(frac(1, 4))
        assert RotationArrow(x, 3).source == x - THETA * 3

    def test_mismatch_raises(self):
        x = torus_reduce(frac(1, 3))
        with pytest.raises(NotComposable):
            rotation_compose(RotationArrow(x, 2), RotationArrow(x, 3))

    def test_batch_axioms(self):
        rng = random.Random(101)
        for _ in range(1000):
            f, h, j = rotation_chain(rng)
            left = rotation_compose(rotation_compose(f, h), j)
            right = rotation_compose(f, rotation_compose(h, j))
            assert left == right
            assert rotation_compose(f, f.inverse()) == RotationArrow(f.range, 0)
            assert rotation_compose(f.inverse(), f) == RotationArrow(f.source, 0)
            assert rotation_compose(f, RotationArrow(f.source, 0)) == f

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_inverse_labels(self, n, m):
        x = torus_reduce(frac(2, 7))
        f = RotationArrow(x, n)
        assert f.inverse().n == -n
        assert rotation_compose(f, RotationArrow(f.source, m)).n == n + m


# ---------------------------------------------------------------------------
# flow groupoid
# ---------------------------------------------------------------------------


class TestFlowGroupoid:
    def test_from_time_displacement(self):
        x, y = torus_reduce(frac(1, 3)), torus_reduce(frac(1, 5))
        t = ThetaScalar(frac(1, 2), frac(3))
        a = FlowArrow.from_time(x, y, t)
        assert a.time == t
        assert a.dx == t * THETA
        assert a.source == (x - t * THETA, y - t)

    def test_quadratic_time_overflows(self):
        x = torus_reduce(0)
        with pytest.raises(DegreeOverflow):
            FlowArrow.from_time(x, x, ThetaScalar(0, 0, 1))

    def test_batch_axioms(self):
        rng = random.Random(102)
        for _ in range(1000):
            f, h, j = flow_chain(rng, 3)
            left = flow_compose(flow_compose(f, h), j)
            right = flow_compose(f, flow_compose(h, j))
            assert left == right
            assert flow_compose(f, f.inverse()) == FlowArrow(*f.range, ZERO, ZERO)
            assert flow_compose(f.inverse(), f) == FlowArrow(*f.source, ZERO, ZERO)

    def test_mismatch_raises(self):
        x = torus_reduce(frac(1, 3))
        f = FlowArrow.from_time(x, x, 1)
        with pytest.raises(NotComposable):
            flow_compose(f, f)


class TestReduction:
    def test_example(self):
        x = torus_reduce(frac(2, 5))
        axis = torus_reduce(0)
        a = FlowArrow.from_time(x, axis, 3)
        assert reduction_iso(a) == RotationArrow(x, 3)

    def test_off_axis_rejected(self):
        x = torus_reduce(frac(2, 5))
        with pytest.raises(NotInReduction):
            reduction_iso(FlowArrow.from_time(x, x, 3))

    def test_non_integer_time_rejected(self):
        x, axis = torus_reduce(frac(2, 5)), torus_reduce(0)
        with pytest.raises(NotInReduction):
            reduction_iso(FlowArrow.from_time(x, axis, frac(1, 2)))

    def test_homomorphism(self):
        rng = random.Random(103)
        axis = torus_reduce(0)
        for _ in range(200):
            x = torus_point(rng)
            n1, n2 = rng.randint(-5, 5), rng.randint(-5, 5)
            f = FlowArrow.from_time(x, axis, n1)
            h = FlowArrow.from_time(f.source[0], axis, n2)
            assert reduction_iso(flow_compose(f, h)) == rotation_compose(
                reduction_iso(f), reduction_iso(h)
            )


class TestFlowTransport:
    def test_identity_matrix(self):
        rng = random.Random(104)
        a = flow_chain(rng, 1)[0]
        assert flow_transport(a, IntMatrix2.identity()) == a

    def test_time_rescaled_by_bottom_row(self):
        x, y = torus_reduce(frac(1, 3)), torus_reduce(frac(1, 7))
        t = ThetaScalar(frac(2), frac(1, 2))
        a = FlowArrow.from_time(x, y, t)
        m = IntMatrix2(2, 1, 1, 1)
        moved = flow_transport(a, m)
        assert moved.time == t * ThetaScalar(m.d, m.c)
        assert moved.range == m.apply_pair(x, y)

    def test_functoriality_hundred_pairs(self):
        rng = random.Random(105)
        for _ in range(100):
            m, n = unimodular(rng), unimodular(rng)
            a = flow_chain(rng, 1)[0]
            assert flow_transport(flow_transport(a, m), n) == flow_transport(a, n @ m)

    def test_homomorphism(self):
        rng = random.Random(106)
        for _ in range(200):
            m = unimodular(rng)
            f, h = flow_chain(rng, 2)
            assert flow_transport(flow_compose(f, h), m) == flow_compose(
                flow_transport(f, m), flow_transport(h, m)
            )

    def test_sign_matters(self):
        x = torus_reduce(frac(1, 3))
        a = FlowArrow.from_time(x, torus_reduce(0), 1)
        m = IntMatrix2.identity()
        neg = IntMatrix2(-1, 0, 0, -1)
        assert flow_transport(a, m) != flow_transport(a, neg)

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=50)
    def test_inverse_transport_roundtrip(self, b, n, k):
        m = IntMatrix2(1, b, 0, 1) @ IntMatrix2(1, 0, n, 1)
        a = FlowArrow.from_time(
            torus_reduce(frac(1, 5)), torus_reduce(frac(k, 7)), frac(3, 2)
        )
        assert flow_transport(flow_transport(a, m), m.inverse()) == a


# ---------------------------------------------------------------------------
# lattice-flow groupoid
# ---------------------------------------------------------------------------


class TestLatticeFlow:
    def test_first_time_shear(self):
        g = shear(2)
        a = LatticeFlowArrow(torus_reduce(0), torus_reduce(0), 3, 1, g)
        assert a.first_time() == (ThetaScalar.of(3) + THETA) / 2

    def test_times_roundtrip_exact(self):
        rng = random.Random(107)
        for b in (1, 2, 3):
            g = shear(b)
            for _ in range(200):
                x, y = torus_point(rng), torus_point(rng)
                k, l = rng.randint(-5, 5), rng.randint(-5, 5)
                a = LatticeFlowArrow(x, y, k, l, g)
                t1, t2 = a.first_time(), a.second_time()
                assert lattice_arrow_from_times(x, y, t1, t2, g) == a

    def test_bad_times_rejected(self):
        g = shear(2)
        a = LatticeFlowArrow(torus_reduce(0), torus_reduce(0), 3, 1, g)
        t1, t2 = a.first_time(), a.second_time()
        with pytest.raises(NotInFg):
            lattice_arrow_from_times(
                torus_reduce(0), torus_reduce(0), t1 + frac(1, 3), t2, g
            )

    def test_numeric_labels_general_matrix(self):
        g = IntMatrix2(2, 1, 1, 1)
        mu = mobius_defect(g).evalf(THETA_NUM)
        for k, l in [(3, 1), (-2, 5), (0, -4)]:
            t1 = (k + l * THETA_NUM) / mu
            t2 = (k * (g.c * THETA_NUM + g.d) + l * (g.a * THETA_NUM + g.b)) / mu
            assert lattice_times_to_labels_numeric(t1, t2, g, THETA_NUM) == (k, l)

    def test_numeric_bad_pair_rejected(self):
        g = IntMatrix2(2, 1, 1, 1)
        with pytest.raises(NotInFg):
            lattice_times_to_labels_numeric(0.25, 0.125, g, THETA_NUM)

    def test_exact_times_need_upper_triangular(self):
        g = IntMatrix2(2, 1, 1, 1)
        a = LatticeFlowArrow(torus_reduce(0), torus_reduce(0), 1, 0, g)
        with pytest.raises(UnsupportedMatrix):
            a.first_time()

    def test_exact_times_need_a_rational_defect_at_det_minus_one(self):
        # c = 0 but a != d: the defect 2 + 2 theta is not rational
        g = IntMatrix2(1, 2, 0, -1)
        a = LatticeFlowArrow(torus_reduce(0), torus_reduce(0), 1, 0, g)
        with pytest.raises(UnsupportedMatrix, match="rational defect"):
            a.first_time()

    def test_batch_axioms(self):
        rng = random.Random(108)
        for b in (1, 2, 3):
            g = shear(b)
            for _ in range(334):
                f, h, j = lattice_chain(rng, g, 3)
                left = lattice_compose(lattice_compose(f, h), j)
                right = lattice_compose(f, lattice_compose(h, j))
                assert left == right
                assert lattice_compose(f, f.inverse()).is_unit
                assert lattice_compose(f.inverse(), f).is_unit

    def test_cross_matrix_rejected(self):
        a = LatticeFlowArrow(torus_reduce(0), torus_reduce(0), 0, 0, shear(1))
        b = LatticeFlowArrow(torus_reduce(0), torus_reduce(0), 0, 0, shear(2))
        with pytest.raises(NotComposable):
            lattice_compose(a, b)


# ---------------------------------------------------------------------------
# line-orbit transversal
# ---------------------------------------------------------------------------


class TestLineOrbit:
    def test_actions_commute(self):
        rng = random.Random(109)
        for _ in range(200):
            p = LineOrbitPoint(torus_point(rng), theta_scalar(rng))
            t = ThetaScalar(rational(rng), rational(rng))
            n = rng.randint(-5, 5)

            moved = flow_act_on_line_orbit(
                FlowArrow(*_position_arrow(p, t)), p
            )
            both1 = rotation_act_on_line_orbit(moved, RotationArrow(moved.x, n))

            slid = rotation_act_on_line_orbit(p, RotationArrow(p.x, n))
            both2 = flow_act_on_line_orbit(
                FlowArrow(*_position_arrow(slid, t)), slid
            )
            assert both1 == both2

    def test_rotation_action_fixes_position(self):
        p = LineOrbitPoint(torus_reduce(frac(1, 3)), ThetaScalar(frac(1, 2)))
        q = rotation_act_on_line_orbit(p, RotationArrow(p.x, 4))
        assert q.position() == p.position()

    def test_anchor_checks(self):
        p = LineOrbitPoint(torus_reduce(frac(1, 3)), ThetaScalar(frac(1, 2)))
        with pytest.raises(NotComposable):
            rotation_act_on_line_orbit(p, RotationArrow(torus_reduce(0), 1))


def _position_arrow(p, t):
    """Range anchor and displacement of the flow arrow that moves p by t."""
    px, py = p.position()
    return (px + t * THETA, py + t, t * THETA, ThetaScalar.of(t))


# ---------------------------------------------------------------------------
# two-sided transversal
# ---------------------------------------------------------------------------


def _left_arrow(z, l1, l2):
    """The doubled-label arrow with labels (l1, l2) anchored to act on z."""
    b = z.g.b
    new_r = (ThetaScalar.of(l1) + THETA * l2) / b + z.r
    return LatticeFlowArrow(
        z.v + new_r * THETA, torus_reduce(new_r), l1, l2, z.g
    )


class TestTransversal:
    def test_defect_guard(self):
        with pytest.raises(InvalidMu):
            TransversalPoint(
                torus_reduce(0), ThetaScalar.of(0), 0, IntMatrix2.identity()
            )

    @pytest.mark.parametrize(
        "g", [IntMatrix2(1, 2, 0, -1), IntMatrix2(2, 1, 1, 1), IntMatrix2(0, -1, 1, 0)]
    )
    def test_defect_that_is_not_rational_is_unsupported_at_construction(self, g):
        # the balanced representative of such a point fails its roundtrip
        with pytest.raises(UnsupportedMatrix, match="rational defect"):
            TransversalPoint(torus_reduce(0), ThetaScalar.of(0), 0, g)

    def test_left_action_unit_label(self):
        rng = random.Random(110)
        for b in (1, 2, 3):
            z = transversal_point(rng, b)
            moved = lattice_act_on_transversal(_left_arrow(z, b, 0), z)
            assert moved == TransversalPoint(z.v, z.r + 1, z.k, z.g)

    def test_left_action_second_label(self):
        rng = random.Random(111)
        for b in (1, 2, 3):
            for l2 in (-2, 1, 3):
                z = transversal_point(rng, b)
                moved = lattice_act_on_transversal(_left_arrow(z, 0, l2), z)
                assert moved.k == z.k + l2
                assert moved.r == z.r + THETA * l2 / b
                assert moved.v == z.v

    def test_left_action_anchor_checked(self):
        rng = random.Random(112)
        z = transversal_point(rng, 2)
        bad = LatticeFlowArrow(z.v, torus_reduce(0), 2, 0, z.g)
        with pytest.raises(NotComposable):
            lattice_act_on_transversal(bad, z)

    def test_left_action_needs_unit_shear(self):
        g = IntMatrix2(-1, 2, 0, -1)
        z = TransversalPoint(torus_reduce(0), ThetaScalar.of(0), 0, g)
        arrow = LatticeFlowArrow(torus_reduce(0), torus_reduce(0), 2, 0, g)
        with pytest.raises(UnsupportedMatrix):
            lattice_act_on_transversal(arrow, z)

    def test_right_action_formula(self):
        rng = random.Random(113)
        for b in (1, 2, 3):
            z = transversal_point(rng, b)
            k1, k2 = 2, -3
            moved = rotation_pair_act_on_transversal(
                z,
                RotationArrow(z.v, k1),
                RotationArrow(z.paired_circle_point(), k2),
            )
            assert moved == TransversalPoint(
                z.v - THETA * k1, z.r + k1, z.k + k2 - k1, z.g
            )

    def test_right_action_anchors_checked(self):
        rng = random.Random(114)
        z = transversal_point(rng, 1)
        with pytest.raises(NotComposable):
            rotation_pair_act_on_transversal(
                z,
                RotationArrow(z.v + frac(1, 3), 1),
                RotationArrow(z.paired_circle_point(), 1),
            )
        with pytest.raises(NotComposable):
            rotation_pair_act_on_transversal(
                z,
                RotationArrow(z.v, 1),
                RotationArrow(z.paired_circle_point() + frac(1, 3), 1),
            )

    def test_actions_commute_batches(self):
        rng = random.Random(115)
        for b in (1, 2, 3):
            for _ in range(167):
                z = transversal_point(rng, b)
                l1, l2 = rng.randint(-4, 4), rng.randint(-4, 4)
                k1, k2 = rng.randint(-4, 4), rng.randint(-4, 4)

                za = lattice_act_on_transversal(_left_arrow(z, l1, l2), z)
                za = rotation_pair_act_on_transversal(
                    za,
                    RotationArrow(za.v, k1),
                    RotationArrow(za.paired_circle_point(), k2),
                )

                zb = rotation_pair_act_on_transversal(
                    z,
                    RotationArrow(z.v, k1),
                    RotationArrow(z.paired_circle_point(), k2),
                )
                zb = lattice_act_on_transversal(_left_arrow(zb, l1, l2), zb)

                assert za == zb


class TestBalancedRoundtrip:
    def test_roundtrip_plain(self):
        rng = random.Random(116)
        for b in (1, 2, 3):
            for _ in range(100):
                z = transversal_point(rng, b)
                assert transversal_roundtrip(z) == z

    def test_roundtrip_with_rebalancing(self):
        rng = random.Random(117)
        for b in (1, 2, 3):
            for _ in range(167):
                z = transversal_point(rng, b)
                s1 = ThetaScalar(rational(rng), rational(rng))
                s2 = ThetaScalar(rational(rng), rational(rng))
                assert transversal_roundtrip(z, s1, s2) == z

    @pytest.mark.parametrize("g", [IntMatrix2(-1, 2, 0, -1), IntMatrix2(-1, -3, 0, -1)])
    def test_roundtrip_at_a_and_d_minus_one(self, g):
        rng = random.Random(119)
        for _ in range(150):
            r = ThetaScalar(rational(rng), rational(rng))
            z = TransversalPoint(torus_point(rng), r, rng.randint(-5, 5), g)
            s1 = ThetaScalar(rational(rng), rational(rng))
            s2 = ThetaScalar(rational(rng), rational(rng))
            assert transversal_roundtrip(z, s1, s2) == z

    def test_rebalancing_preserves_invariants(self):
        rng = random.Random(118)
        z = transversal_point(rng, 2)
        rep = transversal_to_balanced(z)
        moved = rep.rebalance(frac(1, 3), THETA)
        assert (moved.x, moved.y) == (rep.x, rep.y)
        assert moved.t1 + moved.s1 == rep.t1 + rep.s1
        assert moved.t2 + moved.s2 == rep.t2 + rep.s2

    def test_membership_checked(self):
        rng = random.Random(119)
        z = transversal_point(rng, 2)
        rep = transversal_to_balanced(z)
        broken = BalancedPair(
            rep.x + frac(1, 7),
            rep.y,
            rep.t1,
            rep.t2,
            rep.v,
            rep.s1,
            rep.w,
            rep.s2,
            rep.g,
        )
        with pytest.raises(NotComposable):
            balanced_to_transversal(broken)

    def test_integrality_checked(self):
        z = TransversalPoint(
            torus_reduce(frac(1, 5)), ThetaScalar(frac(1, 2)), 1, shear(2)
        )
        rep = transversal_to_balanced(z)
        broken = BalancedPair(
            rep.x,
            rep.y,
            rep.t1,
            rep.t2 + frac(1, 3),
            rep.v,
            rep.s1,
            rep.w,
            rep.s2,
            rep.g,
        )
        with pytest.raises(NotComposable):
            balanced_to_transversal(broken)


class TestTransversalAnchors:
    """The left anchor (v + r theta, [r]) and the right anchor [a v + b r - k theta]."""

    def test_right_anchor_is_the_second_tail(self):
        rng = random.Random(120)
        for i in range(200):
            z = transversal_point(rng, 1 + i % 3)
            assert z.paired_circle_point() == transversal_to_balanced(z).w

    def test_each_anchor_is_fixed_by_the_other_action(self):
        rng = random.Random(122)
        for i in range(300):
            z = transversal_point(rng, 1 + i % 3)
            l1, l2 = rng.randint(-4, 4), rng.randint(-4, 4)
            k1, k2 = rng.randint(-4, 4), rng.randint(-4, 4)
            left = lattice_act_on_transversal(_left_arrow(z, l1, l2), z)
            assert left.paired_circle_point() == z.paired_circle_point()
            right = rotation_pair_act_on_transversal(
                z,
                RotationArrow(z.v, k1),
                RotationArrow(z.paired_circle_point(), k2),
            )
            assert right.anchor() == z.anchor()

    def test_consecutive_right_actions_compose(self):
        rng = random.Random(123)
        for i in range(200):
            z = transversal_point(rng, 1 + i % 3)
            k1, k2, j1, j2 = (rng.randint(-4, 4) for _ in range(4))
            f1, f2 = RotationArrow(z.v, k1), RotationArrow(z.paired_circle_point(), k2)
            z1 = rotation_pair_act_on_transversal(z, f1, f2)
            h1, h2 = RotationArrow(z1.v, j1), RotationArrow(z1.paired_circle_point(), j2)
            z2 = rotation_pair_act_on_transversal(z1, h1, h2)
            # source of each first arrow is the range of the next
            assert f2.source == h2.range and f1.source == h1.range
            once = rotation_pair_act_on_transversal(
                z, rotation_compose(f1, h1), rotation_compose(f2, h2)
            )
            assert once == z2
