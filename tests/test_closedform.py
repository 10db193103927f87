"""Closed-form Gaussian sums against quadrature and finite-difference oracles."""

import numpy as np
import pytest

from rotalab.closedform import GaussSum1, GaussSum2

RNG = np.random.default_rng(7)


def leg_nodes(lo, hi, n=400):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def random_sum(rng, nterms=2, max_deg=2):
    total = GaussSum1.zero()
    for _ in range(nterms):
        poly = rng.normal(size=rng.integers(1, max_deg + 2)) + 1j * rng.normal(
            size=1
        )
        total = total + GaussSum1.bump(
            width=float(rng.uniform(0.5, 3.0)),
            center=float(rng.uniform(-1.5, 1.5)),
            freq=float(rng.uniform(-2.0, 2.0)),
            poly=tuple(poly),
        )
    return total


class TestOneVariable:
    def test_bump_matches_formula(self):
        f = GaussSum1.bump(width=2.0, center=0.5, freq=1.5)
        r = np.linspace(-3, 3, 41)
        direct = np.exp(-2.0 * (r - 0.5) ** 2 / 2 + 2j * np.pi * 1.5 * r)
        assert np.max(np.abs(f(r) - direct)) < 1e-14

    def test_positivity_guard(self):
        with pytest.raises(ValueError):
            GaussSum1([([[-1.0]], [0.0], [1.0])])

    def test_product_pointwise(self):
        f, g = random_sum(RNG), random_sum(RNG)
        r = np.linspace(-4, 4, 101)
        assert np.max(np.abs((f * g)(r) - f(r) * g(r))) < 1e-10

    def test_linear_structure_pointwise(self):
        f, g = random_sum(RNG), random_sum(RNG)
        r = np.linspace(-4, 4, 101)
        assert np.max(np.abs((f + g.scale(2j))(r) - (f(r) + 2j * g(r)))) < 1e-12

    def test_conjugate_pointwise(self):
        f = random_sum(RNG)
        r = np.linspace(-4, 4, 101)
        assert np.max(np.abs(f.conjugate()(r) - np.conj(f(r)))) < 1e-14

    def test_derivative_against_differences(self):
        f = random_sum(RNG)
        r = np.linspace(-3, 3, 31)
        h = 1e-5
        fd = (f(r + h) - f(r - h)) / (2 * h)
        assert np.max(np.abs(f.derivative()(r) - fd)) < 1e-6

    def test_affine_pointwise(self):
        f = random_sum(RNG)
        r = np.linspace(-3, 3, 31)
        assert np.max(np.abs(f.affine(0.5, -1.25)(r) - f(0.5 * r - 1.25))) < 1e-12

    def test_integral_against_quadrature(self):
        f = random_sum(RNG, nterms=3)
        x, w = leg_nodes(-15, 15, 800)
        assert abs(f.integral() - np.sum(w * f(x))) < 1e-10

    def test_fourier_against_quadrature(self):
        f = random_sum(RNG)
        fhat = f.partial_fourier(0, -1)
        x, w = leg_nodes(-15, 15, 800)
        for s in (-1.7, -0.3, 0.0, 0.9, 2.1):
            direct = np.sum(w * f(x) * np.exp(-2j * np.pi * s * x))
            assert abs(fhat(s) - direct) < 1e-8

    def test_fourier_roundtrip(self):
        f = random_sum(RNG)
        back = f.partial_fourier(0, -1).partial_fourier(0, +1)
        r = np.linspace(-3, 3, 31)
        assert np.max(np.abs(back(r) - f(r))) < 1e-9

    def test_parseval(self):
        f, g = random_sum(RNG), random_sum(RNG)
        lhs = f.l2_inner(g)
        rhs = f.partial_fourier(0, -1).l2_inner(g.partial_fourier(0, -1))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_inner_hermitian(self):
        f, g = random_sum(RNG), random_sum(RNG)
        assert abs(f.l2_inner(g) - np.conj(g.l2_inner(f))) < 1e-11

    def test_moments_with_polynomial(self):
        f = GaussSum1.bump(width=1.3, center=0.4, freq=0.7, poly=(1, -2, 0.5, 1j))
        x, w = leg_nodes(-15, 15, 800)
        assert abs(f.integral() - np.sum(w * f(x))) < 1e-10


def random_sum2(rng, nterms=2):
    total = GaussSum2.zero()
    for _ in range(nterms):
        piece = GaussSum2.outer(random_sum(rng, 1), random_sum(rng, 1))
        # a shear correlates the two slots so cross terms are exercised
        total = total + piece.affine(1.0, float(rng.uniform(-0.6, 0.6)), 0.0, 1.0, 0.1, -0.2)
    return total


class TestTwoVariables:
    def test_outer_pointwise(self):
        f, g = random_sum(RNG), random_sum(RNG)
        fg = GaussSum2.outer(f, g)
        r = np.linspace(-2, 2, 21)[:, None]
        s = np.linspace(-2, 2, 19)[None, :]
        assert np.max(np.abs(fg(r, s) - f(r) * g(s))) < 1e-12

    def test_product_pointwise(self):
        f, g = random_sum2(RNG), random_sum2(RNG)
        r = np.linspace(-2, 2, 21)[:, None]
        s = np.linspace(-2, 2, 19)[None, :]
        assert np.max(np.abs((f * g)(r, s) - f(r, s) * g(r, s))) < 1e-10

    def test_affine_pointwise(self):
        f = random_sum2(RNG)
        r = np.linspace(-2, 2, 15)[:, None]
        s = np.linspace(-2, 2, 17)[None, :]
        moved = f.affine(2.0, 1.0, 0.0, 1.0, 0.3, -0.6)
        direct = f(2.0 * r + 1.0 * s + 0.3, s - 0.6)
        assert np.max(np.abs(moved(r, s) - direct)) < 1e-10

    def test_restrict_line_pointwise(self):
        f = random_sum2(RNG)
        t = np.linspace(-2, 2, 31)
        line = f.restrict_line((1.0, -0.5), (0.25, 0.75))
        assert np.max(np.abs(line(t) - f(1.0 * t + 0.25, -0.5 * t + 0.75))) < 1e-10

    def test_derivatives_against_differences(self):
        f = random_sum2(RNG)
        r = np.linspace(-2, 2, 11)[:, None]
        s = np.linspace(-2, 2, 13)[None, :]
        h = 1e-5
        for slot in (0, 1):
            dr = h if slot == 0 else 0.0
            ds = h if slot == 1 else 0.0
            fd = (f(r + dr, s + ds) - f(r - dr, s - ds)) / (2 * h)
            assert np.max(np.abs(f.derivative(slot)(r, s) - fd)) < 1e-5

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_partial_fourier_against_quadrature(self, slot, sign):
        f = random_sum2(RNG).mul_poly([[1.0, 0.0, -1j], [0.5, 0.0, 0.0]])
        fhat = f.partial_fourier(slot, sign)
        x, w = leg_nodes(-12, 12, 600)
        for kept in (-0.8, 0.4):
            for dual in (-1.1, 0.7):
                if slot == 1:
                    direct = np.sum(
                        w * f(kept, x) * np.exp(sign * 2j * np.pi * dual * x)
                    )
                    value = fhat(kept, dual)
                else:
                    direct = np.sum(
                        w * f(x, kept) * np.exp(sign * 2j * np.pi * dual * x)
                    )
                    value = fhat(dual, kept)
                assert abs(value - direct) < 1e-8

    def test_integral_slot_against_quadrature(self):
        f = random_sum2(RNG)
        x, w = leg_nodes(-12, 12, 600)
        g = f.integral_slot(1)
        for r in (-0.9, 0.0, 1.3):
            assert abs(g(r) - np.sum(w * f(r, x))) < 1e-9

    def test_full_integral_against_quadrature(self):
        f = random_sum2(RNG)
        x, w = leg_nodes(-10, 10, 300)
        grid = np.sum(w[:, None] * w[None, :] * f(x[:, None], x[None, :]))
        assert abs(f.integral() - grid) < 1e-8

    def test_inner_hermitian(self):
        f, g = random_sum2(RNG), random_sum2(RNG)
        assert abs(f.l2_inner(g) - np.conj(g.l2_inner(f))) < 1e-9

    def test_one_variable_arguments_rejected(self):
        f = GaussSum2.outer(GaussSum1.bump(), GaussSum1.bump(width=2.0))
        with pytest.raises(ValueError):
            f.mul_poly((0.0, 1.0))
        with pytest.raises(ValueError):
            f.modulate(1.0)


# ---------------------------------------------------------------------------
# the slot formula against the derivative-loop route it replaced
# ---------------------------------------------------------------------------


def reference_partial_fourier(f, slot, sign):
    """Slot transform built term by term from scaled derivatives.

    The transformed Gaussian is written down directly; each power n of
    the transformed variable then becomes n derivatives in the dual
    variable, each scaled by 1/(sign 2 pi i).
    """
    delta = sign * 2j * np.pi
    kept = 1 - slot
    out = GaussSum2.zero()
    for a, b, p in f.terms:
        ajj, akk, ajk, bj, bk = a[slot, slot], a[kept, kept], a[slot, kept], b[slot], b[kept]
        pref = np.sqrt(2 * np.pi) / np.sqrt(ajj) * np.exp(bj * bj / (2 * ajj))
        moved_a = np.empty((2, 2), dtype=complex)
        moved_a[kept, kept] = akk - ajk * ajk / ajj
        moved_a[slot, slot] = (2 * np.pi) ** 2 / ajj
        moved_a[slot, kept] = moved_a[kept, slot] = delta * ajk / ajj
        moved_b = np.empty(2, dtype=complex)
        moved_b[kept] = bk - bj * ajk / ajj
        moved_b[slot] = delta * bj / ajj
        base = GaussSum2([(moved_a, moved_b, [[pref]])])
        for index, c in np.ndenumerate(p):
            if c == 0:
                continue
            piece = base
            for _ in range(index[slot]):
                piece = piece.derivative(slot).scale(1 / delta)
            power = np.zeros([index[kept] + 1 if axis == kept else 1 for axis in (0, 1)])
            power[-1, -1] = 1.0
            out = out + piece.mul_poly(power).scale(c)
    return out


def reference_integral_slot(f, slot):
    """The transform at dual value 0, restricted to the kept variable."""
    kept_axis = (1.0, 0.0) if slot == 1 else (0.0, 1.0)
    return reference_partial_fourier(f, slot, -1).restrict_line(kept_axis, (0.0, 0.0))


def random_high_degree_sum2(rng, nterms=3, max_deg=6):
    """Correlated two-variable terms, polynomial degree up to max_deg in each slot."""
    terms = []
    for n in range(nterms):
        a11, a22 = rng.uniform(0.8, 2.5, size=2)
        a12 = rng.uniform(-0.5, 0.5) * np.sqrt(a11 * a22)
        im11, im12, im22 = rng.uniform(-0.5, 0.5, size=3)
        a = np.array([[a11 + 1j * im11, a12 + 1j * im12], [a12 + 1j * im12, a22 + 1j * im22]])
        b = rng.uniform(-1.0, 1.0, size=2) + 1j * rng.uniform(-3.0, 3.0, size=2)
        shape = (max_deg + 1, max_deg + 1) if n == 0 else rng.integers(1, max_deg + 2, size=2)
        p = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        terms.append((a, b, p))
    return GaussSum2(terms)


def slot_mesh(slot):
    """A (kept, dual) mesh, kept along rows, in the transform's argument order."""
    kept = np.linspace(-2.0, 2.0, 9)[:, None]
    dual = np.linspace(-1.5, 1.5, 7)[None, :]
    return (kept, dual) if slot == 1 else (dual, kept)


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestSlotFormula:
    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_partial_fourier_matches_derivative_reference(self, slot, sign):
        rng = np.random.default_rng(11 + slot + 2 * sign)
        for _ in range(3):
            f = random_high_degree_sum2(rng)
            points = slot_mesh(slot)
            want = reference_partial_fourier(f, slot, sign)(*points)
            assert relative_gap(f.partial_fourier(slot, sign)(*points), want) < 1e-10

    @pytest.mark.parametrize("slot", [0, 1])
    def test_integral_slot_matches_derivative_reference(self, slot):
        rng = np.random.default_rng(23 + slot)
        r = np.linspace(-2.0, 2.0, 17)
        for _ in range(3):
            f = random_high_degree_sum2(rng)
            want = reference_integral_slot(f, slot)(r)
            assert relative_gap(f.integral_slot(slot)(r), want) < 1e-10

    @pytest.mark.parametrize("slot", [0, 1])
    def test_both_routes_against_quadrature(self, slot):
        rng = np.random.default_rng(31 + slot)
        x, w = leg_nodes(-12, 12, 600)
        f = random_high_degree_sum2(rng)
        kept, dual = np.linspace(-2.0, 2.0, 9), np.linspace(-1.5, 1.5, 7)
        direct = np.empty((9, 7), dtype=complex)
        for i, k in enumerate(kept):
            samples = f(k, x) if slot == 1 else f(x, k)
            direct[i] = np.exp(-2j * np.pi * np.outer(dual, x)) @ (w * samples)
        points = slot_mesh(slot)
        for route in (f.partial_fourier(slot, -1), reference_partial_fourier(f, slot, -1)):
            assert relative_gap(route(*points), direct) < 1e-10
