"""Closed-form Gaussian sums against quadrature and finite-difference oracles."""

import cmath
import math

import numpy as np
import pytest

from rotalab.bimodules import RGrid
from rotalab.closedform import GaussSum, _integrate_slot, _poly_add, _poly_mul
from rotalab.duality import SB2Function, resolvent_residual
from rotalab.nctorus import _worst

RNG = np.random.default_rng(7)


def leg_nodes(lo, hi, n=400):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def random_sum(rng, nterms=2, max_deg=2):
    total = GaussSum()
    for _ in range(nterms):
        poly = rng.normal(size=rng.integers(1, max_deg + 2)) + 1j * rng.normal(
            size=1
        )
        total = total + GaussSum.bump(
            width=float(rng.uniform(0.5, 3.0)),
            center=float(rng.uniform(-1.5, 1.5)),
            freq=float(rng.uniform(-2.0, 2.0)),
            poly=tuple(poly),
        )
    return total


class TestOneVariable:
    def test_bump_matches_formula(self):
        f = GaussSum.bump(width=2.0, center=0.5, freq=1.5)
        r = np.linspace(-3, 3, 41)
        direct = np.exp(-2.0 * (r - 0.5) ** 2 / 2 + 2j * np.pi * 1.5 * r)
        assert np.max(np.abs(f(r) - direct)) < 1e-14

    def test_positivity_guard(self):
        with pytest.raises(ValueError):
            GaussSum([([[-1.0]], [0.0], [1.0])])

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
        f = GaussSum.bump(width=1.3, center=0.4, freq=0.7, poly=(1, -2, 0.5, 1j))
        x, w = leg_nodes(-15, 15, 800)
        assert abs(f.integral() - np.sum(w * f(x))) < 1e-10


def random_sum2(rng, nterms=2):
    total = GaussSum()
    for _ in range(nterms):
        piece = GaussSum.outer(random_sum(rng, 1), random_sum(rng, 1))
        # a shear correlates the two slots so cross terms are exercised
        total = total + piece.affine(1.0, float(rng.uniform(-0.6, 0.6)), 0.0, 1.0, 0.1, -0.2)
    return total


class TestTwoVariables:
    def test_outer_pointwise(self):
        f, g = random_sum(RNG), random_sum(RNG)
        fg = GaussSum.outer(f, g)
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
        f = GaussSum.outer(GaussSum.bump(), GaussSum.bump(width=2.0))
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
    out = GaussSum()
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
        base = GaussSum([(moved_a, moved_b, [[pref]])])
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
    return GaussSum(terms)


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


# ---------------------------------------------------------------------------
# affine substitution and line restriction against pointwise evaluation
# ---------------------------------------------------------------------------


def one_term_sum(rng, shape):
    """One correlated term in len(shape) variables with a dense polynomial of that shape."""
    d = len(shape)
    root = rng.normal(size=(d, d))
    tilt = rng.normal(size=(d, d))
    a = root @ root.T + d * np.eye(d) + 0.3j * (tilt + tilt.T)
    b = rng.normal(size=d) + 1j * rng.normal(size=d)
    p = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return GaussSum([(a, b, p)])


SHAPES2 = [(1, 1), (1, 6), (6, 1), (3, 4), (6, 6)]
MATRICES2 = {
    "full": ((0.8, -0.6), (0.4, 1.3)),
    "lower": ((1.1, 0.0), (0.7, 0.9)),
    "one_zero": ((0.0, 1.2), (-0.9, 0.5)),
    # triangular with an identity row; with the shift (0.0, 0.25) its c_0 is 0
    "identity_row": ((1.0, 0.0), (0.7, 0.9)),
}
SHIFTS2 = [(0.3, -0.4), (0.0, 0.25)]


class TestSubstitution:
    @pytest.mark.parametrize("shape", SHAPES2)
    @pytest.mark.parametrize("matrix", list(MATRICES2))
    @pytest.mark.parametrize("shift", SHIFTS2)
    def test_affine_two_variables(self, shape, matrix, shift):
        f = one_term_sum(np.random.default_rng(sum(shape)), shape)
        t = np.array(MATRICES2[matrix])
        r = np.linspace(-1.5, 1.5, 9)[:, None]
        s = np.linspace(-1.2, 1.4, 8)[None, :]
        want = f(t[0, 0] * r + t[0, 1] * s + shift[0], t[1, 0] * r + t[1, 1] * s + shift[1])
        assert relative_gap(f.affine(*t.ravel(), *shift)(r, s), want) < 1e-12

    @pytest.mark.parametrize("shape", SHAPES2)
    @pytest.mark.parametrize("u", [(1.0, -0.5), (0.0, 1.0), (0.7, 0.0)])
    @pytest.mark.parametrize("v", SHIFTS2)
    def test_restrict_line_two_variables(self, shape, u, v):
        f = one_term_sum(np.random.default_rng(10 + sum(shape)), shape)
        t = np.linspace(-2.0, 2.0, 17)
        want = f(u[0] * t + v[0], u[1] * t + v[1])
        assert relative_gap(f.restrict_line(u, v)(t), want) < 1e-12

    @pytest.mark.parametrize("shape", [(1,), (6,)])
    @pytest.mark.parametrize("shift", [0.0, -1.25])
    def test_one_variable(self, shape, shift):
        f = one_term_sum(np.random.default_rng(20 + shape[0]), shape)
        t = np.linspace(-2.0, 2.0, 17)
        assert relative_gap(f.affine(0.5, shift)(t), f(0.5 * t + shift)) < 1e-12
        assert relative_gap(f.restrict_line((0.8,), (shift,))(t), f(0.8 * t + shift)) < 1e-12

    def test_three_variables(self):
        f = one_term_sum(np.random.default_rng(30), (3, 2, 4))
        t = np.array([[1.0, 0.5, 0.0], [0.0, 0.9, -0.4], [0.3, 0.0, 1.1]])
        shift = (0.2, 0.0, -0.3)
        y = np.meshgrid(*(np.linspace(-1.0, 1.0, 5),) * 3, indexing="ij", sparse=True)
        want = f(*(sum(t[j, k] * y[k] for k in range(3)) + shift[j] for j in range(3)))
        assert relative_gap(f.affine(*t.ravel(), *shift)(*y), want) < 1e-12
        line = f.restrict_line((0.6, 0.0, -1.0), shift)
        x = np.linspace(-2.0, 2.0, 17)
        assert relative_gap(line(x), f(0.6 * x + 0.2, 0.0 * x, -1.0 * x - 0.3)) < 1e-12

    def test_constant_without_variables(self):
        f = GaussSum([(np.zeros((0, 0)), np.zeros(0), 2.0 - 1.0j)])
        assert f() == 2.0 - 1.0j
        assert f.affine()() == 2.0 - 1.0j
        t = np.linspace(-2.0, 2.0, 5)
        assert np.array_equal(f.restrict_line((), ())(t), np.full(5, 2.0 - 1.0j))


class TestEvaluationBroadcast:
    """Evaluation on broadcastable arguments equals evaluation on broadcast copies, bit for bit."""

    def test_mesh(self):
        f = random_high_degree_sum2(np.random.default_rng(41))
        r = np.linspace(-2.0, 2.0, 26)[:, None]
        s = np.linspace(-1.7, 2.3, 25)[None, :]
        assert f(r, s).tobytes() == f(*np.broadcast_arrays(r, s)).tobytes()

    def test_scalar_with_array(self):
        f = random_high_degree_sum2(np.random.default_rng(43))
        s = np.linspace(-1.7, 2.3, 25)
        assert f(0.3, s).tobytes() == f(np.full_like(s, 0.3), s).tobytes()
        assert f(s, -0.6).tobytes() == f(s, np.full_like(s, -0.6)).tobytes()
        value = f(0.3, -0.6)
        assert isinstance(value, complex)
        assert value == f(np.array([0.3]), np.array([-0.6]))[0]

    def test_point_sweep(self):
        # a point of Python floats reads the bits of the same point as one-element arrays
        mismatches = []
        for seed in range(400):
            rng = np.random.default_rng(seed)
            f = random_high_degree_sum2(rng)
            for x, y in rng.uniform(-2.0, 2.0, size=(5, 2)).tolist():
                if f(x, y) != f(np.array([x]), np.array([y]))[0]:
                    mismatches.append((seed, x, y))
        assert mismatches == []


# ---------------------------------------------------------------------------
# the linear-form kernel against the formulas it replaced
# ---------------------------------------------------------------------------


def _linear(const, coeffs):
    """const + sum_k coeffs[k] x_k, with a degree-one axis only where coeffs[k] != 0."""
    p = np.zeros(tuple(1 + (c != 0) for c in coeffs), dtype=complex)
    p[(0,) * len(coeffs)] = const
    for k, c in enumerate(coeffs):
        if c != 0:
            p[(0,) * k + (1,) + (0,) * (len(coeffs) - k - 1)] = c
    return p


def moment_reference(a, b, p, j):
    """The slot integral by the forward recurrence M_n = m M_{n-1} + (n - 1) M_{n-2} / A_jj."""
    ajj, bj = a[j, j], b[j]
    keep = [k for k in range(len(b)) if k != j]
    cross = a[keep, j]
    mean = _linear(bj / ajj, -cross / ajj)
    slices = p.transpose([j, *keep])
    moments = [np.ones((1,) * len(keep), dtype=complex), mean]
    out = slices[0, ...]
    for n in range(1, len(slices)):
        if n > 1:
            moments.append(_poly_add(_poly_mul(mean, moments[-1]), moments[-2] * ((n - 1) / ajj)))
        out = _poly_add(out, _poly_mul(slices[n, ...], moments[n]))
    return out * (math.sqrt(2 * math.pi) / cmath.sqrt(ajj) * cmath.exp(bj * bj / (2 * ajj)))


def derivative_reference(a, b, p, slot):
    """dP/dx_j + P (B_j - sum_k A_jk x_k), by a product with a linear polynomial."""
    n = p.shape[slot]
    steps = np.arange(1, n).reshape((-1,) + (1,) * (p.ndim - slot - 1))
    dp = np.take(p, range(1, n), axis=slot) * steps if n > 1 else np.zeros((1,) * p.ndim)
    return _poly_add(dp, _poly_mul(p, _linear(b[slot], -a[slot])))


def random_term(rng, shape, zero=None):
    """One term with Re A positive definite; zero=(j, k) sets A_jk = A_kj = 0."""
    d = len(shape)
    root = rng.normal(size=(d, d))
    tilt = rng.normal(size=(d, d))
    a = root @ root.T + d * np.eye(d) + 0.3j * (tilt + tilt.T)
    if zero is not None:
        a[zero] = a[zero[::-1]] = 0.0
    b = rng.normal(size=d) + 1j * rng.normal(size=d)
    return a, b, rng.normal(size=shape) + 1j * rng.normal(size=shape)


def widened_term(rng, shape, slot):
    """A two-variable term widened by a Fourier kernel as partial_fourier builds it."""
    a, b, p = random_term(rng, shape)
    dual = slot + 1
    keep = [k for k in range(3) if k != dual]
    wide, wide_b = np.zeros((3, 3), dtype=complex), np.zeros(3, dtype=complex)
    wide[np.ix_(keep, keep)], wide_b[keep] = a, b
    wide[slot, dual] = wide[dual, slot] = 2j * math.pi
    return wide, wide_b, np.expand_dims(p, dual)


KERNEL_CASES = [
    ("one_variable", (5,), 0, None),
    ("one_variable_degree_0", (1,), 0, None),
    ("degree_0", (1, 4), 0, None),
    ("two_variables", (6, 4), 0, None),
    ("two_variables_last", (3, 7), 1, None),
    ("zero_cross", (4, 3, 5), 1, (0, 1)),
    ("three_variables", (3, 4, 2), 2, None),
]


class TestLinearFormKernel:
    @pytest.mark.parametrize("name, shape, j, zero", KERNEL_CASES)
    def test_slot_integral_matches_moment_recurrence(self, name, shape, j, zero):
        rng = np.random.default_rng(len(name) + 10 * j)
        for _ in range(3):
            a, b, p = random_term(rng, shape, zero)
            want = moment_reference(a, b, p, j)
            got = _integrate_slot(a, b, p, j)[2]
            assert got.shape == want.shape
            assert relative_gap(got, want) < 1e-13

    @pytest.mark.parametrize("slot", [0, 1])
    def test_widened_slot_integral_matches_moment_recurrence(self, slot):
        rng = np.random.default_rng(50 + slot)
        for shape in [(8, 11), (3, 3), (1, 5)]:
            a, b, p = widened_term(rng, shape, slot)
            want = moment_reference(a, b, p, slot)
            got = _integrate_slot(a, b, p, slot)[2]
            assert got.shape == want.shape
            assert relative_gap(got, want) < 1e-13

    @pytest.mark.parametrize("name, shape, j, zero", KERNEL_CASES)
    def test_derivative_matches_linear_product(self, name, shape, j, zero):
        rng = np.random.default_rng(60 + len(name) + 10 * j)
        for _ in range(3):
            a, b, p = random_term(rng, shape, zero)
            ((_, _, got),) = GaussSum([(a, b, p)]).derivative(j).terms
            want = derivative_reference(a, b, p, j)
            assert got.shape == want.shape
            assert relative_gap(got, want) < 1e-13


class TestPolyProduct:
    @pytest.mark.parametrize(
        "p_shape, q_shape", [((1,), (4,)), ((5,), (3,)), ((3, 2), (2, 4)), ((2, 3, 2), (3, 1, 2))]
    )
    def test_matches_the_coefficient_loop(self, p_shape, q_shape):
        # reference: out[i + j] += p[i] * q[j] over the multi-indices of p in row-major order,
        # the order in which _poly_mul's flat convolution adds its terms
        rng = np.random.default_rng(len(p_shape) + 3 * p_shape[0])
        p = rng.normal(size=p_shape) + 1j * rng.normal(size=p_shape)
        q = rng.normal(size=q_shape) + 1j * rng.normal(size=q_shape)
        shape = tuple(i + j - 1 for i, j in zip(p_shape, q_shape))
        want = np.zeros(shape, dtype=complex)
        scale = np.zeros(shape)
        for i in np.ndindex(p_shape):
            for j in np.ndindex(q_shape):
                k = tuple(a + b for a, b in zip(i, j))
                want[k] += p[i] * q[j]
                scale[k] += abs(p[i]) * abs(q[j])
        got = _poly_mul(p, q)
        assert got.shape == want.shape
        # numpy's array product may round each term with a fused multiply-add where the scalar
        # product does not; either sum of at most p.size terms is within (p.size + 1) eps / 2
        # of the exact one, relative to the sum of the terms' sizes
        assert np.all(np.abs(got - want) <= (p.size + 1) * np.finfo(float).eps * scale)


# ---------------------------------------------------------------------------
# residuals on open sample meshes against full ones
# ---------------------------------------------------------------------------


def open_mesh_function():
    grid = RGrid(8.0, 64)
    rng = np.random.default_rng(71)
    profiles = {
        (0, 0): random_high_degree_sum2(rng),
        (1, -1): random_high_degree_sum2(rng, nterms=2, max_deg=3),
        (-1, 2): random_sum2(rng),
    }
    return SB2Function(1, 3, grid, grid, profiles)


def full_mesh_resolvent_residual(psi1, psi2, sign):
    """resolvent_residual with every profile evaluated on the full node mesh."""
    rr, ss = np.meshgrid(psi1.rgrid.nodes(), psi1.sgrid.nodes(), indexing="ij")
    quad = 1.0 + rr * rr + ss * ss

    def shift(f, c):
        return (rr + 1j * ss) * f[1] - c * 1j * f[0], (rr - 1j * ss) * f[0] - c * 1j * f[1]

    defects = []
    for key in set(psi1.profiles) | set(psi2.profiles):
        psi = (psi1.profile(*key)(rr, ss), psi2.profile(*key)(rr, ss))
        phi = tuple(part / quad for part in shift(psi, sign))
        defects += [float(np.max(np.abs(got - want))) for got, want in zip(shift(phi, -sign), psi)]
    return _worst(defects)


class TestOpenMesh:
    def test_sup_norm_bitwise(self):
        fn = open_mesh_function()
        r, s = fn._mesh()
        assert r.shape == (len(r), 1) and s.shape == (1, s.size)
        full = np.meshgrid(r.ravel(), s.ravel(), indexing="ij")
        want = _worst(float(np.max(np.abs(p(*full)))) for p in fn.profiles.values())
        assert fn.sup_norm() == want

    @pytest.mark.parametrize("sign", [1, -1])
    def test_resolvent_residual_bitwise(self, sign):
        psi1 = open_mesh_function()
        psi2 = psi1.map(lambda key, g: g.derivative(1))
        want = full_mesh_resolvent_residual(psi1, psi2, sign)
        assert resolvent_residual(psi1, psi2, sign) == want
