"""Coefficient algebra, its two matrix representations, and the flat Dirac."""

import math

import numpy as np
import pytest

from rotalab.errors import TruncationTooSmall
from rotalab.nctorus import (
    SmoothElement,
    basis_dim,
    basis_index,
    interior_mask,
    nct_adjoint,
    nct_dolbeault,
    nct_multiply,
    nct_represent,
    nct_seminorm,
    nct_trace,
)

THETA = 1.0 / math.sqrt(2.0)
LAMBDA = complex(math.cos(2 * math.pi * THETA), math.sin(2 * math.pi * THETA))


def v(theta=THETA):
    return SmoothElement.v_power(1, theta)


def u(theta=THETA):
    return SmoothElement.u_power(1, theta)


def random_element(rng, window=2, theta=THETA, terms=4):
    coeffs = {}
    for _ in range(terms):
        n = int(rng.integers(-window, window + 1))
        m = int(rng.integers(-window, window + 1))
        coeffs[(n, m)] = complex(rng.normal(), rng.normal())
    return SmoothElement(coeffs, theta)


class TestProduct:
    def test_v_times_u(self):
        prod = nct_multiply(v(), u())
        assert prod.coeffs == {(1, 1): 1.0 + 0.0j}

    def test_u_times_v_picks_up_phase(self):
        prod = nct_multiply(u(), v())
        assert set(prod.coeffs) == {(1, 1)}
        assert prod.coefficient(1, 1) == pytest.approx(LAMBDA.conjugate(), abs=1e-15)

    def test_unit_is_neutral(self):
        rng = np.random.default_rng(7)
        a = random_element(rng)
        assert nct_multiply(SmoothElement.unit(THETA), a).coeffs == a.coeffs
        assert nct_multiply(a, SmoothElement.unit(THETA)).coeffs == a.coeffs

    def test_defining_relation_exact(self):
        # VU - lambda UV = 0 on coefficient arrays
        vu = nct_multiply(v(), u())
        uv = nct_multiply(u(), v())
        diff = vu - uv.scale(LAMBDA)
        assert diff.max_abs_difference(SmoothElement({}, THETA)) < 1e-15

    def test_associativity(self):
        rng = np.random.default_rng(11)
        a, b, c = (random_element(rng) for _ in range(3))
        left = nct_multiply(nct_multiply(a, b), c)
        right = nct_multiply(a, nct_multiply(b, c))
        assert left.max_abs_difference(right) < 1e-13


class TestAdjoint:
    def test_v_star(self):
        assert nct_adjoint(v()).coeffs == {(-1, 0): 1.0 - 0.0j}

    def test_involution(self):
        rng = np.random.default_rng(3)
        a = random_element(rng)
        assert nct_adjoint(nct_adjoint(a)).max_abs_difference(a) < 1e-15

    def test_antimultiplicative(self):
        rng = np.random.default_rng(5)
        a, b = random_element(rng), random_element(rng)
        left = nct_adjoint(nct_multiply(a, b))
        right = nct_multiply(nct_adjoint(b), nct_adjoint(a))
        assert left.max_abs_difference(right) < 1e-13

    def test_vu_star_matches_matrix_adjoint(self):
        # oracle: the right representation on a truncation, compared on the
        # doubly interior block where the compression is faithful
        a = nct_multiply(v(), u())
        L = K = 5
        rep = nct_represent(a, "right", L, K)
        rep_star = nct_represent(nct_adjoint(a), "right", L, K)
        mask = interior_mask(L, K, 1, 1)
        sub = rep[np.ix_(mask, mask)]
        sub_star = rep_star[np.ix_(mask, mask)]
        assert np.max(np.abs(sub_star - sub.conj().T)) < 1e-12


class TestTraceAndSeminorm:
    def test_trace_of_affine_combination(self):
        a = SmoothElement({(0, 0): 1.0, (1, 1): 3.0}, THETA)
        assert nct_trace(a) == 1.0

    def test_trace_kills_generators(self):
        assert nct_trace(v()) == 0.0
        assert nct_trace(u()) == 0.0

    def test_trace_cyclic_bitwise(self):
        rng = np.random.default_rng(13)
        a, b = random_element(rng), random_element(rng)
        assert nct_trace(nct_multiply(a, b)) == nct_trace(nct_multiply(b, a))

    def test_trace_positivity_with_matrix_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = random_element(rng)
            val = nct_trace(nct_multiply(nct_adjoint(a), a))
            assert abs(val.imag) < 1e-12
            assert val.real >= -1e-12
            # oracle: trace of x equals the (0,0) diagonal entry of the right
            # representation, so trace(a* a) is the squared length of the
            # image of the corner basis vector
            L = K = 5
            rep = nct_represent(a, "right", L, K)
            e0 = np.zeros(basis_dim(L, K))
            e0[basis_index(0, 0, L, K)] = 1.0
            assert val.real == pytest.approx(np.sum(np.abs(rep @ e0) ** 2), abs=1e-10)

    def test_seminorm_examples(self):
        assert nct_seminorm(v(), 2) == 1.0
        assert nct_seminorm(SmoothElement({}, THETA), 3) == 0.0
        rng = np.random.default_rng(19)
        a = random_element(rng)
        assert nct_seminorm(a.scale(2.0), 4) == pytest.approx(
            2.0 * nct_seminorm(a, 4), rel=1e-15
        )


class TestRepresentations:
    def test_right_v_shifts_torus_mode(self):
        L = K = 3
        rep = nct_represent(v(), "right", L, K)
        src = basis_index(0, 1, L, K)
        dst = basis_index(1, 1, L, K)
        col = rep[:, src]
        assert col[dst] == pytest.approx(1.0)
        assert np.sum(np.abs(col)) == pytest.approx(1.0)

    def test_left_v_twists_by_group_index(self):
        L = K = 3
        rep = nct_represent(v(), "left", L, K)
        for k in range(-K, K + 1):
            src = basis_index(0, k, L, K)
            dst = basis_index(1, k, L, K)
            expected = complex(
                math.cos(2 * math.pi * THETA * k), math.sin(2 * math.pi * THETA * k)
            )
            assert rep[dst, src] == pytest.approx(expected, abs=1e-14)

    def test_unit_representation_is_identity(self):
        L, K = 2, 3
        rep = nct_represent(SmoothElement.unit(THETA), "right", L, K)
        assert np.array_equal(rep, np.eye(basis_dim(L, K)))

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            nct_represent(SmoothElement.v_power(4, THETA), "right", 3, 3)

    def test_multiplicative_on_interior(self):
        rng = np.random.default_rng(23)
        L = K = 6
        for which in ("left", "right"):
            a, b = random_element(rng), random_element(rng)
            pa = nct_represent(a, which, L, K)
            pb = nct_represent(b, which, L, K)
            pab = nct_represent(nct_multiply(a, b), which, L, K)
            wa, wb = a.window(), b.window()
            mask = interior_mask(L, K, wa[0] + wb[0], wa[1] + wb[1])
            err = np.max(np.abs((pa @ pb - pab)[:, mask]))
            assert err < 1e-10

    def test_left_right_commute_on_interior(self):
        rng = np.random.default_rng(29)
        L = K = 6
        for _ in range(5):
            a, b = random_element(rng), random_element(rng)
            pl = nct_represent(a, "left", L, K)
            pr = nct_represent(b, "right", L, K)
            wa, wb = a.window(), b.window()
            mask = interior_mask(L, K, wa[0] + wb[0], wa[1] + wb[1])
            err = np.max(np.abs((pl @ pr - pr @ pl)[:, mask]))
            assert err < 1e-10


def dolbeault_dense(L, K):
    """The odd operator as a dense matrix, rebuilt from its two block diagonals."""
    upper, lower = nct_dolbeault(L, K)
    zero = np.zeros((basis_dim(L, K),) * 2, dtype=complex)
    return np.block([[zero, np.diag(upper)], [np.diag(lower), zero]])


class TestDolbeault:
    def test_blocks_are_diagonals_of_length_basis_dim(self):
        upper, lower = nct_dolbeault(2, 3)
        assert upper.shape == lower.shape == (basis_dim(2, 3),)
        assert upper[basis_index(1, 2, 2, 3)] == 2 * math.pi * (2 - 1j)
        assert lower[basis_index(1, 2, 2, 3)] == 2 * math.pi * (2 + 1j)

    def test_square_is_exact_diagonal(self):
        # both blocks are diagonal, so the square is computed elementwise on
        # the diagonals; BLAS matrix products may reorder the cancellation
        # and are only checked to float tolerance below
        L = K = 4
        upper, lower = nct_dolbeault(L, K)
        d = dolbeault_dense(L, K)
        # the blocks are exact conjugates, so both squares are |upper|^2,
        # computed in real arithmetic (complex products may contract to FMA)
        assert np.array_equal(lower, upper.conj())
        sq_diag = np.real(upper) ** 2 + np.imag(upper) ** 2
        for l in range(-L, L + 1):
            for k in range(-K, K + 1):
                idx = basis_index(l, k, L, K)
                expected = (2 * math.pi * k) ** 2 + (2 * math.pi * l) ** 2
                assert sq_diag[idx] == expected
        sq = d @ d
        assert np.max(np.abs(sq - np.diag(np.concatenate([sq_diag, sq_diag])))) < 1e-11

    def test_example_mode_eigenvalue(self):
        L = K = 3
        d = dolbeault_dense(L, K)
        sq = d @ d
        idx = basis_index(1, 2, L, K)
        assert sq[idx, idx] == pytest.approx((2 * math.pi) ** 2 * 5.0, rel=1e-15)

    def test_zero_mode_spans_kernel_direction(self):
        L = K = 2
        d = dolbeault_dense(L, K)
        vec = np.zeros(2 * basis_dim(L, K), dtype=complex)
        vec[basis_index(0, 0, L, K)] = 1.0
        assert np.max(np.abs(d @ vec)) == 0.0

    def test_self_adjoint_and_odd(self):
        d = dolbeault_dense(3, 3)
        assert np.max(np.abs(d - d.conj().T)) == 0.0
        n = d.shape[0] // 2
        assert np.max(np.abs(d[:n, :n])) == 0.0
        assert np.max(np.abs(d[n:, n:])) == 0.0


class TestNanResiduals:
    def test_max_abs_difference_keeps_nan(self):
        # max() over the key set drops the NaN when (0, 0) comes last
        broken = SmoothElement({(0, 0): math.nan, (1, 0): 1.0}, THETA)
        zero = SmoothElement({}, THETA)
        assert math.isnan(broken.max_abs_difference(zero))
        assert math.isnan(zero.max_abs_difference(broken))
        assert zero.max_abs_difference(zero) == 0.0

    def test_seminorm_keeps_nan(self):
        broken = SmoothElement({(0, 0): 1.0, (1, 0): math.nan}, THETA)
        for k in (0, 1, 3):
            assert math.isnan(nct_seminorm(broken, k))
