"""Ladder-algebra matrices against grid discretizations that know nothing
about ladders."""

import math

import numpy as np
import pytest

from rotalab import checks, oscillator
from rotalab.cli import RunConfig
from rotalab.errors import RankAmbiguous
from rotalab.oscillator import (
    _kernel_dim,
    bidiagonal_singular_values,
    dirac_eigenvalues,
    dirac_squared_spectrum,
    equivariance_defect,
    grid_dirac_plus,
    grid_dirac_plus_staggered,
    hermite_eval,
    hermite_quadrature,
    kernel_dims,
    ladder_block,
    oracle_radius,
    spectral_derivative,
)


def _dense_dirac(lam, L):
    """Test-local reference: the odd operator as one dense matrix, graded (plus, minus)."""
    a_plus = ladder_block(lam, L)
    dim_minus, dim_plus = a_plus.shape
    return np.block(
        [[np.zeros((dim_plus, dim_plus)), a_plus.T], [a_plus, np.zeros((dim_minus, dim_minus))]]
    )


def _dense_contrast_norm(f, lam, L):
    """Test-local reference: ||f(D) - P||_2 through a dense eigh of D."""
    d = _dense_dirac(lam, L)
    vals, vecs = np.linalg.eigh(d)
    projector = np.zeros_like(d)
    i = 0 if lam > 0 else ladder_block(lam, L).shape[1]
    projector[i, i] = 1.0
    return float(np.linalg.norm((vecs * f(vals)) @ vecs.T - projector, 2))


def _block_contrast_norm(f, lam, L):
    """||f(D) - P||_2 on the 2 x 2 blocks, as the heat-contrast check takes it."""
    vals = dirac_eigenvalues(lam, L)
    return float(np.max(np.abs(f(vals) - (vals == 0))))


class TestHermiteBasis:
    def test_ground_state_peak_value(self):
        assert hermite_eval(0, 1.0, 0.0, 0.0) == pytest.approx(
            (1.0 / math.pi) ** 0.25, abs=1e-12
        )

    def test_first_excited_vanishes_at_center(self):
        assert hermite_eval(1, 1.0, 0.0, 0.0) == 0.0
        assert hermite_eval(1, 2.5, 0.7, 0.7) == 0.0

    def test_orthonormal_under_quadrature(self):
        for lam, t in ((1.0, 0.0), (2.0, -0.5)):
            nodes, weights = hermite_quadrature(lam, t)
            for l in range(11):
                for k in range(l, 11):
                    val = np.sum(
                        weights
                        * hermite_eval(l, lam, t, nodes)
                        * hermite_eval(k, lam, t, nodes)
                    )
                    assert val == pytest.approx(1.0 if l == k else 0.0, abs=1e-10)

    def test_negative_slope_uses_magnitude(self):
        r = np.linspace(-3, 3, 17)
        assert np.array_equal(
            hermite_eval(4, -2.0, 0.1, r), hermite_eval(4, 2.0, 0.1, r)
        )

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            hermite_eval(-1, 1.0, 0.0, 0.0)

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            hermite_eval(0, 0.0, 0.0, 0.0)


class TestLadderMatrices:
    def test_singular_values_match_closed_form(self):
        lam, L = 1.0, 40
        a_plus = ladder_block(lam, L)
        sv = np.sort(np.linalg.svd(a_plus, compute_uv=False))
        expected = np.sqrt(2.0 * lam * np.arange(1, L))
        assert np.max(np.abs(sv - expected)) < 1e-12

    @pytest.mark.parametrize("lam", [2.0, 0.5, 1e-300, -0.5, -2.0, -1e-300])
    @pytest.mark.parametrize("L", [2, 3, 64])
    def test_ladder_blocks_match_the_entrywise_loop(self, lam, L):
        # reference: one loop per slope sign; tobytes() tells -0.0 from +0.0
        if lam > 0:
            expected = np.zeros((L - 1, L))
            for l in range(1, L):
                expected[l - 1, l] = math.sqrt(2.0 * lam * l)
        else:
            expected = np.zeros((L, L - 1))
            for l in range(0, L - 1):
                expected[l + 1, l] = -math.sqrt(2.0 * abs(lam) * (l + 1))
        a_plus = ladder_block(lam, L)
        assert a_plus.shape == expected.shape
        assert a_plus.tobytes() == expected.tobytes()
        # reference: the zero matrix with one slice assignment per block
        dim_minus, dim_plus = expected.shape
        dim = dim_plus + dim_minus
        dirac = np.zeros((dim, dim))
        dirac[dim_plus:, :dim_plus] = expected
        dirac[:dim_plus, dim_plus:] = expected.T.copy()
        projector = np.zeros((dim, dim))
        if lam > 0:
            projector[0, 0] = 1.0
        else:
            projector[dim_plus, dim_plus] = 1.0
        # the eigenvalues read off the blocks are those of the dense matrix
        vals = dirac_eigenvalues(lam, L)
        assert vals.shape == (dim,)
        top = np.max(np.abs(vals))
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(dirac)) - np.sort(vals))) <= 1e-15 * top
        # one zero eigenvalue, and the projector's line is the dense matrix's kernel
        assert np.count_nonzero(vals == 0) == 1 == np.trace(projector)
        assert np.max(np.abs(dirac @ projector)) == 0.0
        plus, minus = kernel_dims(lam, L)
        assert plus - minus == (1 if lam > 0 else -1)

    def test_kernel_is_ground_state(self):
        d = _dense_dirac(1.0, 16)
        e0 = np.zeros(d.shape[0])
        e0[0] = 1.0
        assert np.max(np.abs(d @ e0)) == 0.0
        sv = np.linalg.svd(d, compute_uv=False)
        assert np.sum(sv < 1e-10) == 1

    def test_spectrum_symmetric_except_kernel_mode(self):
        for lam in (1.0, -2.0):
            vals = np.sort(np.linalg.eigvalsh(_dense_dirac(lam, 20)))
            nonzero = vals[np.abs(vals) > 1e-10]
            assert np.allclose(np.sort(-nonzero), nonzero, atol=1e-10)
            assert np.sum(np.abs(vals) <= 1e-10) == 1
            blocks = np.sort(dirac_eigenvalues(lam, 20))
            assert np.array_equal(-blocks[::-1], blocks)
            assert np.count_nonzero(blocks == 0) == 1

    def test_squared_spectrum_lists(self):
        top, bottom = dirac_squared_spectrum(1.0, 5)
        assert np.array_equal(top, [0.0, 2.0, 4.0, 6.0, 8.0])
        assert np.array_equal(bottom, [2.0, 4.0, 6.0, 8.0, 10.0])
        top3, _ = dirac_squared_spectrum(3.0, 2)
        assert top3[0] == 0.0

    def test_squared_spectrum_matches_matrix(self):
        lam, L = 2.0, 14
        a_plus = ladder_block(lam, L)
        top_mat = np.sort(np.linalg.eigvalsh(a_plus.T @ a_plus))
        bottom_mat = np.sort(np.linalg.eigvalsh(a_plus @ a_plus.T))
        top, bottom = dirac_squared_spectrum(lam, L)
        assert np.max(np.abs(top_mat - top)) < 1e-10
        # the bottom block keeps one fewer basis vector in the truncation
        assert np.max(np.abs(bottom_mat - bottom[: L - 1])) < 1e-10

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_squared_spectrum_needs_a_positive_slope(self, lam):
        with pytest.raises(ValueError, match="positive slope"):
            dirac_squared_spectrum(lam, 5)

    def test_ladder_block_guards(self):
        with pytest.raises(ValueError, match="two basis functions"):
            ladder_block(1.0, 1)
        with pytest.raises(ValueError, match="nonzero"):
            ladder_block(0.0, 8)


class TestLadderIdentityGridOracle:
    def test_ladder_identity_spectral(self):
        # residual of (lam*r + d/dr) psi_l - sqrt(2 lam l) psi_{l-1} in L^2,
        # with the derivative taken by FFT from point values only; the
        # window is padded past the l = 10 turning point so the periodic
        # wraparound sits below the target residual
        for lam in (1.0, 2.0):
            radius = oracle_radius(lam) + 2.0
            nodes = np.linspace(-radius, radius, 1024)
            h = nodes[1] - nodes[0]
            for l in range(1, 11):
                psi_l = hermite_eval(l, lam, 0.0, nodes)
                psi_lm1 = hermite_eval(l - 1, lam, 0.0, nodes)
                applied = lam * nodes * psi_l + spectral_derivative(psi_l, h)
                residual = applied - math.sqrt(2.0 * lam * l) * psi_lm1
                assert math.sqrt(h * np.sum(residual**2)) < 1e-8

    def test_grid_singular_values_near_closed_form(self):
        lam = 1.0
        radius = oracle_radius(lam)
        nodes = np.linspace(-radius, radius, 1024)
        grid_op = grid_dirac_plus_staggered(lam, nodes)
        sv = np.sort(np.linalg.svd(grid_op, compute_uv=False))
        # the rectangular block has full row rank: its singular values are
        # exactly the nonzero series, the kernel does not contribute a zero
        expected = np.sqrt(2.0 * lam * np.arange(1, 11))
        assert np.max(np.abs(sv[:10] - expected)) < 1e-3


class TestBidiagonalSingularValues:
    @staticmethod
    def staggered_block(lam):
        radius = oracle_radius(lam)
        return grid_dirac_plus_staggered(lam, np.linspace(-radius, radius, 1024))

    @pytest.mark.parametrize(
        "lam", [1.0, -1.0, 0.3, 16.0, 1e6, 1e-300, -1e-300, 1e305, 1e306, -1e306]
    )
    def test_matches_the_dense_svd(self, lam):
        block = self.staggered_block(lam)
        dense = np.sort(np.linalg.svd(block, compute_uv=False))
        fast = bidiagonal_singular_values(block)
        assert fast.shape == dense.shape
        # the squares of the Gram matrix resolve a singular value only down
        # to about sqrt(machine epsilon) of the largest; at a negative slope
        # the near-kernel one sits below that in both
        floor = 1e-7 * dense[-1]
        resolved = dense > floor
        assert np.all(np.abs(fast - dense)[resolved] <= 1e-9 * dense[resolved])
        assert np.all(fast[~resolved] <= floor)
        assert np.count_nonzero(~resolved) == (1 if lam < 0 else 0)

    def test_rejects_an_entry_off_the_two_bands(self):
        block = self.staggered_block(1.0)
        block[-1, 0] = 1e-12
        with pytest.raises(ValueError, match="off its two upper bands"):
            bidiagonal_singular_values(block)

    def test_rejects_a_square_block(self):
        with pytest.raises(ValueError, match="n-1"):
            bidiagonal_singular_values(np.eye(4))


class TestRichardsonGridOracle:
    """The route of checks._grid_oracle: staggered blocks on 257 and 513 nodes, extrapolated."""

    SLOPES = [1.0, -1.0, 0.3, 50.0, 1e-300, -1e306]

    @staticmethod
    def levels(lam):
        # the ten lowest levels, and at a negative slope the near-kernel one below them
        return np.arange(1, 11) if lam > 0 else np.arange(11)

    @classmethod
    def level_values(cls, lam, n):
        radius = oracle_radius(lam)
        block = grid_dirac_plus_staggered(lam, np.linspace(-radius, radius, n))
        return bidiagonal_singular_values(block)[: len(cls.levels(lam))]

    @classmethod
    def expected(cls, lam):
        return np.sqrt(2.0 * abs(lam) * cls.levels(lam))

    @pytest.mark.parametrize("lam", SLOPES)
    def test_levels_converge_at_second_order(self, lam):
        # the extrapolate (4 s_513 - s_257) / 3 cancels an h^2 term, so it rests on this order
        coarse, fine = (np.abs(self.level_values(lam, n) - self.expected(lam)) for n in (257, 513))
        # at a negative slope, on both grids, the near-kernel value sits at the Gram route's
        # rounding floor (about sqrt(eps) times the block's norm) and level one is exact to rounding
        resolved = 2 if lam < 0 else 0
        floor = 1e-6 * math.sqrt(abs(lam))
        assert np.all(coarse[:resolved] < floor) and np.all(fine[:resolved] < floor)
        order = np.log2(coarse[resolved:] / fine[resolved:])
        assert np.all((order >= 1.9) & (order <= 2.1)), order

    @pytest.mark.parametrize("lam", SLOPES)
    def test_extrapolate_agrees_with_the_1024_node_route(self, lam):
        coarse, fine = (self.level_values(lam, n) for n in (257, 513))
        extrapolate = (4.0 * fine - coarse) / 3.0
        error = np.max(np.abs(extrapolate - self.expected(lam)))
        assert checks._grid_oracle(RunConfig(lam=lam), None)[2] == error
        assert np.max(np.abs(extrapolate - self.level_values(lam, 1024))) <= 1e-3 * math.sqrt(abs(lam))


class TestFredholmIndex:
    def test_positive_slope(self):
        for lam in (1.0, 2.5):
            plus, minus = kernel_dims(lam, 32)
            assert plus - minus == 1
        assert kernel_dims(2.5, 32) == (1, 0)

    def test_negative_slope(self):
        plus, minus = kernel_dims(-1.0, 32)
        assert plus - minus == -1
        assert (plus, minus) == (0, 1)

    def test_rank_ambiguity_guard(self, monkeypatch):
        # a rank cut placed on top of a genuine singular value must refuse
        lam, L = 1.0, 8
        a_plus = ladder_block(lam, L)
        sv = np.linalg.svd(a_plus, compute_uv=False)
        monkeypatch.setattr(oscillator, "RANK_TOL", math.sqrt(2.0 * lam) / sv[0])
        with pytest.raises(RankAmbiguous):
            _kernel_dim(a_plus)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (0, 2)])
    def test_zero_block_has_full_kernel(self, shape):
        assert _kernel_dim(np.zeros(shape)) == shape[1]


class TestFunctionalCalculus:
    """||f(D) - P||_2 on the 2 x 2 blocks against a dense eigh of D."""

    def test_zero_function(self):
        # f(D) = 0 leaves the projector, of norm one
        zero = lambda x: 0.0 * x
        assert _block_contrast_norm(zero, 1.0, 10) == 1.0
        assert _dense_contrast_norm(zero, 1.0, 10) == pytest.approx(1.0, rel=1e-14)

    def test_identity_function_recovers_matrix(self):
        d = _dense_dirac(1.0, 12)
        vals, vecs = np.linalg.eigh(d)
        assert np.max(np.abs((vecs * vals) @ vecs.T - d)) < 1e-10
        # ||D - P|| is the largest ladder entry
        identity = lambda x: x
        assert _block_contrast_norm(identity, 1.0, 12) == math.sqrt(2.0 * 11)
        assert _block_contrast_norm(identity, 1.0, 12) == pytest.approx(
            _dense_contrast_norm(identity, 1.0, 12), rel=1e-14
        )

    @pytest.mark.parametrize("lam", [1.0, 4.0, 16.0, 64.0, -3.0])
    @pytest.mark.parametrize("L", [24, 32])
    def test_block_norm_matches_dense_eigh(self, lam, L):
        f = lambda x: np.exp(-(x**2))
        assert _block_contrast_norm(f, lam, L) == pytest.approx(
            _dense_contrast_norm(f, lam, L), rel=1e-14
        )

    def test_check_reports_the_dense_norm(self):
        _, params, _, _ = checks._heat_contrast_decay(RunConfig(), None)
        f = lambda x: np.exp(-(x**2))
        assert params["final_norm"] == pytest.approx(_dense_contrast_norm(f, 64.0, 24), rel=1e-14)

    def test_gaussian_concentrates_on_kernel(self):
        # || f(d) - f(0) pr || equals exp(-2 lam) exactly in the truncation
        f = lambda x: np.exp(-(x**2))
        lam, L = 1.0, 24
        assert _block_contrast_norm(f, lam, L) == pytest.approx(math.exp(-2.0), abs=1e-8)

    def test_norm_decreases_with_slope(self):
        f = lambda x: np.exp(-(x**2))
        L = 24
        norms = [_block_contrast_norm(f, lam, L) for lam in (1.0, 4.0, 16.0, 64.0)]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 0.05

    def test_grid_oracle_confirms_concentration(self):
        # same statement from the grid operator: the bound only needs the
        # spectral gap above the kernel, which the staggered oracle sees
        lam = 64.0
        nodes = np.linspace(-8.0, 8.0, 512)
        grid_op = grid_dirac_plus_staggered(lam, nodes)
        sv = np.sort(np.linalg.svd(grid_op, compute_uv=False))
        # f = exp(-x^2) on the first nonzero singular value; the rectangular
        # block has no zero singular value to exclude
        assert np.exp(-(sv[0] ** 2)) < 0.05


class TestEquivarianceDefect:
    def test_defect_is_constant_off_diagonal(self):
        out = equivariance_defect(1.0, 3, L=48)
        L = 48
        lower = out[L:, :L]
        assert np.max(np.abs(lower - 3.0 * np.eye(L))) == 0.0
        upper = out[:L, L:]
        assert np.max(np.abs(upper - 3.0 * np.eye(L))) == 0.0

    def test_zero_translation(self):
        out = equivariance_defect(1.7, 0, L=16)
        assert np.max(np.abs(out)) == 0.0

    def test_linearity_in_slope_and_translation(self):
        out = equivariance_defect(2.0, -1, L=32)
        lower = out[32:, :32]
        assert np.max(np.abs(lower + 2.0 * np.eye(32))) < 1e-12


class TestCommutatorBound:
    def test_multiplier_commutator_bounded(self):
        # [d, f] for f a trigonometric polynomial read through the skew line
        # x + r b; the commutator is the multiplier by the chain-rule
        # derivative, so its norm is controlled by b sup|f'|
        rng = np.random.default_rng(31)
        nodes = np.linspace(-8.0, 8.0, 512)
        for b in (1, 2):
            modes = {j: complex(rng.normal(), rng.normal()) for j in (-2, -1, 1, 3)}
            fine = np.linspace(0.0, 1.0, 4001)
            fprime = np.zeros_like(fine, dtype=complex)
            for j, c in modes.items():
                fprime += 2j * math.pi * j * c * np.exp(2j * math.pi * j * fine)
            sup_fprime = np.max(np.abs(fprime))
            d_grid = grid_dirac_plus(1.0, nodes)
            fvals = np.zeros_like(nodes, dtype=complex)
            for j, c in modes.items():
                fvals += c * np.exp(2j * math.pi * j * b * nodes)
            fmat = np.diag(fvals)
            comm = d_grid @ fmat - fmat @ d_grid
            bound = 2.0 * math.pi * b * sup_fprime * 1.1
            assert np.linalg.norm(comm, 2) <= bound
