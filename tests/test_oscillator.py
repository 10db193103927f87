"""Ladder-algebra matrices against grid discretizations that know nothing
about ladders."""

import math

import numpy as np
import pytest

from rotalab.errors import RankAmbiguous
from rotalab.oscillator import (
    dirac_matrix,
    dirac_squared_spectrum,
    equivariance_defect,
    fredholm_index,
    functional_calculus,
    grid_dirac_plus,
    grid_dirac_plus_staggered,
    hermite_eval,
    hermite_quadrature,
    kernel_projector,
    ladder_blocks,
    oracle_radius,
    spectral_derivative,
    uniform_nodes,
)


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


class TestLadderMatrices:
    def test_singular_values_match_closed_form(self):
        lam, L = 1.0, 40
        a_plus, _, _, _ = ladder_blocks(lam, L)
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
        a_plus, a_minus, dim_plus, dim_minus = ladder_blocks(lam, L)
        assert a_plus.shape == expected.shape == (dim_minus, dim_plus)
        assert a_plus.tobytes() == expected.tobytes()
        assert a_minus.tobytes() == expected.T.copy().tobytes()

    def test_kernel_is_ground_state(self):
        d = dirac_matrix(1.0, 16)
        e0 = np.zeros(d.shape[0])
        e0[0] = 1.0
        assert np.max(np.abs(d @ e0)) == 0.0
        sv = np.linalg.svd(d, compute_uv=False)
        assert np.sum(sv < 1e-10) == 1

    def test_spectrum_symmetric_except_kernel_mode(self):
        for lam in (1.0, -2.0):
            vals = np.sort(np.linalg.eigvalsh(dirac_matrix(lam, 20)))
            nonzero = vals[np.abs(vals) > 1e-10]
            assert np.allclose(np.sort(-nonzero), nonzero, atol=1e-10)
            assert np.sum(np.abs(vals) <= 1e-10) == 1

    def test_squared_spectrum_lists(self):
        top, bottom = dirac_squared_spectrum(1.0, 5)
        assert np.array_equal(top, [0.0, 2.0, 4.0, 6.0, 8.0])
        assert np.array_equal(bottom, [2.0, 4.0, 6.0, 8.0, 10.0])
        top3, _ = dirac_squared_spectrum(3.0, 2)
        assert top3[0] == 0.0

    def test_squared_spectrum_matches_matrix(self):
        lam, L = 2.0, 14
        a_plus, a_minus, dim_plus, dim_minus = ladder_blocks(lam, L)
        top_mat = np.sort(np.linalg.eigvalsh(a_minus @ a_plus))
        bottom_mat = np.sort(np.linalg.eigvalsh(a_plus @ a_minus))
        top, bottom = dirac_squared_spectrum(lam, L)
        assert np.max(np.abs(top_mat - top)) < 1e-10
        # the bottom block keeps one fewer basis vector in the truncation
        assert np.max(np.abs(bottom_mat - bottom[: L - 1])) < 1e-10


class TestLadderIdentityGridOracle:
    def test_ladder_identity_spectral(self):
        # residual of (lam*r + d/dr) psi_l - sqrt(2 lam l) psi_{l-1} in L^2,
        # with the derivative taken by FFT from point values only; the
        # window is padded past the l = 10 turning point so the periodic
        # wraparound sits below the target residual
        for lam in (1.0, 2.0):
            radius = oracle_radius(lam, 0.0) + 2.0
            nodes = uniform_nodes(radius, 1024)
            h = nodes[1] - nodes[0]
            for l in range(1, 11):
                psi_l = hermite_eval(l, lam, 0.0, nodes)
                psi_lm1 = hermite_eval(l - 1, lam, 0.0, nodes)
                applied = lam * nodes * psi_l + spectral_derivative(psi_l, h)
                residual = applied - math.sqrt(2.0 * lam * l) * psi_lm1
                assert math.sqrt(h * np.sum(residual**2)) < 1e-8

    def test_grid_singular_values_near_closed_form(self):
        lam = 1.0
        nodes = uniform_nodes(oracle_radius(lam, 0.0), 1024)
        grid_op = grid_dirac_plus_staggered(lam, 0.0, nodes)
        sv = np.sort(np.linalg.svd(grid_op, compute_uv=False))
        # the rectangular block has full row rank: its singular values are
        # exactly the nonzero series, the kernel does not contribute a zero
        expected = np.sqrt(2.0 * lam * np.arange(1, 11))
        assert np.max(np.abs(sv[:10] - expected)) < 1e-3


class TestFredholmIndex:
    def test_positive_slope(self):
        assert fredholm_index(1.0, 32) == 1
        assert fredholm_index(2.5, 32) == 1

    def test_negative_slope(self):
        assert fredholm_index(-1.0, 32) == -1

    def test_rank_ambiguity_guard(self):
        # a rank cut placed on top of a genuine singular value must refuse
        lam, L = 1.0, 8
        a_plus, _, _, _ = ladder_blocks(lam, L)
        sv = np.linalg.svd(a_plus, compute_uv=False)
        bad_tol = math.sqrt(2.0 * lam) / sv[0]
        with pytest.raises(RankAmbiguous):
            fredholm_index(lam, L, rank_tol=bad_tol)


class TestFunctionalCalculus:
    def test_zero_function(self):
        out = functional_calculus(lambda x: 0.0 * x, 1.0, 10)
        assert np.max(np.abs(out)) == 0.0

    def test_identity_function_recovers_matrix(self):
        d = dirac_matrix(1.0, 12)
        out = functional_calculus(lambda x: x, 1.0, 12)
        assert np.max(np.abs(out - d)) < 1e-10

    def test_gaussian_concentrates_on_kernel(self):
        # || f(d) - f(0) pr || equals exp(-2 lam) exactly in the truncation
        f = lambda x: np.exp(-(x**2))
        lam, L = 1.0, 24
        diff = functional_calculus(f, lam, L) - kernel_projector(lam, L)
        assert np.linalg.norm(diff, 2) == pytest.approx(math.exp(-2.0), abs=1e-8)

    def test_norm_decreases_with_slope(self):
        f = lambda x: np.exp(-(x**2))
        L = 24
        norms = []
        for lam in (1.0, 4.0, 16.0, 64.0):
            diff = functional_calculus(f, lam, L) - kernel_projector(lam, L)
            norms.append(np.linalg.norm(diff, 2))
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 0.05

    def test_grid_oracle_confirms_concentration(self):
        # same statement from the grid operator: the bound only needs the
        # spectral gap above the kernel, which the staggered oracle sees
        lam = 64.0
        nodes = uniform_nodes(8.0, 512)
        grid_op = grid_dirac_plus_staggered(lam, 0.0, nodes)
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
        nodes = uniform_nodes(8.0, 512)
        for b in (1, 2):
            modes = {j: complex(rng.normal(), rng.normal()) for j in (-2, -1, 1, 3)}
            fine = np.linspace(0.0, 1.0, 4001)
            fprime = np.zeros_like(fine, dtype=complex)
            for j, c in modes.items():
                fprime += 2j * math.pi * j * c * np.exp(2j * math.pi * j * fine)
            sup_fprime = np.max(np.abs(fprime))
            d_grid = grid_dirac_plus(1.0, 0.0, nodes)
            fvals = np.zeros_like(nodes, dtype=complex)
            for j, c in modes.items():
                fvals += c * np.exp(2j * math.pi * j * b * nodes)
            fmat = np.diag(fvals)
            comm = d_grid @ fmat - fmat @ d_grid
            bound = 2.0 * math.pi * b * sup_fprime * 1.1
            assert np.linalg.norm(comm, 2) <= bound
