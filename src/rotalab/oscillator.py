"""Oscillator-type Dirac block on the line: ladder algebra and grid oracles.

The operator acts on pairs of square-integrable functions as the odd
matrix with entries  lam*(r - t) -/+ d/dr  off the diagonal. In the basis
of normalized oscillator eigenfunctions centered at t it is one shift
block with entries sqrt(2*lam*l) and, in the other corner, its transpose.
Each entry couples one plus vector with one minus vector and nothing
else, so the operator is a direct sum of 2 x 2 blocks [[0, s], [s, 0]]
and one kernel line: its spectrum is read off the ladder entries
themselves, so no matrix of it is formed, dense or block. The
(L-1) x L block is formed only where its SVD is the point: the
singular-value law and the kernel dimensions.

Truncation policy: the two graded summands keep different basis lengths
(L and L-1). The block that raises the oscillator index would push the
top basis vector out of a square window, which manufactures a fake kernel
vector and forces every square truncation to report index zero. Dropping
that one codomain vector makes the compression faithful: the truncated
spectrum is symmetric except for the genuine kernel mode and the index
comes out +-1 as it should.

The Hermite basis moves with the center t, so the ladder block does not
depend on it and takes no center argument; only the basis functions do.
The grid oracles sit at the center t = 0.

Uniform-grid discretizations of the same operator serve as independent
oracles: they know nothing about the ladder algebra.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RankAmbiguous

# relative singular-value cut below which the ladder blocks count a kernel vector
RANK_TOL = 1e-8


# ---------------------------------------------------------------------------
# Hermite basis
# ---------------------------------------------------------------------------


def hermite_eval(l: int, lam: float, t: float, r):
    """Value of the l-th normalized oscillator eigenfunction centered at t.

    The slope enters through |lam|: the profile is
    (|lam|/pi)^{1/4} (2^l l!)^{-1/2} H_l(u) e^{-u^2/2} with
    u = sqrt(|lam|) (r - t). The prefactor makes the L^2 norm one; the
    stable two-term recurrence below never forms H_l or l! explicitly.
    """
    if l < 0:
        raise ValueError("basis index must be nonnegative")
    if lam == 0:
        raise ValueError("slope must be nonzero")
    a = abs(lam)
    u = np.sqrt(a) * (np.asarray(r, dtype=float) - t)
    psi_prev = np.zeros_like(u)
    psi = (a / math.pi) ** 0.25 * np.exp(-0.5 * u * u)
    for j in range(1, l + 1):
        psi, psi_prev = (
            u * math.sqrt(2.0 / j) * psi - math.sqrt((j - 1) / j) * psi_prev,
            psi,
        )
    if np.ndim(r) == 0:
        return float(psi)
    return psi


def hermite_quadrature(lam: float, t: float):
    """80 nodes and folded weights so that sum(w * F(r)) integrates products
    of two basis functions (slope lam, center t) essentially exactly."""
    u, w = np.polynomial.hermite.hermgauss(80)
    a = abs(lam)
    nodes = t + u / math.sqrt(a)
    folded = w * np.exp(u * u) / math.sqrt(a)
    return nodes, folded


# ---------------------------------------------------------------------------
# Ladder-algebra matrices
# ---------------------------------------------------------------------------


def _ladder_entries(lam: float, L: int) -> np.ndarray:
    """The ladder entries sqrt(2*|lam|*l) for l = 1..L-1, each the coupling of one 2 x 2 block."""
    if lam == 0:
        raise ValueError("slope must be nonzero")
    if L < 2:
        raise ValueError("need at least two basis functions")
    return np.sqrt(2.0 * abs(lam) * np.arange(1, L))


def ladder_block(lam: float, L: int) -> np.ndarray:
    """The block a_plus of the odd operator, from the plus summand to the minus one.

    The plus summand has dimension a_plus.shape[1], the minus summand has
    a_plus.shape[0], and the other block of the odd operator is a_plus.T.
    For lam > 0 the block lowers the index with coefficient sqrt(2*lam*l);
    for lam < 0 the roles swap and a sign appears, which is what flips the
    index.
    """
    entries = _ladder_entries(lam, L)
    lowering = np.zeros((L - 1, L))
    # entry (l - 1, l) is sqrt(2*|lam|*l), built in place, so no L x L array is formed
    np.fill_diagonal(lowering[:, 1:], entries)
    # at lam < 0 the negated transpose; 0.0 - x keeps its zero entries at +0.0, -x would not
    return lowering if lam > 0 else 0.0 - lowering.T


def dirac_eigenvalues(lam: float, L: int) -> np.ndarray:
    """Eigenvalues of the odd operator [[0, a_plus.T], [a_plus, 0]]: 0, each s, each -s.

    Each ladder entry s of a_plus = ladder_block(lam, L) spans one 2 x 2 block
    [[0, s], [s, 0]], with eigenvalues +-s, in level order; the one basis vector no
    entry touches is the kernel line. The sign that a_plus carries at lam < 0 drops
    out of +-s, so the entries are read directly and a_plus is never formed.
    """
    s = _ladder_entries(lam, L)
    return np.concatenate(([0.0], s, -s))


def dirac_squared_spectrum(lam: float, L: int):
    """Exact eigenvalue lists of the squared operator, top and bottom block.

    Top block: 2*l*lam for l = 0..L-1 (the kernel mode sits at l = 0);
    bottom block: (2*l + 2)*lam.
    """
    if lam <= 0:
        raise ValueError("positive slope expected for the labeled spectrum")
    l = np.arange(L)
    return 2.0 * l * lam, (2.0 * l + 2.0) * lam


def _kernel_dims(block: np.ndarray) -> tuple[int, int]:
    """Columns minus rank and rows minus rank (the transpose's kernel), with an ambiguity
    guard at the rank cut: a block and its transpose share one SVD's rank."""
    rows, cols = block.shape
    sv = np.linalg.svd(block, compute_uv=False)
    top = sv[0] if sv.size else 0.0
    if top == 0.0:
        return cols, rows
    cut = RANK_TOL * top
    if np.any((sv > 0.1 * cut) & (sv < 10.0 * cut)):
        raise RankAmbiguous(f"singular values cluster at the rank cut {cut:.3e}")
    rank = int(np.sum(sv >= cut))
    return cols - rank, rows - rank


def kernel_dims(lam: float, L: int) -> tuple[int, int]:
    """dim ker of the plus block and of the minus block (its transpose), cut at RANK_TOL."""
    return _kernel_dims(ladder_block(lam, L))


def equivariance_defect(lam: float, l: int, L: int = 64) -> np.ndarray:
    """Difference between the operator and its integer-translate conjugate.

    grid_dirac_plus on a uniform grid with spacing 1/64, so translation by
    the integer l is an exact shift by 64*l nodes. On the L x L interior
    block the difference collapses to the constant lam*l times the identity
    in each off-diagonal corner, because the derivative stencil is
    translation invariant and the position factor moves by exactly l. The
    result is the odd 2L x 2L matrix, graded (plus, minus).
    """
    shift = 64 * abs(l)
    n = L + 2 * shift
    center = (n - 1) / 2.0
    d_plus = grid_dirac_plus(lam, (np.arange(n) - center) / 64.0)
    inner = slice(shift, shift + L)
    moved = slice(shift - 64 * l, shift - 64 * l + L)
    defect_plus = d_plus[inner, inner] - d_plus[moved, moved]
    zero = np.zeros((L, L))
    return np.block([[zero, defect_plus.T], [defect_plus, zero]])


# ---------------------------------------------------------------------------
# Grid oracles (no ladder knowledge)
# ---------------------------------------------------------------------------


def oracle_radius(lam: float) -> float:
    """Grid half-width wide enough for the low basis functions, which narrow like 1/sqrt|lam|."""
    return 8.0 / math.sqrt(abs(lam))


def grid_dirac_plus(lam: float, nodes: np.ndarray) -> np.ndarray:
    """Collocated central-difference discretization of lam*r + d/dr.

    Couples next-nearest nodes only, so its spectrum carries each value
    twice (independent even and odd sublattices). Fine for norm bounds;
    use the staggered form when individual singular values matter.
    """
    h = nodes[1] - nodes[0]
    d = np.diag(np.full(len(nodes) - 1, 1.0 / (2.0 * h)), 1)
    return lam * np.diag(nodes) + (d - d.T)


def grid_dirac_plus_staggered(lam: float, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differencing evaluated at midpoints: an (n-1) x n block, as its two bands.

    The block is upper bidiagonal, so it is returned as its main and its
    upper band, which `bidiagonal_singular_values` reads. Both the
    derivative and the position factor are second-order accurate at the
    midpoints and adjacent nodes stay coupled, so the singular values
    approximate the continuum ones without sublattice doubling.
    """
    h = nodes[1] - nodes[0]
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    # lam * mid first: 0.5 * lam underflows to zero at the smallest subnormal slope
    return 0.5 * (lam * mid) - 1.0 / h, 0.5 * (lam * mid) + 1.0 / h


def bidiagonal_singular_values(main: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Ascending singular values of the upper bidiagonal (n-1) x n block with these bands.

    Row i holds d_i = main[i] in column i and f_i = upper[i] in column
    i + 1, so bands of unequal length raise ValueError. The values are the
    square roots of the eigenvalues of the tridiagonal B B^T (Golub and
    Kahan, SIAM J. Numer. Anal. B 2 (1965)), which has d_i^2 + f_i^2 on its
    diagonal and f_i d_{i+1} beside it. Both bands are first scaled by an
    exact power of two that brings the largest entry into [1/2, 1), so no
    square overflows, even near the slope cap, and the scaling rounds nothing.
    """
    rows = len(main)
    if len(upper) != rows:
        raise ValueError(f"bands of unequal length: main {rows}, upper {len(upper)}")
    scale = 2.0 ** -math.frexp(float(np.max(np.maximum(np.abs(main), np.abs(upper)))))[1]
    d, f = scale * main, scale * upper
    gram = np.zeros((rows, rows))
    idx = np.arange(rows)
    gram[idx, idx] = d * d + f * f
    # eigvalsh reads the lower triangle only
    gram[idx[1:], idx[:-1]] = f[:-1] * d[1:]
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0)) / scale


def spectral_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """FFT derivative on a uniform grid; assumes decay at both ends."""
    n = len(values)
    freqs = np.fft.fftfreq(n, d=h)
    return np.real(np.fft.ifft(2j * math.pi * freqs * np.fft.fft(values)))
