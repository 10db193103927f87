"""Oscillator-type Dirac block on the line: ladder algebra and grid oracles.

The operator acts on pairs of square-integrable functions as the odd
matrix with entries  lam*(r - t) -/+ d/dr  off the diagonal. In the basis
of normalized oscillator eigenfunctions centered at t the two blocks are
shift matrices with entries sqrt(2*lam*l), so spectra, kernels, the
Fredholm index and functional calculus are all exact finite computations.

Truncation policy: the two graded summands keep different basis lengths
(L and L-1). The block that raises the oscillator index would push the
top basis vector out of a square window, which manufactures a fake kernel
vector and forces every square truncation to report index zero. Dropping
that one codomain vector makes the compression faithful: the truncated
spectrum is symmetric except for the genuine kernel mode and the index
comes out +-1 as it should.

Every operator here is a plain numpy array. The Hermite basis moves with
the center t, so the ladder matrices do not depend on it and take no
center argument; only the grid oracles and basis functions do.

Uniform-grid discretizations of the same operator serve as independent
oracles: they know nothing about the ladder algebra.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RankAmbiguous

SQRT_PI = math.sqrt(math.pi)


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


def hermite_quadrature(lam: float, t: float, n: int = 80):
    """Nodes and folded weights so that sum(w * F(r)) integrates products
    of two basis functions (slope lam, center t) essentially exactly."""
    u, w = np.polynomial.hermite.hermgauss(n)
    a = abs(lam)
    nodes = t + u / math.sqrt(a)
    folded = w * np.exp(u * u) / math.sqrt(a)
    return nodes, folded


# ---------------------------------------------------------------------------
# Ladder-algebra matrices
# ---------------------------------------------------------------------------


def ladder_blocks(lam: float, L: int):
    """Blocks (lowering-image, raising-image) of the odd operator.

    Returns (a_plus, a_minus, dim_plus, dim_minus) where a_plus maps the
    plus summand (dimension dim_plus) into the minus summand (dimension
    dim_minus) and a_minus is its transpose. For lam > 0 the plus block
    lowers the index with coefficient sqrt(2*lam*l); for lam < 0 the
    roles swap and a sign appears, which is what flips the index.
    """
    if lam == 0:
        raise ValueError("slope must be nonzero")
    if L < 2:
        raise ValueError("need at least two basis functions")
    lowering = np.diag(np.sqrt(2.0 * abs(lam) * np.arange(1, L)), 1)[:-1]
    # at lam < 0 the negated transpose; 0.0 - x keeps its zero entries at +0.0, -x would not
    a_plus = lowering if lam > 0 else 0.0 - lowering.T
    return a_plus, a_plus.T.copy(), a_plus.shape[1], a_plus.shape[0]


def dirac_matrix(lam: float, L: int) -> np.ndarray:
    """Odd matrix of the operator in the Hermite basis, graded (plus, minus)."""
    a_plus, a_minus, dim_plus, dim_minus = ladder_blocks(lam, L)
    mat = np.zeros((dim_plus + dim_minus, dim_plus + dim_minus))
    mat[dim_plus:, :dim_plus] = a_plus
    mat[:dim_plus, dim_plus:] = a_minus
    return mat


def dirac_squared_spectrum(lam: float, L: int):
    """Exact eigenvalue lists of the squared operator, top and bottom block.

    Top block: 2*l*lam for l = 0..L-1 (the kernel mode sits at l = 0);
    bottom block: (2*l + 2)*lam.
    """
    if lam <= 0:
        raise ValueError("positive slope expected for the labeled spectrum")
    l = np.arange(L)
    return 2.0 * l * lam, (2.0 * l + 2.0) * lam


def kernel_projector(lam: float, L: int) -> np.ndarray:
    """Rank-one projector onto the kernel mode inside the truncation."""
    _, _, dim_plus, dim_minus = ladder_blocks(lam, L)
    mat = np.zeros((dim_plus + dim_minus, dim_plus + dim_minus))
    if lam > 0:
        mat[0, 0] = 1.0
    else:
        mat[dim_plus, dim_plus] = 1.0
    return mat


def _kernel_dim(block: np.ndarray, rank_tol: float) -> int:
    """Columns minus rank, with an ambiguity guard at the rank cut."""
    sv = np.linalg.svd(block, compute_uv=False)
    top = sv[0] if sv.size else 0.0
    if top == 0.0:
        return block.shape[1]
    cut = rank_tol * top
    if np.any((sv > 0.1 * cut) & (sv < 10.0 * cut)):
        raise RankAmbiguous(f"singular values cluster at the rank cut {cut:.3e}")
    rank = int(np.sum(sv >= cut))
    return block.shape[1] - rank


def fredholm_index(lam: float, L: int, rank_tol: float = 1e-8) -> int:
    """dim ker of the plus block minus dim ker of the minus block."""
    a_plus, a_minus, _, _ = ladder_blocks(lam, L)
    return _kernel_dim(a_plus, rank_tol) - _kernel_dim(a_minus, rank_tol)


def functional_calculus(f, lam: float, L: int) -> np.ndarray:
    """Apply a scalar function through the eigendecomposition of the matrix."""
    vals, vecs = np.linalg.eigh(dirac_matrix(lam, L))
    return (vecs * np.asarray(f(vals))) @ vecs.conj().T


def equivariance_defect(lam: float, l: int, L: int = 64) -> np.ndarray:
    """Difference between the operator and its integer-translate conjugate.

    Built on a uniform grid with spacing 1/64 so that translation by the
    integer l is an exact node shift. On the L x L interior block the
    difference collapses to the constant lam*l times the identity in each
    off-diagonal corner, because the derivative stencil is translation
    invariant and the position factor moves by exactly l. The result is
    the odd 2L x 2L matrix, graded (plus, minus).
    """
    shift = 64 * abs(l)
    n = L + 2 * shift
    center = (n - 1) / 2.0
    nodes = (np.arange(n) - center) / 64.0
    d_grid = _central_difference(n, 1.0 / 64.0)
    d_plus = lam * np.diag(nodes) + d_grid
    s = 64 * l
    inner = slice(shift, shift + L)
    translated = np.zeros_like(d_plus)
    # conjugation by the shift: row i, col j of the translate is entry
    # (i - s, j - s) of the original wherever that entry exists
    lo = max(0, s)
    hi = n + min(0, s)
    translated[lo:hi, lo:hi] = d_plus[lo - s : hi - s, lo - s : hi - s]
    defect_plus = (d_plus - translated)[inner, inner]
    defect_minus = defect_plus.T
    zero = np.zeros((L, L))
    return np.block([[zero, defect_minus], [defect_plus, zero]])


# ---------------------------------------------------------------------------
# Grid oracles (no ladder knowledge)
# ---------------------------------------------------------------------------


def oracle_radius(lam: float, t: float) -> float:
    """Grid half-width wide enough for the low basis functions, which narrow like 1/sqrt|lam|."""
    return 8.0 / math.sqrt(abs(lam)) + abs(t)


def uniform_nodes(radius: float, n: int = 1024) -> np.ndarray:
    return np.linspace(-radius, radius, n)


def _central_difference(n: int, h: float) -> np.ndarray:
    d = np.zeros((n, n))
    for i in range(n - 1):
        d[i, i + 1] = 1.0 / (2.0 * h)
        d[i + 1, i] = -1.0 / (2.0 * h)
    return d


def grid_dirac_plus(lam: float, t: float, nodes: np.ndarray) -> np.ndarray:
    """Collocated central-difference discretization of lam*(r - t) + d/dr.

    Couples next-nearest nodes only, so its spectrum carries each value
    twice (independent even and odd sublattices). Fine for norm bounds;
    use the staggered form when individual singular values matter.
    """
    h = nodes[1] - nodes[0]
    return lam * np.diag(nodes - t) + _central_difference(len(nodes), h)


def grid_dirac_plus_staggered(lam: float, t: float, nodes: np.ndarray) -> np.ndarray:
    """Central differencing evaluated at midpoints: an (n-1) x n block.

    Both the derivative and the position factor are second-order accurate
    at the midpoints and adjacent nodes stay coupled, so the singular
    values approximate the continuum ones without sublattice doubling.
    """
    n = len(nodes)
    h = nodes[1] - nodes[0]
    mid = 0.5 * (nodes[:-1] + nodes[1:]) - t
    mat = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    mat[idx, idx] = 0.5 * lam * mid - 1.0 / h
    mat[idx, idx + 1] = 0.5 * lam * mid + 1.0 / h
    return mat


def spectral_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """FFT derivative on a uniform grid; assumes decay at both ends."""
    n = len(values)
    freqs = np.fft.fftfreq(n, d=h)
    return np.real(np.fft.ifft(2j * math.pi * freqs * np.fft.fft(values)))
