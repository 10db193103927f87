"""Finitely supported elements of the smooth rotation algebra.

An element is a finite sum  sum_{n,m} a_{n,m} V^n U^m  where the two
unitaries satisfy V U = e^{2 pi i theta} U V. Products, adjoints and the
canonical trace act on the coefficient array directly. Two commuting
representations on l^2 of the doubled index set (torus mode l, group
index k) realize the same elements as plain matrices. The flat-torus
Dirac operator that pairs with them is odd with diagonal blocks, so it
is kept as its two block diagonals, never as a dense matrix.

Residuals throughout the package reduce through `_worst`, which keeps a
NaN where `max()` would drop it, and complex differences are measured by
`_distance`, which keeps a NaN where `abs()` may raise.

Phase convention: lambda = e^{2 pi i theta}, and the covariance phases of
the two representations are derived from the single rule that the group
acts on functions by rotation through -k theta. They are never entered by
hand anywhere else in the package.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .errors import TruncationTooSmall


def _worst(values, floor: float = 0.0) -> float:
    """Largest of the floor and the values; NaN if any value is NaN, unlike max()."""
    top = floor
    for x in values:
        if math.isnan(x):
            return math.nan
        top = max(top, x)
    return top


def _distance(x, y) -> float:
    """|x - y|; NaN if either part of the difference is NaN.

    CPython 3.11's complex abs() returns NaN for a NaN part but leaves errno
    as it was, so after an earlier overflow anywhere in the process it
    raises OverflowError instead. A NaN never reaches abs() here.
    """
    d = x - y
    return math.nan if cmath.isnan(d) else abs(d)


def lambda_power(theta: float, exponent: float) -> complex:
    """e^{2 pi i theta * exponent}; the only site that exponentiates lambda."""
    # only theta mod 1 matters; reducing first keeps the argument small at large |theta|
    theta = theta - math.floor(theta)
    return complex(math.cos(math.tau * theta * exponent), math.sin(math.tau * theta * exponent))


class SmoothElement:
    """Finite coefficient array a_{n,m} over V^n U^m at a fixed theta."""

    __slots__ = ("coeffs", "theta")

    def __init__(self, coeffs: dict, theta: float):
        self.coeffs = {
            (int(n), int(m)): complex(c) for (n, m), c in coeffs.items() if c != 0
        }
        self.theta = float(theta)

    # ---- constructors ----------------------------------------------------

    @classmethod
    def unit(cls, theta: float) -> "SmoothElement":
        return cls({(0, 0): 1.0}, theta)

    @classmethod
    def v_power(cls, n: int, theta: float) -> "SmoothElement":
        return cls({(n, 0): 1.0}, theta)

    @classmethod
    def u_power(cls, m: int, theta: float) -> "SmoothElement":
        return cls({(0, m): 1.0}, theta)

    # ---- views -----------------------------------------------------------

    def window(self) -> tuple:
        """(max |n|, max |m|) over the support; (0, 0) for the zero element."""
        if not self.coeffs:
            return (0, 0)
        return (
            max(abs(n) for n, _ in self.coeffs),
            max(abs(m) for _, m in self.coeffs),
        )

    def coefficient(self, n: int, m: int) -> complex:
        return self.coeffs.get((n, m), 0.0 + 0.0j)

    def __add__(self, other: "SmoothElement") -> "SmoothElement":
        _check_theta(self, other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return SmoothElement(out, self.theta)

    def __sub__(self, other: "SmoothElement") -> "SmoothElement":
        return self + other.scale(-1.0)

    def scale(self, factor) -> "SmoothElement":
        return SmoothElement(
            {key: factor * c for key, c in self.coeffs.items()}, self.theta
        )

    def max_abs_difference(self, other: "SmoothElement") -> float:
        _check_theta(self, other)
        keys = set(self.coeffs) | set(other.coeffs)
        return _worst(_distance(self.coefficient(*k), other.coefficient(*k)) for k in keys)

    def __repr__(self) -> str:
        terms = ", ".join(
            f"({n},{m}): {c:.4g}" for (n, m), c in sorted(self.coeffs.items())
        )
        return f"SmoothElement({{{terms}}}, theta={self.theta})"


def _check_theta(a: SmoothElement, b: SmoothElement):
    if a.theta != b.theta:
        raise ValueError(f"mixed parameters {a.theta} and {b.theta}")


def nct_multiply(a: SmoothElement, b: SmoothElement) -> SmoothElement:
    """Coefficient product induced by U^m V^p = e^{-2 pi i theta m p} V^p U^m."""
    _check_theta(a, b)
    buckets: dict = {}
    for (n, m), ca in a.coeffs.items():
        for (p, q), cb in b.coeffs.items():
            buckets.setdefault((n + p, m + q), []).append(
                ca * cb * lambda_power(a.theta, -m * p)
            )
    # summing each bucket in a canonical order makes the result independent
    # of operand iteration order, so trace(ab) == trace(ba) bitwise
    out = {
        key: sum(sorted(terms, key=lambda z: (z.real, z.imag)))
        for key, terms in buckets.items()
    }
    return SmoothElement(out, a.theta)


def pair_multiply(xi: dict, eta: dict, theta: float) -> dict:
    """Product in A_theta (x) A_theta of dicts (p1, q1, p2, q2) -> coefficient.

    A key stands for the elementary tensor V^p1 U^q1 (x) V^p2 U^q2. Each
    pair of terms multiplies factor by factor through nct_multiply, and
    the terms landing on one key are summed in the order xi, then eta.
    """

    def factor(left, right):
        unit = nct_multiply(SmoothElement({left: 1.0}, theta), SmoothElement({right: 1.0}, theta))
        return next(iter(unit.coeffs.items()))

    out = {}
    for (p1, q1, p2, q2), c in xi.items():
        for (s1, t1, s2, t2), d in eta.items():
            (n1, m1), z1 = factor((p1, q1), (s1, t1))
            (n2, m2), z2 = factor((p2, q2), (s2, t2))
            key = (n1, m1, n2, m2)
            out[key] = out.get(key, 0j) + c * d * z1 * z2
    return out


def nct_adjoint(a: SmoothElement) -> SmoothElement:
    """Involution: (V^n U^m)* = e^{-2 pi i theta n m} V^{-n} U^{-m}."""
    out = {}
    for (n, m), c in a.coeffs.items():
        out[(-n, -m)] = c.conjugate() * lambda_power(a.theta, -n * m)
    return SmoothElement(out, a.theta)


def nct_trace(a: SmoothElement) -> complex:
    """The canonical trace picks out the constant coefficient."""
    return a.coefficient(0, 0)


# ---------------------------------------------------------------------------
# Matrix representations
# ---------------------------------------------------------------------------


def basis_index(l: int, k: int, L: int, K: int) -> int:
    """Flat index of the basis vector z^l (x) eps_k, |l| <= L, |k| <= K."""
    return (l + L) * (2 * K + 1) + (k + K)


def basis_dim(L: int, K: int) -> int:
    return (2 * L + 1) * (2 * K + 1)


def basis_labels(L: int, K: int) -> list:
    """The (l, k) of each basis vector, in basis_index order."""
    return list(itertools.product(range(-L, L + 1), range(-K, K + 1)))


def interior_mask(L: int, K: int, margin_l: int, margin_k: int) -> np.ndarray:
    """Boolean mask of basis vectors at distance > margin from the window edge.

    A column in the mask is truncation-faithful for any operator whose
    support shifts torus modes by at most margin_l and group indices by at
    most margin_k.
    """
    inside = [abs(l) <= L - margin_l and abs(k) <= K - margin_k for l, k in basis_labels(L, K)]
    return np.array(inside, dtype=bool)


def nct_represent(a: SmoothElement, which: str, L: int, K: int) -> np.ndarray:
    """Truncated matrix of one of the two commuting representations.

    which = "left": V^j U^m sends z^l (x) eps_k to
        e^{2 pi i theta j (k + m)} z^{l+j} (x) eps_{k+m};
    which = "right": V^j U^m sends z^l (x) eps_k to
        e^{-2 pi i theta l m} z^{l+j} (x) eps_{k-m}.
    Images that leave the truncation window are dropped, so the
    compression is faithful on the columns of interior_mask(L, K, *window).
    Each coefficient fills all its columns in one indexed assignment.
    """
    if which not in ("left", "right"):
        raise ValueError(f"unknown representation {which!r}")
    wn, wm = a.window()
    if wn > L or wm > K:
        raise TruncationTooSmall(
            f"support window ({wn}, {wm}) exceeds truncation ({L}, {K})"
        )
    dim = basis_dim(L, K)
    l, k = np.array(basis_labels(L, K), dtype=np.int64).T
    mat = np.zeros((dim, dim), dtype=complex)
    for (j, m), c in a.coeffs.items():
        if which == "left":
            k_out, exponent = k + m, j * (k + m)
        else:
            k_out, exponent = k - m, -l * m
        cols = np.flatnonzero((np.abs(l + j) <= L) & (np.abs(k_out) <= K))
        rows = basis_index(l[cols] + j, k_out[cols], L, K)
        # one phase per distinct exponent, times c as a Python complex since
        # numpy's array product can round differently; not np.unique, whose
        # sort pages in about half a megabyte of library code
        exponents = exponent[cols]
        powers = sorted(set(exponents.tolist()))
        vals = np.array([c * lambda_power(a.theta, e) for e in powers], dtype=complex)
        mat[rows, cols] += vals[np.searchsorted(powers, exponents)]
    return mat


def nct_dolbeault(L: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat-torus Dirac operator on the doubled truncated basis, as its two
    block diagonals (upper, lower).

    The operator is odd: it is [[0, diag(upper)], [diag(lower), 0]] on the
    graded pair of copies of z^l (x) eps_k, indexed by basis_index. The
    entries are upper = 2 pi (k - i l) and lower = 2 pi (k + i l), with
    2 pi k the group-index frequency and 2 pi l the torus-mode frequency;
    lower is the conjugate of upper, so the operator is self-adjoint and
    its square is (2 pi)^2 (l^2 + k^2) on each graded summand.
    """
    dz = math.tau * np.arange(-K, K + 1)
    dt = math.tau * np.arange(-L, L + 1)[:, None]
    return (dz - 1j * dt).ravel(), (dz + 1j * dt).ravel()
