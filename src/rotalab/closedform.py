"""Closed algebra of polynomial-times-Gaussian functions in any number of variables.

A term in d variables is P(x) * exp(-x'Ax/2 + B'x) with A complex
symmetric d x d and Re A positive definite, B complex of length d, and P
a dense complex coefficient array with one axis per variable, low degree
first (P[i, j] multiplies r^i s^j). Finite sums of such terms are closed
under products, derivatives, affine substitution, restriction to lines,
outer products, slot integrals and slot Fourier transforms, with every
operation given by an explicit formula. That lets the module and
operator layers compute inner products and transforms to machine
precision instead of through quadrature; quadrature appears only in
cross-checking oracles.

Every integral over one variable completes the square in that variable
(Folland, Harmonic Analysis in Phase Space, 1989, App. A; see
_integrate_slot). Every product by a linear form c + sum_k T_k y_k, in
substitution, derivatives and slot integrals, is one kernel on flat
coefficient arrays (_times_linear). A Fourier kernel exp(+-2 pi i x_j y)
is one more bilinear entry of A, so a slot Fourier transform is the slot
integral of a term in one more variable.

Centered parameters: a Gaussian bump exp(-a(r-mu)^2/2 + 2 pi i w r) is
the term with b = a mu + 2 pi i w and prefactor exp(-a mu^2 / 2).
"""

from __future__ import annotations

import cmath
import math

import numpy as np


# ---------------------------------------------------------------------------
# dense polynomials: complex arrays with one axis per variable
# ---------------------------------------------------------------------------


def _poly_add(p, q):
    if p.shape == q.shape:
        return p + q
    out = np.zeros(tuple(map(max, p.shape, q.shape)), dtype=complex)
    out[tuple(map(slice, p.shape))] += p
    out[tuple(map(slice, q.shape))] += q
    return out


def _convolve(p, q):
    """The full convolution of two 1-D arrays: one scaled copy of q per entry of p, in order.

    np.convolve on complex arrays sums through BLAS dot products, whose rounding
    depends on the BLAS kernel; this order does not.
    """
    out = np.zeros(len(p) + len(q) - 1, dtype=complex)
    for i, pi in enumerate(p):
        out[i : i + len(q)] += pi * q
    return out


def _poly_mul(p, q):
    """The product as one flat convolution (Kronecker substitution).

    Every axis but the first is zero-padded to its length in the product,
    so the flattened indices of the two factors add without carrying.
    """
    shape = tuple(i + j - 1 for i, j in zip(p.shape, q.shape, strict=True))
    if len(shape) < 2:
        return _convolve(p, q) if shape else p * q
    flat = []
    for x in (p, q):
        padded = np.zeros((len(x), *shape[1:]), dtype=complex)
        padded[tuple(map(slice, x.shape))] = x
        flat.append(padded.ravel())
    return _convolve(*flat)[: math.prod(shape)].reshape(shape)


def _times_linear(flat, const, shifts):
    """flat * (const + sum_k T_k y_k) in a flat layout; shifts holds (T_k, stride of y_k).

    One scaled copy plus one copy shifted by each stride of a T_k != 0. The layout
    must leave room for one more degree in each such y_k, so that no shift carries.
    """
    out = flat * const
    for tk, stride in shifts:
        out[..., stride:] += tk * flat[..., :-stride]
    return out


def _poly_compose(p, t, c):
    """P(T y + c) for a d x m matrix T, in the result's flat layout.

    Axis k of the result has length 1 + sum(P.shape[j] - 1 for T_jk != 0); flat,
    a product by L_j = c_j + sum_k T_jk y_k is one _times_linear call. The last
    axis of P meets only constants, so it is summed against a table of the powers
    L_j^i; the other axes follow by Horner, last axis first.
    """
    rows = t.tolist()
    shape = tuple(1 + sum(n - 1 for n, r in zip(p.shape, rows) if r[k]) for k in range(t.shape[1]))
    strides = [math.prod(shape[k + 1 :]) for k in range(len(shape))]
    forms = [
        (cj, [(x, s) for x, s in zip(row, strides) if x]) for cj, row in zip(c.tolist(), rows)
    ]
    p = p.reshape(*p.shape[:-1], -1)  # a P with no axes as one of degree 0
    powers = np.zeros((p.shape[-1], math.prod(shape)), dtype=complex)
    powers[0, 0] = 1
    for i in range(1, len(powers)):
        powers[i] = _times_linear(powers[i - 1], *forms[-1])
    out = p @ powers
    for j in reversed(range(p.ndim - 1)):
        acc = out[..., -1, :]
        for i in range(out.shape[-2] - 2, -1, -1):
            acc = _times_linear(acc, *forms[j]) + out[..., i, :]
        out = acc
    return out.reshape(shape)


def _poly_eval(p, xs):
    """P at the points xs, one broadcastable array per axis, by Horner per axis."""
    out = p.reshape(p.shape + (1,) * max((x.ndim for x in xs), default=0))
    for x in xs:
        acc = out[-1]
        for c in out[-2::-1]:
            acc = acc * x + c
        out = acc
    return out


def _integrate_slot(a, b, p, j):
    """Integrate the term (A, B, P) over x_j, by completing the square in x_j.

    With x_j = u + m and m = (B_j - sum_{k != j} A_jk x_k) / A_jj the
    exponent splits into -A_jj u^2 / 2 and a Gaussian in the other
    variables, whose matrix is the Schur complement of A_jj. Each power
    x_j^n integrates to sqrt(2 pi / A_jj) exp(B_j^2 / (2 A_jj)) times the
    moment M_n = E[(u + m)^n], and M_{n+1} = m M_n + n M_{n-1} / A_jj. So
    sum_k P_k M_k, with P_k the k-th slice of P along x_j, is b_0 of Clenshaw's
    backward recurrence b_k = P_k + m b_{k+1} + (k + 1) b_{k+2} / A_jj: one
    _times_linear call per degree, on flat arrays of the result's shape.
    Only Re A_jj > 0 is needed. Returns (A', B', P') over the other variables.
    """
    ajj, bj = a[j, j], b[j]
    keep = [k for k in range(len(b)) if k != j]
    cross = a[keep, j]
    new_a = a[keep][:, keep] - cross[:, None] * cross[None, :] / ajj
    new_b = b[keep] - cross * (bj / ajj)
    q = p.transpose([j, *keep])
    shape = tuple(m + (len(q) - 1) * (x != 0) for m, x in zip(q.shape[1:], cross))
    slices = np.zeros((len(q), *shape), dtype=complex)
    slices[tuple(map(slice, q.shape))] = q
    slices = slices.reshape(len(q), -1)
    shifts = [(-x / ajj, math.prod(shape[i + 1 :])) for i, x in enumerate(cross) if x != 0]
    acc, prev = slices[-1], 0
    for k in range(len(q) - 2, -1, -1):
        step = slices[k] + _times_linear(acc, bj / ajj, shifts)
        acc, prev = step + ((k + 1) / ajj) * prev, acc
    pref = math.sqrt(math.tau) / cmath.sqrt(ajj) * cmath.exp(bj * bj / (2 * ajj))
    return new_a, new_b, acc.reshape(shape) * pref


def _merge(terms):
    """Terms with equal (A, B) summed, terms with a zero polynomial dropped."""
    merged = {}
    for a, b, p in terms:
        # keys of Python numbers, so that 0.0 and -0.0 entries merge
        key = (*a.ravel().tolist(), *b.tolist())
        merged[key] = (a, b, _poly_add(merged[key][2], p)) if key in merged else (a, b, p)
    return tuple(t for t in merged.values() if np.count_nonzero(t[2]))


# ---------------------------------------------------------------------------
# sums of terms
# ---------------------------------------------------------------------------


class GaussSum:
    """A finite sum of Gaussian terms (A, B, P) in a fixed number of variables.

    The empty sum is zero in any number of variables.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        terms = [tuple(np.asarray(x, dtype=complex) for x in term) for term in terms]
        # Re A positive definite keeps every integral below convergent
        for a, _, _ in terms:
            if not np.all(np.linalg.eigvalsh(a.real) > 0):
                raise ValueError("real part of the quadratic form must be positive definite")
        self.terms = _merge(terms)

    @classmethod
    def _of(cls, terms) -> "GaussSum":
        """The sum of terms built by the operations below, which keep Re A positive."""
        out = cls.__new__(cls)
        out.terms = _merge(terms)
        return out

    @classmethod
    def bump(cls, width=1.0, center=0.0, freq=0.0, poly=(1,)) -> "GaussSum":
        """P(r) * exp(-width*(r-center)^2/2 + 2 pi i freq r)."""
        a = complex(width)
        b = a * center + math.tau * 1j * freq
        pref = cmath.exp(-a * center * center / 2)
        return cls([([[a]], [b], np.asarray(poly, dtype=complex) * pref)])

    @classmethod
    def outer(cls, f: "GaussSum", g: "GaussSum") -> "GaussSum":
        """The product f(x) g(y), in the variables of f followed by those of g."""
        out = []
        for a, b, p in f.terms:
            for a2, b2, p2 in g.terms:
                n = len(b)
                block = np.zeros((n + len(b2),) * 2, dtype=complex)
                block[:n, :n] = a
                block[n:, n:] = a2
                out.append((block, np.concatenate([b, b2]), np.multiply.outer(p, p2)))
        return cls._of(out)

    # ---- linear structure ------------------------------------------------

    def __add__(self, other: "GaussSum") -> "GaussSum":
        return GaussSum._of(self.terms + other.terms)

    def __sub__(self, other: "GaussSum") -> "GaussSum":
        return self + other.scale(-1)

    def scale(self, c) -> "GaussSum":
        c = complex(c)
        return GaussSum._of((a, b, p * c) for a, b, p in self.terms)

    def __mul__(self, other: "GaussSum") -> "GaussSum":
        return GaussSum._of(
            (a + a2, b + b2, _poly_mul(p, p2))
            for a, b, p in self.terms
            for a2, b2, p2 in other.terms
        )

    def conjugate(self) -> "GaussSum":
        return GaussSum._of((a.conj(), b.conj(), p.conj()) for a, b, p in self.terms)

    # ---- calculus --------------------------------------------------------

    def derivative(self, slot: int = 0) -> "GaussSum":
        out = []
        for a, b, p in self.terms:
            # d/dx_j (P e) = (P (B_j - sum_k A_jk x_k) + dP/dx_j) e
            shape = tuple(n + (x != 0) for n, x in zip(p.shape, a[slot]))
            padded = np.zeros(shape, dtype=complex)
            padded[tuple(map(slice, p.shape))] = p
            shifts = [(-x, math.prod(shape[k + 1 :])) for k, x in enumerate(a[slot]) if x != 0]
            poly = _times_linear(padded.ravel(), b[slot], shifts).reshape(shape)
            steps = np.arange(1, p.shape[slot]).reshape((-1,) + (1,) * (p.ndim - slot - 1))
            dp = p[(slice(None),) * slot + (slice(1, None),)] * steps
            poly[tuple(map(slice, dp.shape))] += dp
            out.append((a, b, poly))
        return GaussSum._of(out)

    def mul_poly(self, poly) -> "GaussSum":
        """Multiply by the polynomial with dense coefficients poly, one axis per variable."""
        q = np.asarray(poly, dtype=complex)
        return GaussSum._of((a, b, _poly_mul(p, q)) for a, b, p in self.terms)

    def modulate(self, *freqs) -> "GaussSum":
        """Multiply by the plane wave exp(2 pi i sum_j freqs[j] x_j)."""
        shift = math.tau * 1j * np.asarray(freqs, dtype=float)
        if any(len(b) != len(shift) for _, b, _ in self.terms):
            raise ValueError("modulate needs one frequency per variable")
        return GaussSum._of((a, b + shift, p) for a, b, p in self.terms)

    def affine(self, *entries) -> "GaussSum":
        """Substitute x -> T x + c: entries are the real invertible T row by row, then c."""
        d = math.isqrt(len(entries))
        t = np.array(entries[: d * d], dtype=complex).reshape(d, d)
        return self._substitute(t, entries[d * d :])

    def restrict_line(self, u, v) -> "GaussSum":
        """The one-variable sum t -> F(u t + v)."""
        return self._substitute(np.array(u, dtype=complex).reshape(-1, 1), v)

    def _substitute(self, t, c) -> "GaussSum":
        """x -> T x + c for a real T with full column rank."""
        t = np.asarray(t, dtype=complex)
        c = np.asarray(c, dtype=complex)
        out = []
        for a, b, p in self.terms:
            pref = cmath.exp(b @ c - (c @ a @ c) / 2)
            poly = _poly_compose(p, t, c) * pref
            out.append((t.T @ a @ t, t.T @ (b - a @ c), poly))
        return GaussSum._of(out)

    def partial_fourier(self, slot: int, sign: int = -1) -> "GaussSum":
        """Transform one slot with kernel exp(sign * 2 pi i x_slot y).

        The dual variable y takes over the transformed slot; the other
        slots are untouched. The kernel enters A as the entry
        -sign * 2 pi i between x_slot and y, inserted right after
        x_slot, and x_slot is then integrated out.
        """
        dual = slot + 1
        out = []
        for a, b, p in self.terms:
            n = len(b) + 1
            keep = [k for k in range(n) if k != dual]
            wide, wide_b = np.zeros((n, n), dtype=complex), np.zeros(n, dtype=complex)
            wide[np.ix_(keep, keep)], wide_b[keep] = a, b
            wide[slot, dual] = wide[dual, slot] = -sign * math.tau * 1j
            out.append(_integrate_slot(wide, wide_b, np.expand_dims(p, dual), slot))
        return GaussSum._of(out)

    def integral_slot(self, slot: int) -> "GaussSum":
        """Integrate one slot out over the whole line."""
        return GaussSum._of(_integrate_slot(a, b, p, slot) for a, b, p in self.terms)

    def integral(self) -> complex:
        """Integral over all variables, exact per term."""
        total = 0j
        for a, b, p in self.terms:
            while len(b):
                a, b, p = _integrate_slot(a, b, p, len(b) - 1)
            total += complex(p)
        return total

    # ---- evaluation ------------------------------------------------------

    def __call__(self, *xs):
        xs = [np.asarray(x, dtype=float) for x in xs]
        shape = np.broadcast(*xs).shape
        if not shape:
            # a point goes through as one-element arrays: numpy rounds a product of two
            # complex scalars differently from its array loop, and a point must read the
            # same bits as the same point in an array
            xs = [x.reshape(1) for x in xs]
        out = np.zeros(shape or (1,), dtype=complex)
        for a, b, p in self.terms:
            expo = 0
            for j, x in enumerate(xs):
                expo = expo - a[j, j] * x * x / 2 + b[j] * x
                for k in range(j):
                    expo = expo - a[j, k] * x * xs[k]
            out += _poly_eval(p, xs) * np.exp(expo)
        return out if shape else complex(out[0])

    def l2_inner(self, other: "GaussSum") -> complex:
        return (self.conjugate() * other).integral()

    def __repr__(self) -> str:
        return f"GaussSum({len(self.terms)} terms)"


# names kept only for perfbench, written against the separate one- and two-variable classes:
# workloads.py builds its inputs through cf.GaussSum1.bump and cf.GaussSum2.outer
GaussSum1 = GaussSum2 = GaussSum
