"""Inner-product module structures over the circle algebra and beyond.

Functions on the cylinder (circle times line) are stored as finite
Fourier sums in the circle slot with a closed-form Gaussian profile per
mode. Every action below is a combination of mode shifts, exact phases,
translations and plane-wave modulations of the profiles, so actions are
evaluated without interpolation; quadrature enters only in inner
products, where a Gauss-Legendre grid is the primary route and the exact
closed-form integral serves as an independent oracle.

Structures implemented:

* the line module over the circle algebra, with its integer translation
  action and the two circle-function actions (one through the sheared
  argument, one direct);
* its sheared partner related to it by a unitary change of variables;
* the descended module over the rotation algebra, with commuting left
  and right actions and a rotation-algebra-valued inner product;
* the transversal module with a right action of the doubled rotation
  algebra and a pair-valued inner product;
* the descent bimodule whose inner product collapses the pair-valued
  one by integrating out the first circle slot.

The pair-valued inner products, here and in the duality layer, are sums
over a coset of line offsets. One layer loop serves all three. It pairs
each layer of the first function only with a partner layer that holds a
profile, and each such layer pair is evaluated on the array of all
truncated offsets at once.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closedform import GaussSum
from .errors import GridMismatch, TruncationTooSmall
from .nctorus import SmoothElement, _worst, lambda_power

TWO_PI = 2.0 * math.pi
# first-circle-slot samples that descent_inner_oracle averages over
ORACLE_Y_COUNT = 48


@lru_cache(maxsize=32)
def _legendre_rule(n: int):
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class RGrid:
    """Gauss-Legendre quadrature rule on [-radius, radius]."""

    radius: float
    count: int

    def nodes(self) -> np.ndarray:
        x, _ = _legendre_rule(self.count)
        return self.radius * x

    def weights(self) -> np.ndarray:
        _, w = _legendre_rule(self.count)
        return self.radius * w


def _require_same_grid(f, g):
    if f.grids != g.grids:
        raise GridMismatch(f"grids differ: {f.grids} vs {g.grids}")


def _require_sign(sign):
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")


def _require_shear(b):
    if b == 0:
        raise ValueError("the structure needs a nonzero shear")


def _require_route(route):
    if route not in ("grid", "closed"):
        raise ValueError(f"unknown route {route!r}")


def _sum_by_key(pieces) -> dict:
    """Sum (key, profile) pairs sharing a key, in the order they arrive."""
    out = {}
    for key, p in pieces:
        out[key] = out[key] + p if key in out else p
    return out


class KeyedProfiles:
    """Closed-form profiles keyed by integer indices inside finite windows.

    windows holds one symmetric bound per key index, named by
    KEY_NAMES; a key outside them raises TruncationTooSmall and empty
    profiles are dropped. grids fixes where residuals and inner
    products are sampled, and functions combine only on equal grids.
    Subclass constructors take the windows, then the grids, then the
    profiles, which is how like() rebuilds them.
    """

    __slots__ = ("windows", "grids", "profiles")

    def __init__(self, windows: tuple, grids: tuple, profiles: dict):
        self.windows = windows
        self.grids = grids
        clean = {}
        for key, p in profiles.items():
            index = key if type(key) is tuple else (key,)
            for name, i, window in zip(self.KEY_NAMES, index, windows):
                if abs(i) > window:
                    raise TruncationTooSmall(f"{name} {i} exceeds the window {window}")
            if p.terms:
                clean[key] = p
        self.profiles = clean

    @property
    def mode_max(self) -> int:
        return self.windows[-1]

    @property
    def grid(self) -> RGrid:
        return self.grids[0]

    def profile(self, *index):
        key = index if len(index) > 1 else index[0]
        return self.profiles.get(key, GaussSum())

    def like(self, profiles: dict):
        """The function with these profiles on the same windows and grids."""
        return type(self)(*self.windows, *self.grids, profiles)

    def map(self, op):
        """like() on op(key, profile) for every stored key, in storage order."""
        return self.like({key: op(key, p) for key, p in self.profiles.items()})

    def gather(self, pieces):
        """like() on the (key, profile) pairs summed by key in arrival order."""
        return self.like(_sum_by_key(pieces))

    def __add__(self, other):
        _require_same_grid(self, other)
        windows = tuple(map(max, self.windows, other.windows))
        pieces = itertools.chain(self.profiles.items(), other.profiles.items())
        return type(self)(*windows, *self.grids, _sum_by_key(pieces))

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        return self.map(lambda key, p: p.scale(c))

    def _mesh(self):
        """Points where residuals are sampled: every node of the grid."""
        return (self.grids[0].nodes(),)

    def sup_norm(self) -> float:
        """Largest |profile| over the sample points; NaN if any is NaN."""
        points = self._mesh()
        return _worst(float(np.max(np.abs(p(*points)))) for p in self.profiles.values())

    def max_abs_difference(self, other) -> float:
        """Largest |self - other| over the sample points; NaN if any is NaN."""
        return (self - other).sup_norm()


class LayeredProfiles(KeyedProfiles):
    """Keyed profiles whose keys are (layer, mode), with layer in a finite window.

    Represents F(k, [x], *line) = sum over (k, m) of p_{k,m}(*line)
    e^{2 pi i m x}; the profiles take one argument per line slot.
    """

    __slots__ = ()
    KEY_NAMES = ("layer", "mode")

    @property
    def z_max(self) -> int:
        return self.windows[0]

    def layers(self) -> list:
        """The layers that hold a profile, in increasing order."""
        return sorted({k for k, _ in self.profiles})

    def layer_profiles(self, k: int) -> dict:
        """The profiles of layer k keyed by mode, in insertion order."""
        return {m: p for (kk, m), p in self.profiles.items() if kk == k}

    def eval_at(self, k: int, x, *line):
        """F(k, [x], *line) at a circle point x or an array of them.

        An array x must broadcast against the profile values: its shape
        leads, with a length-one axis for each axis of the line arrays.
        """
        points = np.asarray(x, dtype=float)
        total = 0j
        for m, p in self.layer_profiles(k).items():
            total += p(*line) * np.exp(TWO_PI * 1j * m * points)
        return total


class TRFunction(KeyedProfiles):
    """Finite Fourier sum over the circle with closed-form line profiles.

    Represents phi([x], r) = sum over modes m of p_m(r) e^{2 pi i m x}
    with each p_m a Gaussian closed form. The grid fixes where inner
    products are sampled; it does not constrain evaluation.
    """

    __slots__ = ()
    KEY_NAMES = ("mode",)

    def __init__(self, mode_max: int, grid: RGrid, profiles: dict):
        super().__init__((mode_max,), (grid,), profiles)


class CTValued:
    """A circle function by its Fourier coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {m: complex(c) for m, c in coeffs.items() if c != 0}

    def coefficient(self, m: int) -> complex:
        return self.coeffs.get(m, 0j)

    def value_at(self, x: float) -> complex:
        return sum(
            c * cmath.exp(TWO_PI * 1j * m * x) for m, c in self.coeffs.items()
        )

    def star(self) -> "CTValued":
        return CTValued({-m: c.conjugate() for m, c in self.coeffs.items()})

    def rotate(self, l: int, theta: float) -> "CTValued":
        """Coefficients of x -> value_at(x - l*theta)."""
        return CTValued(
            {m: c * lambda_power(theta, -m * l) for m, c in self.coeffs.items()}
        )

    def mul(self, other: "CTValued") -> "CTValued":
        out = {}
        for m, c in self.coeffs.items():
            for n, d in other.coeffs.items():
                out[m + n] = out.get(m + n, 0j) + c * d
        return CTValued(out)

    def max_abs_difference(self, other: "CTValued") -> float:
        """Largest coefficient difference; NaN if any difference is NaN."""
        keys = set(self.coeffs) | set(other.coeffs)
        return _worst(abs(self.coefficient(m) - other.coefficient(m)) for m in keys)


# ---------------------------------------------------------------------------
# the line module: inner product and the three actions
# ---------------------------------------------------------------------------


def _mode_products(phi: TRFunction, psi: TRFunction):
    """Closed-form profiles of the pointwise product conj(phi) * psi.

    Yields (m, profile) where m is the Fourier mode of the product and
    the profile is sum over beta of conj(p_{beta-m}) q_beta.
    """
    conjugates = {alpha: p.conjugate() for alpha, p in phi.profiles.items()}
    return _sum_by_key(
        (beta - alpha, pc * q)
        for alpha, pc in conjugates.items()
        for beta, q in psi.profiles.items()
    )


def line_module_inner(phi: TRFunction, psi: TRFunction, route: str = "grid") -> CTValued:
    """Circle-valued inner product: integrate conj(phi)*psi over the line.

    route "grid" uses the stored quadrature rule; route "closed"
    evaluates the exact Gaussian integrals. The two agree to quadrature
    accuracy and are compared in tests, never merged.
    """
    _require_route(route)
    _require_same_grid(phi, psi)
    products = _mode_products(phi, psi)
    if route == "closed":
        return CTValued({m: p.integral() for m, p in products.items()})
    r, w = phi.grid.nodes(), phi.grid.weights()
    return CTValued({m: complex(np.sum(w * p(r))) for m, p in products.items()})


def line_module_translate(phi: TRFunction, l: int, theta: float) -> TRFunction:
    """Integer translation action: new phi([x], r) = phi([x - l theta], r - l)."""
    return phi.map(lambda m, p: p.affine(1.0, -float(l)).scale(lambda_power(theta, -m * l)))


def line_module_left(phi: TRFunction, f: CTValued, b: int) -> TRFunction:
    """Left circle-function action through the sheared argument x + r b."""
    return phi.gather(
        (m + n, p.modulate(n * b).scale(c))
        for n, c in f.coeffs.items()
        for m, p in phi.profiles.items()
    )


def line_module_right(phi: TRFunction, f: CTValued) -> TRFunction:
    """Right circle-function action through the plain argument x: the left one at b = 0."""
    return line_module_left(phi, f, 0)


# ---------------------------------------------------------------------------
# the sheared partner module
# ---------------------------------------------------------------------------


def sheared_module_inner(
    phi: TRFunction, psi: TRFunction, b: int, route: str = "grid"
) -> CTValued:
    """Inner product integrating (conj(phi) psi)([x - r], r / b) in r.

    route "grid" samples the displayed integrand at the stored nodes
    (profiles evaluate anywhere, so the r/b argument costs nothing);
    route "closed" substitutes u = r/b and integrates exactly.
    """
    _require_route(route)
    _require_same_grid(phi, psi)
    _require_shear(b)
    products = _mode_products(phi, psi)
    if route == "closed":
        return CTValued({m: abs(b) * p.modulate(-m * b).integral() for m, p in products.items()})
    r, w = phi.grid.nodes(), phi.grid.weights()
    sums = {m: np.sum(w * p(r / b) * np.exp(-TWO_PI * 1j * m * r)) for m, p in products.items()}
    return CTValued(sums)


def shear_unitary(phi: TRFunction, b: int, inverse: bool = False) -> TRFunction:
    """The normalized change of variables ([x], r) -> ([x + b r], -r).

    Forward carries the line module to its sheared partner; the map is
    an involution up to the normalization, so the inverse only differs
    by the Jacobian factor.
    """
    _require_shear(b)
    factor = math.sqrt(abs(b)) if inverse else 1.0 / math.sqrt(abs(b))
    return phi.map(lambda m, p: p.affine(-1.0, 0.0).modulate(m * b).scale(factor))


def sheared_dirac(phi: TRFunction, sign: int, b: int) -> TRFunction:
    """First-order operator of the sheared structure.

    Plus sign: -(1/b) d/dr + d/dTheta - 2 pi r. Minus sign is the formal
    adjoint under the scalar pairing. Profiles differentiate exactly.
    """
    _require_shear(b)
    _require_sign(sign)

    def op(m, p):
        radial = p.derivative().scale(-sign / b)
        angular = p.scale(sign * TWO_PI * 1j * m)
        return radial + angular + p.mul_poly((0.0, -TWO_PI))

    return phi.map(op)


# ---------------------------------------------------------------------------
# the descended module over the rotation algebra
# ---------------------------------------------------------------------------


class ZTRFunction(LayeredProfiles):
    """Finitely supported integer layers of cylinder functions.

    Represents Psi(k, [x], r) = sum over (k, m) of p_{k,m}(r)
    e^{2 pi i m x}, with k in a finite window.
    """

    __slots__ = ()

    def __init__(self, z_max: int, mode_max: int, grid: RGrid, profiles: dict):
        super().__init__((z_max, mode_max), (grid,), profiles)

    def layer(self, k: int) -> TRFunction:
        return TRFunction(self.mode_max, self.grid, self.layer_profiles(k))


def descended_left(a: SmoothElement, psi: ZTRFunction, b: int) -> ZTRFunction:
    """Left action of the rotation algebra on the descended module.

    Coefficient (nu, j) of a contributes through the sheared circle
    argument x - r b, an integer translation of the layer index, and a
    line translation by j.
    """
    theta = a.theta
    pieces = []
    for (nu, j), c in a.coeffs.items():
        for (k, mu), p in psi.profiles.items():
            piece = (
                p.affine(1.0, -float(j))
                .modulate(-nu * b)
                .scale(c * lambda_power(theta, -mu * j))
            )
            pieces.append(((k + j, mu + nu), piece))
    return psi.gather(pieces)


def descended_right(psi: ZTRFunction, a: SmoothElement) -> ZTRFunction:
    """Right action of the rotation algebra: the second factor of the pair action at b = 0."""
    xi = {(0, 0, nu, j): c for (nu, j), c in a.coeffs.items()}
    return pair_module_right(psi, xi, a.theta, 0)


def _layer_inner_sum(phi: ZTRFunction, psi: ZTRFunction, theta: float, layer_inner) -> SmoothElement:
    """Sum layer_inner(layer k of phi, layer k2 of psi), rotated by -k, at keys (m, k2 - k)."""
    _require_same_grid(phi, psi)
    coeffs = {}
    for k in phi.layers():
        layer1 = phi.layer(k)
        for k2 in psi.layers():
            ct = layer_inner(layer1, psi.layer(k2)).rotate(-k, theta)
            for m, c in ct.coeffs.items():
                coeffs[(m, k2 - k)] = coeffs.get((m, k2 - k), 0j) + c
    return SmoothElement(coeffs, theta)


def descended_inner(
    psi1: ZTRFunction, psi2: ZTRFunction, theta: float, route: str = "grid"
) -> SmoothElement:
    """Rotation-algebra-valued inner product of the descended module: layer sums of line_module_inner."""
    _require_route(route)
    return _layer_inner_sum(psi1, psi2, theta, lambda f, g: line_module_inner(f, g, route))


# ---------------------------------------------------------------------------
# the transversal module with a doubled right action
# ---------------------------------------------------------------------------


def doubled_right_act(fn: LayeredProfiles, xi: dict, theta: float, move) -> LayeredProfiles:
    """Right action of the doubled rotation algebra on layered functions.

    xi maps (p1, q1, p2, q2) to a coefficient, standing for the sum of
    elementary tensors (first factor powers p1, q1; second p2, q2). Each
    term sends layer k and mode mu to layer k_out = k + q2 - q1 and mode
    mu + p1 + p2, with the phase lambda^((mu + p1) q1 + p2 (q2 - k_out)),
    and changes the line variables of a profile by move(profile, q1, p2, q2).
    """
    pieces = []
    for (p1, q1, p2, q2), c in xi.items():
        if c == 0:
            continue
        for (k, mu), p in fn.profiles.items():
            k_out = k + q2 - q1
            phase = lambda_power(theta, (mu + p1) * q1 + p2 * (q2 - k_out))
            pieces.append(((k_out, mu + p1 + p2), move(p, q1, p2, q2).scale(c * phase)))
    return fn.gather(pieces)


def pair_module_right(phi: ZTRFunction, xi: dict, theta: float, b: int) -> ZTRFunction:
    """Right action of the doubled rotation algebra on transversal functions.

    The doubled action with the first factor acting through the circle
    slot and a line translation by q1, the second through the sheared
    position (modulation by p2 b) and the layer index.
    """
    return doubled_right_act(
        phi, xi, theta, lambda p, q1, p2, q2: p.affine(1.0, -float(q1)).modulate(p2 * b)
    )


class APairValued:
    """A doubled-algebra-valued form, held as an evaluator.

    value(l1, l2, v, w) is the coefficient function of the pair of
    integer jumps (l1, l2) at circle points (v, w). The evaluator form
    is needed because inner products below evaluate at off-grid offsets
    combining both circle coordinates with the angle.
    """

    __slots__ = ("fn", "l_max", "theta")

    def __init__(self, fn, l_max: int, theta: float):
        self.fn = fn
        self.l_max = l_max
        self.theta = theta

    def value(self, l1: int, l2: int, v: float, w: float) -> complex:
        return self.fn(l1, l2, v, w)

    def star(self) -> "APairValued":
        theta = self.theta

        def starred(l1, l2, v, w):
            return self.fn(-l1, -l2, v - l1 * theta, w - l2 * theta).conjugate()

        return APairValued(starred, self.l_max, theta)

    def right_mult(self, xi: dict) -> "APairValued":
        theta = self.theta
        items = [(key, c) for key, c in xi.items() if c != 0]

        def multiplied(l1, l2, v, w):
            total = 0j
            for (p1, q1, p2, q2), c in items:
                base = self.fn(l1 - q1, l2 - q2, v, w)
                phase1 = cmath.exp(TWO_PI * 1j * p1 * v) * lambda_power(
                    theta, -p1 * (l1 - q1)
                )
                phase2 = cmath.exp(TWO_PI * 1j * p2 * w) * lambda_power(
                    theta, -p2 * (l2 - q2)
                )
                total += c * base * phase1 * phase2
            return total

        reach = max((abs(k[1]) + abs(k[3]) for k, _ in items), default=0)
        return APairValued(multiplied, self.l_max + reach, theta)

    def max_abs_difference(self, other: "APairValued") -> float:
        """Largest |self - other| over a 5 x 5 circle mesh at every jump pair
        within either form's reach; NaN if any is NaN."""
        xs = [float(x) for x in np.linspace(0.05, 0.95, 5)]
        span = max(self.l_max, other.l_max)
        jumps = range(-span, span + 1)
        return _worst(
            abs(self.value(l1, l2, v, w) - other.value(l1, l2, v, w))
            for l1, l2, v, w in itertools.product(jumps, jumps, xs, xs)
        )


def _coset_offsets(scale: float, reach: float, z_max: int) -> np.ndarray:
    """The coset window of the pair-valued inner products: |n| <= ceil(scale reach + z_max + 2)."""
    cut = int(math.ceil(scale * reach + z_max + 2))
    return np.arange(-cut, cut + 1, dtype=float)


def _layer_pair_sum(fn1, fn2, layer_pair, theta: float) -> APairValued:
    """The pair-valued form that sums layer_pair over the layers of fn1.

    layer_pair(k1, k2, l1, l2, v, w) is the contribution of layer k1 of
    fn1 paired with layer k2 = k1 + l2 - l1 of fn2. It is called only when
    fn2 holds a profile at layer k2: any other partner is the zero function
    (every stored layer lies inside fn2's window), so its pair adds nothing.
    A nonzero pair has |l2 - l1| <= fn1.z_max + fn2.z_max, so the form's
    jump reach is twice the wider of the two layer windows.
    """
    layers = fn1.layers()
    partners = set(fn2.layers())

    def fn(l1, l2, v, w):
        total = np.zeros(np.shape(v), dtype=complex)
        for k1 in layers:
            k2 = k1 + l2 - l1
            if k2 in partners:
                total += layer_pair(k1, k2, l1, l2, v, w)
        # a Python complex at a point (a numpy scalar would divide with other
        # rounding), a list of them, one per point, for an array of points
        return total.tolist()

    return APairValued(fn, 2 * max(fn1.z_max, fn2.z_max), theta)


def pair_module_inner(
    phi: ZTRFunction, psi: ZTRFunction, theta: float, b: int
) -> APairValued:
    """Pair-valued inner product of the transversal module.

    The line argument runs over the coset (k1 + k2 theta + w - v) / b,
    so the result is an evaluator in the two circle points; the k1 sum
    is truncated where the Gaussian profiles are negligible. Each layer
    pair with a partner profile is evaluated once on the array of all
    truncated coset offsets, and the products are summed in real
    arithmetic so that a self-pairing's diagonal comes out exactly real.
    The first circle point v may be a 1-D array; the value is then the
    list of the values at its points, each with the bits of that point
    alone. The coset window is centred for theta in [0, 1).
    """
    _require_shear(b)
    offsets = _coset_offsets(abs(b), phi.grid.radius + 2, phi.z_max)

    def layer_pair(k1, k2, l1, l2, v, w):
        v = np.asarray(v)[..., None]
        r0 = (offsets + k1 * theta + w - v) / b
        left = phi.eval_at(k1, v, r0)
        right = psi.eval_at(k2, v - l1 * theta, r0 + l1)
        out = np.empty(r0.shape[:-1], dtype=complex)
        out.real = np.add.reduce(left.real * right.real + left.imag * right.imag, axis=-1)
        out.imag = np.add.reduce(left.real * right.imag - left.imag * right.real, axis=-1)
        return out

    return _layer_pair_sum(phi, psi, layer_pair, theta)


# ---------------------------------------------------------------------------
# the descent bimodule (unit-shear case)
# ---------------------------------------------------------------------------


def descent_left(phi: ZTRFunction, p1: int, q1: int, theta: float) -> ZTRFunction:
    """Left action of an elementary generator: the first factor of the pair action.

    That factor at powers (p1, -q1), with the reordering phase lambda^(p1 q1).
    """
    xi = {(p1, -q1, 0, 0): lambda_power(theta, p1 * q1)}
    return pair_module_right(phi, xi, theta, 0)


def descent_right(phi: ZTRFunction, p2: int, q2: int, theta: float, b: int) -> ZTRFunction:
    """Right action of an elementary generator: the second factor of the pair action."""
    return pair_module_right(phi, {(0, 0, p2, q2): 1.0}, theta, b)


def descent_inner(
    phi: ZTRFunction, psi: ZTRFunction, theta: float, b: int, route: str = "grid"
) -> SmoothElement:
    """Rotation-algebra-valued inner product of the descent bimodule.

    Primary form: sum over the layer index of sheared-partner inner
    products of corresponding layers, each evaluated at the circle point
    twisted by the layer. A quadrature collapse of the pair-valued inner
    product is kept separately as an oracle (see descent_inner_oracle).
    """
    _require_route(route)
    return _layer_inner_sum(phi, psi, theta, lambda f, g: sheared_module_inner(f, g, b, route))


def descent_inner_oracle(phi: ZTRFunction, psi: ZTRFunction, theta: float, b: int):
    """Collapse the pair-valued inner product by averaging the first slot.

    Returns a callable (x, l) -> complex for comparison with the primary
    descent_inner route. All first-slot samples go through the pair in
    one array call, and their values are summed in sample order.
    """
    pair = pair_module_inner(phi, psi, theta, b)
    ys = (np.arange(ORACLE_Y_COUNT) + 0.5) / ORACLE_Y_COUNT

    def collapsed(x: float, l: int) -> complex:
        total = 0j
        for value in pair.value(0, l, ys, x):
            total += value
        return total / ORACLE_Y_COUNT

    return collapsed
