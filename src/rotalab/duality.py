"""Functions of one integer and two line variables, and the big transform.

The objects here extend the cylinder functions of the module layer by a
second line slot. Two module structures live on them: a base structure
whose first-order operator is plain multiplication by r -+ is, and its
image under an invertible transform built from a partial Fourier
transform in the second slot followed by a shear substitution. The
transform turns multiplication operators into shifted derivative
operators, which is verified here by direct residual computation.

Profiles are two-variable Gaussian closed forms per (layer, mode) key,
so substitutions and derivatives are exact; quadrature enters only in
integrals, always with an exact closed-form route alongside. Both
routes of the two pair-valued inner products run on all truncated coset
offsets at once: the closed one prepares each first-slot factor once per
evaluator and integrates the second slot per profile pair at each
evaluation, the quadrature one samples each layer pair on the offset x
node mesh. Residuals and norms evaluate profiles on open (r, s) meshes,
a column of r and a row of s, which give the same values bit for bit as
the full mesh.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bimodules import APairValued, LayeredProfiles, RGrid, ZTRFunction, doubled_right_act
from .bimodules import _coset_offsets, _layer_pair_sum, _require_route, _require_shear
from .bimodules import _require_sign
from .closedform import GaussSum
from .errors import AliasingDetected
from .nctorus import SmoothElement, _worst, lambda_power

TWO_PI = 2.0 * math.pi
# grid nodes per slot that SB2Function residuals and norms sample
MESH_PER_SLOT = 24


class SB2Function(LayeredProfiles):
    """Layered two-variable functions with finite circle mode content.

    Represents F(k, [x], r, s) = sum over (k, m) of G_{k,m}(r, s)
    e^{2 pi i m x} with each G a two-variable Gaussian closed form and k
    in a finite window.
    """

    __slots__ = ()

    def __init__(self, z_max, mode_max, rgrid: RGrid, sgrid: RGrid, profiles: dict):
        super().__init__((z_max, mode_max), (rgrid, sgrid), profiles)

    @property
    def rgrid(self) -> RGrid:
        return self.grids[0]

    @property
    def sgrid(self) -> RGrid:
        return self.grids[1]

    def _mesh(self):
        """Every (count // MESH_PER_SLOT)-th node of each grid, as an open (r, s) mesh.

        The column of r and the row of s broadcast to the full mesh, with the
        same values bit for bit as on full copies.
        """
        r, s = (grid.nodes()[:: max(1, grid.count // MESH_PER_SLOT)] for grid in self.grids)
        return np.meshgrid(r, s, indexing="ij", sparse=True)


# ---------------------------------------------------------------------------
# the base module: multiplication-type first-order operator
# ---------------------------------------------------------------------------


def base_right_act(fn: SB2Function, xi: dict, theta: float) -> SB2Function:
    """Right action of the doubled rotation algebra on the base module.

    xi maps (l1, k1, l2, k2) to a coefficient for the elementary tensor
    with powers (l1, k1) in the first factor and (l2, k2) in the second.
    """
    pieces = []
    for (l1, k1, l2, k2), c in xi.items():
        if c == 0:
            continue
        for (k, mu), g in fn.profiles.items():
            phase = lambda_power(theta, mu * k2 + l1 * (k + k2) + l2 * k2)
            piece = g.modulate(l2, -k2).scale(c * phase)
            pieces.append(((k + k2 - k1, mu + l1 + l2), piece))
    return fn.gather(pieces)


def base_dirac(fn: SB2Function, sign: int) -> SB2Function:
    """Multiplication by r - sign * i s, the base first-order operator."""
    _require_sign(sign)
    return fn.map(lambda key, g: g.mul_poly([[0.0, -sign * 1j], [1.0, 0.0]]))


def _closed_coset_sum(lefts: SB2Function, fn2: SB2Function, k1, k2, line, jumps, x1, x2, offsets):
    """Closed-route coset sum shared by the two pair-valued inner products.

    lefts holds the prepared first-slot factor of each profile of the
    first function, a jump-independent closed form built once per
    evaluator. line(left, g2, *jumps) is the exact integral over the
    second slot for one profile pair, a closed form H in the coset offset.
    The sum runs over the profile pairs of layer k1 of lefts and layer k2
    of fn2 and adds the circle phases at x1 and x2 times H summed over the
    offsets array.
    """
    total = 0j
    for m1, left in lefts.layer_profiles(k1).items():
        for m2, g2 in fn2.layer_profiles(k2).items():
            h = line(left, g2, *jumps)
            ph1 = cmath.exp(-TWO_PI * 1j * m1 * x1)
            ph2 = cmath.exp(TWO_PI * 1j * m2 * x2)
            total += ph1 * ph2 * complex(np.add.reduce(h(offsets)))
    return total


def _base_line(left: GaussSum, g2: GaussSum, l2: int) -> GaussSum:
    """rho -> integral over s of left(rho, s) g2(rho, s) e^{2 pi i l2 s}, with left = conj(g1)."""
    return (left * g2).modulate(0, l2).integral_slot(1)


def base_inner(fn1: SB2Function, fn2: SB2Function, theta: float, route="grid") -> APairValued:
    """Pair-valued inner product of the base module.

    The first line slot is pinned to coset points k2 + k1 theta - v + w
    while the second is integrated out, by quadrature on the stored grid
    (route "grid", on the offset x node mesh) or by exact closed forms
    (route "closed"), on all truncated offsets at once. The closed route
    conjugates each profile of fn1 once per evaluator and integrates the
    second slot per profile pair at each evaluation, leaving a closed
    form in the coset offset that it sums over the offsets. The coset
    window is centred for theta in [0, 1).
    """
    _require_route(route)
    offsets = _coset_offsets(1, fn1.rgrid.radius, fn1.z_max)
    t = fn1.sgrid.nodes()
    wt = fn1.sgrid.weights()
    if route == "closed":
        lefts = fn1.map(lambda key, g: g.conjugate())

    def layer_pair(k1, k2, l1, l2, v, w):
        x1 = v - k1 * theta
        x2 = v - (k1 + l2) * theta
        rho = offsets + k1 * theta - v + w
        if route == "closed":
            return _closed_coset_sum(lefts, fn2, k1, k2, _base_line, (l2,), x1, x2, rho)
        left = fn1.eval_at(k1, x1, rho[:, None], t)
        right = fn2.eval_at(k2, x2, rho[:, None], t)
        return complex(np.sum(wt * np.exp(TWO_PI * 1j * t * l2) * np.conj(left) * right))

    return _layer_pair_sum(fn1, fn2, layer_pair, theta)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def fourier_slot_transform(fn: SB2Function, inverse: bool = False) -> SB2Function:
    """Partial Fourier transform in the second slot, kernel e^{-2 pi i t s}."""
    sign = 1 if inverse else -1
    return fn.map(lambda key, g: g.partial_fourier(1, sign))


def fourier_slot_quadrature(fn: SB2Function, k: int, x: float, r: float, s_values):
    """Quadrature route for the slot transform, with an aliasing guard.

    Approximates the t-integral on the stored grid at the requested dual
    values. Raises AliasingDetected when a requested |s| exceeds what
    the node spacing can resolve.
    """
    nyquist = fn.sgrid.count / (4.0 * fn.sgrid.radius)
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    if np.max(np.abs(s_values)) > nyquist:
        raise AliasingDetected(
            f"dual value beyond the grid resolution bound {nyquist:.3f}"
        )
    t = fn.sgrid.nodes()
    wt = fn.sgrid.weights()
    samples = fn.eval_at(k, x, r, t)
    kernel = np.exp(-TWO_PI * 1j * np.outer(s_values, t))
    return kernel @ (wt * samples)


def shear_substitution(fn: SB2Function, b: int, theta: float, inverse: bool = False) -> SB2Function:
    """Layer-dependent shear: F(k, [x], r, s) becomes F(k, [x - k theta], b(r+s+k), s).

    The inverse substitutes ([x + k theta], r/b - s - k, s) instead, so
    the two compose to the identity exactly on closed forms.
    """
    _require_shear(b)

    def op(key, g):
        k, m = key
        if inverse:
            moved = g.affine(1.0 / b, -1.0, 0.0, 1.0, -float(k), 0.0)
            return moved.scale(lambda_power(theta, m * k))
        moved = g.affine(float(b), float(b), 0.0, 1.0, float(b * k), 0.0)
        return moved.scale(lambda_power(theta, -m * k))

    return fn.map(op)


def full_transform(fn: SB2Function, b: int, theta: float, inverse: bool = False) -> SB2Function:
    """The composite transform: shear after slot Fourier, or its inverse."""
    if inverse:
        return fourier_slot_transform(
            shear_substitution(fn, b, theta, inverse=True), inverse=True
        )
    return shear_substitution(fourier_slot_transform(fn), b, theta)


# ---------------------------------------------------------------------------
# conjugated operators on the transform side
# ---------------------------------------------------------------------------


def _sheared_weight(b: int, key, g: GaussSum) -> GaussSum:
    """b (M_r + M_layer + M_s) on the profile g stored at key (layer, mode)."""
    return g.mul_poly([[float(b * key[0]), float(b)], [float(b), 0.0]])


def transformed_dirac(fn: SB2Function, sign: int, b: int) -> SB2Function:
    """First-order operator on the transform side.

    [b(M_r + M_layer) -+ (1/2pi) d_r] + [b M_s +- (1/2pi) d_s]; equals
    the conjugate of the base operator under the composite transform.
    """
    _require_sign(sign)

    def op(key, g):
        radial = g.derivative(0).scale(-sign / TWO_PI)
        dual = g.derivative(1).scale(sign / TWO_PI)
        return _sheared_weight(b, key, g) + radial + dual

    return fn.map(op)


def conjugation_report(fn: SB2Function, b: int, theta: float) -> dict:
    """Residuals of the transform conjugation identities.

    Checks that conjugating multiplication by r gives b(M_r + M_layer +
    M_s), that conjugating multiplication by s gives (i/2pi)(d_s - d_r),
    and that the assembled first-order operators match the conjugated
    base operators, all as max-norm residuals on the sample mesh.
    """
    back = full_transform(fn, b, theta, inverse=True)

    def conjugate(op):
        return full_transform(op(back), b, theta)

    def mul_r(f):
        return f.map(lambda key, g: g.mul_poly([[0.0], [1.0]]))

    def mul_s(f):
        return f.map(lambda key, g: g.mul_poly([[0.0, 1.0]]))

    expected_r = fn.map(lambda key, g: _sheared_weight(b, key, g))
    expected_s = fn.map(lambda key, g: (g.derivative(1) - g.derivative(0)).scale(1j / TWO_PI))
    report = {
        "first_slot": conjugate(mul_r).max_abs_difference(expected_r),
        "second_slot": conjugate(mul_s).max_abs_difference(expected_s),
    }
    for sign in (1, -1):
        conjugated = conjugate(lambda f, s=sign: base_dirac(f, s))
        assembled = transformed_dirac(fn, sign, b)
        label = "plus" if sign == 1 else "minus"
        report[f"dirac_{label}"] = conjugated.max_abs_difference(assembled)
    return report


# ---------------------------------------------------------------------------
# resolvents of the base operator
# ---------------------------------------------------------------------------


def resolvent_residual(psi1: SB2Function, psi2: SB2Function, sign: int) -> float:
    """Max pointwise defect of the resolvent equation (D + sign i) phi = psi over the grid mesh.

    D is the odd multiplication operator: it acts by r + is on the second
    component and r - is on the first, so phi = (D - sign i) psi / (1 + r^2 + s^2),
    not a closed form: psi and phi are value pairs on the grid mesh, solved
    key by key. The defect is |(D + sign i) phi - psi|, per key and component.
    The profiles are evaluated on the open mesh (r, s), which gives the same bits.
    """
    _require_sign(sign)
    r, s = np.meshgrid(psi1.rgrid.nodes(), psi1.sgrid.nodes(), indexing="ij", sparse=True)
    rr, ss = np.broadcast_arrays(r, s)
    quad = 1.0 + rr * rr + ss * ss

    def shift(f, c):
        return (rr + 1j * ss) * f[1] - c * 1j * f[0], (rr - 1j * ss) * f[0] - c * 1j * f[1]

    defects = []
    for key in set(psi1.profiles) | set(psi2.profiles):
        psi = (psi1.profile(*key)(r, s), psi2.profile(*key)(r, s))
        phi = tuple(part / quad for part in shift(psi, sign))
        defects += [float(np.max(np.abs(got - want))) for got, want in zip(shift(phi, -sign), psi)]
    return _worst(defects)


# ---------------------------------------------------------------------------
# the transform-side module structure
# ---------------------------------------------------------------------------


def transformed_right_act(fn: SB2Function, xi: dict, theta: float, b: int) -> SB2Function:
    """Right action of the doubled algebra on the transform side.

    The doubled action of bimodules.doubled_right_act, with the first
    slot translated by -q1, the second by q2, and both modulated by p2 b.
    """
    _require_shear(b)

    def move(g, q1, p2, q2):
        return g.affine(1.0, 0.0, 0.0, 1.0, -float(q1), float(q2)).modulate(p2 * b, p2 * b)

    return doubled_right_act(fn, xi, theta, move)


def _transformed_line(left: GaussSum, g2: GaussSum, l1: int, l2: int) -> GaussSum:
    """c -> integral over s of left(c, s) g2(c - s + l1, s - l2).

    left is the prepared first-slot factor (c, s) -> conj(g1)(c - s, s).
    """
    right = g2.affine(1.0, -1.0, 0.0, 1.0, float(l1), float(-l2))
    return (left * right).integral_slot(1)


def transformed_inner(
    fn1: SB2Function, fn2: SB2Function, theta: float, b: int, route="grid"
) -> APairValued:
    """Pair-valued inner product on the transform side.

    The first slot is pinned to the b-scaled coset points minus the
    integration variable, which runs through the second slot, on all
    truncated offsets at once. Route "grid" integrates with the stored
    rule on the offset x node mesh. Route "closed" builds each profile's
    first-slot factor conj(g1)(c - s, s) once per evaluator and integrates
    the second slot per profile pair at each evaluation, leaving a closed
    form in the coset offset that it sums over the offsets. The coset
    window is centred for theta in [0, 1).
    """
    _require_route(route)
    _require_shear(b)
    offsets = _coset_offsets(abs(b), fn1.rgrid.radius + 2, fn1.z_max)
    t = fn1.rgrid.nodes()
    wt = fn1.rgrid.weights()
    if route == "closed":
        lefts = fn1.map(lambda key, g: g.conjugate().affine(1.0, -1.0, 0.0, 1.0, 0.0, 0.0))

    def layer_pair(k1, k2, l1, l2, v, w):
        x2 = v - l1 * theta
        c0 = (offsets + k1 * theta - v + w) / b
        if route == "closed":
            return _closed_coset_sum(lefts, fn2, k1, k2, _transformed_line, (l1, l2), v, x2, c0)
        left = fn1.eval_at(k1, v, c0[:, None] - t, t)
        right = fn2.eval_at(k2, x2, c0[:, None] - t + l1, t - l2)
        return complex(np.sum(wt * np.conj(left) * right))

    return _layer_pair_sum(fn1, fn2, layer_pair, theta)


def transformed_lower_bound_gap(fn: SB2Function, theta: float, b: int, samples) -> float:
    """Largest violation of the diagonal lower bound over the samples.

    For each (k, v, s) sample the inner product diagonal at paired
    points dominates the single-term integral of |F|^2 along the
    anti-diagonal line through s. Nonpositive return means the bound
    held everywhere; a NaN sample makes the result NaN.
    """
    gram = transformed_inner(fn, fn, theta, b, "closed")
    gaps = []
    for (k, v, s) in samples:
        w = v + b * s - k * theta
        diag = gram.value(0, 0, v, w).real
        single = 0j
        layer = fn.layer_profiles(k)
        for m1, g1 in layer.items():
            line1 = g1.conjugate().restrict_line((-1.0, 1.0), (float(s), 0.0))
            for m2, g2 in layer.items():
                line2 = g2.restrict_line((-1.0, 1.0), (float(s), 0.0))
                phase = cmath.exp(TWO_PI * 1j * (m2 - m1) * v)
                single += phase * (line1 * line2).integral()
        gaps.append(single.real - diag)
    return _worst(gaps, floor=-math.inf)


# ---------------------------------------------------------------------------
# split operators and their product rules
# ---------------------------------------------------------------------------


def layered_line_dirac(phi: ZTRFunction, sign: int, b: int) -> ZTRFunction:
    """b (M_r + M_layer) -+ (1/2pi) d_r on layered cylinder functions."""
    _require_sign(sign)
    return phi.map(
        lambda key, p: p.mul_poly((float(b * key[0]), float(b)))
        + p.derivative().scale(-sign / TWO_PI)
    )


def profile_dirac(p: GaussSum, sign: int, b: int) -> GaussSum:
    """b M +- (1/2pi) d_r on a single line profile."""
    _require_sign(sign)
    return p.mul_poly((0.0, float(b))) + p.derivative().scale(sign / TWO_PI)


def descended_line_dirac(psi: ZTRFunction, sign: int, b: int) -> ZTRFunction:
    """profile_dirac applied per profile of a layered function."""
    return psi.map(lambda key, p: profile_dirac(p, sign, b))


def angular_weight_correction(a: SmoothElement, sign: int) -> SmoothElement:
    """(M_layer -+ (1/2pi) d_angle) on algebra elements.

    Sends the coefficient at powers (p, q) to (q -+ i p) times itself;
    this is the commutator defect of the split operators against the
    algebra actions.
    """
    _require_sign(sign)
    return SmoothElement(
        {(p, q): c * (q - sign * 1j * p) for (p, q), c in a.coeffs.items()},
        a.theta,
    )


def outer_with_profile(phi: ZTRFunction, p: GaussSum) -> SB2Function:
    """Tensor a layered cylinder function with a second-slot profile; both slots on phi's grid."""
    profiles = {key: GaussSum.outer(f, p) for key, f in phi.profiles.items()}
    return SB2Function(phi.z_max, phi.mode_max, phi.grid, phi.grid, profiles)

