"""Exact bookkeeping for the rotation, flow and lattice-flow groupoids.

Arrows store their range anchor plus whatever identifies the arrow; the
source is always derived, never stored, so the two can not drift apart.

Flow arrows additionally store their full displacement vector in the
plane rather than only the flow time. A matrix then transports an arrow
by plain integer-linear algebra on anchor and displacement, which keeps
the functoriality law (transport by N after transport by M equals
transport by NM) exact even though the transported rotation parameter is
a fractional-linear image with no polynomial representative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotComposable,
    NotInFg,
    NotInReduction,
    UnsupportedMatrix,
)
from .scalars import (
    THETA,
    ZERO,
    IntMatrix2,
    ThetaScalar,
    TorusPoint,
    require_nonzero_defect,
    torus_reduce,
)


def _require(cond: bool, err, msg: str):
    if not cond:
        raise err(msg)


# ---------------------------------------------------------------------------
# Rotation groupoid: circle points with integer jumps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationArrow:
    """Arrow ([x], n) with range [x] and source [x - n theta]."""

    x: TorusPoint
    n: int

    @property
    def range(self) -> TorusPoint:
        return self.x

    @property
    def source(self) -> TorusPoint:
        return self.x - THETA * self.n

    def inverse(self) -> "RotationArrow":
        return RotationArrow(self.source, -self.n)

    @classmethod
    def unit(cls, x: TorusPoint) -> "RotationArrow":
        return cls(x, 0)

    @property
    def is_unit(self) -> bool:
        return self.n == 0


def rotation_compose(f: RotationArrow, h: RotationArrow) -> RotationArrow:
    _require(f.source == h.range, NotComposable, "source of f differs from range of h")
    return RotationArrow(f.x, f.n + h.n)


# ---------------------------------------------------------------------------
# Flow groupoid: plane points modulo the lattice, with flow displacements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowArrow:
    """Arrow anchored at (x, y) with exact displacement (dx, dy).

    For an arrow of the slope-theta flow the displacement is
    t * (theta, 1) and dy recovers the flow time t. Transported arrows
    keep that shape with respect to the transported slope.
    """

    x: TorusPoint
    y: TorusPoint
    dx: ThetaScalar
    dy: ThetaScalar

    @classmethod
    def from_time(cls, x: TorusPoint, y: TorusPoint, t) -> "FlowArrow":
        t = ThetaScalar.of(t)
        # t * theta overflows iff t already has a theta^2 part
        return cls(x, y, t * THETA, t)

    @property
    def time(self) -> ThetaScalar:
        return self.dy

    @property
    def range(self) -> tuple:
        return (self.x, self.y)

    @property
    def source(self) -> tuple:
        return (self.x - self.dx, self.y - self.dy)

    def inverse(self) -> "FlowArrow":
        sx, sy = self.source
        return FlowArrow(sx, sy, -self.dx, -self.dy)

    @classmethod
    def unit(cls, x: TorusPoint, y: TorusPoint) -> "FlowArrow":
        return cls(x, y, ZERO, ZERO)

    @property
    def is_unit(self) -> bool:
        return self.dx == ZERO and self.dy == ZERO


def flow_compose(f: FlowArrow, h: FlowArrow) -> FlowArrow:
    _require(f.source == h.range, NotComposable, "source of f differs from range of h")
    return FlowArrow(f.x, f.y, f.dx + h.dx, f.dy + h.dy)


def flow_transport(arrow: FlowArrow, m: IntMatrix2) -> FlowArrow:
    """Image of a flow arrow under the torus automorphism of the matrix.

    The anchor moves by the matrix; the displacement moves by the same
    matrix, so the new flow time is the bottom row applied to the old
    displacement, which for a slope-theta arrow equals t*(p*theta + q).
    """
    nx, ny = m.apply_pair(arrow.x, arrow.y)
    ndx, ndy = m.apply_pair(arrow.dx, arrow.dy)
    return FlowArrow(nx, ny, ndx, ndy)


def reduction_iso(arrow: FlowArrow) -> RotationArrow:
    """Restrict to arrows with both endpoints on the axis circle y = 0.

    There the flow time is forced to be an integer n and the arrow is
    determined by its range circle point and n.
    """
    zero = torus_reduce(0)
    _require(arrow.y == zero, NotInReduction, "range lies off the axis circle")
    _require(
        arrow.source[1] == zero, NotInReduction, "source lies off the axis circle"
    )
    _require(
        arrow.dy.is_integer, NotInReduction, "flow time is not an integer"
    )
    return RotationArrow(arrow.x, arrow.dy.as_integer())


# ---------------------------------------------------------------------------
# Lattice-flow groupoid: doubled integer labels over the plane torus
# ---------------------------------------------------------------------------


def _exact_defect(g: IntMatrix2) -> ThetaScalar:
    mu = require_nonzero_defect(g)
    if not g.is_upper_triangular():
        raise UnsupportedMatrix(
            "exact arithmetic needs an upper-triangular angle matrix"
        )
    # upper-triangular with det +-1 forces a = d = +-1, so the defect is
    # the rational number b and exact division is available
    return mu


@dataclass(frozen=True)
class LatticeFlowArrow:
    """Arrow ((x, y), k, l) of the doubled-label groupoid for a fixed matrix.

    The pair (k, l) acts on the plane torus by the flow displacement
    (k + l*theta)/defect * (theta, 1), where defect is the scaled
    fixed-point defect of the matrix.
    """

    x: TorusPoint
    y: TorusPoint
    k: int
    l: int
    g: IntMatrix2

    def first_time(self) -> ThetaScalar:
        mu = _exact_defect(self.g)
        return ThetaScalar(self.k, self.l) / mu

    def second_time(self) -> ThetaScalar:
        a, b, c, d = self.g.a, self.g.b, self.g.c, self.g.d
        mu = _exact_defect(self.g)
        # k*(d + c*theta) + l*(b + a*theta)
        return ThetaScalar(self.k * d + self.l * b, self.k * c + self.l * a) / mu

    @property
    def range(self) -> tuple:
        return (self.x, self.y)

    @property
    def source(self) -> tuple:
        t1 = self.first_time()
        return (self.x - t1 * THETA, self.y - t1)

    def inverse(self) -> "LatticeFlowArrow":
        sx, sy = self.source
        return LatticeFlowArrow(sx, sy, -self.k, -self.l, self.g)

    @classmethod
    def unit(cls, x: TorusPoint, y: TorusPoint, g: IntMatrix2) -> "LatticeFlowArrow":
        return cls(x, y, 0, 0, g)

    @property
    def is_unit(self) -> bool:
        return self.k == 0 and self.l == 0


def lattice_compose(f: LatticeFlowArrow, h: LatticeFlowArrow) -> LatticeFlowArrow:
    _require(f.g == h.g, NotComposable, "arrows live over different matrices")
    _require(f.source == h.range, NotComposable, "source of f differs from range of h")
    return LatticeFlowArrow(f.x, f.y, f.k + h.k, f.l + h.l, f.g)


def lattice_arrow_to_times(arrow: LatticeFlowArrow):
    """The two matched flow times of a doubled-label arrow.

    Exact for upper-triangular matrices; any other matrix raises
    UnsupportedMatrix, since its defect is quadratic in theta.
    """
    return arrow.first_time(), arrow.second_time()


def lattice_times_to_labels(t1, t2, g: IntMatrix2):
    """Recover the integer labels (k, l) from a matched pair of flow times.

    The pair belongs to the groupoid iff two lattice combinations of the
    times are integers; the labels are an integer-linear function of
    them. Exact scalars only; for floats at a concrete theta use the
    numeric variant.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    t1, t2 = ThetaScalar.of(t1), ThetaScalar.of(t2)
    m1 = t1 * THETA - t2 * ThetaScalar(-b, d)
    m2 = t1 - t2 * ThetaScalar(a, -c)
    if not (m1.is_integer and m2.is_integer):
        raise NotInFg("flow times do not satisfy the lattice condition")
    m1_int, m2_int = m1.as_integer(), m2.as_integer()
    return a * m1_int + b * m2_int, -c * m1_int - d * m2_int


def lattice_times_to_labels_numeric(
    t1: float, t2: float, g: IntMatrix2, theta: float, tol: float = 1e-9
):
    """Float-mode label recovery for matrices that are not upper triangular."""
    a, b, c, d = g.a, g.b, g.c, g.d
    m1 = t1 * theta - t2 * (d * theta - b)
    m2 = t1 - t2 * (a - c * theta)
    m1_int, m2_int = round(m1), round(m2)
    if abs(m1 - m1_int) > tol or abs(m2 - m2_int) > tol:
        raise NotInFg("flow times do not satisfy the lattice condition")
    return a * m1_int + b * m2_int, -c * m1_int - d * m2_int


def lattice_arrow_from_times(
    x: TorusPoint, y: TorusPoint, t1, t2, g: IntMatrix2
) -> LatticeFlowArrow:
    """Build a doubled-label arrow from matched flow times; NotInFg if the
    times violate the lattice condition."""
    k, l = lattice_times_to_labels(t1, t2, g)
    return LatticeFlowArrow(x, y, k, l, g)


# ---------------------------------------------------------------------------
# Transversal points and the two commuting actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineOrbitPoint:
    """Point ([x], s) of the circle-times-line transversal of the flow."""

    x: TorusPoint
    s: ThetaScalar

    def position(self) -> tuple:
        """The plane-torus point (x + s theta, s) the element sits over."""
        return (self.x + self.s * THETA, torus_reduce(self.s))


def flow_act_on_line_orbit(arrow: FlowArrow, p: LineOrbitPoint) -> LineOrbitPoint:
    """Left action: a flow arrow whose source is the current position moves
    the line coordinate by its flow time."""
    _require(
        arrow.source == p.position(),
        NotComposable,
        "arrow source differs from the point position",
    )
    return LineOrbitPoint(p.x, p.s + arrow.time)


def rotation_act_on_line_orbit(
    p: LineOrbitPoint, arrow: RotationArrow
) -> LineOrbitPoint:
    """Right action: a rotation arrow anchored at the circle coordinate
    slides along the discrete fiber without moving the plane position."""
    _require(
        arrow.range == p.x,
        NotComposable,
        "arrow is not anchored at the circle coordinate",
    )
    return LineOrbitPoint(p.x - THETA * arrow.n, p.s + arrow.n)


@dataclass(frozen=True)
class TransversalPoint:
    """Point ([v], r, k) of the two-sided transversal for a fixed matrix."""

    v: TorusPoint
    r: ThetaScalar
    k: int
    g: IntMatrix2

    def __post_init__(self):
        require_nonzero_defect(self.g)

    def paired_circle_point(self) -> TorusPoint:
        """The circle coordinate [a v + r b + k theta] the right side acts at."""
        a, b = self.g.a, self.g.b
        return torus_reduce(self.v.x * a + self.r * b + THETA * self.k)


def _require_unit_shear(g: IntMatrix2):
    if not (g.a == 1 and g.c == 0 and g.d == 1 and g.b != 0):
        raise UnsupportedMatrix(
            "transversal actions are exact only for the unit upper shear"
        )


def lattice_act_on_transversal(
    arrow: LatticeFlowArrow, z: TransversalPoint
) -> TransversalPoint:
    """Left action of a doubled-label arrow on a transversal point.

    The labels (l1, l2) add (l1 + l2*theta)/b to the line coordinate and
    l2 to the integer coordinate; the arrow must be anchored at the plane
    position the moved point sits over.
    """
    _require_unit_shear(z.g)
    _require(arrow.g == z.g, NotComposable, "arrow and point use different matrices")
    l1, l2 = arrow.k, arrow.l
    b = z.g.b
    offset = ThetaScalar(l1, l2) / b
    new_r = offset + z.r
    expected_anchor = (
        z.v + new_r * THETA,
        torus_reduce(new_r),
    )
    _require(
        arrow.range == expected_anchor,
        NotComposable,
        "arrow anchor does not match the transported point",
    )
    return TransversalPoint(z.v, new_r, z.k + l2, z.g)


def rotation_pair_act_on_transversal(
    z: TransversalPoint, arrow1: RotationArrow, arrow2: RotationArrow
) -> TransversalPoint:
    """Right action of a pair of rotation arrows on a transversal point.

    The first arrow anchors at [v], the second at the paired circle
    point; the result is ([v - k1 theta], r + k1, k + k2 - a*k1).
    """
    _require(
        arrow1.range == z.v,
        NotComposable,
        "first arrow is not anchored at the transversal circle point",
    )
    _require(
        arrow2.range == z.paired_circle_point(),
        NotComposable,
        "second arrow is not anchored at the paired circle point",
    )
    k1, k2 = arrow1.n, arrow2.n
    a = z.g.a
    return TransversalPoint(
        z.v - THETA * k1, z.r + k1, z.k + k2 - a * k1, z.g
    )


# ---------------------------------------------------------------------------
# Balanced-pair representatives and the roundtrip
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalancedPair:
    """A representative of the balanced product behind a transversal point.

    Fields: a plane anchor (x, y), a matched time pair (t1, t2) on the
    two sides, and two line-orbit tails ([v], s1) and ([w], s2). Moving a
    time increment from t_i to s_i (or back) changes the representative
    but not the class; the anchor and the sums t_i + s_i are invariant.
    """

    x: TorusPoint
    y: TorusPoint
    t1: ThetaScalar
    t2: ThetaScalar
    v: TorusPoint
    s1: ThetaScalar
    w: TorusPoint
    s2: ThetaScalar
    g: IntMatrix2

    def rebalance(self, shift1, shift2) -> "BalancedPair":
        """Slide time increments across the balancing; same class."""
        shift1, shift2 = ThetaScalar.of(shift1), ThetaScalar.of(shift2)
        return BalancedPair(
            self.x,
            self.y,
            self.t1 + shift1,
            self.t2 + shift2,
            self.v,
            self.s1 - shift1,
            self.w,
            self.s2 - shift2,
            self.g,
        )


def transversal_to_balanced(z: TransversalPoint) -> BalancedPair:
    """Canonical balanced representative of a transversal point."""
    require_nonzero_defect(z.g)
    a, b = z.g.a, z.g.b
    r = z.r
    r2 = ThetaScalar.of(a) * r + z.k
    x = z.v + r * THETA
    y = torus_reduce(r)
    w = torus_reduce(z.v.x * a + r * b - THETA * z.k)
    return BalancedPair(x, y, r, r2, z.v, ZERO, w, ZERO, z.g)


def balanced_to_transversal(p: BalancedPair) -> TransversalPoint:
    """Collapse a balanced representative back to transversal coordinates.

    Checks the membership constraints (both tails sit where the anchor
    says, through the matrix on the second side) and that the two total
    times differ by an integer after the slope-a correction.
    """
    require_nonzero_defect(p.g)
    a, b, c, d = p.g.a, p.g.b, p.g.c, p.g.d
    r = p.t1 + p.s1
    r2 = p.t2 + p.s2
    _require(
        p.x == p.v + r * THETA and p.y == torus_reduce(r),
        NotComposable,
        "anchor does not sit over the first tail",
    )
    gx = torus_reduce(p.x.x * a + p.y.x * b)
    gy = torus_reduce(p.x.x * c + p.y.x * d)
    _require(
        gx == p.w + r2 * THETA and gy == torus_reduce(r2),
        NotComposable,
        "matrix image does not sit over the second tail",
    )
    kk = r2 - ThetaScalar.of(a) * r
    _require(kk.is_integer, NotComposable, "total times violate integrality")
    return TransversalPoint(p.v, r, kk.as_integer(), p.g)


def transversal_roundtrip(z: TransversalPoint, shift1=0, shift2=0) -> TransversalPoint:
    """Map to a balanced representative, optionally rebalance, map back."""
    return balanced_to_transversal(transversal_to_balanced(z).rebalance(shift1, shift2))
