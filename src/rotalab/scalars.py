"""Exact arithmetic in the space Q + Q*theta + Q*theta^2.

The rotation parameter theta is treated as a formal transcendental, so a
triple of rationals (p, q, r) represents p + q*theta + r*theta^2 uniquely.
A ThetaScalar stores it as (a + b*theta + c*theta^2)/d: three integer
numerators over one shared denominator, in the canonical form d > 0 and
gcd(a, b, c, d) = 1. The form is unique, so equality and hashing compare
the four integers, and each operation is integer arithmetic followed by
one gcd. p, q and r are read back as Fractions on demand.

Degree is capped at two: that is exactly what the lattice-time formulas
need (an integer times theta times theta appears, nothing higher), and the
cap turns silent precision loss into a loud DegreeOverflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DegreeOverflow, InvalidMu, PoleAtTheta

Rational = Union[int, Fraction]


def _as_rational(value) -> Rational:
    # ints pass through: they carry numerator and denominator like a Fraction
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class ThetaScalar:
    """p + q*theta + r*theta^2 with rational p, q, r.

    Held as (a + b*theta + c*theta^2)/d with integers a, b, c, d, d > 0 and
    gcd(a, b, c, d) = 1. Instances are immutable.
    """

    __slots__ = ("_a", "_b", "_c", "_d")

    def __init__(self, p: Rational = 0, q: Rational = 0, r: Rational = 0):
        p, q, r = _as_rational(p), _as_rational(q), _as_rational(r)
        d = math.lcm(p.denominator, q.denominator, r.denominator)
        # reduced inputs over their least common denominator are coprime
        _set_a(self, p.numerator * (d // p.denominator))
        _set_b(self, q.numerator * (d // q.denominator))
        _set_c(self, r.numerator * (d // r.denominator))
        _set_d(self, d)

    @classmethod
    def of(cls, value) -> "ThetaScalar":
        """Coerce an int, Fraction or ThetaScalar."""
        if value.__class__ is int:
            return _make(value, 0, 0, 1)
        if isinstance(value, ThetaScalar):
            return value
        return cls(value)

    @classmethod
    def theta(cls, coeff: Rational = 1) -> "ThetaScalar":
        return cls(0, coeff, 0)

    @classmethod
    def theta_squared(cls, coeff: Rational = 1) -> "ThetaScalar":
        return cls(0, 0, coeff)

    @property
    def p(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def q(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def r(self) -> Fraction:
        return Fraction(self._c, self._d)

    def __setattr__(self, name, value):
        raise AttributeError(f"ThetaScalar is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ThetaScalar is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return _make, (self._a, self._b, self._c, self._d)

    def __eq__(self, other):
        if other.__class__ is ThetaScalar:
            return (
                self._a == other._a
                and self._b == other._b
                and self._c == other._c
                and self._d == other._d
            )
        return NotImplemented

    def __hash__(self):
        return hash((self._a, self._b, self._c, self._d))

    # ---- ring operations -------------------------------------------------

    def __add__(self, other) -> "ThetaScalar":
        o = other if other.__class__ is ThetaScalar else ThetaScalar.of(other)
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _make(self._a + o._a, self._b + o._b, self._c + o._c, d1)
        return _make(
            self._a * d2 + o._a * d1,
            self._b * d2 + o._b * d1,
            self._c * d2 + o._c * d1,
            d1 * d2,
        )

    __radd__ = __add__

    def __neg__(self) -> "ThetaScalar":
        return _make(-self._a, -self._b, -self._c, self._d)

    def __sub__(self, other) -> "ThetaScalar":
        o = other if other.__class__ is ThetaScalar else ThetaScalar.of(other)
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _make(self._a - o._a, self._b - o._b, self._c - o._c, d1)
        return _make(
            self._a * d2 - o._a * d1,
            self._b * d2 - o._b * d1,
            self._c * d2 - o._c * d1,
            d1 * d2,
        )

    def __rsub__(self, other) -> "ThetaScalar":
        return ThetaScalar.of(other) - self

    def __mul__(self, other) -> "ThetaScalar":
        if other.__class__ is int:
            return _make(self._a * other, self._b * other, self._c * other, self._d)
        o = other if other.__class__ is ThetaScalar else ThetaScalar.of(other)
        a1, b1, c1 = self._a, self._b, self._c
        a2, b2, c2 = o._a, o._b, o._c
        # convolution of coefficient triples; degrees 3 and 4 must vanish
        if b1 * c2 + c1 * b2 or c1 * c2:
            raise DegreeOverflow(
                f"product ({self}) * ({o}) has a theta^3 or theta^4 part"
            )
        return _make(
            a1 * a2,
            a1 * b2 + b1 * a2,
            a1 * c2 + b1 * b2 + c1 * a2,
            self._d * o._d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ThetaScalar":
        o = other if other.__class__ is ThetaScalar else ThetaScalar.of(other)
        if o._b or o._c:
            raise ValueError("exact division only by rational scalars")
        if not o._a:
            raise ZeroDivisionError("division by zero scalar")
        # multiply by the inverse d'/a', with its sign moved to the numerator
        num, den = (o._d, o._a) if o._a > 0 else (-o._d, -o._a)
        return _make(self._a * num, self._b * num, self._c * num, self._d * den)

    # ---- predicates and views -------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not (self._b or self._c)

    @property
    def is_integer(self) -> bool:
        return self._d == 1 and self.is_rational

    def as_integer(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self._a

    def evalf(self, theta: float) -> float:
        # int / int is correctly rounded, so this equals float(p), float(q), float(r)
        d = self._d
        return self._a / d + (self._b / d) * theta + (self._c / d) * theta * theta

    def __repr__(self) -> str:
        parts = []
        if self._a or not (self._b or self._c):
            parts.append(str(self.p))
        if self._b:
            parts.append(f"{self.q}*theta")
        if self._c:
            parts.append(f"{self.r}*theta^2")
        return " + ".join(parts).replace("+ -", "- ")


_new = object.__new__
_gcd = math.gcd
# the slot descriptors write past the raising __setattr__
_set_a, _set_b, _set_c, _set_d = (
    ThetaScalar.__dict__[slot].__set__ for slot in ThetaScalar.__slots__
)


def _make(a: int, b: int, c: int, d: int) -> ThetaScalar:
    """(a + b*theta + c*theta^2)/d for ints with d > 0, reduced by one gcd."""
    g = _gcd(a, b, c, d)
    if g != 1:
        a, b, c, d = a // g, b // g, c // g, d // g
    obj = _new(ThetaScalar)
    _set_a(obj, a)
    _set_b(obj, b)
    _set_c(obj, c)
    _set_d(obj, d)
    return obj


ZERO = ThetaScalar()
THETA = ThetaScalar.theta()


@dataclass(frozen=True)
class TorusPoint:
    """A point of R/Z written as [x] for x in Q + Q*theta + Q*theta^2.

    The stored representative is canonical: the rational part lies in [0, 1)
    while the theta parts are untouched. Because 1, theta, theta^2 are
    linearly independent over Q, two canonical representatives are equal in
    the circle iff they are equal on the nose, so equality is structural.
    """

    x: ThetaScalar

    def __post_init__(self):
        s = ThetaScalar.of(self.x)
        if not 0 <= s._a < s._d:
            s = _make(s._a % s._d, s._b, s._c, s._d)
        object.__setattr__(self, "x", s)

    def __add__(self, other) -> "TorusPoint":
        return TorusPoint(self.x + (other.x if isinstance(other, TorusPoint) else other))

    __radd__ = __add__

    def __sub__(self, other) -> "TorusPoint":
        return TorusPoint(self.x - (other.x if isinstance(other, TorusPoint) else other))

    def __neg__(self) -> "TorusPoint":
        return TorusPoint(-self.x)

    def scale(self, factor: Rational) -> "TorusPoint":
        # well defined only for integer factors; guarded for that reason
        f = _as_rational(factor)
        if f.denominator != 1:
            raise ValueError("circle points only scale by integers")
        return TorusPoint(self.x * f)

    def evalf(self, theta: float) -> float:
        return self.x.evalf(theta) % 1.0

    def __repr__(self) -> str:
        return f"[{self.x}]"


def torus_reduce(value) -> TorusPoint:
    """Reduce a scalar modulo 1 to its canonical circle representative."""
    return value if isinstance(value, TorusPoint) else TorusPoint(value)


@dataclass(frozen=True)
class IntMatrix2:
    """2x2 integer matrix [[a, b], [c, d]], usually with det = +-1."""

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def identity(cls) -> "IntMatrix2":
        return cls(1, 0, 0, 1)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "IntMatrix2":
        det = self.det()
        if det not in (1, -1):
            raise ValueError(f"matrix with det {det} has no integer inverse")
        return IntMatrix2(self.d * det, -self.b * det, -self.c * det, self.a * det)

    def apply_pair(self, x, y):
        """Image of a column vector; a TorusPoint entry makes it a TorusPoint pair."""
        xs = x.x if isinstance(x, TorusPoint) else x
        ys = y.x if isinstance(y, TorusPoint) else y
        image = (xs * self.a + ys * self.b, xs * self.c + ys * self.d)
        if isinstance(x, TorusPoint) or isinstance(y, TorusPoint):
            return tuple(map(TorusPoint, image))
        return image

    def __repr__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def mobius_defect(g: IntMatrix2) -> ThetaScalar:
    """Denominator-cleared displacement of theta under the fractional action.

    For g = [[a, b], [c, d]] this is (a*theta + b) - theta*(c*theta + d),
    i.e. b + (a - d)*theta - c*theta^2. It vanishes exactly when the
    fractional-linear action of g fixes theta.
    """
    return _make(g.b, g.a - g.d, -g.c, 1)


def mobius_transform(g: IntMatrix2, theta: float) -> float:
    """Fractional-linear action (a*theta + b) / (c*theta + d)."""
    den = g.c * theta + g.d
    if den == 0.0:
        raise PoleAtTheta(f"{g} has a pole at theta = {theta}")
    return (g.a * theta + g.b) / den


def require_nonzero_defect(g: IntMatrix2) -> ThetaScalar:
    """mobius_defect(g), raising InvalidMu when it vanishes identically."""
    mu = mobius_defect(g)
    if mu == ZERO:
        raise InvalidMu(f"{g} fixes theta formally; transversal formulas divide by zero")
    return mu
