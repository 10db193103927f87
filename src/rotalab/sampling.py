"""Deterministic samplers for exact objects.

All samplers draw from a caller-supplied random.Random so that every
check run is reproducible from its seed. Rationals keep small
denominators; that bounds the exact integer arithmetic in long batches.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .groupoids import (
    FlowArrow,
    LatticeFlowArrow,
    RotationArrow,
    TransversalPoint,
)
from .scalars import THETA, IntMatrix2, ThetaScalar, TorusPoint, torus_reduce


def rational(rng: random.Random, lo: int = -5, hi: int = 5, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def theta_scalar(rng: random.Random, degree: int = 1) -> ThetaScalar:
    parts = [rational(rng) if k <= degree else 0 for k in range(3)]
    return ThetaScalar(*parts)


def torus_point(rng: random.Random, degree: int = 1) -> TorusPoint:
    return torus_reduce(theta_scalar(rng, degree))


def unimodular(rng: random.Random, bound: int = 5) -> IntMatrix2:
    """A random integer matrix with det +-1 and entries within the bound."""
    while True:
        a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
        if a * d - b * c in (1, -1):
            return IntMatrix2(a, b, c, d)


def shear(b: int) -> IntMatrix2:
    return IntMatrix2(1, b, 0, 1)


def rotation_chain(rng: random.Random, length: int = 3):
    """Composable rotation arrows f1, ..., fn with source(fi) = range(fi+1)."""
    anchor = torus_point(rng)
    arrows = []
    for _ in range(length):
        n = rng.randint(-5, 5)
        arrows.append(RotationArrow(anchor, n))
        anchor = arrows[-1].source
    return arrows


def flow_chain(rng: random.Random, length: int = 3):
    """Composable flow arrows with exact degree-one flow times."""
    x, y = torus_point(rng), torus_point(rng)
    arrows = []
    for _ in range(length):
        t = ThetaScalar(rational(rng), rational(rng))
        arrows.append(FlowArrow.from_time(x, y, t))
        x, y = arrows[-1].source
    return arrows


def lattice_chain(rng: random.Random, g: IntMatrix2, length: int = 3):
    """Composable doubled-label arrows over a fixed upper-triangular matrix."""
    x, y = torus_point(rng), torus_point(rng)
    arrows = []
    for _ in range(length):
        k, l = rng.randint(-5, 5), rng.randint(-5, 5)
        arrows.append(LatticeFlowArrow(x, y, k, l, g))
        x, y = arrows[-1].source
    return arrows


def transversal_point(rng: random.Random, b: int) -> TransversalPoint:
    return TransversalPoint(
        torus_point(rng),
        ThetaScalar(rational(rng), rational(rng)),
        rng.randint(-5, 5),
        shear(b),
    )
