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
from .scalars import IntMatrix2, ThetaScalar, TorusPoint, _make, torus_reduce


def _numerator_denominator(rng: random.Random) -> tuple:
    """The two ints behind rational(): a denominator in [1, 12], then a numerator."""
    den = rng.randint(1, 12)
    return rng.randint(-5 * den, 5 * den), den


def rational(rng: random.Random) -> Fraction:
    """A rational in [-5, 5] with denominator at most 12."""
    return Fraction(*_numerator_denominator(rng))


def theta_scalar(rng: random.Random) -> ThetaScalar:
    """p + q*theta with p and q drawn by rational(), over the product of their denominators."""
    a, d1 = _numerator_denominator(rng)
    b, d2 = _numerator_denominator(rng)
    return _make(a * d2, b * d1, 0, d1 * d2)


def torus_point(rng: random.Random) -> TorusPoint:
    return torus_reduce(theta_scalar(rng))


def unimodular(rng: random.Random) -> IntMatrix2:
    """A random integer matrix with det +-1 and entries in [-5, 5]."""
    while True:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        if a * d - b * c in (1, -1):
            return IntMatrix2(a, b, c, d)


def shear(b: int) -> IntMatrix2:
    return IntMatrix2(1, b, 0, 1)


def _chain(anchor, arrow_at, length: int):
    """Arrows f1, ..., fn with f1 at the anchor and source(fi) = range(fi+1)."""
    arrows = []
    for _ in range(length):
        arrows.append(arrow_at(anchor))
        anchor = arrows[-1].source
    return arrows


def rotation_chain(rng: random.Random):
    """Three composable rotation arrows with jumps in [-5, 5]."""
    return _chain(torus_point(rng), lambda x: RotationArrow(x, rng.randint(-5, 5)), 3)


def flow_chain(rng: random.Random, length: int):
    """Composable flow arrows with exact degree-one flow times."""
    def arrow_at(xy):
        return FlowArrow.from_time(*xy, theta_scalar(rng))

    return _chain((torus_point(rng), torus_point(rng)), arrow_at, length)


def lattice_chain(rng: random.Random, g: IntMatrix2, length: int):
    """Composable doubled-label arrows over a fixed matrix with rational defect."""
    def arrow_at(xy):
        return LatticeFlowArrow(*xy, rng.randint(-5, 5), rng.randint(-5, 5), g)

    return _chain((torus_point(rng), torus_point(rng)), arrow_at, length)


def transversal_point(rng: random.Random, b: int) -> TransversalPoint:
    return TransversalPoint(
        torus_point(rng),
        theta_scalar(rng),
        rng.randint(-5, 5),
        shear(b),
    )
