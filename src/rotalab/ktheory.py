"""Integer invariant pairs and the unipotent relabeling they carry.

A class here is a pair of ordered integer pairs: the even-degree part
records (unit class, projection class) multiplicities against a fixed
labeled basis, the odd-degree part records the two generating unitaries.
The basis identification is a convention of this module, chosen once and
used consistently; nothing below derives it.

Tensoring by the rank-one twisting line bundle indexed by an integer b
relabels the even part through the unipotent matrix [[1, b], [0, 1]] and
leaves the odd part alone. Composing twists adds their indices, so the
twist action is a homomorphism from the integers into the invertible
integer matrices of determinant one.
"""

from operator import index
from typing import NamedTuple

from .scalars import IntMatrix2, _no_tuple_arithmetic

__all__ = ["KClass", "twist_matrix", "twist_apply", "twist_compose"]


class _KFields(NamedTuple):
    k0: tuple
    k1: tuple


class KClass(_KFields):
    """Even and odd integer invariants, each a pair of multiplicities."""

    __slots__ = ()

    def __new__(cls, k0, k1):
        for name, pair in (("k0", k0), ("k1", k1)):
            if len(pair) != 2 or not all(isinstance(v, int) for v in pair):
                raise ValueError(f"{name} must be a pair of integers, got {pair!r}")
        return tuple.__new__(cls, (tuple(k0), tuple(k1)))

    __add__ = __radd__ = __mul__ = __rmul__ = _no_tuple_arithmetic


def twist_matrix(b: int) -> IntMatrix2:
    """Unipotent matrix implementing the degree-b twist on the even part.

    The degree must be an integer: operator.index refuses a float such as
    2.7 with TypeError instead of truncating it.
    """
    return IntMatrix2(1, index(b), 0, 1)


def twist_apply(b: int, cls: KClass) -> KClass:
    """Tensor by the degree-b twist: shear the even pair, fix the odd pair.

    The even pair transforms as a column vector, so (x, y) goes to
    (x + b*y, y). All arithmetic is exact.
    """
    return KClass(twist_matrix(b).apply_pair(*cls.k0), cls.k1)


def twist_compose(b: int, b_next: int) -> int:
    """Index of the twist obtained by applying degree b then degree b_next."""
    return index(b) + index(b_next)
