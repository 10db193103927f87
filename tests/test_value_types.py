"""Value semantics of the exact layer's points, matrices, arrows and classes.

Every type here is an immutable value: equal values compare and hash
equal, no attribute can be set, pickling and deep copies keep the type
and the value, and + and * are either the type's own operation or a
TypeError, never the tuple concatenation or repetition underneath.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from rotalab.errors import UnsupportedMatrix
from rotalab.groupoids import (
    FlowArrow,
    LatticeFlowArrow,
    LineOrbitPoint,
    RotationArrow,
    TransversalPoint,
    transversal_to_balanced,
)
from rotalab.ktheory import KClass
from rotalab.scalars import THETA, IntMatrix2, ThetaScalar, TorusPoint, torus_reduce

SHEAR = IntMatrix2(1, 2, 0, 1)
# its defect 1 - theta - theta^2 is not rational, so exact division refuses it
IRRATIONAL_DEFECT = IntMatrix2(1, 1, 1, 2)


def point(n=1, d=3, q=1):
    return torus_reduce(ThetaScalar(Fraction(n, d), q))


def transversal():
    return TransversalPoint(point(), ThetaScalar(Fraction(1, 2), 1), 3, SHEAR)


# each builder makes a fresh value; two calls give equal but distinct objects
BUILDERS = {
    "TorusPoint": point,
    "IntMatrix2": lambda: IntMatrix2(2, 1, 1, 1),
    "RotationArrow": lambda: RotationArrow(point(), -2),
    "FlowArrow": lambda: FlowArrow.from_time(point(), point(2, 5), ThetaScalar(Fraction(3, 4), 1)),
    "LatticeFlowArrow": lambda: LatticeFlowArrow(point(), point(2, 5), 1, -3, SHEAR),
    "LineOrbitPoint": lambda: LineOrbitPoint(point(), ThetaScalar(Fraction(-5, 2), 1)),
    "TransversalPoint": transversal,
    "BalancedPair": lambda: transversal_to_balanced(transversal()),
    "KClass": lambda: KClass((2, -3), (5, -7)),
}
FIELD = {
    "TorusPoint": "x",
    "IntMatrix2": "a",
    "RotationArrow": "n",
    "FlowArrow": "dx",
    "LatticeFlowArrow": "k",
    "LineOrbitPoint": "s",
    "TransversalPoint": "r",
    "BalancedPair": "t1",
    "KClass": "k0",
}
NAMES = sorted(BUILDERS)


@pytest.mark.parametrize("name", NAMES)
def test_builders_make_the_named_type(name):
    assert type(BUILDERS[name]()).__name__ == name


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_compare_and_hash_equal(name):
    first, second = BUILDERS[name](), BUILDERS[name]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_attributes_can_not_be_set(name):
    value = BUILDERS[name]()
    for attr in (FIELD[name], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
    assert value == BUILDERS[name]()


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy_keep_type_and_value(name, protocol):
    value = BUILDERS[name]()
    for copied in (pickle.loads(pickle.dumps(value, protocol)), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value
        field = getattr(copied, FIELD[name])
        assert type(field) is type(getattr(value, FIELD[name]))


@pytest.mark.parametrize("name", sorted(set(NAMES) - {"TorusPoint"}))
def test_plus_and_times_raise_type_error(name):
    left, right = BUILDERS[name](), BUILDERS[name]()
    for operation in (
        lambda: left + right,
        lambda: left * right,
        lambda: left * 2,
        lambda: 2 * left,
    ):
        with pytest.raises(TypeError):
            operation()


def test_circle_points_add_as_points_and_refuse_times():
    left, right = point(1, 3), point(3, 4, -2)
    total = left + right
    assert type(total) is TorusPoint
    assert total == torus_reduce(left.x + right.x)
    for operation in (lambda: left * right, lambda: left * 2, lambda: 2 * left):
        with pytest.raises(TypeError):
            operation()


def test_transversal_point_needs_a_rational_defect():
    with pytest.raises(UnsupportedMatrix):
        TransversalPoint(point(), ThetaScalar(1), 0, IRRATIONAL_DEFECT)


def test_kclass_rejects_a_float_entry():
    with pytest.raises(ValueError):
        KClass((1.0, 0), (0, 0))


def test_defect_refusal_is_raised_on_every_call():
    arrow = LatticeFlowArrow(point(), point(2, 5), 1, 1, IRRATIONAL_DEFECT)
    for _ in range(2):
        with pytest.raises(UnsupportedMatrix):
            arrow.first_time()
    with pytest.raises(UnsupportedMatrix):
        arrow.second_time()


def test_times_over_a_shear_are_exact():
    # first time (k + l theta)/b and second time (k + l(b + theta))/b for [[1, b], [0, 1]]
    arrow = LatticeFlowArrow(point(), point(2, 5), 1, -3, SHEAR)
    assert arrow.first_time() == ThetaScalar(Fraction(1, 2), Fraction(-3, 2))
    assert arrow.second_time() == ThetaScalar(Fraction(-5, 2), Fraction(-3, 2))
    assert type(arrow.first_time()) is ThetaScalar
    assert arrow.source == (arrow.x - arrow.first_time() * THETA, arrow.y - arrow.first_time())
