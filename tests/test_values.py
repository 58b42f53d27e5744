"""The value classes ``Arc``, ``Radius`` and ``Quiver`` against their twins.

The three are plain classes, so that importing the package does not load
``dataclasses``.  They must behave as the frozen dataclasses they replace:
the same repr, equality and hash, keyword construction, no assignment or
deletion, no ordering, and copies and pickles equal to the original.
Every diagonal for n <= 6 and every D_6 class representative is checked
against its dataclass twin from ``helpers``.
"""

import copy
import operator
import pickle

import pytest

from dquiver.polygon import Arc, Radius, all_diagonals
from dquiver.quiver import Quiver, dynkin_d, mutation_class_representatives
from helpers import twin, twin_of

DIAGONALS = list(dict.fromkeys(d for n in range(3, 7) for d in all_diagonals(n)))
QUIVERS = list(mutation_class_representatives(dynkin_d(6)).values())
VALUES = DIAGONALS + QUIVERS


def _fields(value) -> tuple:
    if isinstance(value, Quiver):
        return value.rank, value._arrows
    return value.a, value.b if isinstance(value, Arc) else value.tag


def test_the_values_cover_every_class():
    assert {type(v) for v in VALUES} == {Arc, Radius, Quiver}
    assert len(DIAGONALS) == 36 and len(QUIVERS) == 80


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_repr_hash_and_keywords_match_the_dataclass(value):
    t = twin_of(value)
    assert "twin." + repr(value) == repr(t)
    assert hash(value) == hash(t)
    if isinstance(value, Quiver):
        assert Quiver(rank=value.rank, b=value.b) == value
    elif isinstance(value, Arc):
        assert Arc(a=value.a, b=value.b) == value
    else:
        assert Radius(a=value.a, tag=value.tag) == value


def test_equality_matches_the_dataclass():
    twins = [twin_of(v) for v in VALUES]
    for x, tx in zip(VALUES, twins):
        # a tuple of the same fields, and any other class, is never equal
        for other in (_fields(x), None, object()):
            assert (x == other) is (tx == other) is False
            assert (x != other) is (tx != other) is True
            assert x.__eq__(other) is tx.__eq__(other) is NotImplemented
        for y, ty in zip(VALUES, twins):
            assert (x == y) is (tx == ty)
            assert (x != y) is (tx != ty)


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_the_values_are_immutable_and_unordered(value):
    for obj in (value, twin_of(value)):
        for name in (*vars(twin_of(value)), "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(obj, obj)


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_copies_and_pickles_equal_the_original(value):
    for obj in (value, twin_of(value)):
        for again in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(again) is type(obj)
            assert again == obj and hash(again) == hash(obj) and repr(again) == repr(obj)
            with pytest.raises(AttributeError):
                setattr(again, next(iter(vars(obj))), 0)

