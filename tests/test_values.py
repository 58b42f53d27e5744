"""The value classes ``Arc``, ``Radius`` and ``Quiver`` against their twins.

The three are plain classes, so that importing the package does not load
``dataclasses``.  They must behave as the frozen dataclasses they replace:
the same repr, equality and hash, keyword construction, no assignment or
deletion, no ordering, and copies and pickles equal to the original;
pickles written before the three shared one base class still load.  A
copy or a pickle holds the fields only, never a quiver's cached ``b``.
Every diagonal for n <= 6 and every D_6 class representative is checked
against its dataclass twin from ``helpers``.
"""

import copy
import operator
import pickle

import pytest

from dquiver.polygon import Arc, Radius, all_diagonals
from dquiver.quiver import Quiver, dynkin_a, dynkin_d, mutation_class_representatives
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



def _read_b(q: Quiver) -> Quiver:
    q.b
    return q


# pickles written by the plain classes before they shared one base, each
# with protocols 2 and 4; a Quiver pickled after ``b`` was read carries it too
_OLD_PICKLES = [
    ("Arc-2", lambda: Arc(0, 2),
     b"\x80\x02cdquiver.polygon\nArc\nq\x00)\x81q\x01}q\x02(X\x01\x00\x00\x00aq\x03K\x00X\x01\x00\x00\x00bq\x04K\x02ub."),
    ("Arc-4", lambda: Arc(0, 2),
     b"\x80\x04\x95/\x00\x00\x00\x00\x00\x00\x00\x8c\x0fdquiver.polygon\x94\x8c\x03Arc\x94\x93\x94)\x81\x94}\x94("
     b"\x8c\x01a\x94K\x00\x8c\x01b\x94K\x02ub."),
    ("Radius-2", lambda: Radius(1, "notched"),
     b"\x80\x02cdquiver.polygon\nRadius\nq\x00)\x81q\x01}q\x02(X\x01\x00\x00\x00aq\x03K\x01X\x03\x00\x00\x00tagq\x04"
     b"X\x07\x00\x00\x00notchedq\x05ub."),
    ("Radius-4", lambda: Radius(1, "notched"),
     b"\x80\x04\x95<\x00\x00\x00\x00\x00\x00\x00\x8c\x0fdquiver.polygon\x94\x8c\x06Radius\x94\x93\x94)\x81\x94}\x94("
     b"\x8c\x01a\x94K\x01\x8c\x03tag\x94\x8c\x07notched\x94ub."),
    ("dynkin_d-2", lambda: dynkin_d(4),
     b"\x80\x02cdquiver.quiver\nQuiver\nq\x00)\x81q\x01}q\x02(X\x04\x00\x00\x00rankq\x03K\x04X\x07\x00\x00\x00_arrows"
     b"q\x04K\x00K\x01K\x01\x87q\x05K\x01K\x02K\x01\x87q\x06K\x01K\x03K\x01\x87q\x07\x87q\x08ub."),
    ("dynkin_d-4", lambda: dynkin_d(4),
     b"\x80\x04\x95R\x00\x00\x00\x00\x00\x00\x00\x8c\x0edquiver.quiver\x94\x8c\x06Quiver\x94\x93\x94)\x81\x94}\x94("
     b"\x8c\x04rank\x94K\x04\x8c\x07_arrows\x94K\x00K\x01K\x01\x87\x94K\x01K\x02K\x01\x87\x94K\x01K\x03K\x01\x87\x94"
     b"\x87\x94ub."),
    ("dynkin_d-with-b-2", lambda: _read_b(dynkin_d(4)),
     b"\x80\x02cdquiver.quiver\nQuiver\nq\x00)\x81q\x01}q\x02(X\x04\x00\x00\x00rankq\x03K\x04X\x07\x00\x00\x00_arrows"
     b"q\x04K\x00K\x01K\x01\x87q\x05K\x01K\x02K\x01\x87q\x06K\x01K\x03K\x01\x87q\x07\x87q\x08X\x01\x00\x00\x00bq\t("
     b"(K\x00K\x01K\x00K\x00tq\n(J\xff\xff\xff\xffK\x00K\x01K\x01tq\x0b(K\x00J\xff\xff\xff\xffK\x00K\x00tq\x0c(K\x00"
     b"J\xff\xff\xff\xffK\x00K\x00tq\rtq\x0eub."),
    ("dynkin_d-with-b-4", lambda: _read_b(dynkin_d(4)),
     b"\x80\x04\x95\x8e\x00\x00\x00\x00\x00\x00\x00\x8c\x0edquiver.quiver\x94\x8c\x06Quiver\x94\x93\x94)\x81\x94}\x94("
     b"\x8c\x04rank\x94K\x04\x8c\x07_arrows\x94K\x00K\x01K\x01\x87\x94K\x01K\x02K\x01\x87\x94K\x01K\x03K\x01\x87\x94"
     b"\x87\x94\x8c\x01b\x94((K\x00K\x01K\x00K\x00t\x94(J\xff\xff\xff\xffK\x00K\x01K\x01t\x94(K\x00J\xff\xff\xff\xff"
     b"K\x00K\x00t\x94(K\x00J\xff\xff\xff\xffK\x00K\x00t\x94t\x94ub."),
]


@pytest.mark.parametrize("make, data", [row[1:] for row in _OLD_PICKLES], ids=[row[0] for row in _OLD_PICKLES])
def test_older_pickles_still_load(make, data):
    # only loading is pinned: what dumps writes may differ between Python versions
    value = make()
    again = pickle.loads(data)
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value) and repr(again) == repr(value)
    assert vars(again) == vars(value)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_read_b_is_neither_pickled_nor_copied(protocol):
    # b is derived from the arrows: 2 015 824 bytes at protocol 4 when it was
    # pickled beside the 999 arrows, which take 9 550
    q = dynkin_a(1000)
    before = pickle.dumps(q, protocol)
    assert "b" not in vars(q) and q.b[0][1] == 1 and "b" in vars(q)
    assert pickle.dumps(q, protocol) == before
    for again in (pickle.loads(before), copy.copy(q), copy.deepcopy(q)):
        assert vars(again) == {"rank": 1000, "_arrows": q._arrows}
        assert again == q and again.b == q.b
