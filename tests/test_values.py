"""The package's values: ``Arc``, ``Radius``, ``Quiver`` and ``Triangulation``.

All four share one base, ``errors._Value``, in the module every route may
use.  The first three are plain classes, so that importing the package does
not load ``dataclasses``.  They must behave as the frozen dataclasses they
replace: the same repr, equality and hash, keyword construction, no
assignment or deletion, no ordering, and copies and pickles equal to the
original; pickles written before the three shared one base class still load.
Every diagonal for n <= 6 and every D_6 class representative is checked
against its dataclass twin from ``helpers``.  A ``Triangulation`` is equal
and hashed by its n and mask, as ``hash((n, mask))``, and stays a slotted
88-byte object; every triangulation for n = 3..5 copies and pickles, at
every protocol, to an equal value, and pickles written while it had its own
``__eq__`` and ``__hash__`` still load.  A copy or a pickle holds the fields
only, never a quiver's cached ``b`` or a triangulation's sorted diagonals,
decomposition or quiver.
"""

import copy
import operator
import pickle
import sys

import pytest

from dquiver.polygon import (
    Arc,
    Radius,
    Triangulation,
    _decomposition,
    all_diagonals,
    enumerate_triangulations,
    fan_triangulation,
    quiver_of,
)
from dquiver.errors import _Value
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


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_every_protocol_pickles_every_value(protocol):
    for value in VALUES:
        again = pickle.loads(pickle.dumps(value, protocol))
        assert type(again) is type(value) and again == value and repr(again) == repr(value)
        assert vars(again) == dict(zip(value._fields, _fields(value)))


# -- triangulations ------------------------------------------------------------

_VIEWS = ("_sorted", "_decomposition", "_quiver")


def _triangulations() -> list[Triangulation]:
    """Every triangulation for n = 3..5, built afresh: none has a view yet."""
    return [t for n in range(3, 6) for t in enumerate_triangulations(n)]


def _with_views(t: Triangulation) -> Triangulation:
    t.sorted_diagonals, _decomposition(t), quiver_of(t)
    return t


def _views_unset(t: Triangulation) -> bool:
    return all(getattr(t, view) is None for view in _VIEWS)


def test_the_triangulations_cover_both_radius_configs():
    ts = _triangulations()
    assert len(ts) == 14 + 50 + 182 and {t.config for t in ts} == {"A", "B"}
    assert all(_views_unset(t) for t in ts)


def test_a_triangulation_is_a_slotted_value_of_n_and_mask():
    assert issubclass(Triangulation, _Value) and Triangulation._fields == ("n", "mask")
    assert _Value.__module__ == "dquiver.errors"
    assert "__eq__" not in vars(Triangulation) and "__hash__" not in vars(Triangulation)
    t = fan_triangulation(5)
    assert sys.getsizeof(t) == 88 and not hasattr(t, "__dict__")
    for t in _triangulations():
        assert hash(t) == hash((t.n, t.mask))
        assert t.__eq__(object()) is NotImplemented and t.__eq__((t.n, t.mask)) is NotImplemented
        assert t != (t.n, t.mask) and t == Triangulation._of(t.n, t.mask)


@pytest.mark.parametrize("build_views", [False, True], ids=["fresh", "with-views"])
def test_triangulation_copies_and_pickles_hold_the_fields_alone(build_views):
    for t in _triangulations():
        if build_views:
            _with_views(t)
        agains = [copy.copy(t), copy.deepcopy(t)]
        agains += [pickle.loads(pickle.dumps(t, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in agains:
            # checked before repr, which builds the sorted diagonals
            assert type(again) is Triangulation and _views_unset(again)
            assert (again.config, again.radius_bases) == (t.config, t.radius_bases)
            assert again == t and hash(again) == hash(t) and repr(again) == repr(t)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_triangulation_pickles_do_not_change_as_views_are_built(protocol):
    for t in _triangulations():
        before = pickle.dumps(t, protocol)
        assert pickle.dumps(_with_views(t), protocol) == before


# Triangulation(3, [Arc(1, 0), Radius(0, "plain"), Radius(0, "notched")]) pickled
# while it had its own __eq__ and __hash__, with protocols 2 and 4, before any
# view was built and after quiver_of: those pickles carried every slot
def _config_b_triangle() -> Triangulation:
    return Triangulation(3, [Arc(1, 0), Radius(0, "plain"), Radius(0, "notched")])


_OLD_TRIANGULATION_PICKLES = [
    ("fresh-2",
     b"\x80\x02cdquiver.polygon\nTriangulation\nq\x00)\x81q\x01N}q\x02(X\x01\x00\x00\x00nq\x03K\x03X\x04\x00\x00\x00m"
     b"askq\x04K\x1aX\x06\x00\x00\x00configq\x05X\x01\x00\x00\x00Bq\x06X\x0c\x00\x00\x00radius_basesq\x07K\x00\x85q"
     b"\x08X\x07\x00\x00\x00_sortedq\tNX\x0e\x00\x00\x00_decompositionq\nNX\x07\x00\x00\x00_quiverq\x0bNu\x86q\x0cb."),
    ("fresh-4",
     b"\x80\x04\x95\x87\x00\x00\x00\x00\x00\x00\x00\x8c\x0fdquiver.polygon\x94\x8c\rTriangulation\x94\x93\x94)\x81"
     b"\x94N}\x94(\x8c\x01n\x94K\x03\x8c\x04mask\x94K\x1a\x8c\x06config\x94\x8c\x01B\x94\x8c\x0cradius_bases\x94K\x00"
     b"\x85\x94\x8c\x07_sorted\x94N\x8c\x0e_decomposition\x94N\x8c\x07_quiver\x94Nu\x86\x94b."),
    ("with-views-2",
     b"\x80\x02cdquiver.polygon\nTriangulation\nq\x00)\x81q\x01N}q\x02(X\x01\x00\x00\x00nq\x03K\x03X\x04\x00\x00\x00m"
     b"askq\x04K\x1aX\x06\x00\x00\x00configq\x05X\x01\x00\x00\x00Bq\x06X\x0c\x00\x00\x00radius_basesq\x07K\x00\x85q"
     b"\x08X\x07\x00\x00\x00_sortedq\tcdquiver.polygon\nArc\nq\n)\x81q\x0b}q\x0c(X\x01\x00\x00\x00aq\rK\x01X\x01\x00"
     b"\x00\x00bq\x0eK\x00ubcdquiver.polygon\nRadius\nq\x0f)\x81q\x10}q\x11(h\rK\x00X\x03\x00\x00\x00tagq\x12X\x05"
     b"\x00\x00\x00plainq\x13ubh\x0f)\x81q\x14}q\x15(h\rK\x00h\x12X\x07\x00\x00\x00notchedq\x16ub\x87q\x17X\x0e\x00"
     b"\x00\x00_decompositionq\x18K\x00K\x03X\x01\x00\x00\x00Lq\x19h\x19h\x19\x86q\x1a\x86q\x1b\x87q\x1c\x85q\x1dK"
     b'\x01K\x02K\x03\x87q\x1eK\x00K\x01K\x03\x87q\x1f\x86q \x86q!X\x07\x00\x00\x00_quiverq"cdquiver.quiver\nQuiver\n'
     b"q#)\x81q$}q%(X\x04\x00\x00\x00rankq&K\x03X\x07\x00\x00\x00_arrowsq\'K\x01K\x00K\x01\x87q(K\x02K\x00K\x01\x87q)"
     b"\x86q*ubu\x86q+b."),
    ("with-views-4",
     b"\x80\x04\x95V\x01\x00\x00\x00\x00\x00\x00\x8c\x0fdquiver.polygon\x94\x8c\rTriangulation\x94\x93\x94)\x81\x94N}"
     b"\x94(\x8c\x01n\x94K\x03\x8c\x04mask\x94K\x1a\x8c\x06config\x94\x8c\x01B\x94\x8c\x0cradius_bases\x94K\x00\x85"
     b"\x94\x8c\x07_sorted\x94h\x00\x8c\x03Arc\x94\x93\x94)\x81\x94}\x94(\x8c\x01a\x94K\x01\x8c\x01b\x94K\x00ubh\x00"
     b"\x8c\x06Radius\x94\x93\x94)\x81\x94}\x94(h\x10K\x00\x8c\x03tag\x94\x8c\x05plain\x94ubh\x13)\x81\x94}\x94(h\x10"
     b"K\x00h\x16\x8c\x07notched\x94ub\x87\x94\x8c\x0e_decomposition\x94K\x00K\x03\x8c\x01L\x94h\x1dh\x1d\x86\x94\x86"
     b"\x94\x87\x94\x85\x94K\x01K\x02K\x03\x87\x94K\x00K\x01K\x03\x87\x94\x86\x94\x86\x94\x8c\x07_quiver\x94\x8c\x0ed"
     b"quiver.quiver\x94\x8c\x06Quiver\x94\x93\x94)\x81\x94}\x94(\x8c\x04rank\x94K\x03\x8c\x07_arrows\x94K\x01K\x00K"
     b"\x01\x87\x94K\x02K\x00K\x01\x87\x94\x86\x94ubu\x86\x94b."),
]


@pytest.mark.parametrize(
    "data", [row[1] for row in _OLD_TRIANGULATION_PICKLES], ids=[row[0] for row in _OLD_TRIANGULATION_PICKLES]
)
def test_older_triangulation_pickles_still_load(data):
    # only loading is pinned: what dumps writes may differ between Python versions
    t = _config_b_triangle()
    again = pickle.loads(data)
    assert type(again) is Triangulation and (again.config, again.radius_bases) == ("B", (0,))
    assert again == t and hash(again) == hash(t) and repr(again) == repr(t)
    assert quiver_of(again) == quiver_of(t) and _decomposition(again) == _decomposition(t)
    # what it loads pickles as a triangulation pickled today
    assert pickle.dumps(again, 4) == pickle.dumps(t, 4)
