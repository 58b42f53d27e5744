"""The three JSON parsers accept exactly their documented shapes.

Every JSON value either parses to a valid object or raises ValueError, so
the command line exits 2 on it; no other exception escapes, and no value of
the wrong type is silently converted.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dquiver.polygon import Triangulation, triangulation_from_json_obj
from dquiver.quiver import Quiver
from dquiver.trees import star_from_json_obj

KEYS = ("n", "diagonals", "arc", "radius", "tag", "rank", "arrows", "beads")

# Integers stay small: a rank past quiver.MAX_JSON_RANK or an n past
# polygon.MAX_JSON_N is refused with BoundExceededError (exit 3), not the
# ValueError asserted here, and -3..12 already reaches every type and range
# check, past n = 3 and rank 1 alike.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats()
    | st.sampled_from(("L", "plain", "notched"))
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), children, max_size=4),
    max_leaves=30,
)


def _is_star(star):
    def bead(tree):
        return tree == "L" or (
            isinstance(tree, tuple) and len(tree) == 2 and bead(tree[0]) and bead(tree[1])
        )

    return isinstance(star, tuple) and len(star) > 0 and all(bead(b) for b in star)


@settings(max_examples=400)
@given(json_values)
def test_parsers_return_a_valid_object_or_raise_value_error(value):
    for parse, valid in (
        (triangulation_from_json_obj, lambda t: isinstance(t, Triangulation)),
        (Quiver.from_json_obj, lambda q: isinstance(q, Quiver)),
        (star_from_json_obj, _is_star),
    ):
        try:
            result = parse(value)
        except ValueError:
            continue
        assert valid(result)


def _fan3(first):
    """The plain fan of the triangle with its first entry replaced."""
    return [first] + [{"radius": a, "tag": "plain"} for a in (1, 2)]


def _arc02(first):
    """Arc(0, 2) and plain radii at 2, 3, 0 of the square, arc replaced."""
    return [first] + [{"radius": a, "tag": "plain"} for a in (2, 3, 0)]


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 3.0, "diagonals": _fan3({"radius": 0, "tag": "plain"})},
        {"n": True, "diagonals": [{"radius": 0, "tag": "plain"}]},
        {"n": 3, "diagonals": {"arc": [0, 2]}},
        {"n": 3, "diagonals": "arc"},
        {"n": 3, "diagonals": _fan3("arc")},
        {"n": 3, "diagonals": _fan3({"arc": "02"})},
        {"n": 3, "diagonals": _fan3({"arc": [0]})},
        {"n": 4, "diagonals": _arc02({"arc": [0, 2.0]})},
        {"n": 3, "diagonals": _fan3({"radius": 0})},
        {"n": 3, "diagonals": _fan3({"radius": 0.0, "tag": "plain"})},
        {"n": 3, "diagonals": _fan3({"radius": False, "tag": "plain"})},
        {"n": 3, "diagonals": _fan3({"radius": "0", "tag": "plain"})},
        {"n": 3, "diagonals": _fan3({"radius": 0, "tag": ["plain"]})},
        {"n": 4, "diagonals": _arc02({"arc": [0, 2], "radius": 1, "tag": "plain"})},
    ],
)
def test_triangulation_parser_rejects_wrong_types(obj):
    with pytest.raises(ValueError):
        triangulation_from_json_obj(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"rank": True, "arrows": []},
        {"rank": 2.0, "arrows": []},
        {"rank": 2, "arrows": {"0": 1}},
        {"rank": 2, "arrows": [[0, 1.0]]},
        {"rank": 2, "arrows": [[False, True]]},
        {"rank": 2, "arrows": [[0, 1, 1]]},
        {"rank": 2, "arrows": [[0]]},
        {"rank": 2, "arrows": ["01"]},
    ],
)
def test_quiver_parser_rejects_wrong_types(obj):
    with pytest.raises(ValueError):
        Quiver.from_json_obj(obj)
