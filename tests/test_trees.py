import json
import re
import tracemalloc
from array import array

import pytest

from dquiver import trees
from dquiver.counting import necklace_count
from dquiver.errors import BoundExceededError
from dquiver.polygon import (
    NOTCHED,
    PLAIN,
    Arc,
    Radius,
    Triangulation,
    class_key,
    enumerate_triangulations,
    fan_triangulation,
    flip,
    invert_tags,
    rotate,
)
from dquiver.quiver import delete_vertex, dynkin_d, mutate
from dquiver.trees import (
    LEAF,
    _bead_tables,
    _join_codes,
    _join_keys,
    _least_rotation,
    _least_rotations,
    _serialize_bead,
    apply_tree_move,
    canonical_star,
    leaf_count,
    leaf_star,
    merge_beads,
    rotate_inner_edge,
    split_bead,
    star_from_json_obj,
    star_to_json_obj,
    star_tree_class_count,
    star_tree_classes,
    star_tree_of,
    tree_key,
    tree_move_for_flip,
    triangulation_of,
)

from helpers import (
    bead_code_tables,
    enumerate_star_trees,
    least_rotations_per_bead,
    star_tree_class_count_by_codes,
)

COMB5 = ((((LEAF, LEAF), LEAF), LEAF), LEAF)


def test_leaf_count():
    assert leaf_count(LEAF) == 1
    assert leaf_count((LEAF, (LEAF, LEAF))) == 3
    assert leaf_count(COMB5) == 5


@pytest.mark.parametrize(
    "bead, bad",
    [
        ((LEAF, LEAF, LEAF), (LEAF, LEAF, LEAF)),
        ("x", "x"),
        ((LEAF,), (LEAF,)),
        (5, 5),
        # the innermost subtree that is neither a leaf nor a pair is named
        ((LEAF, ((LEAF, LEAF), "x")), "x"),
        (((LEAF, LEAF), (LEAF, [LEAF, LEAF])), [LEAF, LEAF]),
    ],
)
@pytest.mark.parametrize(
    "check",
    [
        leaf_count,
        lambda bead: tree_key((LEAF, bead)),
        lambda bead: canonical_star((bead,)),
        lambda bead: triangulation_of((LEAF, bead), 3),
    ],
    ids=["leaf_count", "tree_key", "canonical_star", "triangulation_of"],
)
def test_a_bead_that_is_not_a_full_binary_tree_is_named(check, bead, bad):
    with pytest.raises(ValueError) as err:
        check(bead)
    assert str(err.value) == f"not a full binary tree: {bad!r}"


def test_tree_key_quotients_by_rotation_only():
    t1, t2 = (LEAF, LEAF), ((LEAF, LEAF), LEAF)
    assert tree_key((t1, t2)) == tree_key((t2, t1))
    assert tree_key(leaf_star(4)) == tree_key(leaf_star(4)[1:] + leaf_star(4)[:1])
    # mirrored beads are genuinely different trees
    assert tree_key(((LEAF, (LEAF, LEAF)),)) != tree_key((((LEAF, LEAF), LEAF),))


def test_canonical_star_is_a_rotation():
    star = (LEAF, (LEAF, LEAF), LEAF)
    rep = canonical_star(star)
    assert len(rep) == 3
    assert sorted(map(str, rep)) == sorted(map(str, star))


@pytest.mark.parametrize("n,count", [(1, 1), (4, 10), (5, 26)])
def test_enumeration_counts(n, count):
    assert len(enumerate_star_trees(n)) == count


def test_enumeration_matches_necklace_formula():
    for n in range(1, 10):
        assert len(enumerate_star_trees(n)) == necklace_count(n)
    for n in range(1, 16):
        assert star_tree_class_count(n) == necklace_count(n)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("enumeration", [star_tree_classes, star_tree_class_count])
def test_enumeration_needs_a_leaf(enumeration, n):
    with pytest.raises(ValueError, match=f"{enumeration.__name__} needs n >= 1, got {n}"):
        enumeration(n)


@pytest.mark.parametrize("n", [True, False, 5.0, 4.0, "5", None])
@pytest.mark.parametrize("function", [star_tree_classes, star_tree_class_count, leaf_star])
def test_leaf_counts_must_be_integers(function, n):
    # a bool or a float is rejected, not reinterpreted
    message = f"{function.__name__} needs an integer n, got {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(n)


def test_the_count_refuses_keys_wider_than_64_bits(monkeypatch):
    class Built(Exception):
        pass

    def no_tables(*args):
        raise Built

    # the check comes before any table: n = 33 goes on to build them, with
    # keys of 63 bits, and n = 34 is refused
    monkeypatch.setattr(trees, "_bead_tables", no_tables)
    with pytest.raises(Built):
        star_tree_class_count(33)
    for n in (34, 35, 10**6):
        with pytest.raises(BoundExceededError, match=f"supports n <= 33, got {n}$"):
            star_tree_class_count(n)
    # keys of 2n - 3 bits, below 1 << 63 at n = 33; the leaf key 1 << 2n - 4
    # would not fit at n = 34
    array("Q", [(1 << 2 * 33 - 3) - 1])
    with pytest.raises(OverflowError):
        array("Q", [1 << 2 * 34 - 4])


def test_all_leaf_beads_is_the_unique_flat_star():
    flat = [
        star
        for star in star_tree_classes(6).values()
        if all(bead == LEAF for bead in star)
    ]
    assert flat == [leaf_star(6)]


# -- dual trees ------------------------------------------------------------------


def test_fan_dualizes_to_leaf_star():
    for n in (3, 5, 8):
        assert star_tree_of(fan_triangulation(n)) == leaf_star(n)
        assert star_tree_of(fan_triangulation(n, NOTCHED)) == leaf_star(n)


def test_tagged_fan_dualizes_to_comb():
    t = Triangulation(
        5,
        [Radius(0, PLAIN), Radius(0, NOTCHED), Arc(0, 2), Arc(0, 3), Arc(0, 4)],
    )
    assert star_tree_of(t) == (COMB5,)


def test_leaf_star_unfolds_to_fan():
    for n in (3, 5, 7):
        assert triangulation_of(leaf_star(n), n) == fan_triangulation(n)


def test_dual_tree_invariant_on_classes():
    for n in (4, 5):
        for t in enumerate_triangulations(n):
            key = tree_key(star_tree_of(t))
            assert tree_key(star_tree_of(invert_tags(t))) == key
            for i in range(n):
                assert tree_key(star_tree_of(rotate(t, i))) == key


def test_round_trips():
    for n in (3, 4, 5):
        for t in enumerate_triangulations(n):
            assert class_key(triangulation_of(star_tree_of(t), n)) == class_key(t)
        for key, star in star_tree_classes(n).items():
            assert tree_key(star_tree_of(triangulation_of(star, n))) == key


def test_triangulation_of_validates_leaf_totals():
    with pytest.raises(ValueError):
        triangulation_of(leaf_star(4), 5)
    with pytest.raises(ValueError):
        triangulation_of((LEAF,), 1)
    with pytest.raises(ValueError):
        triangulation_of((), 0)


# -- bead moves -------------------------------------------------------------------


def test_split_bead():
    assert split_bead(((LEAF, LEAF), LEAF), 0) == (LEAF, LEAF, LEAF)
    with pytest.raises(ValueError):
        split_bead(leaf_star(3), 1)


def test_merge_beads():
    assert merge_beads(leaf_star(3), 0) == ((LEAF, LEAF), LEAF)
    assert merge_beads((LEAF, (LEAF, LEAF)), 1) == (((LEAF, LEAF), LEAF),)
    with pytest.raises(ValueError):
        merge_beads((COMB5,), 0)


def test_split_and_merge_are_inverse():
    star = ((LEAF, (LEAF, LEAF)), LEAF)
    assert merge_beads(split_bead(star, 0), 0) == star
    assert split_bead(merge_beads(star, 0), 0) == star


def test_moves_change_bead_count_by_one():
    star = ((LEAF, LEAF), (LEAF, LEAF), LEAF)
    assert len(split_bead(star, 1)) == 4
    assert len(merge_beads(star, 2)) == 2
    assert len(rotate_inner_edge(((LEAF, (LEAF, LEAF)),), 0, "R")) == 1


def test_rotate_inner_edge_reassociates():
    assert rotate_inner_edge(((LEAF, (LEAF, LEAF)),), 0, "R") == (((LEAF, LEAF), LEAF),)
    assert rotate_inner_edge((((LEAF, LEAF), LEAF),), 0, "L") == ((LEAF, (LEAF, LEAF)),)
    deep = ((LEAF, (LEAF, (LEAF, LEAF))),)
    assert rotate_inner_edge(deep, 0, "RR") == ((LEAF, ((LEAF, LEAF), LEAF)),)


def test_rotate_inner_edge_is_involutive_via_the_new_edge():
    star = ((LEAF, (LEAF, LEAF)),)
    rotated = rotate_inner_edge(star, 0, "R")
    assert rotate_inner_edge(rotated, 0, "L") == star


def test_rotate_inner_edge_rejects_bad_paths():
    star = ((LEAF, (LEAF, LEAF)),)
    with pytest.raises(ValueError):
        rotate_inner_edge(star, 0, "")
    with pytest.raises(ValueError):
        rotate_inner_edge(star, 0, "L")  # ends at a leaf
    with pytest.raises(ValueError):
        rotate_inner_edge(star, 0, "RLL")  # runs past a leaf
    with pytest.raises(ValueError):
        rotate_inner_edge(star, 0, "X")


def test_leaf_counts_preserved_by_moves():
    star = ((LEAF, (LEAF, LEAF)), (LEAF, LEAF))
    for moved in (
        split_bead(star, 0),
        merge_beads(star, 1),
        rotate_inner_edge(star, 0, "R"),
    ):
        assert sum(leaf_count(b) for b in moved) == 5


# -- matched moves for flips --------------------------------------------------------


def test_move_kind_matches_diagonal_kind():
    t = flip(fan_triangulation(5), Radius(1, PLAIN))  # one arc, four radii
    arc = next(d for d in t.sorted_diagonals if isinstance(d, Arc))
    assert tree_move_for_flip(t, arc)[0] == "split"
    radius = next(d for d in t.sorted_diagonals if isinstance(d, Radius))
    assert tree_move_for_flip(t, radius)[0] == "merge"

    pair = Triangulation(
        5, [Radius(0, PLAIN), Radius(0, NOTCHED), Arc(0, 2), Arc(0, 3), Arc(0, 4)]
    )
    assert tree_move_for_flip(pair, Radius(0, PLAIN)) == ("split", 0)
    assert tree_move_for_flip(pair, Arc(0, 2))[0] == "rotate"


def test_moves_commute_with_flips_exhaustively():
    for n in (3, 4, 5):
        for t in enumerate_triangulations(n):
            star = star_tree_of(t)
            for d in t.sorted_diagonals:
                move = tree_move_for_flip(t, d)
                lhs = tree_key(star_tree_of(flip(t, d)))
                assert lhs == tree_key(apply_tree_move(star, move))


def test_bead_count_tracks_radius_count():
    # splitting adds a radius, merging removes one, rotations keep them
    t = flip(fan_triangulation(5), Radius(1, PLAIN))
    star = star_tree_of(t)
    for d in t.sorted_diagonals:
        kind = tree_move_for_flip(t, d)[0]
        flipped_radii = sum(isinstance(x, Radius) for x in flip(t, d).diagonals)
        radii = sum(isinstance(x, Radius) for x in t.diagonals)
        if kind == "split":
            assert flipped_radii == radii + 1
        elif kind == "merge":
            assert flipped_radii == radii - 1
        else:
            assert flipped_radii == radii


# -- serialization --------------------------------------------------------------------


def test_json_round_trip():
    star = ((LEAF, (LEAF, LEAF)), LEAF)
    obj = json.loads(json.dumps(star_to_json_obj(star)))
    assert star_from_json_obj(obj) == star
    assert obj == {"beads": [["L", ["L", "L"]], "L"]}


def test_json_rejects_junk():
    with pytest.raises(ValueError):
        star_from_json_obj({"beads": []})
    with pytest.raises(ValueError):
        star_from_json_obj({"beads": [["L"]]})
    with pytest.raises(ValueError):
        star_from_json_obj({})


def test_json_bead_nested_too_deeply_is_a_value_error():
    # deeper than the default recursion limit of every supported Python,
    # whatever depth its JSON reader accepts
    bead = LEAF
    for _ in range(3000):
        bead = [bead, LEAF]
    with pytest.raises(ValueError, match="nested too deeply"):
        star_from_json_obj({"beads": [LEAF, bead]})


# -- oracles: every bead sequence, and the star canonicalization they fed ----------


def _binary_trees_oracle(m):
    if m == 1:
        return [LEAF]
    return [
        (left, right)
        for left_leaves in range(1, m)
        for left in _binary_trees_oracle(left_leaves)
        for right in _binary_trees_oracle(m - left_leaves)
    ]


def _bead_sequences(total):
    """Every sequence of beads with ``total`` leaves, each rotation separately."""
    if total == 0:
        yield ()
        return
    for first_leaves in range(1, total + 1):
        for bead in _binary_trees_oracle(first_leaves):
            for rest in _bead_sequences(total - first_leaves):
                yield (bead,) + rest


def _serialize_bead_oracle(tree):
    if tree == LEAF:
        return b"L"
    return b"(" + _serialize_bead_oracle(tree[0]) + _serialize_bead_oracle(tree[1]) + b")"


def _serialize_star_oracle(star):
    return b"[" + b",".join(_serialize_bead_oracle(bead) for bead in star) + b"]"


def _canonical_star_oracle(star):
    """Serialize every rotation and keep the least."""
    return min((star[i:] + star[:i] for i in range(len(star))), key=_serialize_star_oracle)


def _star_tree_classes_oracle(n):
    classes = {}
    for star in _bead_sequences(n):
        rep = _canonical_star_oracle(star)
        classes.setdefault(_serialize_star_oracle(rep), rep)
    return dict(sorted(classes.items()))


def test_least_rotation_matches_the_serialize_every_rotation_oracle():
    for n in range(1, 11):
        for star in _bead_sequences(n):
            rep = _canonical_star_oracle(star)
            assert _least_rotation(star) == (_serialize_star_oracle(rep), rep)


def test_bead_codes_are_the_serializations_in_code_order():
    tables, streamed = _bead_tables(10, (b"L", LEAF), _join_codes, tuple)
    for m, beads in enumerate([*tables[1:], tuple(streamed)], 1):
        assert list(beads) == sorted(beads)
        assert sorted(beads) == sorted(
            (_serialize_bead_oracle(bead), bead) for bead in _binary_trees_oracle(m)
        )
    # the code tables of the tests' oracle count are the same
    assert [tuple(code for code, _ in beads) for beads in tables[1:]] == bead_code_tables(9)[1:]


def _key_of_code(code, width):
    """A bead's key read off its code: ")" dropped, "(" as 0 and "L" as 1, left-aligned."""
    word = code.replace(b")", b"").replace(b"(", b"0").replace(b"L", b"1")
    return int(word, 2) << width - len(word)


def test_bead_keys_order_the_beads_as_their_codes():
    # the beads with up to 11 leaves: the tables of star_tree_class_count(12),
    # whose keys are 21 bits wide
    keys, _ = _bead_tables(12, 1 << 20, _join_keys, lambda beads: array("Q", beads))
    codes, _ = _bead_tables(12, (b"L", LEAF), _join_codes, tuple)
    pairs = []
    for m in range(1, 12):
        assert list(keys[m]) == sorted(keys[m])
        for key, (code, bead) in zip(keys[m], codes[m], strict=True):
            assert code == _serialize_bead(bead)
            assert key == _key_of_code(code, 21)
            pairs.append((key, code))
    assert len(pairs) == 23714
    # across leaf counts too: key order is code order
    assert sorted(pairs) == sorted(pairs, key=lambda pair: pair[1])


def test_key_count_matches_the_code_table_count():
    for n in range(1, 14):
        assert star_tree_class_count(n) == star_tree_class_count_by_codes(n)


def test_star_tree_classes_match_the_sorted_oracle():
    for n in range(1, 11):
        oracle = _star_tree_classes_oracle(n)
        assert star_tree_classes(n) == oracle
        # the count sees a class generated twice, which the dict would merge
        assert star_tree_class_count(n) == len(oracle)
        assert enumerate_star_trees(n) == set(oracle)


def test_bead_tables_do_not_outlive_the_count():
    # the key tables of the beads with 1..11 leaves take 0.19 MB: 23 714
    # keys of 8 bytes
    star_tree_class_count(3)  # imports array, which the count loads on first use
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert star_tree_class_count(13) == 400024
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 17


def test_the_count_never_builds_the_n_minus_1_leaf_beads(monkeypatch):
    asked = []
    for name in ("_join_keys", "_join_codes"):
        def join(left, tables, m, real=getattr(trees, name)):
            asked.append(m)
            return real(left, tables, m)

        monkeypatch.setattr(trees, name, join)
    for n in range(3, 14):
        # the count builds the tables up to n - 2 leaves and streams nothing;
        # the leaf table is not joined, so at n = 3 nothing is
        asked.clear()
        star_tree_class_count(n)
        assert sorted(set(asked)) == list(range(2, n - 1))
        assert max(asked, default=1) == n - 2
        # the class map still builds the n - 1 leaf table, whose beads it
        # writes, and streams the n-leaf beads, the single-bead classes
        asked.clear()
        star_tree_classes(n)
        assert sorted(set(asked)) == list(range(2, n + 1))


def test_the_count_peaks_below_2_mb():
    # 0.43 MB on the key tables up to 11 leaves, with Python 3.11; 1.47 MB
    # when the count built the 12-leaf table too, and 14.8 MB for the tables
    # of bytes codes and bead tuples up to 12 leaves
    star_tree_class_count(3)
    tracemalloc.start()
    try:
        assert star_tree_class_count(13) == 400024
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_runs_with_a_leaf_tail_expand_to_the_per_bead_stars_in_order():
    leaf, pair = (b"L", LEAF), (b"(LL)", (LEAF, LEAF))
    for n in range(1, 12):
        tables, _ = _bead_tables(n, leaf, _join_codes, tuple)
        stars, oracle, seen = [], [], set()

        def expand(prefix, table, lo, tails):
            stars.extend((*prefix, bead, *tail) for bead in table[lo:] for tail in tails)
            seen.update(tails)

        def expand_per_bead(prefix, table, lo):
            oracle.extend((*prefix, bead) for bead in table[lo:])

        _least_rotations(n, expand, tables)
        least_rotations_per_bead(n, expand_per_bead, tables)
        assert stars == oracle
        # a tail is nothing, the leaf, two leaves or (LL); below n = 3 the
        # top-level run, whose tail is the leaf, is the only one, and the
        # two-leaf tails follow a first bead of at least two leaves
        want = {(), (leaf,), (leaf, leaf), (pair,)} if n > 3 else {(), (leaf,)} if n == 3 else {(leaf,)}
        assert seen == want


def test_periodic_stars_that_end_in_the_leaf_after_the_floor_are_kept():
    # the second-to-last bead is the floor, the bead p places back, and the
    # last the leaf: (L, L) is the top-level run at n = 2, the others recurse
    pair = (LEAF, LEAF)
    for key, star in [
        (b"[L,L]", pair),
        (b"[L,L,L,L]", (LEAF,) * 4),
        (b"[(LL),L,(LL),L]", (pair, LEAF, pair, LEAF)),
    ]:
        assert star_tree_classes(sum(map(leaf_count, star)))[key] == star


def test_star_tree_classes_come_bead_by_bead_in_leaf_count_then_code_order():
    for n in range(1, 11):
        order = [
            [(leaf_count(bead), _serialize_bead_oracle(bead)) for bead in star]
            for star in star_tree_classes(n).values()
        ]
        assert order == sorted(order)


# -- oracles: the dual-tree code the region decomposition replaced ----------------


def _segment_walls_oracle(t):
    """Absolute (start, end) windows of the puncture-adjacent regions."""
    if t.config == "A":
        bases = list(t.radius_bases)
        m = len(bases)
        return [
            (bases[i], bases[i + 1] if i + 1 < m else bases[0] + t.n)
            for i in range(m)
        ]
    a = t.radius_bases[0]
    return [(a, a + t.n)]


def _dual_tree_builder_oracle(t):
    n = t.n
    arcs = {(d.a, d.b) for d in t.diagonals if isinstance(d, Arc)}

    def side_exists(u, v):
        return v - u == 1 or (u % n, v % n) in arcs

    def build(u, v):
        if v - u == 1:
            return LEAF
        for w in range(u + 1, v):
            if side_exists(u, w) and side_exists(w, v):
                return (build(u, w), build(w, v))
        raise AssertionError(f"no apex between {u} and {v}")

    return build


def _star_tree_of_oracle(t):
    build = _dual_tree_builder_oracle(t)
    return tuple(build(u, v) for u, v in _segment_walls_oracle(t))


def _triangulation_of_oracle(star, n):
    """Unfold each bead below its side, placing apexes by leaf counts."""
    diagonals = []

    def unfold(u, v, tree):
        if tree == LEAF:
            return
        w = u + leaf_count(tree[0])
        if w - u >= 2:
            diagonals.append(Arc(u % n, w % n))
        if v - w >= 2:
            diagonals.append(Arc(w % n, v % n))
        unfold(u, w, tree[0])
        unfold(w, v, tree[1])

    if len(star) == 1:
        diagonals += [Radius(0, PLAIN), Radius(0, NOTCHED)]
        unfold(0, n, star[0])
    else:
        pos = 0
        for bead in star:
            c = leaf_count(bead)
            diagonals.append(Radius(pos % n, PLAIN))
            if c >= 2:
                diagonals.append(Arc(pos % n, (pos + c) % n))
            unfold(pos, pos + c, bead)
            pos += c
    return Triangulation(n, diagonals)


def _tree_move_for_flip_oracle(t, d):
    n = t.n
    walls = _segment_walls_oracle(t)
    if isinstance(d, Radius):
        if t.config == "B":
            return ("split", 0)
        j = list(t.radius_bases).index(d.a)
        return ("merge", (j - 1) % len(walls))
    if t.config == "A":
        for i, (u, v) in enumerate(walls):
            if d.a == u % n and d.b == v % n:
                return ("split", i)
    star = _star_tree_of_oracle(t)
    for i, (u, v) in enumerate(walls):
        offset = (d.a - u) % n
        s, e = u + offset, u + offset + (d.b - d.a) % n
        if e > v:
            continue
        path = ""
        node, lo, hi = star[i], u, v
        while True:
            w = lo + leaf_count(node[0])
            if (s, e) == (lo, w):
                return ("rotate", i, path + "L")
            if (s, e) == (w, hi):
                return ("rotate", i, path + "R")
            if e <= w:
                path += "L"
                node, hi = node[0], w
            elif s >= w:
                path += "R"
                node, lo = node[1], w
            else:
                raise AssertionError(f"{d} straddles the apex of its region")
    raise AssertionError(f"{d} not located in any segment")


def test_dual_tree_maps_match_oracles():
    for n in range(3, 8):
        for t in enumerate_triangulations(n):
            star = star_tree_of(t)
            assert star == _star_tree_of_oracle(t)
            assert triangulation_of(star, n) == _triangulation_of_oracle(star, n)
            for d in t.sorted_diagonals:
                assert tree_move_for_flip(t, d) == _tree_move_for_flip_oracle(t, d)


@pytest.mark.parametrize(
    "move",
    [("split", -1), ("split", 3), ("merge", -1), ("merge", 7), ("rotate", -1, "R"), ("rotate", 3, "L")],
)
def test_bead_moves_reject_out_of_range_indices(move):
    star = (LEAF, LEAF, (LEAF, LEAF))
    with pytest.raises(IndexError, match=rf"bead {move[1]} out of range for 3 beads \(0\.\.2\)"):
        apply_tree_move(star, move)


# bead 0 can be split, merged and rotated at "L": each move below would
# apply, were its shape not checked
_SPLITTABLE = (((LEAF, LEAF), LEAF), LEAF)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: apply_tree_move((LEAF, LEAF, LEAF), ("spin", 0)), "unknown tree move: ('spin', 0)"),
        # a move of the wrong length is unknown, not an IndexError or a
        # move that drops its extra entry
        *[
            (lambda move=move: apply_tree_move(_SPLITTABLE, move), f"unknown tree move: {move!r}")
            for move in [(), None, ("split",), ("rotate", 0), ("split", 0, "x"), ("merge", 0, 1)]
        ],
        *[
            (lambda path=path: rotate_inner_edge(_SPLITTABLE, 0, path),
             f"a path must be a string of L and R steps, got {path!r}")
            for path in [["L"], ("L",), 5]
        ],
        (lambda: tree_key(()), "star tree needs at least one bead"),
    ],
    ids=[
        "apply_tree_move",
        *(f"apply_tree_move-{m}" for m in ["empty", "None", "split", "rotate", "split-x", "merge-1"]),
        *(f"rotate_inner_edge-{p}" for p in ["list", "tuple", "int"]),
        "tree_key",
    ],
)
def test_star_functions_keep_their_one_line_errors(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# bead 1 can be split and rotated at "L", so an index taken as 1 would pass
_STAR = (LEAF, ((LEAF, LEAF), LEAF), (LEAF, LEAF))


@pytest.mark.parametrize("index", [True, 1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda k: mutate(dynkin_d(4), k),
        lambda k: delete_vertex(dynkin_d(4), k),
        lambda k: merge_beads(_STAR, k),
        lambda k: split_bead(_STAR, k),
        lambda k: rotate_inner_edge(_STAR, k, "L"),
        lambda k: rotate(fan_triangulation(5), k),
    ],
    ids=["mutate", "delete_vertex", "merge_beads", "split_bead", "rotate_inner_edge", "rotate"],
)
def test_index_arguments_must_be_integers(call, index):
    with pytest.raises(ValueError, match=rf"^[a-z ]+ must be an integer, got {index!r}$"):
        call(index)
