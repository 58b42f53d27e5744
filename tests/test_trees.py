import json
import tracemalloc

import pytest

from dquiver.counting import necklace_count
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
    _compose,
    _least_rotation,
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

from helpers import enumerate_star_trees

COMB5 = ((((LEAF, LEAF), LEAF), LEAF), LEAF)


def test_leaf_count():
    assert leaf_count(LEAF) == 1
    assert leaf_count((LEAF, (LEAF, LEAF))) == 3
    assert leaf_count(COMB5) == 5


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
    for n in range(1, 15):
        assert star_tree_class_count(n) == necklace_count(n)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("enumeration", [star_tree_classes, star_tree_class_count])
def test_enumeration_needs_a_leaf(enumeration, n):
    with pytest.raises(ValueError, match=f"need n >= 1 leaves, got {n}"):
        enumeration(n)


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
    tables = _bead_tables(9)
    for m in range(1, 10):
        codes, beads = tables[m]
        assert list(codes) == sorted(codes)
        assert sorted(zip(codes, beads)) == sorted(
            (_serialize_bead_oracle(bead), bead) for bead in _binary_trees_oracle(m)
        )
        assert list(_compose(m, tables)) == list(zip(codes, beads))


def test_star_tree_classes_match_the_sorted_oracle():
    for n in range(1, 11):
        oracle = _star_tree_classes_oracle(n)
        assert star_tree_classes(n) == oracle
        # the count sees a class generated twice, which the dict would merge
        assert star_tree_class_count(n) == len(oracle)
        assert enumerate_star_trees(n) == set(oracle)


def test_bead_tables_do_not_outlive_the_count():
    # the tables of the beads with 1..12 leaves take about 12 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert star_tree_class_count(13) == 400024
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_star_tree_classes_come_bead_by_bead_in_leaf_count_then_code_order():
    for n in range(1, 9):
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
