import json
import random
import sys
import threading
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dquiver import polygon
from dquiver.counting import d_cluster_count
from dquiver.polygon import (
    LEAF,
    NOTCHED,
    PLAIN,
    Arc,
    Radius,
    Triangulation,
    _beaten,
    _bits,
    _decomposition,
    _diagonal_table,
    _images,
    _index,
    _mask,
    _orbit_images,
    _orbits,
    _radius_config,
    all_diagonals,
    class_key,
    class_representative,
    close_to_border,
    crossing_number,
    diagonal_sort_key,
    enumerate_triangulations,
    factor_out,
    fan_triangulation,
    flip,
    invert_tags,
    mu,
    opposite_tag,
    quiver_of,
    quiver_vertex,
    rotate,
    span,
    tau,
    triangulation_class_count,
    triangulation_classes,
    triangulation_from_json_obj,
    triangulation_to_json_obj,
)
from dquiver.trees import _triangles, apply_tree_move, star_tree_of, tree_key, tree_move_for_flip
from dquiver.quiver import Quiver, canonical_key, mutate, dynkin_d
from helpers import (
    chord_lift,
    class_masks_by_orbit_key,
    crossing_number_via_lift,
    is_triangulation,
    mutation_class,
    serialize_triangulation,
    triangulations_by_clique_search,
    triangulations_by_flips,
)


# -- crossing numbers ----------------------------------------------------------


def test_radius_radius_rule():
    assert crossing_number(Radius(0, PLAIN), Radius(2, NOTCHED), 5) == 1
    assert crossing_number(Radius(0, PLAIN), Radius(0, NOTCHED), 5) == 0
    assert crossing_number(Radius(0, PLAIN), Radius(2, PLAIN), 5) == 0


def test_arc_arc_crossings():
    assert crossing_number(Arc(0, 2), Arc(1, 3), 4) == 1
    assert crossing_number(Arc(0, 3), Arc(2, 1), 6) == 2
    # the two homotopy classes between the same endpoints are compatible
    assert crossing_number(Arc(0, 2), Arc(2, 0), 4) == 0


def test_radius_arc_interval_rule():
    for n in (4, 5, 9):
        assert crossing_number(Arc(0, 2), Radius(1, PLAIN), n) == 1
        assert crossing_number(Arc(0, 2), Radius(3, PLAIN), n) == 0


def test_self_crossing_is_zero():
    for d in all_diagonals(5):
        assert crossing_number(d, d, 5) == 0


def diagonals_of(n):
    return st.sampled_from(all_diagonals(n))


@given(st.integers(3, 9).flatmap(lambda n: st.tuples(st.just(n), diagonals_of(n), diagonals_of(n))))
def test_crossing_is_symmetric(case):
    n, d1, d2 = case
    assert crossing_number(d1, d2, n) == crossing_number(d2, d1, n)


def test_interval_and_lift_rules_agree_for_radius_arc():
    for n in range(3, 13):
        arcs = [d for d in all_diagonals(n) if isinstance(d, Arc)]
        radii = [d for d in all_diagonals(n) if isinstance(d, Radius)]
        for r in radii:
            for a in arcs:
                assert crossing_number(r, a, n) == crossing_number_via_lift(r, a, n)


def test_interval_rule_matches_the_lift_on_every_pair():
    # every ordered pair up to n = 14; past it, every pair with one
    # diagonal at vertex 0 (the rows the diagonal table computes), in both
    # orders
    for n in range(3, 31):
        ds = all_diagonals(n)
        firsts = ds if n <= 14 else [d for d in ds if d.a == 0]
        for d1 in firsts:
            for d2 in ds:
                expected = crossing_number_via_lift(d1, d2, n)
                assert crossing_number(d1, d2, n) == expected, (n, d1, d2)
                assert crossing_number(d2, d1, n) == expected, (n, d2, d1)


def test_chord_lift_shapes():
    lift = chord_lift(Arc(0, 2), 4)
    assert lift.chords == ((0, 2), (4, 6)) and lift.color is None
    lift = chord_lift(Radius(1, NOTCHED), 4)
    assert lift.chords == ((1, 5),) and lift.color == NOTCHED


def test_mismatched_polygon_size_rejected():
    with pytest.raises(ValueError):
        crossing_number(Arc(0, 5), Arc(1, 3), 5)
    with pytest.raises(ValueError):
        crossing_number(Arc(0, 1), Arc(0, 2), 5)  # span-1 arc is not a diagonal


# -- diagonal inventory ---------------------------------------------------------


@pytest.mark.parametrize("n,total", [(3, 9), (4, 16), (5, 25)])
def test_all_diagonals_count(n, total):
    ds = all_diagonals(n)
    assert len(ds) == len(set(ds)) == total == n * n
    arcs = [d for d in ds if isinstance(d, Arc)]
    assert len(arcs) == n * (n - 2)


# -- triangulation construction --------------------------------------------------


def test_fan_is_a_triangulation():
    assert is_triangulation(5, fan_triangulation(5).diagonals)


def test_tag_clash_is_not_a_triangulation():
    ds = [Radius(a, PLAIN) for a in range(4)]
    ds[2] = Radius(2, NOTCHED)
    assert not is_triangulation(4, ds)


def test_subset_is_not_a_triangulation():
    ds = list(fan_triangulation(5).diagonals)[:4]
    assert not is_triangulation(5, ds)


def test_constructor_rejects_bad_sets():
    with pytest.raises(ValueError):
        Triangulation(4, [Radius(a, PLAIN) for a in range(3)])
    with pytest.raises(ValueError):
        Triangulation(4, [Arc(0, 2), Arc(1, 3), Radius(0, PLAIN), Radius(2, PLAIN)])


def test_constructor_rejects_bool_and_float_coordinates():
    # Radius(True, PLAIN) equals and hashes like Radius(1, PLAIN): accepted,
    # this set would read as the plain fan of the square
    fan = [Radius(a, PLAIN) for a in range(4)]
    with pytest.raises(ValueError, match="base must be an integer"):
        Triangulation(4, [Radius(True, PLAIN), Radius(0, PLAIN), Radius(2.0, PLAIN), Radius(3, PLAIN)])
    with pytest.raises(ValueError, match="endpoints must be integers"):
        Triangulation(4, [Arc(False, 2), Arc(0, 3), Radius(0, PLAIN), Radius(0, NOTCHED)])
    with pytest.raises(ValueError, match="endpoints must be integers"):
        Triangulation(4, [Arc(0, 2), Arc(0, 3.0), Radius(0, PLAIN), Radius(0, NOTCHED)])
    for n in (4.0, True, "4"):
        with pytest.raises(ValueError, match="needs an integer n"):
            Triangulation(n, fan)


@pytest.mark.parametrize(
    "d,n",
    [
        (Radius(True, PLAIN), 4),
        (Radius(2.0, NOTCHED), 4),
        (Arc(True, 3), 4),
        (Arc(0, 2.0), 4),
        (Radius(0, PLAIN), 4.0),
        (Arc(0, 2), True),
    ],
)
def test_check_diagonal_rejects_bool_and_float(d, n):
    with pytest.raises(ValueError):
        polygon.check_diagonal(d, n)


def test_a_value_that_is_not_a_diagonal_is_a_value_error():
    with pytest.raises(ValueError, match=r"^not a diagonal: 5$"):
        polygon.check_diagonal(5, 3)
    with pytest.raises(ValueError, match=r"^not a diagonal: 5$"):
        Triangulation(3, [5, 6, 7])


def test_config_detection():
    assert fan_triangulation(4).config == "A"
    t = Triangulation(4, [Arc(0, 2), Arc(0, 3), Radius(0, PLAIN), Radius(0, NOTCHED)])
    assert t.config == "B"
    assert t.radius_bases == (0,)


# -- enumeration ------------------------------------------------------------------


def test_enumeration_matches_flip_closure():
    for n in range(3, 9):
        assert enumerate_triangulations(n) == triangulations_by_flips(n)


@pytest.mark.parametrize("n", range(3, 10))
def test_enumeration_matches_the_unpruned_clique_search(n):
    assert enumerate_triangulations(n) == triangulations_by_clique_search(n)


def test_triangulation_totals():
    # total counts agree with the number of clusters in type D_n, up to the
    # triangulation route's verify bound 10
    for n in range(3, 11):
        assert len(enumerate_triangulations(n)) == d_cluster_count(n)


def test_class_counts():
    count = lambda n: len({class_key(t) for t in enumerate_triangulations(n)})
    assert count(4) == 10  # differs from the mutation class count 6
    assert count(5) == 26


# -- flips -------------------------------------------------------------------------


def test_flip_fan_radius():
    t = fan_triangulation(6)
    flipped = flip(t, Radius(2, PLAIN))
    assert Arc(1, 3) in flipped.diagonals
    assert Radius(2, PLAIN) not in flipped.diagonals


def test_flip_is_an_involution():
    t = fan_triangulation(5)
    f = flip(t, Radius(0, PLAIN))
    new = next(iter(f.diagonals - t.diagonals))
    assert flip(f, new) == t


def test_flip_two_radius_fan_to_tagged_pair():
    t = Triangulation(
        5,
        [Radius(0, PLAIN), Radius(1, PLAIN), Arc(1, 3), Arc(1, 4), Arc(1, 0)],
    )
    flipped = flip(t, Radius(1, PLAIN))
    assert flipped.config == "B"
    assert flipped.radius_bases == (0,)


def test_flip_requires_membership():
    # Arc(0, 7) is a diagonal of no 5-gon
    for move in (flip, tree_move_for_flip):
        for d in (Arc(0, 2), Arc(0, 7)):
            with pytest.raises(ValueError, match="is not a diagonal of the triangulation"):
                move(fan_triangulation(5), d)


# -- the quiver map -----------------------------------------------------------------


def test_fan_maps_to_oriented_cycle():
    for n in (3, 4, 5, 7):
        expected = Quiver.from_arrows(n, [(i, (i + 1) % n) for i in range(n)])
        assert quiver_of(fan_triangulation(n)) == expected
        assert quiver_of(fan_triangulation(n, NOTCHED)) == expected


def test_two_radius_fan_has_no_arrow_between_radii():
    t = Triangulation(4, [Radius(0, PLAIN), Radius(2, PLAIN), Arc(0, 2), Arc(2, 0)])
    q = quiver_of(t)
    i, j = quiver_vertex(t, Radius(0, PLAIN)), quiver_vertex(t, Radius(2, PLAIN))
    assert q.b[i][j] == 0
    # the quiver is the 4-cycle Arc(0,2) -> R0 -> Arc(2,0) -> R2 -> Arc(0,2)
    assert sorted(q.arrows()) == [(0, 2), (1, 3), (2, 1), (3, 0)]


def test_tagged_pair_fan_gives_fork_in_class():
    t = Triangulation(
        5,
        [Radius(0, PLAIN), Radius(0, NOTCHED), Arc(0, 2), Arc(0, 3), Arc(0, 4)],
    )
    q = quiver_of(t)
    rp, rn = quiver_vertex(t, Radius(0, PLAIN)), quiver_vertex(t, Radius(0, NOTCHED))
    assert q.b[rp][rn] == 0
    assert canonical_key(q) in mutation_class(dynkin_d(5))


def test_quiver_commutes_with_flip_on_every_triangulation():
    for n in (4, 5):
        for t in enumerate_triangulations(n):
            q = quiver_of(t)
            for d in t.sorted_diagonals:
                lhs = canonical_key(quiver_of(flip(t, d)))
                rhs = canonical_key(mutate(q, quiver_vertex(t, d)))
                assert lhs == rhs


# -- symmetries ----------------------------------------------------------------------


def test_rotation_identities():
    t = flip(fan_triangulation(6), Radius(2, PLAIN))
    assert rotate(t, 0) == t
    assert rotate(t, 6) == t
    assert rotate(rotate(t, 1), 5) == t
    assert rotate(fan_triangulation(6), 3) == fan_triangulation(6)


def test_invert_tags_identities():
    t = fan_triangulation(5)
    assert invert_tags(t) == fan_triangulation(5, NOTCHED)
    assert invert_tags(invert_tags(t)) == t
    pair = Triangulation(4, [Arc(0, 2), Arc(0, 3), Radius(0, PLAIN), Radius(0, NOTCHED)])
    assert invert_tags(pair) == pair


def test_class_key_invariance():
    t = flip(fan_triangulation(5), Radius(2, PLAIN))
    assert class_key(t) == class_key(rotate(t, 3))
    assert class_key(t) == class_key(invert_tags(t))
    assert class_key(t) != class_key(fan_triangulation(5))


def test_tau_and_mu():
    n = 7
    assert tau(Arc(2, 4), n) == Arc(1, 3)
    assert tau(Radius(0, PLAIN), n) == Radius(n - 1, NOTCHED)
    assert mu(Arc(0, 2)) == Arc(0, 2)
    assert mu(Radius(3, PLAIN)) == Radius(3, NOTCHED)
    d = Radius(3, PLAIN)
    assert mu(mu(d)) == d


def test_tau_power_identities():
    for n in range(3, 13):
        for d in all_diagonals(n):
            x = d
            for _ in range(n):
                x = tau(x, n)
            if isinstance(d, Arc) or n % 2 == 0:
                assert x == d
            else:
                assert x == mu(d)


# -- close to the border / factoring out ----------------------------------------------


def test_close_to_border():
    assert close_to_border(Arc(0, 2), 5)
    assert close_to_border(Arc(4, 1), 5)
    assert not close_to_border(Arc(0, 3), 5)
    assert not close_to_border(Radius(0, PLAIN), 5)
    # checked as check_diagonal checks it, not reinterpreted
    for d, n in [(Arc(0, 7), 5), (Arc(0, 2), 2.5), (Arc(0.0, 2), 5), (Arc(0, 1), 5), ([0, 2], 5)]:
        with pytest.raises(ValueError):
            close_to_border(d, n)


def test_factor_out_fan_example():
    t = Triangulation(5, [Arc(0, 2)] + [Radius(a, PLAIN) for a in (2, 3, 4, 0)])
    assert factor_out(t, Arc(0, 2)) == fan_triangulation(4)


def test_factor_out_requires_close_to_border():
    t = Triangulation(5, [Arc(0, 3), Arc(0, 2), Radius(0, PLAIN), Radius(3, PLAIN), Arc(3, 0)])
    with pytest.raises(ValueError):
        factor_out(t, Arc(0, 3))
    with pytest.raises(ValueError):
        factor_out(t, Arc(1, 3))  # not a member


def test_factor_out_refuses_the_triangle():
    t = Triangulation(3, [Arc(0, 2), Radius(0, PLAIN), Radius(0, NOTCHED)])
    with pytest.raises(ValueError) as err:
        factor_out(t, Arc(0, 2))
    assert str(err.value) == "factoring out needs n >= 4"


def test_factor_out_wraps_around_zero():
    t = Triangulation(5, [Arc(4, 1)] + [Radius(a, PLAIN) for a in (1, 2, 3, 4)])
    out = factor_out(t, Arc(4, 1))
    assert out == fan_triangulation(4)


# -- serialization ----------------------------------------------------------------------


def test_serialization_is_sorted_and_deterministic():
    t = fan_triangulation(4)
    obj = triangulation_to_json_obj(t)
    assert obj["n"] == 4
    assert obj["diagonals"] == sorted(
        obj["diagonals"], key=lambda item: "arc" not in item
    )
    assert serialize_triangulation(t) == serialize_triangulation(fan_triangulation(4))


def test_json_round_trip():
    t = flip(fan_triangulation(5), Radius(1, PLAIN))
    again = triangulation_from_json_obj(json.loads(json.dumps(triangulation_to_json_obj(t))))
    assert again == t


def test_json_rejects_junk():
    with pytest.raises(ValueError):
        triangulation_from_json_obj({"n": 4, "diagonals": [{"edge": [0, 1]}]})
    with pytest.raises(ValueError):
        triangulation_from_json_obj([])


def test_sort_key_orders_arcs_before_radii():
    ds = all_diagonals(4)
    kinds = [isinstance(d, Radius) for d in ds]
    assert kinds == sorted(kinds)
    assert ds == sorted(ds, key=diagonal_sort_key)


# -- oracles: the diagonal-by-diagonal code the mask arithmetic replaced ------


def _serialize(n, diagonals):
    parts = []
    for d in sorted(diagonals, key=diagonal_sort_key):
        if isinstance(d, Arc):
            parts.append(f"A{d.a},{d.b}")
        else:
            parts.append(f"R{d.a},{'p' if d.tag == PLAIN else 'n'}")
    return f"{n}|{';'.join(parts)}".encode()


def _rotated(n, diagonals, i):
    return frozenset(
        Arc((d.a - i) % n, (d.b - i) % n) if isinstance(d, Arc) else Radius((d.a - i) % n, d.tag)
        for d in diagonals
    )


def _inverted(diagonals):
    return frozenset(
        Radius(d.a, opposite_tag(d.tag)) if isinstance(d, Radius) else d for d in diagonals
    )


def _class_key_oracle(t):
    """Least serialization over every rotation of t and of its tag inversion."""
    return min(
        _serialize(t.n, _rotated(t.n, base, i))
        for base in (t.diagonals, _inverted(t.diagonals))
        for i in range(t.n)
    )


def _first_crossing(n, diagonals):
    """First crossing pair in sorted order, by pairwise crossing_number."""
    lst = sorted(diagonals, key=diagonal_sort_key)
    for i in range(len(lst)):
        for j in range(i + 1, len(lst)):
            if crossing_number(lst[i], lst[j], n):
                return lst[i], lst[j]
    return None


def _flip_oracle(t, d):
    """Scan every diagonal of the polygon for the completions of t - {d}."""
    rest = t.diagonals - {d}
    candidates = [
        x
        for x in all_diagonals(t.n)
        if x not in rest and all(crossing_number(x, y, t.n) == 0 for y in rest)
    ]
    assert len(candidates) == 2 and d in candidates
    other = candidates[0] if candidates[1] == d else candidates[1]
    return rest | {other}


def _tag_config_oracle(diagonals):
    """("A", sorted bases) or ("B", (base,)) from Diagonal objects; raise if malformed."""
    radii = [d for d in diagonals if isinstance(d, Radius)]
    bases = sorted({r.a for r in radii})
    if len(radii) == 2 and len(bases) == 1:
        return ("B", tuple(bases))
    if len(radii) >= 2 and len(bases) == len(radii) and len({r.tag for r in radii}) == 1:
        return ("A", tuple(bases))
    raise ValueError("malformed radii")


def _class_map_oracle(n):
    """The class map with one class_key per triangulation, as the CLI once built it."""
    classes = {}
    for t in triangulations_by_clique_search(n):
        key = class_key(t)
        if key not in classes:
            classes[key] = class_representative(t)[1]
    return classes


def _packed(t, images):
    """The OR of the packed images of t's diagonals, as the class search builds it."""
    packed = 0
    for i in _bits(t.mask):
        packed |= images[i]
    return packed


# -- the diagonal table and the mask operations against the oracles ------------


def test_step_and_inverse_match_tau_and_mu():
    for n in range(3, 41):
        table = _diagonal_table(n)
        assert table.step == tuple(_index(n, mu(tau(d, n))) for d in table.diagonals)
        assert table.inverse == tuple(_index(n, mu(d)) for d in table.diagonals)


def test_all_diagonals_are_listed_in_index_order():
    # the layout has one statement, _index: all_diagonals lists the
    # diagonals in its order, which is diagonal_sort_key order
    for n in range(3, 13):
        ds = all_diagonals(n)
        assert ds == sorted(ds, key=diagonal_sort_key)
        assert [_index(n, d) for d in ds] == list(range(n * (n - 2) + 2 * n))


@pytest.mark.parametrize("build", [triangulation_class_count, triangulation_classes])
def test_the_class_search_hashes_no_diagonal_from_a_cold_start(build):
    # _index finds each diagonal's bit by arithmetic, so building the table
    # and searching it hash and compare no Arc or Radius
    polygon._diagonal_table.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        build(7)
    finally:
        sys.setprofile(None)
    assert "_fill_orbit" in entered and not entered & {"__hash__", "__eq__"}


def test_the_diagonal_table_cache_keeps_at_most_eight_tables():
    for n in range(3, 21):
        _diagonal_table(n)
    assert _diagonal_table.cache_info().currsize <= 8


def test_the_diagonal_table_cache_does_not_serve_a_float_n():
    _diagonal_table(7)
    with pytest.raises(ValueError, match=r"^punctured polygon needs an integer n, got 7\.0$"):
        _diagonal_table(7.0)


def test_a_diagonal_table_rebuilt_after_eviction_has_the_same_rows():
    table = _diagonal_table(7)
    rows = [table.row(i) for i in range(len(table.diagonals))]
    for n in range(8, 16):
        _diagonal_table(n)
    rebuilt = _diagonal_table(7)
    assert rebuilt is not table
    assert rebuilt.diagonals == table.diagonals
    assert [rebuilt.row(i) for i in range(len(rebuilt.diagonals))] == rows


def test_views_and_radius_config_from_the_mask_match_the_oracle():
    for n in range(3, 9):
        ordered = all_diagonals(n)
        for t in enumerate_triangulations(n):
            lst = tuple(d for i, d in enumerate(ordered) if t.mask >> i & 1)
            assert t.sorted_diagonals == lst
            assert t.diagonals == frozenset(lst)
            assert (t.config, t.radius_bases) == _tag_config_oracle(lst)


def test_radius_config_matches_the_oracle_on_every_radius_set():
    # past the crossing check only well-formed radius sets are left, so
    # every malformed one is tried here directly on the radius bits
    for n in (3, 4, 5):
        radii = [d for d in all_diagonals(n) if isinstance(d, Radius)]
        for subset in range(1 << 2 * n):
            ds = [r for j, r in enumerate(radii) if subset >> j & 1]
            mask = subset << n * (n - 2)
            try:
                expected = _tag_config_oracle(ds)
            except ValueError:
                with pytest.raises(ValueError, match="^radii must form either"):
                    _radius_config(n, mask)
            else:
                assert _radius_config(n, mask) == expected


@pytest.mark.parametrize(
    "n, diagonals, message",
    [
        (5, [Radius(a, PLAIN) for a in range(4)],
         "a triangulation of the 5-gon needs 5 diagonals, got 4"),
        (4, [Arc(0, 2), Arc(1, 3), Radius(0, PLAIN), Radius(2, PLAIN)],
         "diagonals cross: Arc(a=0, b=2) and Arc(a=1, b=3)"),
        # radii with different tags at different bases cross, so mixed tags,
        # an opposite-tag pair at two bases and a tagged pair plus one more
        # radius all fail the crossing check first
        (4, [Radius(0, PLAIN), Radius(1, PLAIN), Radius(2, NOTCHED), Radius(3, PLAIN)],
         "diagonals cross: Radius(a=0, tag='plain') and Radius(a=2, tag='notched')"),
        (4, [Arc(0, 2), Arc(2, 0), Radius(0, PLAIN), Radius(2, NOTCHED)],
         "diagonals cross: Radius(a=0, tag='plain') and Radius(a=2, tag='notched')"),
        (4, [Arc(0, 2), Radius(0, PLAIN), Radius(0, NOTCHED), Radius(2, PLAIN)],
         "diagonals cross: Radius(a=0, tag='notched') and Radius(a=2, tag='plain')"),
        # distinct diagonals are counted: five given, four distinct
        (5, [Radius(a, PLAIN) for a in range(4)] + [Radius(0, PLAIN)],
         "a triangulation of the 5-gon needs 5 diagonals, got 4"),
    ],
)
def test_mask_validation_messages(n, diagonals, message):
    with pytest.raises(ValueError) as exc:
        Triangulation(n, diagonals)
    assert str(exc.value) == message


def _assert_passes_the_boundary_check(t):
    # built unchecked by Triangulation._of, t must be what the checked
    # public constructor builds from its diagonals
    rebuilt = Triangulation(t.n, t.sorted_diagonals)
    assert (rebuilt, rebuilt.config, rebuilt.radius_bases) == (t, t.config, t.radius_bases)


@pytest.mark.parametrize("n", range(3, 10))
def test_class_map_matches_the_per_triangulation_oracle(n):
    classes = triangulation_classes(n)
    assert classes == _class_map_oracle(n)
    assert all(serialize_triangulation(t) == key for key, t in classes.items())
    assert triangulation_class_count(n) == len(classes)
    for t in classes.values():
        _assert_passes_the_boundary_check(t)


def test_the_image_test_passes_one_member_per_class():
    for n in range(3, 8):
        table = _diagonal_table(n)
        images, beaten = _orbit_images(table), _beaten(table)
        passed = {}
        for t in triangulations_by_flips(n):
            members = passed.setdefault(class_key(t), [])
            if not beaten(_packed(t, images)):
                members.append(t)
        assert all(len(members) == 1 for members in passed.values())


@pytest.mark.parametrize("n", range(3, 10))
def test_orderly_generation_matches_the_orbit_key_oracle(n):
    full = (1 << n * n) - 1
    masks = [orbit & full for orbit in _orbits(n)]
    keys = {class_key(Triangulation._of(n, mask)) for mask in masks}
    assert len(keys) == len(masks)
    assert keys == {class_key(Triangulation._of(n, mask)) for mask in class_masks_by_orbit_key(n)}
    assert triangulation_class_count(n) == len(keys)


def test_orderly_generation_yields_the_lex_least_image_and_sets_no_guard_bit(monkeypatch):
    tested = []

    def watched(table):
        size = len(table.diagonals)
        guards = sum(1 << k * (size + 1) + size for k in range(2 * table.n))
        real = _beaten(table)

        def beaten(images):
            assert not images & guards
            tested.append(images)
            return real(images)

        return beaten

    monkeypatch.setattr(polygon, "_beaten", watched)
    for n in range(3, 8):
        table = _diagonal_table(n)
        del tested[:]
        masks = {orbit & (1 << n * n) - 1 for orbit in _orbits(n)}
        assert tested
        for t in triangulations_by_flips(n):
            # lists compare lexicographically
            least = min(sorted(image) for image in _images(table, _bits(t.mask)))
            assert _mask(least) in masks


def test_each_orbit_packs_the_images_of_its_least_member_in_order():
    for n in range(3, 8):
        table = _diagonal_table(n)
        size = len(table.diagonals)
        for orbit in _orbits(n):
            fields = [orbit >> k * (size + 1) & (1 << size + 1) - 1 for k in range(2 * n)]
            assert fields == [_mask(image) for image in _images(table, _bits(fields[0]))]


def test_table_compatibility_matches_crossing_number():
    # the rows come from crossing_number, so they are checked against the
    # lift, which shares no code with it
    for n in range(3, 13):
        table = _diagonal_table(n)
        assert list(table.diagonals) == all_diagonals(n)
        for i, d in enumerate(table.diagonals):
            row = table.row(i)
            for j, e in enumerate(table.diagonals):
                assert (row >> j & 1) == (crossing_number_via_lift(d, e, n) == 0), (n, d, e)


def test_symmetries_and_class_key_match_oracles():
    for n in range(3, 7):
        for t in enumerate_triangulations(n):
            _assert_passes_the_boundary_check(t)
            assert _first_crossing(n, t.diagonals) is None
            assert [d for d in all_diagonals(n) if d in t.diagonals] == list(t.sorted_diagonals)
            assert serialize_triangulation(t) == _serialize(n, t.diagonals)
            key, representative = class_representative(t)
            assert key == class_key(t) == _class_key_oracle(t)
            assert serialize_triangulation(representative) == key
            _assert_passes_the_boundary_check(representative)
            inverted = invert_tags(t)
            assert inverted.diagonals == _inverted(t.diagonals)
            _assert_passes_the_boundary_check(inverted)
            for i in range(-1, n + 1):
                rotated = rotate(t, i)
                assert rotated.diagonals == _rotated(n, t.diagonals, i)
                _assert_passes_the_boundary_check(rotated)


def test_flip_matches_scan_oracle():
    for n in range(3, 7):
        for t in enumerate_triangulations(n):
            for d in t.sorted_diagonals:
                flipped = flip(t, d)
                assert flipped.diagonals == _flip_oracle(t, d)
                _assert_passes_the_boundary_check(flipped)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(7, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sampled_from((PLAIN, NOTCHED)),
            st.lists(st.integers(0, n - 1), min_size=1, max_size=16),
        )
    )
)
def test_flip_walk_matches_scan_oracle(case):
    n, tag, steps = case
    t = fan_triangulation(n, tag)
    for i in steps:
        d = t.sorted_diagonals[i]
        flipped = flip(t, d)
        assert flipped.diagonals == _flip_oracle(t, d)
        assert _first_crossing(n, flipped.diagonals) is None
        _assert_passes_the_boundary_check(flipped)
        t = flipped


def test_constructor_agrees_with_pairwise_oracle():
    for n in (3, 4):
        for ds in combinations(all_diagonals(n), n):
            crossing = _first_crossing(n, ds)
            assert is_triangulation(n, ds) == (crossing is None)
            if crossing is None:
                assert Triangulation(n, ds).diagonals == frozenset(ds)
            else:
                with pytest.raises(ValueError) as exc:
                    Triangulation(n, ds)
                assert str(exc.value) == f"diagonals cross: {crossing[0]} and {crossing[1]}"


@pytest.mark.parametrize("corruption", ["hide the replacement", "admit a crossing arc"])
def test_flip_asserts_unless_exactly_two_completions(monkeypatch, corruption):
    real = _diagonal_table(5)
    if corruption == "hide the replacement":
        change = lambda row: row & ~(1 << _index(5, Arc(4, 1)))
    else:
        change = lambda row: row | 1 << _index(5, Arc(0, 2))
    broken = SimpleNamespace(diagonals=real.diagonals, row=lambda i: change(real.row(i)))
    t = fan_triangulation(5)
    monkeypatch.setattr(polygon, "_diagonal_table", lambda n: broken)
    with pytest.raises(AssertionError, match="exactly two completions"):
        flip(t, Radius(0, PLAIN))


def test_fan_at_a_size_no_enumeration_reaches():
    fan = fan_triangulation(40)
    notched = fan_triangulation(40, NOTCHED)
    # "R0,n" sorts before "R0,p": the notched fan is the class representative
    assert class_key(fan) == class_key(notched) == serialize_triangulation(notched)
    assert class_key(fan) == _class_key_oracle(fan)
    flipped = flip(fan, Radius(0, PLAIN))
    (new,) = flipped.diagonals - fan.diagonals
    assert new == Arc(39, 1)
    assert flip(flipped, new) == fan


# -- oracle: the region recursion quiver_of used before the region decomposition


def _arrow_pairs_oracle(t):
    """Arrows of the adjacency quiver as (source, target) diagonal pairs."""
    n = t.n
    arcs = {(d.a, d.b): d for d in t.sorted_diagonals if isinstance(d, Arc)}
    radii = {(d.a, d.tag): d for d in t.sorted_diagonals if isinstance(d, Radius)}
    pairs = []

    def side(u, v):
        if v - u == 1:
            return None
        arc = arcs.get((u % n, v % n))
        if arc is None:
            raise AssertionError(f"missing side between {u} and {v}")
        return arc

    def side_exists(u, v):
        return v - u == 1 or (u % n, v % n) in arcs

    def apex(u, v):
        for w in range(u + 1, v):
            if side_exists(u, w) and side_exists(w, v):
                return w
        raise AssertionError(f"no apex between {u} and {v}")

    def emit(tri):
        for pos in range(3):
            s, pred = tri[pos], tri[pos - 1]
            if s is not None and pred is not None:
                pairs.append((s, pred))

    def fill_region(u, v):
        if v - u == 1:
            return
        w = apex(u, v)
        emit((side(u, w), side(w, v), side(u, v)))
        fill_region(u, w)
        fill_region(w, v)

    if t.config == "A":
        bases = list(t.radius_bases)
        tag = next(iter(radii))[1]
        m = len(bases)
        for i in range(m):
            u = bases[i]
            v = bases[(i + 1) % m] if i + 1 < m else bases[0] + n
            emit((radii[(u % n, tag)], side(u, v), radii[(v % n, tag)]))
            fill_region(u, v)
    else:
        a = t.radius_bases[0]
        w = apex(a, a + n)
        before, after = side(a, w), side(w, a + n)
        for tag in (PLAIN, NOTCHED):
            r = radii[(a, tag)]
            if before is not None:
                pairs.append((before, r))
            if after is not None:
                pairs.append((r, after))
        if before is not None and after is not None:
            pairs.append((after, before))
        fill_region(a, w)
        fill_region(w, a + n)
    return pairs


def _quiver_of_oracle(t):
    index = {d: i for i, d in enumerate(t.sorted_diagonals)}
    b = [[0] * t.n for _ in range(t.n)]
    for s, target in _arrow_pairs_oracle(t):
        b[index[s]][index[target]] += 1
        b[index[target]][index[s]] -= 1
    return tuple(tuple(row) for row in b)


def test_quiver_of_matches_region_recursion_oracle():
    for n in range(3, 9):
        for t in enumerate_triangulations(n):
            assert quiver_of(t).b == _quiver_of_oracle(t)


def test_quiver_of_passes_the_quiver_boundary_check_along_a_flip_walk():
    # quiver_of builds its Quiver unchecked; the public constructor must
    # agree, and so must the oracle, on the traffic of a 500-flip walk
    rng = random.Random("boundary:12")
    t = fan_triangulation(12)
    configs = set()
    for _ in range(500):
        q = quiver_of(t)
        assert Quiver(q.rank, q.b) == q
        assert q.b == _quiver_of_oracle(t), t
        assert q.arrows() == sorted(q.arrows())
        configs.add(t.config)
        t = flip(t, rng.choice(t.sorted_diagonals))
    assert configs == {"A", "B"}


# -- oracle: the quadratic apex search the decomposition sweep replaced


def _regions_oracle(t):
    """(start, end, tree) per region, trying every apex of every window."""
    n = t.n
    arcs = {(d.a, d.b) for d in t.sorted_diagonals if isinstance(d, Arc)}

    def is_side(u, v):
        return v - u == 1 or (u % n, v % n) in arcs

    def build(u, v):
        if v - u == 1:
            return LEAF
        for w in range(u + 1, v):
            if is_side(u, w) and is_side(w, v):
                return (build(u, w), build(w, v))
        raise AssertionError(f"no apex between {u} and {v}")

    bases = t.radius_bases
    ends = bases[1:] + (bases[0] + n,)
    return [(u, v, build(u, v)) for u, v in zip(bases, ends)]


def _tree_move_oracle(t, d):
    """The bead move for an arc flip, walking an apex dict built per region."""
    for i, (u, v, tree) in enumerate(_regions_oracle(t)):
        s = u + (d.a - u) % t.n
        e = s + span(d, t.n)
        if e > v:
            continue
        triangles = []
        _triangles(u, tree, triangles)
        apex = {(lo, hi): w for lo, w, hi in triangles}
        path, lo, hi = "", u, v
        while (lo, hi) != (s, e):
            w = apex[(lo, hi)]
            path += "L" if e <= w else "R"
            lo, hi = (lo, w) if e <= w else (w, hi)
        return ("rotate", i, path) if path else ("split", i)
    raise AssertionError(f"{d} not located in any segment")


def _assert_decomposition_matches_the_oracle(t):
    regions = _regions_oracle(t)
    triangles = []
    for u, _, tree in regions:
        _triangles(u, tree, triangles)
    assert _decomposition(t) == (tuple(regions), tuple(triangles)), t


def test_decomposition_matches_the_quadratic_oracle():
    for n in range(3, 9):
        for t in enumerate_triangulations(n):
            _assert_decomposition_matches_the_oracle(t)


@pytest.mark.parametrize("n", [30, 37, 44, 50])
def test_decomposition_and_maps_match_the_oracles_on_flip_walks(n):
    rng = random.Random(f"decomposition:{n}")
    t = fan_triangulation(n, rng.choice((PLAIN, NOTCHED)))
    for _ in range(150):
        _assert_decomposition_matches_the_oracle(t)
        assert quiver_of(t).b == _quiver_of_oracle(t)
        d = rng.choice(t.sorted_diagonals)
        if isinstance(d, Arc):
            assert tree_move_for_flip(t, d) == _tree_move_oracle(t, d)
        t = flip(t, d)


def test_every_map_of_a_triangulation_shares_one_decomposition(monkeypatch):
    calls = []

    def counting(t):
        calls.append(t)
        return decompose(t)

    decompose = polygon._decompose
    monkeypatch.setattr(polygon, "_decompose", counting)
    fan = fan_triangulation(6)
    pair = Triangulation(5, [Radius(0, PLAIN), Radius(0, NOTCHED), Arc(0, 2), Arc(0, 3), Arc(0, 4)])
    for t in (fan, flip(fan, Radius(0, PLAIN)), pair):
        quiver_of(t)
        star_tree_of(t)
        for d in t.sorted_diagonals:
            tree_move_for_flip(t, d)
        quiver_of(t)
        assert calls == [t]
        calls.clear()


def test_every_map_of_a_triangulation_builds_one_quiver(monkeypatch):
    calls = []

    def counting(t):
        calls.append(t)
        return build(t)

    build = polygon._build_quiver
    monkeypatch.setattr(polygon, "_build_quiver", counting)
    fan = fan_triangulation(6)
    pair = Triangulation(5, [Radius(0, PLAIN), Radius(0, NOTCHED), Arc(0, 2), Arc(0, 3), Arc(0, 4)])
    for t in (fan, flip(fan, Radius(0, PLAIN)), pair):
        q = quiver_of(t)
        star_tree_of(t)
        for d in t.sorted_diagonals:
            tree_move_for_flip(t, d)
        assert quiver_of(t) is q is t._quiver
        assert calls == [t]
        calls.clear()


def test_the_cached_quiver_is_per_object():
    t = flip(fan_triangulation(7), Radius(3, PLAIN))
    q = quiver_of(t)
    assert type(q) is Quiver and quiver_of(t) is q
    # a triangulation built equal to t, and each symmetry or flip of it,
    # builds its own quiver
    twin = Triangulation(7, t.diagonals)
    for other in (twin, flip(t, t.sorted_diagonals[0]), rotate(t, 0), rotate(t, 3), invert_tags(t)):
        assert other._quiver is None
    assert quiver_of(twin) == q and quiver_of(twin) is not q


def test_the_cached_decomposition_is_immutable():
    t = flip(fan_triangulation(7), Radius(3, PLAIN))
    regions, triangles = _decomposition(t)
    assert t._decomposition is _decomposition(t)
    assert type(t._decomposition) is type(regions) is type(triangles) is tuple
    assert all(type(x) is tuple for x in regions + triangles)
    # a triangulation built equal to t decomposes afresh, to an equal value
    twin = Triangulation(7, t.diagonals)
    assert twin._decomposition is None
    assert _decomposition(twin) == _decomposition(t)


def test_threads_sharing_fresh_triangulations_read_one_decomposition():
    ts = sorted(enumerate_triangulations(6), key=lambda t: t.mask)
    expected = [(quiver_of(t), star_tree_of(t)) for t in ts]
    fresh = [Triangulation(6, t.diagonals) for t in ts]
    results = [None] * 4

    def work(k):
        results[k] = [(quiver_of(t), star_tree_of(t)) for t in fresh]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4
    assert all(type(t._decomposition) is tuple for t in fresh)
    assert all(type(t._quiver) is Quiver for t in fresh)


def test_quiver_of_asserts_on_a_multiple_arrow(monkeypatch):
    decompose = polygon._decompose

    def doubled(t):
        # every puncture triangle twice doubles the fan's arrows
        regions, triangles = decompose(t)
        return regions + regions, triangles

    monkeypatch.setattr(polygon, "_decompose", doubled)
    fan = fan_triangulation(5)
    with pytest.raises(AssertionError, match="multiple arrow"):
        quiver_of(fan)
    assert fan._quiver is None


def test_decompose_asserts_when_a_side_has_no_apex():
    t = flip(fan_triangulation(6), Radius(2, PLAIN))
    # an arc across the radius at 4, slipped past validation: no pair of
    # sides runs from its start to an apex and on to its end
    broken = Triangulation.__new__(Triangulation)
    for slot in ("n", "mask", "config", "radius_bases"):
        setattr(broken, slot, getattr(t, slot))
    broken._sorted = t.sorted_diagonals + (Arc(3, 5),)
    broken._decomposition = None
    with pytest.raises(AssertionError, match="no apex between"):
        _decomposition(broken)


def test_quiver_vertex_needs_a_diagonal_of_the_triangulation():
    t = fan_triangulation(5)
    assert [quiver_vertex(t, d) for d in t.sorted_diagonals] == list(range(5))
    for d in (Arc(0, 2), Radius(0, NOTCHED)):
        with pytest.raises(ValueError) as vertex_error:
            quiver_vertex(t, d)
        with pytest.raises(ValueError) as flip_error:
            flip(t, d)
        assert str(vertex_error.value) == str(flip_error.value)
        assert str(vertex_error.value) == f"{d} is not a diagonal of the triangulation"


# each of these holds an int diagonal that a bool or float one equals, as
# Radius(True, PLAIN) == Radius(1, PLAIN); the fan holds the radii
_HOLDERS = [
    fan_triangulation(5),
    Triangulation(5, [Arc(0, 2)] + [Radius(a, PLAIN) for a in (2, 3, 4, 0)]),
    Triangulation(5, [Arc(4, 1)] + [Radius(a, PLAIN) for a in (1, 2, 3, 4)]),
]


@pytest.mark.parametrize(
    "d",
    [
        Arc([0], 2),
        Radius(0, [PLAIN]),
        [1, 2],
        Radius(True, PLAIN),
        Radius(1.0, PLAIN),
        Arc(0.0, 2),
        Arc(4, 1.0),
    ],
    ids=repr,
)
@pytest.mark.parametrize("call", [flip, quiver_vertex, factor_out, tree_move_for_flip])
def test_an_unhashable_diagonal_is_not_a_diagonal_of_the_triangulation(call, d):
    # d is checked as Triangulation(n, [d]) checks it: an unhashable
    # endpoint, tag or diagonal is a ValueError, not a TypeError, and a bool
    # or float endpoint is not read as the int one that t holds
    t = next((t for t in _HOLDERS if d in t.sorted_diagonals), _HOLDERS[0])
    with pytest.raises(ValueError) as err:
        call(t, d)
    assert str(err.value) == f"{d} is not a diagonal of the triangulation"


# -- a seeded flip walk: flips against mutations and tree moves, at every step


@pytest.mark.parametrize("n", [12, 20])
def test_a_seeded_flip_walk_commutes_with_mutation_and_tree_moves(n):
    rng = random.Random(f"flip walk:{n}")
    t = fan_triangulation(n)
    for _ in range(200):
        i = rng.randrange(n)
        d = t.sorted_diagonals[i]
        flipped = flip(t, d)
        assert canonical_key(mutate(quiver_of(t), i)) == canonical_key(quiver_of(flipped))
        moved = apply_tree_move(star_tree_of(t), tree_move_for_flip(t, d))
        assert tree_key(moved) == tree_key(star_tree_of(flipped))
        t = flipped
