import json
from collections import deque
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dquiver import quiver as quiver_module
from dquiver.counting import d_count
from dquiver.errors import BoundExceededError
from dquiver.quiver import (
    Quiver,
    canonical_form,
    canonical_key,
    delete_vertex,
    dynkin_a,
    dynkin_d,
    is_connected,
    mutate,
    mutation_class,
    mutation_class_representatives,
)


def arrows_set(q):
    return set(q.arrows())


# -- construction -------------------------------------------------------------


def test_quiver_rejects_loops_and_asymmetry():
    with pytest.raises(ValueError):
        Quiver.from_arrows(2, [(0, 0)])
    with pytest.raises(ValueError):
        Quiver(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Quiver(2, ((1, 0), (0, 1)))


def test_dynkin_shapes():
    d4 = dynkin_d(4)
    assert arrows_set(d4) == {(0, 1), (1, 2), (1, 3)}
    assert arrows_set(dynkin_d(3)) == {(0, 1), (0, 2)}
    assert arrows_set(dynkin_a(4)) == {(0, 1), (1, 2), (2, 3)}
    assert dynkin_a(1).rank == 1
    with pytest.raises(ValueError):
        dynkin_d(2)


def test_orientation_argument():
    q = dynkin_a(3, orientation=[True, False])
    assert arrows_set(q) == {(0, 1), (2, 1)}
    with pytest.raises(ValueError):
        dynkin_a(3, orientation=[True])


# -- mutation ------------------------------------------------------------------


def test_mutation_moves_fork_example():
    # star-shaped D_4 orientation: mutating the tip 2 only reverses its arrow
    q = Quiver.from_arrows(4, [(0, 1), (1, 2), (3, 1)])
    assert arrows_set(mutate(q, 2)) == {(0, 1), (2, 1), (3, 1)}


def test_mutation_at_middle_of_path_creates_cycle():
    q = dynkin_a(3)
    assert arrows_set(mutate(q, 1)) == {(1, 0), (2, 1), (0, 2)}


def test_mutation_out_of_range():
    with pytest.raises(IndexError):
        mutate(dynkin_a(3), 3)


def random_walk_quivers():
    """Strategy: a quiver somewhere inside a small type-A/D mutation class."""

    @st.composite
    def build(draw):
        n = draw(st.integers(3, 6))
        seed = dynkin_d(n) if draw(st.booleans()) else dynkin_a(n)
        for k in draw(st.lists(st.integers(0, n - 1), max_size=10)):
            seed = mutate(seed, k)
        return seed

    return build()


@given(random_walk_quivers(), st.data())
def test_mutation_is_an_involution(q, data):
    k = data.draw(st.integers(0, q.rank - 1))
    assert mutate(mutate(q, k), k) == q


@given(random_walk_quivers(), st.data())
def test_mutation_preserves_skew_symmetry(q, data):
    k = data.draw(st.integers(0, q.rank - 1))
    m = mutate(q, k)
    assert all(m.b[i][j] == -m.b[j][i] for i in range(m.rank) for j in range(m.rank))


# -- canonical forms -----------------------------------------------------------


def test_canonical_key_identifies_relabelings():
    a = Quiver.from_arrows(2, [(0, 1)])
    b = Quiver.from_arrows(2, [(1, 0)])
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_separates_cycle_from_path():
    cycle = Quiver.from_arrows(3, [(0, 1), (1, 2), (2, 0)])
    path = dynkin_a(3)
    assert canonical_key(cycle) != canonical_key(path)


@settings(max_examples=150)
@given(random_walk_quivers(), st.data())
def test_canonical_key_constant_on_permutation_orbit(q, data):
    perm = data.draw(st.permutations(range(q.rank)))
    relabeled = Quiver(
        q.rank,
        tuple(tuple(q.b[perm[i]][perm[j]] for j in range(q.rank)) for i in range(q.rank)),
    )
    assert canonical_key(relabeled) == canonical_key(q)


@given(random_walk_quivers())
def test_canonical_form_realizes_the_key(q):
    form = canonical_form(q)
    assert canonical_key(form) == canonical_key(q)
    assert form.rank == q.rank


# -- mutation classes ----------------------------------------------------------


@pytest.mark.parametrize("n,count", [(3, 4), (4, 6), (5, 26)])
def test_mutation_class_sizes(n, count):
    assert len(mutation_class(dynkin_d(n))) == count


def test_a3_class_coincides_with_d3():
    assert mutation_class(dynkin_a(3)) == mutation_class(dynkin_d(3))


def test_all_orientations_give_the_same_class():
    from itertools import product

    for n in (4, 5):
        reference = mutation_class(dynkin_d(n))
        for bits in product((True, False), repeat=n - 1):
            assert mutation_class(dynkin_d(n, bits)) == reference


def test_entries_stay_unit_along_classes():
    for seed in (dynkin_a(5), dynkin_d(6)):
        for rep in mutation_class_representatives(seed).values():
            assert all(abs(e) <= 1 for row in rep.b for e in row)


def test_class_representatives_are_canonical_and_connected():
    reps = mutation_class_representatives(dynkin_d(5))
    assert len(reps) == d_count(5)
    for key, rep in reps.items():
        assert canonical_key(rep) == key
        assert is_connected(rep)


def _two_pass_bfs_oracle(seed):
    """The BFS that ran canonical_key and then canonical_form on a new class."""
    rep = canonical_form(seed)
    reps = {canonical_key(seed): rep}
    queue = deque([rep])
    while queue:
        q = queue.popleft()
        for k in range(q.rank):
            m = mutate(q, k)
            key = canonical_key(m)
            if key not in reps:
                reps[key] = canonical_form(m)
                queue.append(reps[key])
    return reps


def test_bfs_matches_the_two_pass_oracle_on_every_d5_orientation():
    for bits in product((True, False), repeat=4):
        seed = dynkin_d(5, bits)
        got = mutation_class_representatives(seed)
        assert list(got.items()) == list(_two_pass_bfs_oracle(seed).items())


@pytest.mark.parametrize("n", [5, 6, 7])
def test_bfs_canonicalizes_each_quiver_once(monkeypatch, n):
    calls = []
    real = quiver_module._canonical
    monkeypatch.setattr(quiver_module, "_canonical", lambda b, rank: calls.append(rank) or real(b, rank))
    reps = mutation_class_representatives(dynkin_d(n))
    # the seed, then every mutation of every class representative
    assert len(calls) == 1 + n * len(reps)


def test_class_cap_is_enforced():
    with pytest.raises(BoundExceededError):
        mutation_class(dynkin_d(5), max_classes=3)


def test_disconnected_seed_rejected():
    q = Quiver.from_arrows(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        mutation_class(q)


# -- subquivers and connectivity ------------------------------------------------


def test_delete_vertex_examples():
    cycle = Quiver.from_arrows(3, [(0, 1), (1, 2), (2, 0)])
    assert arrows_set(delete_vertex(cycle, 2)) == {(0, 1)}
    assert arrows_set(delete_vertex(dynkin_a(3), 2)) == {(0, 1)}
    fork = Quiver.from_arrows(4, [(0, 1), (1, 2), (3, 1)])
    assert arrows_set(delete_vertex(fork, 0)) == {(0, 1), (2, 0)}
    with pytest.raises(ValueError):
        delete_vertex(dynkin_a(1), 0)


def test_is_connected():
    assert is_connected(Quiver.from_arrows(3, [(0, 1), (1, 2), (2, 0)]))
    assert not is_connected(Quiver.from_arrows(4, [(0, 1), (2, 3)]))
    for rep in mutation_class_representatives(dynkin_d(5)).values():
        assert is_connected(rep)


# -- serialization ---------------------------------------------------------------


def test_json_round_trip():
    q = dynkin_d(5)
    again = Quiver.from_json_obj(json.loads(json.dumps(q.to_json_obj())))
    assert again == q


def test_json_rejects_junk():
    with pytest.raises(ValueError):
        Quiver.from_json_obj([1, 2, 3])
    with pytest.raises(ValueError):
        Quiver.from_json_obj({"rank": 0, "arrows": []})


def test_dot_output():
    dot = Quiver.from_arrows(2, [(0, 1)]).to_dot()
    assert dot.startswith("digraph")
    assert "0 -> 1;" in dot
