import json
import random
import time
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
    mutation_class_representatives,
)

from helpers import edge_once_bfs, mutation_class


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Quiver(0, ()), "rank must be positive, got 0"),
        (lambda: Quiver(2, ((0, 1),)), "matrix shape does not match rank 2"),
        (lambda: Quiver(2, ((0, 1), (-1, 1))), "nonzero diagonal entry at vertex 1 (loop)"),
        (lambda: Quiver(3, ((0, 1, 0), (-1, 0, 1), (0, 1, 0))), "matrix is not skew-symmetric at (2,1)"),
        (lambda: Quiver.from_arrows(2, [(0, 1), (0, 2)]), "arrow (0,2) out of range for rank 2"),
        (lambda: Quiver.from_arrows(0, [(0, 1)]), "arrow (0,1) out of range for rank 0"),
        (lambda: Quiver.from_arrows(0, []), "rank must be positive, got 0"),
        (lambda: Quiver.from_arrows(3, [(0, 1), (2, 2)]), "loop at vertex 2 is not representable"),
    ],
)
def test_constructors_keep_their_errors(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        # equal to the integer quiver, a float matrix would key as "2:0,-1.0;1.0,0"
        (lambda: Quiver(2, ((0, 1.0), (-1.0, 0))), "matrix entry (0,1) is not an integer: 1.0"),
        (lambda: Quiver(2, ((0, -1), (True, 0))), "matrix entry (1,0) is not an integer: True"),
        (lambda: Quiver(2, ((0, 1.5), (-1.5, 0))), "matrix entry (0,1) is not an integer: 1.5"),
        (lambda: Quiver(True, ((0,),)), "rank must be an integer, got True"),
        (lambda: Quiver.from_arrows(2, [(0, 1.0)]), "arrow (0,1.0) has a vertex that is not an integer"),
        (lambda: Quiver.from_arrows(2, [(True, 0)]), "arrow (True,0) has a vertex that is not an integer"),
        (lambda: Quiver.from_arrows(2, [(0.5, 1)]), "arrow (0.5,1) has a vertex that is not an integer"),
        (lambda: Quiver.from_arrows(2.0, [(0, 1)]), "rank must be an integer, got 2.0"),
        # values that do not compare with an int, or do not negate
        (lambda: Quiver.from_arrows(2, [("a", 1)]), "arrow ('a',1) has a vertex that is not an integer"),
        (lambda: Quiver.from_arrows(2, [(0, None)]), "arrow (0,None) has a vertex that is not an integer"),
        (lambda: Quiver.from_arrows("2", [(0, 1)]), "rank must be an integer, got '2'"),
        (lambda: Quiver(2, ((0, "1"), ("-1", 0))), "matrix entry (0,1) is not an integer: '1'"),
        (lambda: Quiver(None, ((0,),)), "rank must be an integer, got None"),
        (lambda: dynkin_d(5.0), "type D needs an integer n, got 5.0"),
        (lambda: dynkin_a(4.0), "type A needs an integer n, got 4.0"),
        (lambda: dynkin_a(True), "type A needs an integer n, got True"),
        (lambda: dynkin_d(True), "type D needs an integer n, got True"),
        (lambda: dynkin_d(0.5), "type D needs an integer n, got 0.5"),
    ],
)
def test_constructors_reject_entries_that_are_not_integers(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "arrow, message",
    [
        (5, "arrow 5 is not a pair of vertices"),
        ((0, 1, 2), "arrow (0, 1, 2) is not a pair of vertices"),
        ((0,), "arrow (0,) is not a pair of vertices"),
        (None, "arrow None is not a pair of vertices"),
    ],
)
def test_from_arrows_rejects_an_arrow_that_is_not_a_pair(arrow, message):
    with pytest.raises(ValueError) as err:
        Quiver.from_arrows(2, [(0, 1), arrow])
    assert str(err.value) == message


def test_both_constructors_build_equal_quivers():
    assert Quiver(2, ((0, 1), (-1, 0))) == Quiver.from_arrows(2, [(0, 1)])
    assert hash(Quiver(2, ((0, 1), (-1, 0)))) == hash(Quiver.from_arrows(2, [(0, 1)]))
    # opposite arrows cancel; a double arrow is listed twice
    q = Quiver.from_arrows(3, [(2, 1), (0, 1), (1, 0), (0, 1), (2, 1)])
    assert q == Quiver(3, ((0, 1, 0), (-1, 0, -2), (0, 2, 0)))
    assert q.arrows() == [(0, 1), (2, 1), (2, 1)]
    assert q.b == ((0, 1, 0), (-1, 0, -2), (0, 2, 0))


def test_the_matrix_is_built_only_when_read():
    q = mutate(dynkin_d(6), 2)
    assert "b" not in vars(q)
    assert q.b[2] == (0, 1, 0, -1, 0, 0) and "b" in vars(q)


def _assert_passes_the_boundary_check(q):
    assert Quiver(q.rank, q.b) == q
    assert q.arrows() == sorted(q.arrows())


@pytest.mark.parametrize("n", range(3, 9))
def test_internal_builds_pass_the_boundary_check(n):
    for rep in mutation_class_representatives(dynkin_d(n)).values():
        _assert_passes_the_boundary_check(rep)
        for k in range(n):
            m = mutate(rep, k)
            _assert_passes_the_boundary_check(m)
            _assert_passes_the_boundary_check(canonical_form(m))


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
    # every "0" is truthy: a string must not pass for all edges forward
    with pytest.raises(ValueError, match=r"^orientation entries must be True or False, got \['0', '0', '0'\]$"):
        dynkin_d(4, "000")
    with pytest.raises(ValueError, match="^orientation entries must be True or False"):
        dynkin_a(3, orientation=[1, 0])


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


# -- the dense canonicalizer, kept as the oracle -------------------------------
#
# The canonicalizer and the mutation that worked on dense matrices: each
# refinement round sorts, for every vertex, its (colour, entry) pairs over
# all other vertices.  The sparse-row versions in dquiver.quiver must give
# the same keys, forms and mutations, byte for byte.


def _normalize(values):
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(rank[v] for v in values)


def _refine_oracle(b, n, colors):
    colors = _normalize(colors)
    while True:
        sigs = []
        for v in range(n):
            row = b[v]
            around = sorted((colors[u], row[u]) for u in range(n) if u != v)
            sigs.append((colors[v], tuple(around)))
        new = _normalize(sigs)
        if new == colors:
            return colors
        colors = new


def _serialize_oracle(b, n, perm):
    rows = ";".join(",".join(str(b[pi][pj]) for pj in perm) for pi in perm)
    return f"{n}:{rows}".encode()


def _canonical_oracle(b, n):
    best = best_perm = None
    stack = [_refine_oracle(b, n, (0,) * n)]
    while stack:
        colors = stack.pop()
        counts = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = next((c for c in sorted(counts) if counts[c] > 1), None)
        if target is None:
            perm = tuple(sorted(range(n), key=colors.__getitem__))
            cand = _serialize_oracle(b, n, perm)
            if best is None or cand < best:
                best, best_perm = cand, perm
            continue
        for v in range(n):
            if colors[v] == target:
                pushed = tuple((colors[u], 0 if u == v else 1) for u in range(n))
                stack.append(_refine_oracle(b, n, pushed))
    return best, best_perm


def _relabel(q, perm):
    return Quiver(q.rank, tuple(tuple(q.b[pi][pj] for pj in perm) for pi in perm))


def _mutate_oracle(q, k):
    b, n = q.b, q.rank
    return Quiver(n, tuple(
        tuple(
            -b[i][j] if k in (i, j)
            else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
            for j in range(n)
        )
        for i in range(n)
    ))


def _assert_matches_the_oracle(q):
    key, perm = _canonical_oracle(q.b, q.rank)
    assert canonical_key(q) == key
    assert canonical_form(q) == _relabel(q, perm)


@pytest.mark.parametrize("n", range(3, 9))
def test_every_mutation_of_every_representative_matches_the_oracle(n):
    for rep in mutation_class_representatives(dynkin_d(n)).values():
        for k in range(n):
            m = mutate(rep, k)
            assert m == _mutate_oracle(rep, k)
            _assert_matches_the_oracle(m)


MULTI_ARROW_ENTRIES = (1, -1, 2, -2, 10, -10, 12, -12)


@st.composite
def multi_arrow_quivers(draw):
    """Connected quivers of rank 1..8 with entries in MULTI_ARROW_ENTRIES.

    One of three shapes:

    - a circulant (b[i][j] depends on j - i mod n) around the cycle
      0 -> 1 -> ... -> n-1 -> 0.  Circulants are vertex-transitive, so the
      refinement leaves them one cell and their searches reach many leaves;
    - arrows along the path 0 - 1 - ... - n-1 and then any entries;
    - such a path quiver with up to four twins appended, each a copy of an
      earlier vertex's row: it has the same arrows to every other vertex
      and none between the two.  The search ends at cells of twins.

    The dense oracle prunes its search by no automorphism, so the path or
    the cycle keeps out quivers with huge automorphism groups (the rank-8
    quiver with no arrows has 8! leaves), and the twins stay few.
    """
    shape = draw(st.sampled_from(("circulant", "path", "twins")))
    if shape == "circulant":
        n = draw(st.integers(3, 8))
        step = {}
        for d in range(1, n // 2 + 1):
            entries = MULTI_ARROW_ENTRIES if d == 1 else MULTI_ARROW_ENTRIES + (0,)
            x = 0 if 2 * d == n else draw(st.sampled_from(entries))
            step[d], step[n - d] = x, -x
        return Quiver(n, tuple(
            tuple(0 if i == j else step[(j - i) % n] for j in range(n)) for i in range(n)
        ))
    n = draw(st.integers(2, 6) if shape == "twins" else st.integers(1, 8))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries = MULTI_ARROW_ENTRIES if j == i + 1 else MULTI_ARROW_ENTRIES + (0,)
            x = draw(st.sampled_from(entries))
            b[i][j], b[j][i] = x, -x
    if shape == "twins":
        for _ in range(draw(st.integers(1, min(4, 8 - n)))):
            v = draw(st.integers(0, len(b) - 1))
            for row in b:
                row.append(row[v])
            b.append(list(b[v]))
    return Quiver(len(b), tuple(map(tuple, b)))


@settings(max_examples=200, deadline=None)
@given(multi_arrow_quivers(), st.data())
def test_multi_arrow_quivers_match_the_oracle(q, data):
    _assert_matches_the_oracle(q)
    perm = data.draw(st.permutations(range(q.rank)))
    assert canonical_key(_relabel(q, perm)) == canonical_key(q)
    assert canonical_form(_relabel(q, perm)) == canonical_form(q)
    k = data.draw(st.integers(0, q.rank - 1))
    assert mutate(q, k) == _mutate_oracle(q, k)


# Every vertex of these quivers has one arrow in and one arrow out of each
# of two weights, so the refinement splits no cell and the search reaches
# leaves whose serializations differ; the key is the least of them as bytes,
# where "10" < "2" and "-1;" sorts after "-12".
@pytest.mark.parametrize(
    "b",
    [
        ((0, -10, -2, 2, 0, 10), (10, 0, 2, 0, -10, -2), (2, -2, 0, -10, 10, 0),
         (-2, 0, 10, 0, 2, -10), (0, 10, -10, -2, 0, 2), (-10, 2, 0, 10, -2, 0)),
        ((0, 0, -12, 0, -1, 12, 1), (0, 0, 1, 0, 12, -1, -12), (12, -1, 0, -12, 1, 0, 0),
         (0, 0, 12, 0, -12, 1, -1), (1, -12, -1, 12, 0, 0, 0), (-12, 1, 0, -1, 0, 0, 12),
         (-1, 12, 0, 1, 0, -12, 0)),
    ],
)
def test_search_keeps_the_least_of_leaves_that_differ(b):
    _assert_matches_the_oracle(Quiver(len(b), b))


# Shapes made of cells of twins: the search that individualized every twin
# reached n! leaves on the arrowless quiver.
TWIN_SHAPES = {
    "arrowless": lambda r: Quiver.from_arrows(r, []),
    "out-star": lambda r: Quiver.from_arrows(r, [(0, j) for j in range(1, r)]),
    "bipartite": lambda r: Quiver.from_arrows(
        r, [(i, j) for i in range(r // 2) for j in range(r // 2, r)]
    ),
}


@pytest.mark.parametrize(
    "shape, rank", [("arrowless", 9), ("arrowless", 12), ("out-star", 12), ("bipartite", 12)]
)
def test_twin_cells_end_the_search(shape, rank):
    q = TWIN_SHAPES[shape](rank)
    start = time.perf_counter()
    key, form = canonical_key(q), canonical_form(q)
    assert time.perf_counter() - start < 0.5
    relabeled = _relabel(q, random.Random(rank).sample(range(rank), rank))
    assert (canonical_key(relabeled), canonical_form(relabeled)) == (key, form)


@pytest.mark.parametrize("shape", TWIN_SHAPES)
def test_twin_shapes_match_the_oracle(shape):
    for rank in range(1, 8):
        _assert_matches_the_oracle(TWIN_SHAPES[shape](rank))


def test_a_cell_of_twins_and_other_vertices_is_split():
    # an oriented 3-cycle with each vertex doubled into twins: the
    # refinement keeps one cell, whose first two vertices are twins
    q = Quiver.from_arrows(
        6, [(a, b) for a in range(6) for b in range(6) if b // 2 == (a // 2 + 1) % 3]
    )
    _assert_matches_the_oracle(q)


def test_keys_are_equal_iff_the_quivers_are_isomorphic():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2014)

    def digraph(q):
        g = nx.DiGraph()
        g.add_nodes_from(range(q.rank))
        g.add_edges_from(
            (i, j, {"arrows": q.b[i][j]})
            for i in range(q.rank) for j in range(q.rank) if q.b[i][j] > 0
        )
        return g

    def relabeled(q):
        return _relabel(q, rng.sample(range(q.rank), q.rank))

    def walk():
        q = dynkin_d(6)
        for _ in range(rng.randrange(16)):
            q = mutate(q, rng.randrange(6))
        return relabeled(q)

    def multi_arrow():
        n = rng.randint(3, 6)
        arrows = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.3]
        return Quiver.from_arrows(n, arrows + rng.sample(arrows, len(arrows) // 3))

    outcomes = set()
    for make in (walk, multi_arrow):
        for _ in range(150):
            a = make()
            b = relabeled(a) if rng.random() < 0.3 else make()
            if a.rank != b.rank:
                continue
            iso = nx.is_isomorphic(
                digraph(a), digraph(b), edge_match=lambda x, y: x["arrows"] == y["arrows"]
            )
            assert (canonical_key(a) == canonical_key(b)) == iso, (a, b)
            outcomes.add((make.__name__, iso))
    assert len(outcomes) == 4


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


MARKOV = Quiver(3, ((0, 2, -2), (-2, 0, 2), (2, -2, 0)))
KRONECKER = Quiver(2, ((0, 2), (-2, 0)))
ORIENTED_4_CYCLE = Quiver.from_arrows(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
# the acyclic 4-cycles with two arrows each way and with three one way:
# affine, so of finite mutation type, in two different classes
A_TILDE_2_2 = Quiver.from_arrows(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
A_TILDE_1_3 = Quiver.from_arrows(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
# acyclic triangle of triple arrows: of infinite mutation type
TRIPLE_ARROWS = Quiver.from_arrows(3, [(0, 1)] * 3 + [(1, 2)] * 3 + [(0, 2)] * 3)


def dynkin_e(n):
    """The E_n tree: the path 0 - ... - (n-2) with vertex n-1 attached to 2."""
    return Quiver.from_arrows(n, [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)])


def _bits_id(bits):
    return "".join("01"[b] for b in bits)


@pytest.mark.parametrize(
    "seed",
    [
        *(
            pytest.param(dynkin_d(6, bits), id="D6-" + _bits_id(bits))
            for bits in product((True, False), repeat=5)
        ),
        pytest.param(dynkin_a(6), id="A6"),
        # one class, and every mutation leads back to it
        pytest.param(MARKOV, id="markov"),
        pytest.param(KRONECKER, id="kronecker"),
        # the class of D_4, seeded off the Dynkin diagram
        pytest.param(ORIENTED_4_CYCLE, id="oriented-4-cycle"),
    ],
)
def test_bfs_matches_the_two_pass_oracle(seed):
    got = mutation_class_representatives(seed)
    assert list(got.items()) == list(_two_pass_bfs_oracle(seed).items())


@pytest.mark.parametrize("n", [5, 6, 7])
def test_bfs_canonicalizes_each_quiver_once(monkeypatch, n):
    calls, mutations = [], []
    real_canonical, real_mutate = quiver_module._canonical, quiver_module._mutate_rows
    monkeypatch.setattr(
        quiver_module, "_canonical",
        lambda rows, rank: calls.append(rank) or real_canonical(rows, rank),
    )
    monkeypatch.setattr(
        quiver_module, "_mutate_rows", lambda rows, k: mutations.append(k) or real_mutate(rows, k)
    )
    mutation_class_representatives(dynkin_d(n))
    # the seed, then every quiver the BFS mutates to: its key and its
    # canonical form come from one search
    assert len(calls) == 1 + len(mutations)


@pytest.mark.parametrize("n, calls", [(5, 59), (6, 188), (7, 624), (8, 2228)])
def test_bfs_canonicalizes_each_exchange_edge_once(monkeypatch, n, calls):
    seen = []
    real = quiver_module._canonical
    monkeypatch.setattr(
        quiver_module, "_canonical", lambda rows, rank: seen.append(rank) or real(rows, rank)
    )
    r = len(mutation_class_representatives(dynkin_d(n)))
    assert len(seen) == calls
    # fewer than the seed and every mutation of every representative but
    # the one leading back to the class it was reached from: an edge
    # between two known classes is canonicalized from one end at most, and
    # the fourth edge of a square of commuting mutations from neither
    assert calls < 1 + n * r - (r - 1)


def _bfs_outcome(bfs, seed, max_classes):
    try:
        return list(bfs(seed, max_classes=max_classes).items())
    except BoundExceededError as err:
        return str(err)


def _seeded_orientation(n, seed):
    return tuple(random.Random(seed).choices((True, False), k=n - 1))


@pytest.mark.parametrize(
    "seed, max_classes",
    [
        *(
            pytest.param(dynkin_d(n, bits), 10_000_000, id=f"D{n}-{_bits_id(bits)}")
            for n in range(3, 8)
            for bits in product((True, False), repeat=n - 1)
        ),
        *(
            pytest.param(dynkin_d(n, bits), 10_000_000, id=f"D{n}-{_bits_id(bits)}")
            for n in (8, 9)
            for bits in (_seeded_orientation(n, s) for s in range(6))
        ),
        *(pytest.param(dynkin_a(n), 10_000_000, id=f"A{n}") for n in range(1, 9)),
        *(pytest.param(dynkin_e(n), 10_000_000, id=f"E{n}") for n in (6, 7, 8)),
        pytest.param(MARKOV, 10_000_000, id="markov"),
        pytest.param(KRONECKER, 10_000_000, id="kronecker"),
        pytest.param(A_TILDE_2_2, 10_000_000, id="affine-A-2-2"),
        pytest.param(A_TILDE_1_3, 10_000_000, id="affine-A-1-3"),
        pytest.param(TRIPLE_ARROWS, 50, id="triple-arrows"),
    ],
)
def test_bfs_matches_the_edge_once_oracle(seed, max_classes):
    got = _bfs_outcome(mutation_class_representatives, seed, max_classes)
    assert got == _bfs_outcome(edge_once_bfs, seed, max_classes)
    assert isinstance(got, str) == (seed is TRIPLE_ARROWS)


def test_the_e_trees_have_their_class_sizes():
    # the known sizes of the exceptional finite-type mutation classes
    assert [len(mutation_class(dynkin_e(n))) for n in (6, 7, 8)] == [67, 416, 1574]


@pytest.mark.parametrize(
    "seed",
    [
        *(pytest.param(dynkin_d(n), id=f"D{n}") for n in (5, 6, 7)),
        pytest.param(dynkin_d(8, _seeded_orientation(8, 0)), id="D8-seeded"),
        pytest.param(dynkin_e(6), id="E6"),
        pytest.param(A_TILDE_2_2, id="affine-A-2-2"),
    ],
)
def test_bfs_skips_only_edges_to_known_classes(monkeypatch, seed):
    n = seed.rank
    found, mutated = [], []
    real_canonical, real_mutate = quiver_module._canonical, quiver_module._mutate_rows

    def canonical(rows, rank):
        key, perm = real_canonical(rows, rank)
        found.append(key)
        return key, perm

    def mutate_rows(rows, k):
        # the BFS mutates the rows of a class's stored form
        mutated.append((quiver_module._quiver(rows, range(n)), k, len(found)))
        return real_mutate(rows, k)

    monkeypatch.setattr(quiver_module, "_canonical", canonical)
    monkeypatch.setattr(quiver_module, "_mutate_rows", mutate_rows)
    reps = mutation_class_representatives(seed)
    monkeypatch.undo()
    # a class is dequeued, in the order of reps, right before its first
    # mutation, and one mutated at no vertex right before the next class's
    key_of = {rep: key for key, rep in reps.items()}
    dequeued, done = {}, {key: set() for key in reps}
    for form, k, count in mutated:
        dequeued.setdefault(key_of[form], count)
        done[key_of[form]].add(k)
    first_found = {}
    for i, key in enumerate(found):
        first_found.setdefault(key, i)
    at, skipped = len(found), 0
    for key in reversed(reps):
        at = dequeued.get(key, at)
        for v in set(range(n)) - done[key]:
            assert first_found[canonical_key(mutate(reps[key], v))] < at, (key, v)
            skipped += 1
    assert skipped == n * len(reps) - len(mutated) > 0


def test_class_cap_is_enforced():
    with pytest.raises(BoundExceededError):
        mutation_class(dynkin_d(5), max_classes=3)


# a Quiver stores one (i, j, m) per joined pair, so its size does not grow
# with m; a store of one entry per arrow copy would need 10**12 of them here


def test_a_huge_multiplicity_is_stored_once():
    q = Quiver(2, ((0, 10**12), (-10**12, 0)))
    assert q._arrows == ((0, 1, 10**12),)
    m = mutate(q, 0)
    assert m._arrows == ((1, 0, 10**12),)
    assert m.b == ((0, -(10**12)), (10**12, 0))
    assert canonical_key(q) == canonical_key(m) == b"2:0,-1000000000000;1000000000000,0"
    assert mutate(m, 1) == q


def test_the_class_cap_fires_on_a_seed_whose_multiplicities_explode():
    # acyclic triangle of triple arrows: one mutation path takes its largest
    # multiplicity through 12, 393, 12957, 5092068, 65977924683, ~3.4e17
    q = TRIPLE_ARROWS
    for k in [1, 0, 2, 1, 0, 2, 1]:
        q = mutate(q, k)
    assert len(q._arrows) == 3
    assert max(m for _, _, m in q._arrows) == 335964078984701487
    with pytest.raises(BoundExceededError):
        mutation_class_representatives(TRIPLE_ARROWS, max_classes=50)


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
