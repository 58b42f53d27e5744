"""Quivers stored as their sorted arrows.

A quiver is a finite directed graph with no loops and no oriented 2-cycles.
A ``Quiver`` stores its rank and its arrows, sorted, as ``(i, j, m)`` for
m > 0 arrows i -> j, so its size grows with its joined pairs of vertices,
not with their multiplicities.  Its exchange matrix ``b``, where ``b[i][j]``
is the number of arrows i -> j minus the number of arrows j -> i, is
derived from them when read.  Mutation and canonicalization work on sparse rows of that matrix,
which cannot represent a 2-cycle at all; that makes the cancellation step of
quiver mutation automatic.

``Quiver(rank, b)`` and ``Quiver.from_arrows`` check every value once;
``Quiver.from_json_obj`` checks only the JSON shape and the size limit.
Every quiver built inside the package (a mutation, a canonical form, a
class representative, ``polygon.quiver_of``) goes through ``Quiver._of``
unchecked, from arrows that are valid by construction.

All values are immutable after construction (``b`` is cached on first read,
and two threads reading it at once compute the same value) and every
function here is pure, so concurrent callers need no locking.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from functools import cached_property
from operator import attrgetter

from .errors import BoundExceededError, _check_int, _check_type

Matrix = tuple[tuple[int, ...], ...]

# largest rank a JSON quiver may declare.  Reading, mutating and writing a
# quiver costs time linear in its rank and its arrows, about 0.7 us per
# vertex and 3 us per arrow: ``mutate --what quiver`` at this rank takes
# 0.14 s on a path, 0.11 s of it Python's start-up, and 1.7 s on a vertex
# joined to all others with half the other pairs joined (250 249 arrows),
# on a shared 2-core host
MAX_JSON_RANK = 1000

__all__ = [
    "Quiver",
    "mutate",
    "canonical_form",
    "canonical_key",
    "mutation_class_representatives",
    "delete_vertex",
    "is_connected",
    "dynkin_a",
    "dynkin_d",
]


def _check_rank(rank: int) -> None:
    _check_type("rank", rank)
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")


class _Value:
    """A value, equal and hashed by the fields its class names once.

    ``class Cls(_Value, fields=(...))`` keeps them as ``_fields`` and ``_key``,
    which reads them as one tuple in one C call, so equality and hashing never
    loop in Python.  The repr is ``Cls(f=v, ...)``, and attributes are
    read-only.  A copy or a pickle is ``Cls._of(*fields)``, the constructor
    unless a class has its own, so it holds the fields and nothing else.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields: tuple[str, ...]) -> None:
        cls._fields, cls._key = fields, attrgetter(*fields)

    @classmethod
    def _of(cls, *fields):
        return cls(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key(self)))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # the fields alone: a quiver's ``b`` and a triangulation's views stay behind
        return type(self)._of, self._key(self)


class Quiver(_Value, fields=("rank", "_arrows")):
    """Quiver on vertices 0..rank-1, stored as its rank and sorted arrows.

    ``_arrows`` holds ``(i, j, m)`` for each pair with m = b[i][j] > 0.

    ``Quiver(rank, b)`` checks the exchange matrix ``b`` and keeps its
    arrows; ``b`` is derived from them, and cached, when read.  Equality and
    hashing are over the rank and the arrows, and the fields cannot be set.
    """

    rank: int
    _arrows: tuple[tuple[int, int, int], ...]

    def __init__(self, rank: int, b: Matrix) -> None:
        _check_rank(rank)
        # rows are read by iterating and checked by indexing, so both must
        # agree: a dict or a set row would not
        if not (isinstance(b, (list, tuple)) and all(isinstance(row, (list, tuple)) for row in b)):
            raise ValueError(f"matrix {b!r} is not a sequence of rows")
        if not (len(b) == rank and all(len(row) == rank for row in b)):
            raise ValueError(f"matrix shape does not match rank {rank}")
        arrows = []
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                # type(...) is int: a bool or a float is rejected, not reinterpreted
                if type(x) is not int:
                    raise ValueError(f"matrix entry ({i},{j}) is not an integer: {x!r}")
                if x > 0:
                    arrows.append((i, j, x))
        for i in range(rank):
            if b[i][i] != 0:
                raise ValueError(f"nonzero diagonal entry at vertex {i} (loop)")
            for j in range(i):
                if b[i][j] != -b[j][i]:
                    raise ValueError(f"matrix is not skew-symmetric at ({i},{j})")
        vars(self).update(rank=rank, _arrows=tuple(arrows))

    @classmethod
    def _of(cls, rank: int, arrows: tuple[tuple[int, int, int], ...]) -> "Quiver":
        """The quiver with these sorted ``(i, j, m)``, free of 2-cycles: no check."""
        q = object.__new__(cls)
        vars(q).update(rank=rank, _arrows=arrows)
        return q

    @classmethod
    def from_arrows(cls, rank: int, arrows: Iterable[tuple[int, int]]) -> "Quiver":
        _check_rank(rank)
        try:
            arrows = list(arrows)
        except TypeError:
            raise ValueError(f"arrows {arrows!r} are not an iterable of pairs") from None
        for arrow in arrows:
            try:
                i, j = arrow
            except (TypeError, ValueError):
                raise ValueError(f"arrow {arrow!r} is not a pair of vertices") from None
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"arrow ({i!r},{j!r}) has a vertex that is not an integer")
            if not (0 <= i < rank and 0 <= j < rank):
                raise ValueError(f"arrow ({i},{j}) out of range for rank {rank}")
            if i == j:
                raise ValueError(f"loop at vertex {i} is not representable")
        return _quiver(_rows(rank, ((i, j, 1) for i, j in arrows)), range(rank))

    @cached_property
    def b(self) -> Matrix:
        """Exchange matrix: b[i][j] is the number of arrows i -> j minus j -> i."""
        rows = _rows(self.rank, self._arrows)
        return tuple(tuple(row.get(j, 0) for j in range(self.rank)) for row in rows)

    def arrows(self) -> list[tuple[int, int]]:
        """All arrows as (source, target), with multiplicity, sorted."""
        return [(i, j) for i, j, m in self._arrows for _ in range(m)]

    def to_json_obj(self) -> dict:
        return {"rank": self.rank, "arrows": [list(a) for a in self.arrows()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Quiver":
        if not isinstance(obj, dict) or "rank" not in obj or "arrows" not in obj:
            raise ValueError('expected an object with "rank" and "arrows"')
        rank, arrows = obj["rank"], obj["arrows"]
        # the size limit first, so that a rank past it exits 3 whatever else is wrong
        if type(rank) is int and rank > MAX_JSON_RANK:
            raise BoundExceededError(f"rank {rank} exceeds the JSON rank limit {MAX_JSON_RANK}")
        if not isinstance(arrows, list):
            raise ValueError(f'"arrows" must be a list, got {arrows!r}')
        # from_arrows checks the rank and every arrow; a JSON [i, j] unpacks as a pair
        return cls.from_arrows(rank, arrows)

    def to_dot(self) -> str:
        lines = ["digraph quiver {"]
        for v in range(self.rank):
            lines.append(f"  {v};")
        for i, j in self.arrows():
            lines.append(f"  {i} -> {j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- sparse rows -------------------------------------------------------------
#
# Mutation and canonicalization work on sparse rows, built from the stored
# arrows in one pass: rows[v] maps each neighbour u of v to b[v][u], which is
# nonzero.  A vertex of a quiver in a D_n mutation class has at most five
# neighbours, so one mutation changes O(deg^2) entries, and ``_quiver``
# writes the rows back as sorted arrows.

Rows = list[dict[int, int]]


def _rows(rank: int, arrows: Iterable[tuple[int, int, int]]) -> Rows:
    """Rows of the arrows ``(i, j, m)``; opposite arrows leave 0s, which ``_quiver`` drops."""
    rows: Rows = [{} for _ in range(rank)]
    for i, j, m in arrows:
        rows[i][j] = rows[i].get(j, 0) + m
        rows[j][i] = rows[j].get(i, 0) - m
    return rows


def _positions(perm: Sequence[int]) -> list[int]:
    """pos[v] = a for v = perm[a]: where the relabeling puts each vertex."""
    pos = [0] * len(perm)
    for a, v in enumerate(perm):
        pos[v] = a
    return pos


def _quiver(rows: Rows, perm: Sequence[int]) -> Quiver:
    """The quiver that puts vertex perm[a] of ``rows`` at position a."""
    pos = _positions(perm)
    arrows = sorted([(pos[v], pos[u], x) for v, row in enumerate(rows)
                     for u, x in row.items() if x > 0])
    return Quiver._of(len(perm), tuple(arrows))


def _mutate_rows(rows: Rows, k: int) -> Rows:
    """``rows`` mutated at k; the rows of k's non-neighbours are shared."""
    around = rows[k]
    new = list(rows)
    new[k] = {u: -x for u, x in around.items()}
    for u in around:
        row = new[u] = dict(rows[u])
        row[k] = -row[k]
    # every path i -> k -> j, of a arrows and then c arrows, adds a*c arrows
    # i -> j; the arrows j -> i it meets cancel against them
    sources = [(i, -x) for i, x in around.items() if x < 0]
    targets = [(j, x) for j, x in around.items() if x > 0]
    for i, a in sources:
        row_i = new[i]
        for j, c in targets:
            x = row_i.get(j, 0) + a * c
            if x:
                row_i[j] = x
                new[j][i] = -x
            else:
                del row_i[j]
                del new[j][i]
    return new


def _check_vertex(q: Quiver, k: int) -> None:
    _check_type("vertex", k)
    if not 0 <= k < q.rank:
        raise IndexError(f"vertex {k} out of range for rank {q.rank}")


def mutate(q: Quiver, k: int) -> Quiver:
    """Mutate ``q`` at vertex ``k``.

    Entries in row/column k flip sign; any other entry becomes
    b[i][j] + (|b[i][k]| b[k][j] + b[i][k] |b[k][j]|) / 2.  Mutating twice
    at the same vertex returns the original quiver.
    """
    _check_vertex(q, k)
    return _quiver(_mutate_rows(_rows(q.rank, q._arrows), k), range(q.rank))


def delete_vertex(q: Quiver, k: int) -> Quiver:
    """Full subquiver on the other rank-1 vertices, labels compacted."""
    if q.rank < 2:
        raise ValueError("cannot delete a vertex from a rank-1 quiver")
    _check_vertex(q, k)
    # lowering the labels past k keeps the arrows sorted
    arrows = tuple((i - (i > k), j - (j > k), m) for i, j, m in q._arrows if k != i and k != j)
    return Quiver._of(q.rank - 1, arrows)


def is_connected(q: Quiver) -> bool:
    """True iff the underlying undirected graph is connected."""
    rows = _rows(q.rank, q._arrows)
    seen, frontier = {0}, [0]
    while frontier:
        for u in rows[frontier.pop()].keys() - seen:
            seen.add(u)
            frontier.append(u)
    return len(seen) == q.rank


# -- canonical forms ---------------------------------------------------------
#
# Colour refinement (the 1-dimensional refinement of McKay and Piperno,
# "Practical graph isomorphism II", 2014) of an ordered partition of the
# vertices, then a search that individualizes one vertex of the first
# cell holding two vertices with different rows at a time, re-refines, and
# keeps the least matrix serialization over all leaves reached.  The
# refinement and the choice of the split cell are relabeling-invariant, so
# the winning serialization is a canonical form.
#
# Twins are two vertices with equal rows: they have the same entries to
# every other vertex and none between them, so swapping them and fixing
# every other vertex is an automorphism.  A cell of twins is never split:
# individualizing one of them would refine nothing, since every vertex has
# equal entries to all of them, and every order of the cell serializes the
# same.  So a node whose cells are each one vertex or twins is a leaf, and
# its labeling is the cells in order.  This is the cheapest exact case of
# the automorphism pruning of McKay and Piperno; it ends the search on a
# quiver with no arrows at its first node, where it would reach n! leaves.
#
# A round splits every cell at once, against the partition the round
# started from, and puts the parts in place of the cell, ordered by
# signature.  A vertex's signature holds one count per (cell, entry value)
# over the matrix's entry alphabet, 0 included: the number of its entries
# of that value into that cell, negated.  The 0 slot holds the number of
# nonzero entries into the cell instead, which differs from the negated
# count of zeros by the same amount for every vertex of one cell.  Among
# the vertices of one cell these tuples order exactly as the sorted
# (cell, entry) lists of their dense rows do, since such lists have
# equally long runs per cell; so this is the dense refinement, computed
# from the nonzero entries alone.


def _equitable(rows: Rows, cells: list[list[int]], slot: dict[int, int]) -> list[list[int]]:
    """Refine the ordered partition ``cells`` until no cell splits."""
    n = len(rows)
    width = len(slot)
    zero = slot[0]
    # base[u] is the 0 slot of u's cell in the signature, and base[u] +
    # shift[x] the slot of the entries x into that cell
    shift = {x: s - zero for x, s in slot.items()}
    base = [0] * n
    while len(cells) < n:
        for c, cell in enumerate(cells):
            at = c * width + zero
            for v in cell:
                base[v] = at
        size = len(cells) * width
        parts = []
        for cell in cells:
            if len(cell) == 1:
                parts.append(cell)
                continue
            by_signature: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                counts = [0] * size
                for u, x in rows[v].items():
                    at = base[u]
                    counts[at] += 1
                    counts[at + shift[x]] -= 1
                by_signature.setdefault(tuple(counts), []).append(v)
            parts.extend(by_signature[s] for s in sorted(by_signature))
        if len(parts) == len(cells):
            break
        cells = parts
    return cells


def _serialize(rows: Rows, perm: Sequence[int]) -> bytes:
    """The serialization of the matrix that puts vertex perm[a] at position a."""
    n = len(perm)
    pos = _positions(perm)
    lines = []
    for v in perm:
        line = ["0"] * n
        for u, x in rows[v].items():
            line[pos[u]] = str(x)
        lines.append(",".join(line))
    return f"{n}:{';'.join(lines)}".encode()


def _canonical(rows: Rows, n: int) -> tuple[bytes, tuple[int, ...]]:
    """The canonical serialization of ``rows`` and a labeling that gives it."""
    alphabet = sorted({0}.union(*(row.values() for row in rows)))
    slot = {x: i for i, x in enumerate(alphabet)}
    best = best_perm = None
    stack = [_equitable(rows, [list(range(n))], slot)]
    while stack:
        cells = stack.pop()
        # split the first cell holding two vertices with different rows; a
        # node whose every cell is one vertex or twins is a leaf
        for t, cell in enumerate(cells):
            if len(cell) > 1:
                row = rows[cell[0]]
                if any(rows[u] != row for u in cell):
                    break
        else:
            perm = tuple(v for cell in cells for v in cell)
            cand = _serialize(rows, perm)
            if best is None or cand < best:
                best, best_perm = cand, perm
            continue
        for v in cell:
            split = cells[:t] + [[v], [u for u in cell if u != v]] + cells[t + 1 :]
            stack.append(_equitable(rows, split, slot))
    assert best is not None and best_perm is not None
    return best, best_perm


def canonical_key(q: Quiver) -> bytes:
    """Byte string equal for two quivers iff they are isomorphic."""
    return _canonical(_rows(q.rank, q._arrows), q.rank)[0]


def canonical_form(q: Quiver) -> Quiver:
    """The relabeling of ``q`` whose serialization is canonical_key(q)."""
    rows = _rows(q.rank, q._arrows)
    return _quiver(rows, _canonical(rows, q.rank)[1])


# -- mutation classes --------------------------------------------------------


def mutation_class_representatives(
    seed: Quiver, *, max_classes: int = 10_000_000
) -> dict[bytes, Quiver]:
    """All isomorphism classes reachable from ``seed`` by mutation, in key order.

    Breadth-first search over pairs {Q, Q^op} of a class and its opposite,
    in which each edge of the exchange graph between two pairs is
    canonicalized at most once.  Taking the opposite, b -> -b, keeps every
    vertex label and commutes with mutation, so the search queues only the
    member of each pair found first, the pair's class.  Its opposite, the
    partner, is canonicalized once, from the class's form with its arrows
    reversed, and stored too unless it is the same class.  An edge that
    reaches a partner by the labeling ``perm`` is read as reaching the
    pair's class by ``perm2[q[a]] = perm[a]``, a labeling of the mutated
    quiver's opposite, where ``q`` labeled the partner's form.  Each mutated
    quiver is canonicalized once, on sparse rows; a ``Quiver``, unchecked,
    is built only for a new pair.

    A queued class keeps the set of its vertices whose mutation is known to
    lead to a known pair, and is mutated only at the others: when mutating
    at k reaches a class by the labeling ``perm``, mutating that class's
    stored form at ``perm.index(k)`` leads back to the pair, since the
    stored form is the mutated quiver, or its opposite, relabeled by
    ``perm`` (equal keys give equal forms) and mutation is an involution.

    Squares of the exchange graph close without a canonicalization.  When
    a class A is mutated at two vertices j, k with b[j][k] = 0, reaching
    B at k by the labeling ``pb`` and C at j by ``pc``, then mu_j mu_k =
    mu_k mu_j: B's edge at ``pb.index(j)`` and C's edge at ``pc.index(k)``
    reach one pair D, and D's edge at the position of A's vertex k leads
    back to C (at j, to B).  Both queued classes keep the square, and
    whichever of the two edges is canonicalized first marks the other one,
    and D's edge back to its partner, as leading to a known pair.

    Every skipped edge leads to a pair known before it is skipped, so the
    pairs are those of mutating every class at every vertex.  The class is
    closed under opposites once the search meets a class that is its own
    opposite or an edge that reaches a partner; then both members of every
    pair are returned.  Otherwise every edge stayed among the queued
    classes, so each pair has exactly one member in the class, the queued
    one, and only those are returned.  Each representative is its class's
    canonical form, so the result does not depend on the search order.
    The cap guards against seeds of non-finite mutation type: the search
    raises iff the class has more than ``max_classes`` members.
    """
    _check_int("mutation_class_representatives", "max_classes", max_classes, 1)
    if not is_connected(seed):
        raise ValueError("seed quiver must be connected")
    n = seed.rank
    reps: dict[bytes, Quiver] = {}
    # partner key -> its pair's class and the labeling q that puts vertex
    # q[a] of the opposite of the class's form at position a of its form
    partners: dict[bytes, tuple[bytes, tuple[int, ...]]] = {}
    # queued class -> the set of its vertices whose mutation leads to a
    # known pair, as a bitmask
    known: dict[bytes, int] = {}
    # queued class -> its squares, flat to keep the store small: each four
    # entries v, partner, w, back say that its edge at v and the partner's
    # edge at w reach one pair, whose class's edge at the position of
    # vertex back (of the quiver mutated at v) leads to the partner
    squares: dict[bytes, list] = {}
    queue: deque[bytes] = deque()

    def new_pair(m: Rows, key: bytes, perm: tuple[int, ...], bits: int) -> bool:
        """Store and queue a new class and its partner; True iff it is self-opposite."""
        form = reps[key] = _quiver(m, perm)
        known[key] = bits
        queue.append(key)
        opposite = _rows(n, [(j, i, x) for i, j, x in form._arrows])
        okey, q = _canonical(opposite, n)
        if okey == key:
            return True
        reps[okey] = _quiver(opposite, q)
        partners[okey] = key, q
        return False

    rows = _rows(n, seed._arrows)
    closed = new_pair(rows, *_canonical(rows, n), 0)
    while queue:
        here = queue.popleft()
        skip = known.pop(here)
        rows = _rows(n, reps[here]._arrows)
        reached = {}
        for k in range(n):
            if skip >> k & 1:
                continue
            m = _mutate_rows(rows, k)
            key, perm = _canonical(m, n)
            if key in partners:
                key, q = partners[key]
                perm = [perm[a] for a in _positions(q)]
                closed = True
            if key in known:
                known[key] |= 1 << perm.index(k)
            elif key not in reps:
                closed = new_pair(m, key, perm, 1 << perm.index(k)) or closed
            reached[k] = key, perm
        pending = squares.pop(here, [])
        for i in range(0, len(pending), 4):
            v, partner, w, back = pending[i : i + 4]
            if v in reached:
                key, perm = reached[v]
                if partner in known:
                    known[partner] |= 1 << w
                if key in known:
                    known[key] |= 1 << perm.index(back)
        edges = list(reached.items())
        for a, (j, (c, pc)) in enumerate(edges):
            for k, (b, pb) in edges[a + 1 :]:
                if j in rows[k] or b not in known or c not in known:
                    continue
                v, w = pb.index(j), pc.index(k)
                if known[b] >> v & 1 or known[c] >> w & 1:
                    continue
                squares.setdefault(b, []).extend((v, c, w, pb.index(k)))
                squares.setdefault(c, []).extend((w, b, v, pc.index(j)))
        # members never leave the class and it is closed for good once
        # proven, so no later count is smaller
        if len(reps) - (0 if closed else len(partners)) > max_classes:
            raise BoundExceededError(
                f"mutation class exceeded {max_classes} classes; "
                "the seed is probably not of finite mutation type"
            )
    return {key: reps[key] for key in sorted(reps) if closed or key not in partners}


# -- Dynkin seeds ------------------------------------------------------------


def _oriented(edges: list[tuple[int, int]], orientation) -> list[tuple[int, int]]:
    if orientation is None:
        return edges
    orientation = list(orientation)
    # only bools: a "0" is truthy and would silently keep its edge forward
    if any(type(keep) is not bool for keep in orientation):
        raise ValueError(f"orientation entries must be True or False, got {orientation!r}")
    if len(orientation) != len(edges):
        raise ValueError(
            f"orientation needs {len(edges)} entries, got {len(orientation)}"
        )
    return [(u, v) if keep else (v, u) for (u, v), keep in zip(edges, orientation)]


def dynkin_a(n: int, orientation: Sequence[bool] | None = None) -> Quiver:
    """An orientation of the A_n path 0 - 1 - ... - n-1 (default: forward)."""
    _check_int("type A", "n", n, 1)
    edges = [(i, i + 1) for i in range(n - 1)]
    return Quiver.from_arrows(n, _oriented(edges, orientation))


def dynkin_d(n: int, orientation: Sequence[bool] | None = None) -> Quiver:
    """An orientation of the D_n diagram (default: all edges forward).

    The diagram is the path 0 - 1 - ... - (n-3) with the fork vertices
    n-2 and n-1 both attached to n-3.  D_3 coincides with the A_3 path.
    """
    _check_int("type D", "n", n, 3)
    edges = [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    return Quiver.from_arrows(n, _oriented(edges, orientation))
