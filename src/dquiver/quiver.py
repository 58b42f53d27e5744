"""Quivers as skew-symmetric integer matrices.

A quiver is a finite directed graph with no loops and no oriented 2-cycles,
encoded by its exchange matrix ``b`` where ``b[i][j]`` is the number of
arrows i -> j minus the number of arrows j -> i.  The encoding cannot
represent a 2-cycle at all, which makes the cancellation step of quiver
mutation automatic.

All values are immutable after construction and every function here is
pure, so concurrent callers need no locking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BoundExceededError

Matrix = tuple[tuple[int, ...], ...]

# largest rank a JSON quiver may declare: its dense matrix is allocated
# before any arrow is read, and mutating a quiver of this rank takes from
# 0.13 s (a path) to 0.37 s (a vertex joined to all others, half the other
# pairs joined) on a shared 2-core host
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


@dataclass(frozen=True)
class Quiver:
    """Quiver on vertices 0..rank-1 with exchange matrix ``b``."""

    rank: int
    b: Matrix

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if len(self.b) != self.rank or any(len(row) != self.rank for row in self.b):
            raise ValueError(f"matrix shape does not match rank {self.rank}")
        for i in range(self.rank):
            if self.b[i][i] != 0:
                raise ValueError(f"nonzero diagonal entry at vertex {i} (loop)")
            for j in range(i):
                if self.b[i][j] != -self.b[j][i]:
                    raise ValueError(f"matrix is not skew-symmetric at ({i},{j})")

    @classmethod
    def from_arrows(cls, rank: int, arrows: Iterable[tuple[int, int]]) -> "Quiver":
        b = [[0] * rank for _ in range(rank)]
        for i, j in arrows:
            if not (0 <= i < rank and 0 <= j < rank):
                raise ValueError(f"arrow ({i},{j}) out of range for rank {rank}")
            if i == j:
                raise ValueError(f"loop at vertex {i} is not representable")
            b[i][j] += 1
            b[j][i] -= 1
        return cls(rank, tuple(tuple(row) for row in b))

    def arrows(self) -> list[tuple[int, int]]:
        """All arrows as (source, target), with multiplicity, sorted."""
        out = []
        for i in range(self.rank):
            for j in range(self.rank):
                if self.b[i][j] > 0:
                    out.extend([(i, j)] * self.b[i][j])
        return out

    def to_json_obj(self) -> dict:
        return {"rank": self.rank, "arrows": [list(a) for a in self.arrows()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Quiver":
        if not isinstance(obj, dict) or "rank" not in obj or "arrows" not in obj:
            raise ValueError('expected an object with "rank" and "arrows"')
        rank, arrows = obj["rank"], obj["arrows"]
        # type(...) is int: a bool or a float is rejected, not reinterpreted
        if type(rank) is not int or rank < 1:
            raise ValueError(f"invalid rank: {rank!r}")
        if not isinstance(arrows, list):
            raise ValueError(f'"arrows" must be a list, got {arrows!r}')
        for a in arrows:
            if not (isinstance(a, list) and len(a) == 2 and all(type(v) is int for v in a)):
                raise ValueError(f"an arrow is a pair of integer vertices, got {a!r}")
        if rank > MAX_JSON_RANK:
            raise BoundExceededError(f"rank {rank} exceeds the JSON rank limit {MAX_JSON_RANK}")
        return cls.from_arrows(rank, (tuple(a) for a in arrows))

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
# Mutation and canonicalization work on sparse rows: rows[v] maps each
# neighbour u of v to b[v][u], which is nonzero.  A vertex of a quiver in a
# D_n mutation class has at most five neighbours, so one mutation changes
# O(deg^2) entries where the dense matrix has n^2.

Rows = list[dict[int, int]]


def _rows(b: Matrix) -> Rows:
    return [{u: x for u, x in enumerate(row) if x} for row in b]


def _positions(perm: Sequence[int]) -> list[int]:
    """pos[v] = a for v = perm[a]: where the relabeling puts each vertex."""
    pos = [0] * len(perm)
    for a, v in enumerate(perm):
        pos[v] = a
    return pos


def _dense(rows: Rows, perm: Sequence[int]) -> Matrix:
    """The matrix that puts vertex perm[a] of ``rows`` at position a."""
    n = len(perm)
    pos = _positions(perm)
    out = []
    for v in perm:
        row = [0] * n
        for u, x in rows[v].items():
            row[pos[u]] = x
        out.append(tuple(row))
    return tuple(out)


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


def mutate(q: Quiver, k: int) -> Quiver:
    """Mutate ``q`` at vertex ``k``.

    Entries in row/column k flip sign; any other entry becomes
    b[i][j] + (|b[i][k]| b[k][j] + b[i][k] |b[k][j]|) / 2.  Mutating twice
    at the same vertex returns the original quiver.
    """
    n = q.rank
    if not 0 <= k < n:
        raise IndexError(f"vertex {k} out of range for rank {n}")
    return Quiver(n, _dense(_mutate_rows(_rows(q.b), k), range(n)))


def delete_vertex(q: Quiver, k: int) -> Quiver:
    """Full subquiver on the other rank-1 vertices, labels compacted."""
    if q.rank < 2:
        raise ValueError("cannot delete a vertex from a rank-1 quiver")
    if not 0 <= k < q.rank:
        raise IndexError(f"vertex {k} out of range for rank {q.rank}")
    keep = [v for v in range(q.rank) if v != k]
    return Quiver(q.rank - 1, tuple(tuple(q.b[i][j] for j in keep) for i in keep))


def is_connected(q: Quiver) -> bool:
    """True iff the underlying undirected graph is connected."""
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in range(q.rank):
            if u not in seen and q.b[v][u] != 0:
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
    return _canonical(_rows(q.b), q.rank)[0]


def canonical_form(q: Quiver) -> Quiver:
    """The relabeling of ``q`` whose serialization is canonical_key(q)."""
    rows = _rows(q.b)
    return Quiver(q.rank, _dense(rows, _canonical(rows, q.rank)[1]))


# -- mutation classes --------------------------------------------------------


def mutation_class_representatives(
    seed: Quiver, *, max_classes: int = 10_000_000
) -> dict[bytes, Quiver]:
    """All isomorphism classes reachable from ``seed`` by mutation.

    Breadth-first search over canonical keys, in which each edge of the
    exchange graph between two classes is canonicalized once.  A queued
    class keeps the set of its vertices whose mutation is known to lead to
    a known class, and is mutated only at the others: when mutating at k
    reaches a class by the labeling ``perm``, mutating that class's stored
    form at ``perm.index(k)`` leads back, since the stored form is the
    mutated quiver relabeled by ``perm`` (equal keys give equal forms) and
    mutation is an involution.  Each mutated quiver is canonicalized once,
    on sparse rows; a validated ``Quiver`` is built only for a new class.
    The stored representative of each class is its canonical form, so the
    result is deterministic.  The cap guards against seeds of non-finite
    mutation type.
    """
    if not is_connected(seed):
        raise ValueError("seed quiver must be connected")
    n = seed.rank
    rows = _rows(seed.b)
    key, perm = _canonical(rows, n)
    reps = {key: Quiver(n, _dense(rows, perm))}
    # queued class -> the set of its vertices whose mutation leads to a
    # known class, as a bitmask
    known = {key: 0}
    queue = deque([key])
    while queue:
        here = queue.popleft()
        skip = known.pop(here)
        rows = _rows(reps[here].b)
        for k in range(n):
            if skip >> k & 1:
                continue
            m = _mutate_rows(rows, k)
            key, perm = _canonical(m, n)
            if key in known:
                known[key] |= 1 << perm.index(k)
            elif key not in reps:
                if len(reps) >= max_classes:
                    raise BoundExceededError(
                        f"mutation class exceeded {max_classes} classes; "
                        "the seed is probably not of finite mutation type"
                    )
                reps[key] = Quiver(n, _dense(m, perm))
                known[key] = 1 << perm.index(k)
                queue.append(key)
    return reps


# -- Dynkin seeds ------------------------------------------------------------


def _oriented(edges: list[tuple[int, int]], orientation) -> list[tuple[int, int]]:
    if orientation is None:
        return edges
    orientation = list(orientation)
    if len(orientation) != len(edges):
        raise ValueError(
            f"orientation needs {len(edges)} entries, got {len(orientation)}"
        )
    return [(u, v) if keep else (v, u) for (u, v), keep in zip(edges, orientation)]


def dynkin_a(n: int, orientation: Sequence[bool] | None = None) -> Quiver:
    """An orientation of the A_n path 0 - 1 - ... - n-1 (default: forward)."""
    if n < 1:
        raise ValueError(f"type A needs n >= 1, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    return Quiver.from_arrows(n, _oriented(edges, orientation))


def dynkin_d(n: int, orientation: Sequence[bool] | None = None) -> Quiver:
    """An orientation of the D_n diagram (default: all edges forward).

    The diagram is the path 0 - 1 - ... - (n-3) with the fork vertices
    n-2 and n-1 both attached to n-3.  D_3 coincides with the A_3 path.
    """
    if n < 3:
        raise ValueError(f"type D needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    return Quiver.from_arrows(n, _oriented(edges, orientation))
