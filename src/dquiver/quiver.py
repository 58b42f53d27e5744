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
# before any arrow is read, and mutating a quiver of this rank takes about
# half a second
MAX_JSON_RANK = 1000

__all__ = [
    "Quiver",
    "mutate",
    "canonical_form",
    "canonical_key",
    "mutation_class",
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


def mutate(q: Quiver, k: int) -> Quiver:
    """Mutate ``q`` at vertex ``k``.

    Entries in row/column k flip sign; any other entry becomes
    b[i][j] + (|b[i][k]| b[k][j] + b[i][k] |b[k][j]|) / 2.  Mutating twice
    at the same vertex returns the original quiver.
    """
    n = q.rank
    if not 0 <= k < n:
        raise IndexError(f"vertex {k} out of range for rank {n}")
    b = q.b
    new = []
    for i in range(n):
        row = []
        bik = b[i][k]
        for j in range(n):
            if i == k or j == k:
                row.append(-b[i][j])
            else:
                bkj = b[k][j]
                row.append(b[i][j] + (abs(bik) * bkj + bik * abs(bkj)) // 2)
        new.append(tuple(row))
    return Quiver(n, tuple(new))


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
# Vertex coloring is refined by (color, incident entry) multisets; the search
# individualizes one vertex of the first non-singleton color class at a time,
# re-refines, and keeps the lexicographically smallest matrix serialization
# over all discrete colorings reached.  The refinement and the choice of the
# split cell are relabeling-invariant, so the winning serialization is a
# canonical form.


def _normalize(values) -> tuple[int, ...]:
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(rank[v] for v in values)


def _refine(b: Matrix, n: int, colors) -> tuple[int, ...]:
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


def _serialize(b: Matrix, n: int, perm: Sequence[int]) -> bytes:
    rows = ";".join(
        ",".join(str(b[pi][pj]) for pj in perm) for pi in perm
    )
    return f"{n}:{rows}".encode()


def _canonical(b: Matrix, n: int) -> tuple[bytes, tuple[int, ...]]:
    best: bytes | None = None
    best_perm: tuple[int, ...] | None = None
    stack = [_refine(b, n, (0,) * n)]
    while stack:
        colors = stack.pop()
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = next((c for c in sorted(counts) if counts[c] > 1), None)
        if target is None:
            perm = tuple(sorted(range(n), key=colors.__getitem__))
            cand = _serialize(b, n, perm)
            if best is None or cand < best:
                best, best_perm = cand, perm
            continue
        for v in range(n):
            if colors[v] == target:
                pushed = tuple(
                    (colors[u], 0 if u == v else 1) for u in range(n)
                )
                stack.append(_refine(b, n, pushed))
    assert best is not None and best_perm is not None
    return best, best_perm


def canonical_key(q: Quiver) -> bytes:
    """Byte string equal for two quivers iff they are isomorphic."""
    return _canonical(q.b, q.rank)[0]


def _relabel(q: Quiver, perm: Sequence[int]) -> Quiver:
    return Quiver(q.rank, tuple(tuple(q.b[pi][pj] for pj in perm) for pi in perm))


def canonical_form(q: Quiver) -> Quiver:
    """The relabeling of ``q`` whose serialization is canonical_key(q)."""
    return _relabel(q, _canonical(q.b, q.rank)[1])


# -- mutation classes --------------------------------------------------------


def mutation_class_representatives(
    seed: Quiver, *, max_classes: int = 10_000_000
) -> dict[bytes, Quiver]:
    """All isomorphism classes reachable from ``seed`` by mutation.

    Breadth-first search over canonical keys, one canonicalization per
    quiver; the stored representative of each class is its canonical form,
    so the result is deterministic.  The cap guards against seeds of
    non-finite mutation type.
    """
    if not is_connected(seed):
        raise ValueError("seed quiver must be connected")
    key, perm = _canonical(seed.b, seed.rank)
    reps = {key: _relabel(seed, perm)}
    queue = deque(reps.values())
    while queue:
        q = queue.popleft()
        for k in range(q.rank):
            m = mutate(q, k)
            key, perm = _canonical(m.b, m.rank)
            if key not in reps:
                if len(reps) >= max_classes:
                    raise BoundExceededError(
                        f"mutation class exceeded {max_classes} classes; "
                        "the seed is probably not of finite mutation type"
                    )
                form = _relabel(m, perm)
                reps[key] = form
                queue.append(form)
    return reps


def mutation_class(seed: Quiver, *, max_classes: int = 10_000_000) -> set[bytes]:
    """Canonical keys of every quiver mutation-equivalent to ``seed``."""
    return set(mutation_class_representatives(seed, max_classes=max_classes))


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
