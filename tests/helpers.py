"""Helpers that the tests share and the package does not need.

Besides shortcuts over the package's enumerations, these are the slow but
obviously-right oracles that the package's fast paths are tested against:
crossing numbers on the 2n-gon double cover, the flip closure of the fan,
the pairwise triangulation predicate, the serializer, the clique search
with no pruning and the class search over it that keeps each clique equal
to its least packed image, the star tree counts on tables of bead codes
and on key tables built up to n - 2 leaves, the star generation that
recurses once per bead and the one whose runs had only leaf and two-leaf
tails,
Euler's totient by trial division, the bytearray sieve of Eratosthenes
over every integer, the central binomial one prime at a time, the quiver BFS that canonicalizes every exchange-graph edge between
classes and the one that closes squares of them, both over classes rather
than opposite pairs, and dataclass twins of the package's value classes.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Callable, Iterable, Iterator

from dquiver.errors import BoundExceededError
from dquiver.polygon import (
    Arc,
    Diagonal,
    Radius,
    Triangulation,
    _DiagonalTable,
    _bits,
    _diagonal_table,
    _index,
    _mask,
    _orbit_images,
    check_diagonal,
    fan_triangulation,
    flip,
    span,
)
from dquiver.quiver import (
    Quiver,
    _canonical,
    _mutate_rows,
    _quiver,
    _rows,
    is_connected,
    mutation_class_representatives,
)
from dquiver.trees import LEAF, _bead_tables, _join_codes, _join_keys, _least_rotations, star_tree_classes


def mutation_class(seed: Quiver, *, max_classes: int = 10_000_000) -> set[bytes]:
    """Canonical keys of every quiver mutation-equivalent to ``seed``."""
    return set(mutation_class_representatives(seed, max_classes=max_classes))


def enumerate_star_trees(n: int) -> set[bytes]:
    """Keys of all rotation classes of star trees with n leaves."""
    return set(star_tree_classes(n))


def opposite(q: Quiver) -> Quiver:
    """The opposite quiver, of exchange matrix -b: every arrow reversed."""
    return Quiver(q.rank, tuple(tuple(-x for x in row) for row in q.b))


def edge_once_bfs(seed: Quiver, *, max_classes: int = 10_000_000) -> dict[bytes, Quiver]:
    """``square_closing_bfs`` without closing squares.

    Each queued class is mutated at every vertex whose edge is not yet known
    to lead to a known class, so every exchange-graph edge between two
    classes is canonicalized once: the BFS that square closing replaced.
    """
    if not is_connected(seed):
        raise ValueError("seed quiver must be connected")
    n = seed.rank
    rows = _rows(n, seed._arrows)
    key, perm = _canonical(rows, n)
    reps = {key: _quiver(rows, perm)}
    known = {key: 0}
    queue = deque([key])
    while queue:
        here = queue.popleft()
        skip = known.pop(here)
        rows = _rows(n, reps[here]._arrows)
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
                reps[key] = _quiver(m, perm)
                known[key] = 1 << perm.index(k)
                queue.append(key)
    return reps


def square_closing_bfs(seed: Quiver, *, max_classes: int = 10_000_000) -> dict[bytes, Quiver]:
    """``mutation_class_representatives`` over classes, not opposite pairs.

    The BFS that the pair search replaced: it mutates every class it
    reaches, skips an edge known to lead to a known class, closes squares of
    commuting mutations (see ``mutation_class_representatives``), and
    returns the classes in the order it found them.
    """
    if not is_connected(seed):
        raise ValueError("seed quiver must be connected")
    n = seed.rank
    rows = _rows(n, seed._arrows)
    key, perm = _canonical(rows, n)
    reps = {key: _quiver(rows, perm)}
    # queued class -> the set of its vertices whose mutation leads to a
    # known class, as a bitmask
    known = {key: 0}
    # queued class -> its squares, flat to keep the store small: each four
    # entries v, partner, w, back say that its edge at v and the partner's
    # edge at w reach one class, whose edge at the position of vertex back
    # (of the quiver mutated at v) leads to the partner
    squares: dict[bytes, list] = {}
    queue = deque([key])
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
            if key in known:
                known[key] |= 1 << perm.index(k)
            elif key not in reps:
                if len(reps) >= max_classes:
                    raise BoundExceededError(
                        f"mutation class exceeded {max_classes} classes; "
                        "the seed is probably not of finite mutation type"
                    )
                reps[key] = _quiver(m, perm)
                known[key] = 1 << perm.index(k)
                queue.append(key)
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
    return reps


# -- dataclass twins ----------------------------------------------------------


class twin:
    """``Arc``, ``Radius`` and ``Quiver`` as the frozen dataclasses they were.

    Their generated ``repr``, equality, hashing, immutability and pickling
    are the oracle of the package's plain classes; a twin's repr is the
    plain one prefixed with ``twin.``.
    """

    @dataclass(frozen=True)
    class Arc:
        a: int
        b: int

    @dataclass(frozen=True)
    class Radius:
        a: int
        tag: str

    @dataclass(frozen=True)
    class Quiver:
        rank: int
        _arrows: tuple[tuple[int, int, int], ...]


def twin_of(value: Arc | Radius | Quiver):
    """The dataclass twin of ``value``, field for field."""
    if isinstance(value, Quiver):
        return twin.Quiver(value.rank, value._arrows)
    if isinstance(value, Arc):
        return twin.Arc(value.a, value.b)
    return twin.Radius(value.a, value.tag)


# -- crossing numbers on the double cover -------------------------------------


@dataclass(frozen=True)
class ChordLift:
    """Lift of a diagonal to the 2n-gon double cover branched at the puncture.

    Arcs lift to a centrally symmetric pair of chords; radii lift to a
    single diameter remembering the tag as its color.
    """

    chords: tuple[tuple[int, int], ...]
    color: str | None = None


@lru_cache(maxsize=None)
def chord_lift(d: Diagonal, n: int) -> ChordLift:
    # cached: the all-pairs differential tests lift each diagonal n^2 times
    check_diagonal(d, n)
    if isinstance(d, Radius):
        return ChordLift(((d.a, d.a + n),), d.tag)
    k = span(d, n)
    return ChordLift(((d.a, (d.a + k) % (2 * n)), ((d.a + n) % (2 * n), (d.a + k + n) % (2 * n))))


def _strictly_inside(c: int, a: int, b: int, m: int) -> bool:
    """Is c strictly inside the ccw interval (a, b) of Z_m?"""
    return 0 < (c - a) % m < (b - a) % m


def _chords_cross(c1: tuple[int, int], c2: tuple[int, int], m: int) -> bool:
    p, q = c1
    r, s = c2
    if p in (r, s) or q in (r, s):
        return False
    return _strictly_inside(r, p, q, m) != _strictly_inside(s, p, q, m)


def crossing_number_via_lift(d1: Diagonal, d2: Diagonal, n: int) -> int:
    """Crossing number of two diagonals, with arcs read on the double cover.

    Two radii cross iff their bases and their tags differ.  Otherwise the
    crossing number is half the number of strictly interleaving pairs of
    lifted chords, which come in centrally symmetric pairs.
    """
    if isinstance(d1, Radius) and isinstance(d2, Radius):
        check_diagonal(d1, n)
        check_diagonal(d2, n)
        return int(d1.a != d2.a and d1.tag != d2.tag)
    m = 2 * n
    count = sum(
        _chords_cross(c1, c2, m)
        for c1 in chord_lift(d1, n).chords
        for c2 in chord_lift(d2, n).chords
    )
    if count % 2:
        raise AssertionError(f"odd chord crossing count for {d1}, {d2}")
    return count // 2


# -- triangulations ------------------------------------------------------------


def serialize_triangulation(t: Triangulation) -> bytes:
    tokens = _diagonal_table(t.n).tokens
    return f"{t.n}|{';'.join(tokens[i] for i in _bits(t.mask))}".encode()


def is_triangulation(n: int, ds: Iterable[Diagonal]) -> bool:
    """True iff ``ds`` has n elements and all pairs are non-crossing."""
    lst = list(ds)
    for d in lst:
        check_diagonal(d, n)
    if len(set(lst)) != n or len(lst) != n:
        return False
    table = _diagonal_table(n)
    mask = _mask(_index(n, d) for d in lst)
    return all(not mask & ~table.row(i) for i in _bits(mask))


def unpruned_cliques(table: _DiagonalTable, weights: list[int]) -> Iterator[int]:
    """The OR of ``weights`` over each triangulation, by clique search.

    Backtracks in index order over the compatibility masks of all
    diagonals for size-n sets of pairwise compatible ones (each is maximal,
    hence a triangulation), ORing in ``weights[i]`` for each chosen i.  The
    search of ``polygon._orbits`` with no pruning: it reaches every
    triangulation, not only the least member of each class.
    """
    n = table.n
    compat = [table.row(i) for i in range(len(weights))]
    stack = [((1 << len(compat)) - 1, n, 0)]
    while stack:
        rest, need, acc = stack.pop()
        if rest.bit_count() < need:
            continue
        while rest:
            low = rest & -rest
            rest ^= low
            if rest.bit_count() + 1 < need:
                break
            i = low.bit_length() - 1
            out = acc | weights[i]
            if need == 1:
                yield out
            else:
                stack.append((rest & compat[i], need - 1, out))


def triangulations_by_clique_search(n: int) -> set[Triangulation]:
    """Every triangulation, one per clique of the unpruned search.

    The path ``enumerate_triangulations`` took before it read the 2n images
    of each class's least member from ``polygon._orbits``.
    """
    table = _diagonal_table(n)
    masks = unpruned_cliques(table, [1 << i for i in range(len(table.diagonals))])
    return {Triangulation._of(n, mask) for mask in masks}


def _orbit_key(images: int, n: int) -> int:
    """Least image mask packed in ``images`` (see ``_orbit_images``), as an integer.

    Rotation and tag inversion commute, so the 2n images are the whole
    orbit, and two triangulations get the same key iff they share a class.
    """
    size = n * n
    full = (1 << size) - 1
    return min([images >> shift & full for shift in range(0, 2 * n * (size + 1), size + 1)])


def class_masks_by_orbit_key(n: int) -> Iterator[int]:
    """One mask per triangulation class, by the clique search with no pruning.

    The search ORs each chosen diagonal's packed images, so every
    triangulation comes with all its images, and a mask is kept only when
    it is the least of them as an integer, ``_orbit_key``.
    """
    table = _diagonal_table(n)
    full = (1 << len(table.diagonals)) - 1
    for images in unpruned_cliques(table, _orbit_images(table)):
        mask = images & full
        if mask == _orbit_key(images, n):
            yield mask


def triangulations_by_flips(n: int) -> set[Triangulation]:
    """Flip-closure of the plain fan; independent route to all of them."""
    start = fan_triangulation(n)
    seen = {start}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        for d in t.sorted_diagonals:
            t2 = flip(t, d)
            if t2 not in seen:
                seen.add(t2)
                frontier.append(t2)
    return seen


# -- star trees ----------------------------------------------------------------


def bead_code_tables(n: int) -> list[tuple[bytes, ...]]:
    """``tables[m]``: the codes of the beads with m leaves, sorted, 1 <= m <= n.

    A bead's code is ``b"L"`` or ``b"(" + left + right + b")"``; codes are
    prefix-free, so a code's order is that of its (left, right) codes.
    """
    tables: list = [None, (b"L",)]
    for m in range(2, n + 1):
        lefts = sorted((code, k) for k in range(1, m) for code in tables[k])
        tables.append(tuple(b"(" + x + y + b")" for x, k in lefts for y in tables[m - k]))
    return tables


def star_tree_class_count_by_codes(n: int) -> int:
    """The star tree classes with n leaves, counted on tables of bead codes.

    The count that integer bead keys replaced: each class's least rotation
    is generated once as a prenecklace over the bytes codes (each bead at
    least the one p places back, p the longest Lyndon prefix; a complete
    star kept iff p divides its length), and the single-bead classes are
    the beads with n leaves.
    """
    if n == 1:
        return 1
    tables = bead_code_tables(n - 1)
    prefix: list[bytes] = []

    def extend(left: int, p: int) -> int:
        t = len(prefix)
        floor = prefix[t - p]
        count = 0
        for m in range(1, left):
            codes = tables[m]
            for code in codes[bisect_left(codes, floor):]:
                prefix.append(code)
                count += extend(left - m, p if code == floor else t + 1)
                prefix.pop()
        codes = tables[left]
        lo = bisect_left(codes, floor)
        if lo < len(codes) and codes[lo] == floor and (t + 1) % p:
            lo += 1
        return count + len(codes) - lo

    count = 0
    for m in range(1, n):
        for code in tables[m]:
            prefix.append(code)
            count += extend(n - m, 1)
            prefix.pop()
    return count + sum(len(tables[k]) * len(tables[n - k]) for k in range(1, n))


def star_tree_class_count_on_tables(n: int) -> int:
    """``trees.star_tree_class_count`` on key tables built up to n - 2 leaves,
    every position found by bisection: the count that ranks above the cut
    replaced.  The n - 1 leaf beads are placed only against the leaf, above
    them all, so a ``range`` of their number stands in for their table."""
    if n < 3:
        return n
    tables, _ = _bead_tables(n - 1, 1 << 2 * n - 4, _join_keys, lambda beads: array("Q", beads))
    tables.append(range(sum(len(tables[k]) * len(tables[n - 1 - k]) for k in range(1, n - 1))))
    total = 0

    def bounds(m: int, key: int) -> tuple[int, int]:
        return bisect_left(tables[m], key), bisect_right(tables[m], key)

    def view(tails: list) -> list[int]:
        return sorted(min(tail, default=1 << 2 * n - 3) for tail in tails)

    def add(prefix: list, m: int, lo: int, leasts: list[int]) -> None:
        nonlocal total
        table = tables[m]
        if prefix:
            total += (len(table) - lo) * (len(leasts) - bisect_right(leasts, prefix[0]))
        else:
            total += sum(bisect_left(table, least, lo) - lo for least in leasts)

    _least_rotations(n, add, tables, view, [*map(len, tables)], bounds)
    return total + sum(len(tables[k]) * len(tables[n - k]) for k in range(1, n))


def least_rotations_per_bead(n: int, visit: Callable[..., None], tables: list) -> None:
    """The star classes with two or more beads, as runs, one recursion per bead.

    The generation that ``trees._least_rotations`` replaced: every bead but
    the last recurses, a leaf bead included, and only the last bead is a run,
    ``visit(prefix, table, lo)`` for the stars ``(*prefix, table[j])``, j >=
    lo.  With p the longest Lyndon prefix, a bead is never less than the one
    p places back, and a complete star is kept iff p divides its length.
    """
    prefix: list = []

    def extend(left: int, p: int) -> None:
        t = len(prefix)
        floor = prefix[t - p]
        for m in range(1, left):
            table = tables[m]
            for bead in table[bisect_left(table, floor):]:
                prefix.append(bead)
                extend(left - m, p if bead == floor else t + 1)
                prefix.pop()
        table = tables[left]
        lo = bisect_left(table, floor)
        if lo < len(table) and table[lo] == floor and (t + 1) % p:
            lo += 1
        visit(prefix, table, lo)

    for m in range(1, n):
        for bead in tables[m]:
            prefix.append(bead)
            extend(n - m, 1)
            prefix.pop()



def least_rotations_with_leaf_tails(n: int, visit: Callable[..., None], tables: list) -> None:
    """The star classes with two or more beads, as runs whose tails are
    nothing, the leaf, ``(L, L)`` or ``((LL),)``.

    The generation that ``trees._least_rotations`` replaced, and its oracle.
    ``visit(prefix, table, lo, tails)`` stands for the stars ``(*prefix,
    table[j], *tail)``, j >= lo, the tails in order for each j.  After a
    bead above the floor, the bead p places back, the prefix is a Lyndon
    word and the next floor is the first bead, never the leaf here: with one
    leaf left ``(L,)`` completes a least rotation, and with two ``(L, L)``
    always does and ``((LL),)`` exactly when ``(LL)`` is above the first
    bead.  At the top level every first bead with n - 2 leaves is one run
    with both two-leaf tails, and every first bead with n - 1 leaves one run
    with the leaf tail.  ``tables[n - 1]`` is read only as the last run.
    """
    prefix: list = []
    ones = ((tables[1][0],),)

    def extend(left: int, p: int) -> None:
        t = len(prefix)
        floor = prefix[t - p]
        for m in range(1, left):
            table = tables[m]
            lo = bisect_left(table, floor)
            hi = len(table) if m < left - 2 else lo + (lo < len(table) and table[lo] == floor)
            for bead in table[lo:hi]:
                prefix.append(bead)
                extend(left - m, p if bead == floor else t + 1)
                prefix.pop()
            if m >= left - 2:
                visit(prefix, table, hi, ones if m == left - 1 else twos)
        table = tables[left]
        lo = bisect_left(table, floor)
        if lo < len(table) and table[lo] == floor and (t + 1) % p:
            lo += 1
        visit(prefix, table, lo, ((),))

    if n > 2:
        visit([*tables[1]] * (n - 1), tables[1], 0, ((),))
    if n > 3:
        leaf, pair = tables[1][0], tables[2][0]
        both = ((leaf, leaf), (pair,))
        for m in range(2, n - 2):
            for bead in tables[m]:
                twos = both if pair > bead else both[:1]
                prefix.append(bead)
                extend(n - m, 1)
                prefix.pop()
        visit(prefix, tables[n - 2], 0, both)
    visit(prefix, tables[n - 1], 0, ones)


def star_tree_class_count_with_leaf_tails(n: int) -> int:
    """``trees.star_tree_class_count`` on ``least_rotations_with_leaf_tails``:
    the runs counted on integer bead keys, as the package counted them."""
    if n < 3:
        return n
    tables, _ = _bead_tables(n - 1, 1 << 2 * n - 4, _join_keys, lambda beads: array("Q", beads))
    tables.append(range(sum(len(tables[k]) * len(tables[n - 1 - k]) for k in range(1, n - 1))))
    total = 0

    def add(prefix: list, table: array, lo: int, tails: tuple) -> None:
        nonlocal total
        total += (len(table) - lo) * len(tails)

    least_rotations_with_leaf_tails(n, add, tables)
    return total + sum(len(tables[k]) * len(tables[n - k]) for k in range(1, n))


def star_tree_classes_with_leaf_tails(n: int) -> dict[bytes, tuple]:
    """``trees.star_tree_classes`` on ``least_rotations_with_leaf_tails``,
    classes in the order that generation wrote them."""
    if n == 1:
        return {b"[L]": (LEAF,)}
    classes: dict[bytes, tuple] = {}

    def add(prefix: list, table: tuple, lo: int, tails: tuple) -> None:
        head = b"[" + b"".join([code + b"," for code, _ in prefix])
        front = [bead for _, bead in prefix]
        ends = [(b"".join([b"," + code for code, _ in tail]) + b"]", [bead for _, bead in tail])
                for tail in tails]
        for code, bead in table[lo:]:
            for end, back in ends:
                classes[head + code + end] = (*front, bead, *back)

    tables, singles = _bead_tables(n, (b"L", LEAF), _join_codes, tuple)
    least_rotations_with_leaf_tails(n, add, tables)
    for code, bead in singles:
        classes[b"[" + code + b"]"] = (bead,)
    return classes


# -- counting ------------------------------------------------------------------


def euler_phi(m: int) -> int:
    """Euler's totient: how many of 1..m are coprime to m (by trial division)."""
    if m < 1:
        raise ValueError(f"euler_phi needs m >= 1, got {m}")
    phi, rest, p = m, m, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            phi -= phi // p
        p += 1
    if rest > 1:
        phi -= phi // rest
    return phi


def prime_sieve(m: int) -> bytearray:
    """``sieve[k]`` is 1 exactly when k is a prime, for 0 <= k <= m.

    The sieve over every integer that the counts read before their table of
    odd-sieved primes.
    """
    sieve = bytearray([1]) * (m + 1)
    sieve[: min(2, m + 1)] = bytes(min(2, m + 1))
    for p in compress(range(math.isqrt(m) + 1), sieve):
        sieve[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    return sieve


def central_binomial_by_primes(d: int, sieve: bytearray) -> int:
    """binom(2d, d) from its prime exponents, visiting every prime up to 2d.

    ``sieve``, from ``prime_sieve``, must reach 2d.  Legendre's sum below
    sqrt(2d), floor(2d/p) mod 2 above it (Kummer), and each prime power
    pushed through a binary-counter stack on its own: the loop that the
    Kummer intervals replaced.
    """
    m = 2 * d
    root = math.isqrt(m)
    stack: list[tuple[int, int]] = []  # (product, number of factors in it)
    for p in compress(range(m + 1), sieve):
        if p > root:
            if not (m // p) & 1:
                continue
            factor = p
        else:
            e, q = 0, p
            while q <= m:
                e += m // q - 2 * (d // q)
                q *= p
            if not e:
                continue
            factor = p**e
        size = 1
        while stack and stack[-1][1] == size:
            factor *= stack.pop()[0]
            size *= 2
        stack.append((factor, size))
    product = 1
    while stack:
        product *= stack.pop()[0]
    return product
