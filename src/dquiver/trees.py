"""Star trees: a root with cyclically ordered full binary subtrees.

A binary tree is either the leaf marker ``"L"`` or a pair
``(left, right)`` of binary trees; a star tree is a nonempty tuple of
such trees ("beads") hanging counterclockwise off a common root.  Two
star trees are the same object of study when one is a cyclic rotation of
the other, which is what ``tree_key`` quotients by.  The rotation
classes with n leaves are enumerated by generating each class's least
rotation once, as a prenecklace over the beads in code order; nothing is
canonicalized after the fact, and ``star_tree_class_count`` counts them
on integer bead keys without holding any.

Star trees with n leaves are in bijection with triangulations of the
once-punctured n-gon up to rotation and tag inversion: ``star_tree_of``
is the dual-tree construction (tree edges cross every triangulation side
except the radii) and ``triangulation_of`` rebuilds a triangulation from
a star tree.  ``star_tree_of`` and ``tree_move_for_flip`` read the region
decomposition of ``polygon._decomposition``; ``LEAF`` is defined there
too.  Three local moves on star trees match diagonal flips:
``split_bead``, ``merge_beads`` and ``rotate_inner_edge``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator
from itertools import accumulate, chain

from .errors import BoundExceededError, _check_int, _check_type
from .polygon import (
    LEAF,
    NOTCHED,
    PLAIN,
    Arc,
    Diagonal,
    Radius,
    Triangulation,
    _decomposition,
    _member_bit,
    span,
)

BinaryTree = str | tuple
StarTree = tuple  # nonempty tuple of BinaryTree beads

__all__ = [
    "LEAF",
    "BinaryTree",
    "StarTree",
    "apply_tree_move",
    "canonical_star",
    "leaf_count",
    "leaf_star",
    "merge_beads",
    "rotate_inner_edge",
    "split_bead",
    "star_from_json_obj",
    "star_to_json_obj",
    "star_tree_class_count",
    "star_tree_classes",
    "star_tree_of",
    "tree_key",
    "tree_move_for_flip",
    "triangulation_of",
]


def leaf_count(tree: BinaryTree) -> int:
    """The leaves of a bead; ValueError naming the innermost subtree that is
    neither a leaf nor a pair."""
    return _serialize_bead(tree).count(b"L")


def leaf_star(n: int) -> StarTree:
    """The star tree of n bare leaf beads; the dual tree of the plain fan."""
    _check_int("leaf_star", "n", n, 1)
    return (LEAF,) * n


def _serialize_bead(tree: BinaryTree) -> bytes:
    if tree == LEAF:
        return b"L"
    if isinstance(tree, tuple) and len(tree) == 2:
        return b"(" + _serialize_bead(tree[0]) + _serialize_bead(tree[1]) + b")"
    raise ValueError(f"not a full binary tree: {tree!r}")


def _least_rotation(star: StarTree) -> tuple[bytes, StarTree]:
    """``tree_key(star)`` and the rotation of ``star`` it serializes."""
    if not star:
        raise ValueError("star tree needs at least one bead")
    codes = [_serialize_bead(bead) for bead in star]
    # bead codes are prefix-free (each is "L" or a balanced bracket word), so
    # comparing rotations as sequences of codes orders them as serializations
    i = min(range(len(star)), key=lambda i: codes[i:] + codes[:i])
    return b"[" + b",".join(codes[i:] + codes[:i]) + b"]", star[i:] + star[:i]


def canonical_star(star: StarTree) -> StarTree:
    """The cyclic rotation of ``star`` with the smallest serialization."""
    return _least_rotation(star)[1]


def tree_key(star: StarTree) -> bytes:
    """Byte string equal for two star trees iff they are rotations of each other."""
    return _least_rotation(star)[0]


# -- enumeration -------------------------------------------------------------


def _join_keys(left: int, tables: list, m: int) -> list[int]:
    # a key has one 1 bit per leaf; the left subtree's word follows the
    # root's 0 bit, and the right one's the left's 2k - 1 bits
    k = left.bit_count()
    start, shift = left >> 1, 2 * k
    return [start | right >> shift for right in tables[m - k]]


def _join_codes(left: tuple, tables: list, m: int) -> list[tuple]:
    code, tree = left
    start, rights = b"(" + code, tables[m - code.count(b"L")]
    return [(start + right + b")", (tree, bead)) for right, bead in rights]


def _bead_tables(n: int, leaf, join: Callable, table: Callable) -> tuple[list, Iterator]:
    """``tables[m]``, ``table`` of the m-leaf beads, 0 <= m < n, and the n-leaf
    beads, streamed and not kept, all in code order.

    A bead's code is its serialization, ``"(" + left + right + ")"``.  Codes
    are prefix-free ("L" or a balanced bracket word), so code order is the
    order of (left code, right code): the left subtree runs over the smaller
    beads of every leaf count in code order, and ``join(left, tables, m)``
    writes the m-leaf beads with that left subtree, one per right subtree.
    """
    tables: list = [table(()), table([leaf])]  # no bead has 0 leaves
    lefts: Iterable = ()  # the beads with fewer than m - 1 leaves, in code order

    def beads(m: int) -> Iterator:
        nonlocal lefts
        # two sorted runs, which sorted() merges in one pass
        lefts = table(sorted(chain(lefts, tables[m - 1])))
        yield from chain.from_iterable(join(left, tables, m) for left in lefts)

    for m in range(2, n):
        tables.append(table(beads(m)))
    return tables, beads(n)


def _tails(tables: list, most: int) -> list[list[tuple]]:
    """``tails[r]``, 0 <= r <= most: the sequences of beads with r leaves in
    all, bead by bead in (leaf count, code) order, read from ``tables``."""
    tails: list[list[tuple]] = [[()]]
    for r in range(1, most + 1):
        tails.append([(bead, *tail) for m in range(1, r + 1) for bead in tables[m] for tail in tails[r - m]])
    return tails


def _least_rotations(n: int, visit: Callable[..., None], tables: list, view: Callable, sizes: list[int],
                     bounds: Callable[[int, object], tuple[int, int]]) -> None:
    """Hand ``visit`` every star tree class with two or more beads, as runs.

    The m-leaf beads, in code order, are items that compare as their codes,
    so comparing stars bead by bead orders their rotations as their
    serializations, as ``tree_key`` does.  ``sizes[m]`` is their number and
    ``bounds(m, bead)`` the positions where ``bead`` goes among them, on its
    left and on its right, which differ iff ``bead`` has m leaves.
    ``tables[m]`` lists them, and is read only where m-leaf beads recurse one
    by one.  The beads are generated as a prenecklace (Cattell, Ruskey,
    Sawada, Serra and Miers, *Fast algorithms to generate necklaces,
    unlabeled necklaces and irreducible polynomials over GF(2)*, 2000): with
    p the length of the longest Lyndon prefix, the next bead is never less
    than the floor, the bead p places back; a bead above the floor makes the
    prefix a Lyndon word, and the floor itself keeps p.  So no bead is less
    than the first, and a complete star is its own least rotation exactly
    when p divides its bead count; periodic stars are kept.  Any prefix
    completes with leaf beads, the greatest code, so no branch is a dead
    end, and a least rotation that starts with the leaf is all leaves.

    ``visit(prefix, m, lo, tails)`` stands for the stars ``(*prefix, bead,
    *tail)``, with ``bead`` each m-leaf bead from position lo on and ``tail``
    each tail whose beads are all above the star's first bead, ``prefix[0]``
    or, with an empty prefix, ``bead``; for each bead the tails come in their
    order.  A run with an empty prefix starts at position 0.  ``tails`` is
    ``view`` of the bead sequences with r leaves, for some r, bead by bead in
    (leaf count, code) order, made once per r; r = 0 is the empty tail.
    ``prefix`` is valid during the call only.

    The tails rule.  When the prefix is a Lyndon word, its floor is its
    first bead b0.  A bead with fewer leaves than b0 cannot equal it, so once
    fewer leaves are left than b0 has, the next bead, at least the floor and
    not equal to it, is above b0, and the prefix is a Lyndon word again with
    the floor b0.  By induction every completion keeps the prenecklace rule
    iff all of its beads are above b0, and then the star is a Lyndon word,
    so p is its bead count and it is kept.  The prefix is a Lyndon word after
    any bead above the floor, and at the top level after the first bead.  So
    the beads above the floor with fewer than |b0| leaves left after them are
    one run, after the floor's own recursion, with the tails of those leaves
    above b0; and the first beads with more than n/2 leaves are one
    top-level run per leaf count.  Only the floor, and the states with at
    least |b0| leaves left, recurse; they keep the stars in which b0 recurs,
    such as the periodic ``((LL), (LL))`` at n = 4.  The last bead takes all
    the leaves left, so the prenecklace rule fixes it to one run with the
    empty tail.

    Runs, and their stars, come bead by bead by (leaf count, code).  The
    n-leaf beads, single-bead stars, are not runs.
    """
    prefix: list = []
    # a tail follows a first bead with more leaves, so has fewer than n / 2
    views = [view(tails) for tails in _tails(tables, (n - 1) // 2)]

    def extend(left: int, p: int) -> None:
        # prefix is a prenecklace whose longest Lyndon prefix has length p,
        # and k leaves are on its first bead
        t = len(prefix)
        floor = prefix[t - p]
        for m in range(1, left):
            lo, hi = bounds(m, floor)
            if lo < hi:
                # floor itself keeps p
                prefix.append(floor)
                extend(left - m, p)
                prefix.pop()
            if left - m < k:
                # the beads above floor are one run
                visit(prefix, m, hi, views[left - m])
            elif hi < sizes[m]:
                for bead in tables[m][hi:]:
                    prefix.append(bead)
                    extend(left - m, t + 1)
                    prefix.pop()
        # a last bead above floor makes a Lyndon word; floor itself keeps p
        lo, hi = bounds(left, floor)
        visit(prefix, left, hi if (t + 1) % p else lo, views[0])

    try:
        # the all-leaf star, the one whose first bead is the leaf
        if n > 1:
            visit([*tables[1]] * (n - 1), 1, 0, views[0])
        for k in range(2, n):
            if 2 * k > n:
                visit(prefix, k, 0, views[n - k])
                continue
            for bead in tables[k]:
                prefix.append(bead)
                extend(n - k, 1)
                prefix.pop()
    finally:
        # extend refers to itself, a cycle that would keep the tables alive
        # until the next full garbage collection
        del extend


def star_tree_classes(n: int) -> dict[bytes, StarTree]:
    """Rotation classes of star trees with n leaves, keyed by tree_key.

    The stored representative is the canonical rotation.  Classes come in
    the order of their canonical rotations compared bead by bead by leaf
    count, then serialization; that is not key order.
    """
    _check_int("star_tree_classes", "n", n, 1)
    if n == 1:
        return {b"[L]": (LEAF,)}
    classes: dict[bytes, StarTree] = {}
    # the beads as (code, tree) pairs, which compare as their codes
    tables, singles = _bead_tables(n, (b"L", LEAF), _join_codes, tuple)

    def view(tails: list) -> list:
        # each tail as its least bead, the end of its key and its beads;
        # (b"M",) is above every bead, as the empty tail's least bead
        return [(min(tail, default=(b"M",)), b"".join([b"," + code for code, _ in tail]) + b"]",
                 [bead for _, bead in tail]) for tail in tails]

    def bounds(m: int, item: tuple) -> tuple[int, int]:
        table = tables[m]
        return bisect_left(table, item), bisect_right(table, item)

    def add(prefix: list, m: int, lo: int, tails: list) -> None:
        head = b"[" + b"".join([code + b"," for code, _ in prefix])
        front = [bead for _, bead in prefix]
        for item in tables[m][lo:]:
            code, bead = item
            first = prefix[0] if prefix else item
            for least, end, back in tails:
                if least > first:
                    classes[head + code + end] = (*front, bead, *back)

    _least_rotations(n, add, tables, view, [*map(len, tables)], bounds)
    # a single bead is its own least rotation
    for code, bead in singles:
        classes[b"[" + code + b"]"] = (bead,)
    return classes


def _fillings(n: int) -> list[list[int]]:
    """``fill[r][s]``, 0 <= s <= r + 1 <= n + 1: the ways to fill s open slots
    of a bead's code with r leaves.

    Read left to right, a code fills one open slot with each symbol, and a
    node, "(", opens two: so ``fill[r][s] = fill[r - 1][s - 1] + fill[r][s +
    1]``, the next symbol "L" or "(", and ``fill[m][1]``, the m-leaf beads,
    is the Catalan number C_{m - 1}.
    """
    fill = [[1, 0]]
    for r in range(1, n + 1):
        row = [0] * (r + 2)
        for s in range(r, 0, -1):
            row[s] = fill[r - 1][s - 1] + row[s + 1]
        fill.append(row)
    return fill


def _rank(key: int, m: int, fill: list[list[int]], width: int) -> tuple[int, int]:
    """``bisect_left`` and ``bisect_right`` of ``key`` on the m-leaf bead keys
    ``width`` bits wide, without the table.

    The m-leaf keys compare as their words of 2m - 1 bits.  One walk of the
    top 2m - 1 bits of ``key`` counts the words below them: at each 1 bit,
    those with a 0 there, which fill s + 1 slots with r leaves when r
    leaves and s slots are left (Zaks, *Lexicographic generation of ordered
    trees*, 1980; Ruskey, *Combinatorial Generation*, 2003).  The walk stops
    where no word goes on as the bits read do.  ``key`` is an m-leaf key iff
    its top bits are a word and the others are 0.
    """
    if key >> width:
        # above every key
        return fill[m][1], fill[m][1]
    shift = width - 2 * m + 1
    word = key >> shift
    below, r, s, whole = 0, m, 1, False
    for i in range(2 * m - 2, -1, -1):
        if word >> i & 1:
            below += fill[r][s + 1]
            r -= 1
            s -= 1
            if not s:
                whole = not r
                break
        else:
            s += 1
            if s > r:
                break
    return below + (whole and key != word << shift), below + whole


def star_tree_class_count(n: int) -> int:
    """``len(star_tree_classes(n))``, holding no class in memory.

    A bead's key is its code without ")", "(" as bit 0 and "L" as 1,
    left-aligned in 2n - 3 bits.  Two codes never first differ at a ")",
    which closes a node after its second child in both, so keys compare as
    codes.  The tables are 64-bit arrays, whose keys of 2n - 3 bits fit up to
    n = 33; a larger n is refused before any work.

    The cut.  Only the beads with at most c = max(n - 6, n // 2) leaves are
    built, as key tables; for a larger leaf count m the number of beads is
    ``fill[m][1]``, and a key's positions are its ``_rank``.  That suffices,
    since ``_least_rotations`` lists beads only where it recurses through
    them one by one: the first beads of at most n / 2 leaves, the tails, of
    fewer, and the beads above a floor with at least |b0| leaves left after
    them, b0 the first bead; a floor that recurses is taken from the prefix.
    Beads above a floor are above b0 and have m <= n - 2|b0| leaves, so
    m <= n - 6 when |b0| >= 3.  When |b0| = 2, b0 is (LL), and only the
    leaf is above it.

    Each run of ``_least_rotations`` is counted, not expanded.  A tail is
    above the star's first bead iff its least bead is, so the view of the
    r-leaf tails is their least beads in key order, the empty tail's a key
    above every bead.  A run after a prefix counts its beads times the tails
    whose least bead is above ``prefix[0]``, one bisection.  A top-level run,
    whose first bead is the run's own bead, counts for each tail the beads
    below its least bead, one position query per tail.
    """
    _check_int("star_tree_class_count", "n", n, 1)
    if n < 3:
        return n  # [L]; [L,L] and [(LL)]
    if 2 * n - 3 > 64:
        raise BoundExceededError(f"star_tree_class_count supports n <= 33, got {n}")
    # imported here, so that importing the package does not load it
    from array import array

    width, cut = 2 * n - 3, max(n - 6, n // 2)
    fill = _fillings(n)
    sizes = [row[1] for row in fill]
    tables, _ = _bead_tables(cut + 1, 1 << width - 1, _join_keys, lambda beads: array("Q", beads))
    total = 0

    def bounds(m: int, key: int) -> tuple[int, int]:
        # bisection up to the cut, the rank above it
        if m > cut:
            return _rank(key, m, fill, width)
        table = tables[m]
        return bisect_left(table, key), bisect_right(table, key)

    def view(tails: list) -> list[int]:
        # the tails' least beads in key order; 1 << 2n - 3 is above every key,
        # as the empty tail's least bead
        return sorted(min(tail, default=1 << width) for tail in tails)

    def add(prefix: list, m: int, lo: int, leasts: list[int]) -> None:
        nonlocal total
        if prefix:
            total += (sizes[m] - lo) * (len(leasts) - bisect_right(leasts, prefix[0]))
        else:
            # the first bead is the run's own: each tail counts the beads below its least
            total += sum(bounds(m, least)[0] for least in leasts)

    _least_rotations(n, add, tables, view, sizes, bounds)
    # the single-bead classes
    return total + sum(sizes[k] * sizes[n - k] for k in range(1, n))


# -- the dual star tree of a triangulation -----------------------------------
#
# Tree edges cross the arcs of the triangulation (and, in config B, the
# loop around the puncture) but never a radius; the regions touching the
# puncture merge into the root.  Each region of ``polygon._decomposition``
# contributes its binary tree as one bead, in counterclockwise region order
# starting at the smallest radius base: in config A one bead per segment
# between cyclically consecutive radii, in config B a single bead for the
# whole outside of the loop, rooted at the loop crossing.


def star_tree_of(t: Triangulation) -> StarTree:
    """Dual star tree of a triangulation; rotation/tag inversion invariant."""
    star = tuple(tree for _, _, tree in _decomposition(t)[0])
    if t.config == "B" and star[0] == LEAF:
        raise AssertionError("loop region of a config-B triangulation is degenerate")
    return star


def _triangles(u: int, tree: BinaryTree, out: list) -> int:
    """Append the triangles (u', w, v') of a bead whose window starts at u to
    ``out``, in post-order, w the apex on side (u', v'); return the window's end."""
    if tree == LEAF:
        return u + 1
    w = _triangles(u, tree[0], out)
    v = _triangles(w, tree[1], out)
    out.append((u, w, v))
    return v


def triangulation_of(star: StarTree, n: int) -> Triangulation:
    """Triangulation whose dual star tree is ``star`` (n leaves in total).

    With k >= 2 beads the result has plain radii at the bead boundaries
    starting from vertex 0; a single bead yields the opposite-tag radius
    pair at vertex 0.  Any other representative of the same classes
    differs only by rotation/tag inversion.
    """
    if not star:
        raise ValueError("star tree needs at least one bead")
    counts = [leaf_count(bead) for bead in star]
    if sum(counts) != n:
        raise ValueError(f"star tree has {sum(counts)} leaves, expected {n}")

    starts = list(accumulate(counts, initial=0))[:-1]
    if len(star) == 1:
        if star[0] == LEAF:
            raise ValueError("a single leaf bead does not define a triangulation")
        diagonals: list[Diagonal] = [Radius(0, PLAIN), Radius(0, NOTCHED)]
    else:
        diagonals = [Radius(u, PLAIN) for u in starts]
    # each arc is the side (x, y) of one bead triangle (x, w, y); a bead's
    # other sides are border edges, and a single bead's root side the loop
    triangles: list[tuple[int, int, int]] = []
    for u, bead in zip(starts, star):
        _triangles(u, bead, triangles)
    diagonals.extend(Arc(x % n, y % n) for x, _, y in triangles if y - x < n)
    return Triangulation(n, diagonals)


# -- bead mutations -----------------------------------------------------------


def _check_bead_index(star: StarTree, i: int) -> None:
    _check_type("bead index", i)
    # a negative index would slice from the end and silently duplicate beads
    if not 0 <= i < len(star):
        raise IndexError(f"bead {i} out of range for {len(star)} beads (0..{len(star) - 1})")


def split_bead(star: StarTree, i: int) -> StarTree:
    """Replace bead i by its two subtrees; bead count grows by one.

    Matches flipping the arc at the base of the i-th puncture-adjacent
    triangle (config A) or flipping either tagged radius (single bead).
    """
    _check_bead_index(star, i)
    bead = star[i]
    if bead == LEAF:
        raise ValueError("a leaf bead sits on a border edge and cannot be split")
    return star[:i] + (bead[0], bead[1]) + star[i + 1 :]


def merge_beads(star: StarTree, i: int) -> StarTree:
    """Join beads i and i+1 (cyclically) into one; bead count drops by one.

    Matches flipping the radius separating the two adjacent segments.
    """
    k = len(star)
    if k < 2:
        raise ValueError("need at least two beads to merge")
    _check_bead_index(star, i)
    j = (i + 1) % k
    if j == 0:
        return ((star[i], star[0]),) + star[1:i]
    return star[:i] + ((star[i], star[j]),) + star[j + 1 :]


def rotate_inner_edge(star: StarTree, i: int, path: str) -> StarTree:
    """Re-associate at an inner edge of bead i; bead count is unchanged.

    ``path`` is a string of "L"/"R" steps from the bead root to the lower
    endpoint of the edge, which must be an internal node.  The move swaps
    (x, (y, z)) with ((x, y), z), matching the flip of the arc the edge
    crosses.
    """
    _check_bead_index(star, i)
    if not isinstance(path, str):
        raise ValueError(f"a path must be a string of L and R steps, got {path!r}")
    if not path:
        raise ValueError("the empty path names the bead's root edge; use split/merge")

    def go(node: BinaryTree, steps: str) -> BinaryTree:
        if node == LEAF:
            raise ValueError(f"path {path!r} runs past a leaf")
        step, rest = steps[0], steps[1:]
        if step not in "LR":
            raise ValueError(f"bad step {step!r} in path {path!r}")
        child = node[0] if step == "L" else node[1]
        if rest:
            replaced = go(child, rest)
            return (replaced, node[1]) if step == "L" else (node[0], replaced)
        if child == LEAF:
            raise ValueError(f"path {path!r} ends at a leaf edge")
        if step == "R":
            x, (y, z) = node[0], child
            return ((x, y), z)
        (y, z), x = child, node[1]
        return (y, (z, x))

    return star[:i] + (go(star[i], path),) + star[i + 1 :]


# -- matching tree move for a diagonal flip ----------------------------------


def tree_move_for_flip(t: Triangulation, d: Diagonal) -> tuple:
    """The bead move matching a flip of ``d``, against star_tree_of(t).

    Returns ("split", i), ("merge", i) or ("rotate", i, path), with bead
    indices in the segment order used by star_tree_of.
    """
    _member_bit(t, d)
    regions, triangles = _decomposition(t)
    if isinstance(d, Radius):
        if t.config == "B":
            return ("split", 0)
        j = t.radius_bases.index(d.a)
        return ("merge", (j - 1) % len(regions))
    # d's absolute positions, in the last region that starts at or before it
    s = regions[0][0] + (d.a - regions[0][0]) % t.n
    e = s + span(d, t.n)
    i = sum(u <= s for u, _, _ in regions) - 1
    if e > regions[i][1]:
        raise AssertionError(f"{d} not located in any segment")
    # the triangles strictly around d, root first: post-order puts each
    # triangle after those inside it, so read it backwards
    path = ""
    for lo, w, hi in reversed(triangles):
        if lo <= s and e <= hi and hi - lo > e - s:
            if s < w < e:
                raise AssertionError(f"{d} straddles the apex of its region")
            path += "L" if e <= w else "R"
    # the arc on a config-A region's own side (u, v) is its bead's base
    return ("rotate", i, path) if path else ("split", i)


def apply_tree_move(star: StarTree, move: tuple) -> StarTree:
    match move:
        case ("split", i):
            return split_bead(star, i)
        case ("merge", i):
            return merge_beads(star, i)
        case ("rotate", i, path):
            return rotate_inner_edge(star, i, path)
    raise ValueError(f"unknown tree move: {move!r}")


# -- JSON --------------------------------------------------------------------


def _bead_to_json(tree: BinaryTree):
    if tree == LEAF:
        return LEAF
    return [_bead_to_json(tree[0]), _bead_to_json(tree[1])]


def _bead_from_json(obj) -> BinaryTree:
    if obj == LEAF:
        return LEAF
    if isinstance(obj, list) and len(obj) == 2:
        return (_bead_from_json(obj[0]), _bead_from_json(obj[1]))
    raise ValueError(f"not a binary tree: {obj!r}")


def star_to_json_obj(star: StarTree) -> dict:
    return {"beads": [_bead_to_json(bead) for bead in star]}


def star_from_json_obj(obj: dict) -> StarTree:
    if not isinstance(obj, dict) or "beads" not in obj:
        raise ValueError('expected an object with "beads"')
    beads = obj["beads"]
    if not isinstance(beads, list) or not beads:
        raise ValueError("star tree needs a nonempty list of beads")
    try:
        return tuple(_bead_from_json(bead) for bead in beads)
    except RecursionError as exc:
        raise ValueError("a star tree bead is nested too deeply to read") from exc
