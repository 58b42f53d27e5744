"""Star trees: a root with cyclically ordered full binary subtrees.

A binary tree is either the leaf marker ``"L"`` or a pair
``(left, right)`` of binary trees; a star tree is a nonempty tuple of
such trees ("beads") hanging counterclockwise off a common root.  Two
star trees are the same object of study when one is a cyclic rotation of
the other, which is what ``tree_key`` quotients by.  The rotation
classes with n leaves are enumerated by generating each class's least
rotation once, as a prenecklace over the bead codes; nothing is
canonicalized after the fact, and ``star_tree_class_count`` counts them
without holding any.

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

from bisect import bisect_left
from collections.abc import Callable, Iterator
from itertools import accumulate, chain, repeat

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
    if tree == LEAF:
        return 1
    return leaf_count(tree[0]) + leaf_count(tree[1])


def _check_leaves(n: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1 leaves, got {n}")


def leaf_star(n: int) -> StarTree:
    """The star tree of n bare leaf beads; the dual tree of the plain fan."""
    _check_leaves(n)
    return (LEAF,) * n


def _check_bead(tree: BinaryTree) -> None:
    if tree == LEAF:
        return
    if isinstance(tree, tuple) and len(tree) == 2:
        _check_bead(tree[0])
        _check_bead(tree[1])
        return
    raise ValueError(f"not a full binary tree: {tree!r}")


def _serialize_bead(tree: BinaryTree) -> bytes:
    if tree == LEAF:
        return b"L"
    return b"(" + _serialize_bead(tree[0]) + _serialize_bead(tree[1]) + b")"


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


def _compose(m: int, tables: list) -> Iterator[tuple[bytes, BinaryTree]]:
    """``(code, bead)`` for every full binary tree with m leaves, in code order.

    A bead's code is its serialization, built once from its subtrees'
    codes as ``"(" + left + right + ")"``.  Codes are prefix-free (each is
    "L" or a balanced bracket word), so code order is the order of (left
    code, right code): the left subtree runs over the smaller beads of
    every leaf count in code order, and the right over the beads with the
    remaining leaves.  ``tables`` must reach m - 1 leaves (see
    ``_bead_tables``); nothing with m leaves is stored.
    """
    if m == 1:
        yield b"L", LEAF
        return
    lefts = sorted(chain.from_iterable(zip(*tables[k], repeat(k)) for k in range(1, m)))
    for left_code, left, k in lefts:
        start = b"(" + left_code
        right_codes, rights = tables[m - k]
        for right_code, right in zip(right_codes, rights):
            yield start + right_code + b")", (left, right)


def _bead_tables(n: int) -> list:
    """``tables[m]`` holds the codes and the trees of ``_compose(m)``, 1 <= m <= n."""
    tables: list = [None]
    for m in range(1, n + 1):
        tables.append(tuple(zip(*_compose(m, tables))))
    return tables


def _least_rotations(n: int, visit: Callable[..., None], tables: list) -> None:
    """Hand ``visit`` every star tree class with two or more beads, as runs.

    A star is compared bead by bead on the bead codes, which orders its
    rotations as their serializations, so the least rotation is the one
    ``tree_key`` writes.  The beads are generated as a prenecklace
    (Cattell, Ruskey, Sawada, Serra and Miers, *Fast algorithms to generate
    necklaces, unlabeled necklaces and irreducible polynomials over GF(2)*,
    2000): with p the length of the longest Lyndon prefix, the next bead is
    never less than the bead p places back.  So no bead is less than the
    first, and a complete star is its own least rotation exactly when p
    divides its bead count; periodic stars are kept.  Any prefix completes
    with leaf beads, the greatest code, so no branch is a dead end.

    The last bead takes all the leaves left, so the rule fixes it to one
    contiguous run of ``tables[left]``: ``visit(prefix, star, codes,
    beads, lo)`` stands for the least rotations ``(*star, beads[j])``, with
    codes ``(*prefix, codes[j])``, for every j >= lo.  The lists are the
    codes and the beads before the last one, valid during the call only.
    Runs come, and stars within a run, ordered bead by bead by (leaf
    count, code).  The single-bead stars, the n-leaf beads, are not runs,
    so ``tables`` (see ``_bead_tables``) must reach n - 1 leaves.
    """
    prefix: list[bytes] = []
    star: list[BinaryTree] = []

    def extend(left: int, p: int) -> None:
        # prefix is a prenecklace whose longest Lyndon prefix has length p
        t = len(prefix)
        floor = prefix[t - p]
        for m in range(1, left):
            codes, beads = tables[m]
            for j in range(bisect_left(codes, floor), len(codes)):
                code = codes[j]
                prefix.append(code)
                star.append(beads[j])
                extend(left - m, p if code == floor else t + 1)
                prefix.pop()
                star.pop()
        # a last bead above floor makes a Lyndon word; floor itself keeps p
        codes, beads = tables[left]
        lo = bisect_left(codes, floor)
        if lo < len(codes) and codes[lo] == floor and (t + 1) % p:
            lo += 1
        visit(prefix, star, codes, beads, lo)

    try:
        for m in range(1, n):
            for code, bead in zip(*tables[m]):
                prefix.append(code)
                star.append(bead)
                extend(n - m, 1)
                prefix.pop()
                star.pop()
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
    _check_leaves(n)
    classes: dict[bytes, StarTree] = {}

    def add(prefix: list, star: list, codes: tuple, beads: tuple, lo: int) -> None:
        head = b"[" + b",".join(prefix) + b","
        front = tuple(star)
        for j in range(lo, len(codes)):
            classes[head + codes[j] + b"]"] = (*front, beads[j])

    tables = _bead_tables(n - 1)
    _least_rotations(n, add, tables)
    # a single bead is its own least rotation; the n-leaf beads are
    # streamed, not kept
    for code, bead in _compose(n, tables):
        classes[b"[" + code + b"]"] = (bead,)
    return classes


def star_tree_class_count(n: int) -> int:
    """``len(star_tree_classes(n))``, holding no class in memory."""
    _check_leaves(n)
    total = 0

    def add(prefix: list, star: list, codes: tuple, beads: tuple, lo: int) -> None:
        nonlocal total
        total += len(codes) - lo

    tables = _bead_tables(n - 1)
    _least_rotations(n, add, tables)
    # the single-bead classes, counted the way _compose(n) builds them: a
    # left subtree with k leaves and a right one with n - k
    if n == 1:
        return total + 1
    return total + sum(len(tables[k][0]) * len(tables[n - k][0]) for k in range(1, n))


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
    for bead in star:
        _check_bead(bead)
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
    # type(...) is int: a bool or a float is rejected, not reinterpreted
    if type(i) is not int:
        raise ValueError(f"bead index must be an integer, got {i!r}")
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
    kind = move[0]
    if kind == "split":
        return split_bead(star, move[1])
    if kind == "merge":
        return merge_beads(star, move[1])
    if kind == "rotate":
        return rotate_inner_edge(star, move[1], move[2])
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
