"""Tagged-edge model of the once-punctured n-gon.

Conventions used throughout:

* Border vertices are 0..n-1 in counterclockwise order; the puncture sits
  in the interior.
* ``Arc(a, b)`` is the homotopy class of an edge from a to b that is
  homotopic to the counterclockwise border walk from a to b.  Its span
  ``(b - a) mod n`` lies in 2..n-1, and ``Arc(a, b)`` and ``Arc(b, a)``
  are different, mutually compatible diagonals (they pass the puncture on
  opposite sides).
* ``Radius(a, tag)`` joins the puncture to border vertex a and carries a
  tag, ``"plain"`` or ``"notched"``.
* Crossing numbers, by one interval rule: two radii cross once iff their
  bases and their tags differ.  Otherwise one diagonal is an arc
  ``Arc(p, q)`` of span k, cutting off the disk over the border walk from
  p to q, and the other's endpoints sit at positions ``(x - p) mod n``.
  A radius crosses once iff its base lies strictly inside (0, k).  An arc
  at positions a < b <= k runs inside the disk; any other arc crosses once
  for each of a, b strictly inside (0, k).

A triangulation is a maximal set of pairwise non-crossing diagonals and
always has exactly n of them.  Its radii come in one of two shapes:
config "A" (two or more radii with the same tag at distinct vertices) or
config "B" (exactly two radii at one vertex with opposite tags).

Internally a triangulation is a bitmask over a per-n diagonal index: bit
i stands for the i-th diagonal in ``diagonal_sort_key`` order.  One
function, ``_index``, states that layout, by arithmetic: the arcs first,
then the radii as the top 2n indices, ``n(n - 2) + 2a`` plus one when
notched.  No dict maps a diagonal to its index, so no diagonal is hashed
to find its bit.  The table (``_diagonal_table``) holds each diagonal's
compatibility mask (from ``crossing_number``), the index permutations for
one rotation step and for tag inversion, and each diagonal's serialization
token, so validation, ``flip``, ``rotate``, ``invert_tags`` and
``class_key`` are mask and index arithmetic.  A triangulation's
``config`` and ``radius_bases`` are read off its radius bits.  The values
share their base, ``errors._Value``, with ``quiver.Quiver``; this module
imports ``quiver`` only for ``quiver_of``.  Input is checked once, by
the public constructor ``Triangulation(n, diagonals)``; ``flip``, the
symmetries and the enumerations build through the unchecked
``Triangulation._of``.  The 2n images under rotation and tag inversion are
walked in one place, ``_images``, which ``rotate``, ``class_key`` and the
packed orbits of the class search read.

One clique search, ``_orbits``, reaches every triangulation.  It is an
orderly generation: it drops a partial clique once one of its 2n packed
images is smaller, so it reaches only the least member of each class, and
yields it with its 2n images.  The classes up to rotation and tag inversion
(``triangulation_classes``, ``triangulation_class_count``) read the least
member, the one ``Triangulation`` built per class, and
``enumerate_triangulations`` reads every image.

The region decomposition (``_decomposition``) also lives here: one linear
sweep per triangulation, on first use, kept on the triangulation and read
by ``quiver_of`` and the dual-tree maps of ``trees``.  ``quiver_of`` keeps
its quiver on the triangulation the same way.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import islice
from operator import itemgetter

from .errors import BoundExceededError, _check_int, _check_type, _Value
from .quiver import Quiver

# largest n of a JSON triangulation, read or written: checking it builds
# the n-gon's diagonal table and a compatibility row for every rotation
# orbit its diagonals meet, about n^2 crossing numbers per orbit.  The worst
# input meets all n orbits (arcs of every span from one vertex and the tagged
# radius pair there): at n = 50 its cold `convert --to tree` takes 0.4 s on
# a shared 2-core host, and a plain fan of this size 0.1 s
MAX_JSON_N = 50

PLAIN = "plain"
NOTCHED = "notched"
_TAGS = (PLAIN, NOTCHED)

__all__ = [
    "PLAIN",
    "NOTCHED",
    "Arc",
    "Radius",
    "Diagonal",
    "Triangulation",
    "all_diagonals",
    "class_key",
    "class_representative",
    "close_to_border",
    "crossing_number",
    "diagonal_sort_key",
    "enumerate_triangulations",
    "factor_out",
    "fan_triangulation",
    "flip",
    "invert_tags",
    "mu",
    "opposite_tag",
    "quiver_of",
    "quiver_vertex",
    "rotate",
    "span",
    "tau",
    "triangulation_class_count",
    "triangulation_classes",
    "triangulation_from_json_obj",
    "triangulation_to_json_obj",
]


# Arc and Radius are immutable values, equal and hashed by their fields (``errors._Value``).
# object.__setattr__ keeps attribute reads faster than vars(self) would.
class Arc(_Value, fields=("a", "b")):
    def __init__(self, a: int, b: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class Radius(_Value, fields=("a", "tag")):
    def __init__(self, a: int, tag: str) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "tag", tag)


Diagonal = Arc | Radius


def opposite_tag(tag: str) -> str:
    return NOTCHED if tag == PLAIN else PLAIN


def check_diagonal(d: Diagonal, n: int) -> None:
    """Raise ValueError unless ``d`` is a valid diagonal of the n-gon.

    n and the endpoints must be ints; a bool or a float is rejected, since
    ``Radius(True, PLAIN)`` would otherwise pass as ``Radius(1, PLAIN)``.
    """
    _check_int("punctured polygon", "n", n, 3)
    if isinstance(d, Arc):
        if type(d.a) is not int or type(d.b) is not int:
            raise ValueError(f"{d} endpoints must be integers")
        if not (0 <= d.a < n and 0 <= d.b < n):
            raise ValueError(f"{d} endpoints out of range for n={n}")
        if not 2 <= (d.b - d.a) % n <= n - 1:
            raise ValueError(f"{d} is not a valid arc for n={n}")
    elif isinstance(d, Radius):
        if type(d.a) is not int:
            raise ValueError(f"{d} base must be an integer")
        if not 0 <= d.a < n:
            raise ValueError(f"{d} base out of range for n={n}")
        if d.tag not in _TAGS:
            raise ValueError(f"{d} has unknown tag")
    else:
        raise ValueError(f"not a diagonal: {d!r}")


def span(d: Arc, n: int) -> int:
    """Counterclockwise span (b - a) mod n of an arc; lies in 2..n-1."""
    return (d.b - d.a) % n


def diagonal_sort_key(d: Diagonal) -> tuple[int, int, int]:
    """Deterministic order: arcs before radii, then indices, then tag."""
    if isinstance(d, Arc):
        return (0, d.a, d.b)
    return (1, d.a, 0 if d.tag == PLAIN else 1)


# -- crossing numbers --------------------------------------------------------


def crossing_number(d1: Diagonal, d2: Diagonal, n: int) -> int:
    """Minimal number of interior intersections of representatives.

    Zero means the diagonals are compatible; symmetric in its arguments.
    """
    check_diagonal(d1, n)
    check_diagonal(d2, n)
    if isinstance(d1, Radius) and isinstance(d2, Radius):
        return int(d1.a != d2.a and d1.tag != d2.tag)
    if isinstance(d1, Radius):
        d1, d2 = d2, d1
    # positions counterclockwise from d1's start, so d1 runs from 0 to k
    k = span(d1, n)
    a = (d2.a - d1.a) % n
    if isinstance(d2, Radius):
        return int(0 < a < k)
    b = (d2.b - d1.a) % n
    if a < b <= k:
        # d2 runs inside the disk that d1 cuts off
        return 0
    return (0 < a < k) + (0 < b < k)


def all_diagonals(n: int) -> list[Diagonal]:
    """Every diagonal of the punctured n-gon: n(n-2) arcs plus 2n radii."""
    _check_int("punctured polygon", "n", n, 3)
    # in index order (``_index``), which is ``diagonal_sort_key`` order
    out: list[Diagonal] = [
        Arc(a, b) for a in range(n) for b in range(n) if (b - a) % n >= 2
    ]
    out.extend(Radius(a, tag) for a in range(n) for tag in _TAGS)
    return out


# -- the per-n diagonal table ------------------------------------------------


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _token(d: Diagonal) -> str:
    if isinstance(d, Arc):
        return f"A{d.a},{d.b}"
    return f"R{d.a},{'p' if d.tag == PLAIN else 'n'}"


def _arc_index(n: int, a: int, b: int) -> int:
    """Index of ``Arc(a, b)``: the arcs from a come in order of b, skipping a and a + 1."""
    return a * (n - 2) + b - (b > a) - (b > (a + 1) % n)


def _index(n: int, d: Diagonal) -> int:
    """Index of the checked diagonal ``d`` in the n-gon's table: the one statement of the layout.

    The n(n - 2) arcs come first, by ``_arc_index``; radius (a, tag) is
    n(n - 2) + 2a, plus one when it is notched.
    """
    if isinstance(d, Arc):
        return _arc_index(n, d.a, d.b)
    return n * (n - 2) + 2 * d.a + (d.tag == NOTCHED)


class _DiagonalTable:
    """Index of the diagonals of the punctured n-gon for mask arithmetic.

    Diagonal i is ``diagonals[i]``, and ``_index`` maps it back to i by
    arithmetic.  The index is in ``diagonal_sort_key`` order, so ascending
    bit order is ``sorted_diagonals`` order.  ``step`` and ``inverse`` are
    the index permutations of one clockwise rotation step and of tag
    inversion, and ``tokens`` holds each diagonal's serialization token.
    Compatibility rows are filled one rotation orbit at a time, on first
    use: the orbit's member at vertex 0 gets its row from
    ``crossing_number``, whose interval rule reads positions
    counterclockwise from vertex 0 directly, and the other members get it by
    rotation, so no all-pairs table is ever built.
    """

    __slots__ = ("n", "diagonals", "step", "inverse", "tokens", "_rows")

    def __init__(self, n: int):
        self.n = n
        self.diagonals = tuple(all_diagonals(n))
        arcs = n * (n - 2)
        # one step takes arc (a, b) to (a - 1, b - 1) and radius (a, tag) to
        # (a - 1, tag); the radii are the top 2n indices, two per base
        self.step = tuple(
            _arc_index(n, (a - 1) % n, (b - 1) % n)
            for a in range(n)
            for b in range(n)
            if (b - a) % n >= 2
        ) + tuple(arcs + (j - 2) % (2 * n) for j in range(2 * n))
        self.inverse = tuple(range(arcs)) + tuple(arcs + (j ^ 1) for j in range(2 * n))
        self.tokens = tuple(_token(d) for d in self.diagonals)
        # 0 marks a row not built yet: a real row has at least its own bit
        self._rows = [0] * len(self.diagonals)

    def row(self, i: int) -> int:
        """Mask of the diagonals compatible with diagonal i, i included."""
        if not self._rows[i]:
            self._fill_orbit(self.diagonals[i])
        return self._rows[i]

    def _fill_orbit(self, d: Diagonal) -> None:
        n = self.n
        root = Arc(0, span(d, n)) if isinstance(d, Arc) else Radius(0, d.tag)
        # one byte per diagonal, 1 where compatible: permuting the bytes and
        # int(..., 2) run in C, where or-ing in single bits would be
        # quadratic in the row length
        row = bytes(crossing_number(root, x, n) == 0 for x in self.diagonals)
        back = [0] * len(self.diagonals)
        for k, j in enumerate(self.step):
            back[j] = k
        move = itemgetter(*back)
        i = _index(n, root)
        # rotation preserves crossing numbers, so one step moves the row of
        # diagonal i onto the row of diagonal step[i]
        for _ in range(n):
            self._rows[i] = int(row.translate(_BINARY_DIGITS)[::-1], 2)
            i = self.step[i]
            row = bytes(move(row))


@lru_cache(maxsize=8, typed=True)
def _diagonal_table(n: int) -> _DiagonalTable:
    # typed: a float n must fail in all_diagonals, not get the int n's table.
    # Bounded, so a caller that checks polygons of many sizes does not keep
    # every table (14.5 MB at n = 200); a table evicted is rebuilt on demand.
    return _DiagonalTable(n)


# -- triangulations ----------------------------------------------------------


def _radius_config(n: int, mask: int) -> tuple[str, tuple[int, ...]]:
    """Return ("A", sorted bases) or ("B", (base,)); raise if malformed.

    Reads the radius bits of a triangulation mask, its top 2n bits in the
    layout of ``_index``.
    """
    radii = mask >> n * (n - 2)
    plain = radii & ((1 << 2 * n) - 1) // 3
    count = radii.bit_count()
    if count == 2 and radii == 3 * plain:
        # a plain radius and the notched one at its base
        return ("B", ((plain.bit_length() - 1) >> 1,))
    if count >= 2 and plain in (0, radii):
        # one tag, so one radius per base
        return ("A", tuple(i >> 1 for i in _bits(radii)))
    raise ValueError(
        "radii must form either a same-tag fan at >= 2 vertices or an "
        "opposite-tag pair at one vertex"
    )


class Triangulation(_Value, fields=("n", "mask")):
    """A maximal set of n pairwise non-crossing diagonals.

    A value (``errors._Value``) of n and ``mask``, which has bit
    ``_index(n, d)`` set for each of its diagonals d.
    ``Triangulation(n, diagonals)`` checks its input once: each diagonal,
    the cardinality, pairwise compatibility and the radius tag structure.
    Every triangulation the package builds itself comes from a mask that is
    one by construction, through ``Triangulation._of``, which reads only the
    radius shape.
    ``sorted_diagonals``, the region decomposition and the quiver are
    derived on first use and kept; ``diagonals`` is built on each access, so
    that an instance stays 88 bytes (``sys.getsizeof``) in the enumerations
    that hold thousands.  The slots stay writable to fill those views in
    place, since a read-only ``__setattr__`` adds 0.5-0.9 us to each
    ``_of``; so n and ``mask`` are immutable by convention only.
    """

    __slots__ = ("n", "mask", "config", "radius_bases", "_sorted", "_decomposition", "_quiver")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, n: int, diagonals: Iterable[Diagonal]):
        _check_int("punctured polygon", "n", n, 3)
        # each diagonal is checked before its index is read
        indices = set()
        for d in diagonals:
            check_diagonal(d, n)
            indices.add(_index(n, d))
        # counted before the mask and the table are built, whose sizes grow as n^2
        if len(indices) != n:
            raise ValueError(
                f"a triangulation of the {n}-gon needs {n} diagonals, got {len(indices)}"
            )
        table = _diagonal_table(n)
        mask = _mask(indices)
        for i in _bits(mask):
            crossed = mask & ~table.row(i)
            if crossed:
                # the first i with a crossing crosses only later diagonals, so
                # this is the first crossing pair in sorted order
                j = (crossed & -crossed).bit_length() - 1
                raise ValueError(f"diagonals cross: {table.diagonals[i]} and {table.diagonals[j]}")
        self._set(n, mask)

    @classmethod
    def _of(cls, n: int, mask: int) -> Triangulation:
        """The triangulation with this mask, unchecked but for its radius shape."""
        t = cls.__new__(cls)
        t._set(n, mask)
        return t

    def _set(self, n: int, mask: int) -> None:
        self.config, self.radius_bases = _radius_config(n, mask)
        self.n = n
        self.mask = mask
        self._sorted = self._decomposition = self._quiver = None

    @property
    def sorted_diagonals(self) -> tuple[Diagonal, ...]:
        """The diagonals in ``diagonal_sort_key`` order."""
        if self._sorted is None:
            diagonals = _diagonal_table(self.n).diagonals
            self._sorted = tuple([diagonals[i] for i in _bits(self.mask)])
        return self._sorted

    @property
    def diagonals(self) -> frozenset[Diagonal]:
        return frozenset(self.sorted_diagonals)

    def __repr__(self) -> str:
        inner = ", ".join(repr(d) for d in self.sorted_diagonals)
        return f"Triangulation({self.n}, [{inner}])"


def _member_bit(t: Triangulation, d: Diagonal) -> int:
    """The mask bit of ``d`` in t; ValueError unless d is one of t's diagonals."""
    try:
        check_diagonal(d, t.n)
    except ValueError:
        i = None
    else:
        i = _index(t.n, d)
    if i is None or not t.mask >> i & 1:
        raise ValueError(f"{d} is not a diagonal of the triangulation")
    return 1 << i


def triangulation_to_json_obj(t: Triangulation) -> dict:
    out = []
    for d in t.sorted_diagonals:
        if isinstance(d, Arc):
            out.append({"arc": [d.a, d.b]})
        else:
            out.append({"radius": d.a, "tag": d.tag})
    return {"n": t.n, "diagonals": out}


def _check_json_n(n: int) -> None:
    """Refuse a JSON triangulation past ``MAX_JSON_N``, before any table is built."""
    if type(n) is int and n > MAX_JSON_N:
        raise BoundExceededError(f"n = {n} exceeds the JSON triangulation limit {MAX_JSON_N}")


def triangulation_from_json_obj(obj: dict) -> Triangulation:
    # only the JSON shape and the size limit: Triangulation checks every value
    if not isinstance(obj, dict) or "n" not in obj or "diagonals" not in obj:
        raise ValueError('expected an object with "n" and "diagonals"')
    n = obj["n"]
    _check_json_n(n)
    if not isinstance(obj["diagonals"], list):
        raise ValueError('"diagonals" must be a list')
    ds: list[Diagonal] = []
    for item in obj["diagonals"]:
        if isinstance(item, dict) and item.keys() == {"arc"}:
            ends = item["arc"]
            if not isinstance(ends, list) or len(ends) != 2:
                raise ValueError(f"an arc needs two endpoints, got {ends!r}")
            ds.append(Arc(*ends))
        elif isinstance(item, dict) and item.keys() == {"radius", "tag"}:
            ds.append(Radius(item["radius"], item["tag"]))
        else:
            raise ValueError(f"unrecognized diagonal entry: {item!r}")
    return Triangulation(n, ds)


def fan_triangulation(n: int, tag: str = PLAIN) -> Triangulation:
    """The fan of n same-tag radii; its quiver is the oriented n-cycle."""
    return Triangulation(n, (Radius(a, tag) for a in range(n)))


def flip(t: Triangulation, d: Diagonal) -> Triangulation:
    """Exchange ``d`` for the unique other diagonal completing t - {d}.

    ANDs the compatibility masks of the n - 1 remaining diagonals; exactly
    two diagonals outside them must survive (``d`` and its replacement),
    anything else signals a defect in the crossing rules.
    """
    bit = _member_bit(t, d)
    table = _diagonal_table(t.n)
    rest = t.mask ^ bit
    survivors = ((1 << len(table.diagonals)) - 1) ^ rest
    for i in _bits(rest):
        survivors &= table.row(i)
    if survivors.bit_count() != 2 or not survivors & bit:
        candidates = [table.diagonals[i] for i in _bits(survivors)]
        raise AssertionError(
            f"flip expected exactly two completions of t - {{{d}}}, got {candidates}"
        )
    return Triangulation._of(t.n, rest | (survivors ^ bit))


# -- symmetries --------------------------------------------------------------


def _images(table: _DiagonalTable, bits: list[int]) -> Iterator[list[int]]:
    """The 2n images of the diagonal indices ``bits``, each a list in no set order.

    Image k < n is k clockwise rotation steps, and image n + k is tag
    inversion followed by k steps.  Rotation and tag inversion commute, so
    these are the whole orbit under the group they generate, of order 2n.
    """
    step = table.step
    for image in (bits, [table.inverse[j] for j in bits]):
        for _ in range(table.n):
            yield image
            image = [step[j] for j in image]


def rotate(t: Triangulation, i: int) -> Triangulation:
    """Rotate ``i`` steps clockwise: border index a becomes (a - i) mod n."""
    _check_type("rotation steps", i)
    images = _images(_diagonal_table(t.n), _bits(t.mask))
    return Triangulation._of(t.n, _mask(next(islice(images, i % t.n, None))))


def invert_tags(t: Triangulation) -> Triangulation:
    """Flip the tag of every radius; an involution."""
    inverse = _diagonal_table(t.n).inverse
    return Triangulation._of(t.n, _mask(inverse[j] for j in _bits(t.mask)))


def _least_image(t: Triangulation) -> tuple[str, list[int]]:
    """Least serialization (after "n|") over the 2n images of t, and its indices.

    The images are compared as serialized strings, never built as
    Triangulations.
    """
    table = _diagonal_table(t.n)
    best: tuple[str, list[int]] | None = None
    for image in _images(table, _bits(t.mask)):
        image.sort()
        text = ";".join([table.tokens[j] for j in image])
        if best is None or text < best[0]:
            best = (text, image)
    assert best is not None
    return best


def class_key(t: Triangulation) -> bytes:
    """Minimal serialization over all rotations and the tag inversion.

    Two triangulations get equal keys iff one is carried to the other by
    some rotation, possibly composed with inverting all tags.
    """
    return f"{t.n}|{_least_image(t)[0]}".encode()


def class_representative(t: Triangulation) -> tuple[bytes, Triangulation]:
    """``class_key(t)`` and the image of t that has that serialization."""
    text, image = _least_image(t)
    return f"{t.n}|{text}".encode(), Triangulation._of(t.n, _mask(image))


def _orbit_images(table: _DiagonalTable) -> list[int]:
    """Per diagonal, its 2n images packed as one bit in each of 2n fields.

    Field k holds image k of ``_images``, a mask and a guard bit, always 0,
    above it.  ORed over a triangulation's diagonals, field k is the mask
    of that image of the triangulation, and field 0 is its own mask.
    """
    size = len(table.diagonals)
    return [
        sum(1 << k * (size + 1) + j for k, (j,) in enumerate(_images(table, [i])))
        for i in range(size)
    ]


def _beaten(table: _DiagonalTable):
    """``beaten(images)``: nonzero iff a packed image is smaller than field 0.

    Masks are ordered by sorted diagonal indices: an image is smaller iff
    the lowest bit in which it differs is set in it.  All fields are tested
    at once; each field's guard bit stops the subtraction's borrow.
    """
    size = len(table.diagonals)
    ones = sum(1 << k * (size + 1) for k in range(2 * table.n))
    full, guards = (1 << size) - 1, ones << size

    def beaten(images: int) -> int:
        mine = (images & full) * ones
        x = images ^ mine
        return x & ~((x | guards) - ones | mine)

    return beaten


def _orbits(n: int) -> Iterator[int]:
    """The 2n packed images of each class's least member, by orderly generation.

    Backtracks in index order over the compatibility masks of all
    diagonals for size-n sets of pairwise compatible ones (each is maximal,
    hence a triangulation), ORing in ``_orbit_images`` of each chosen one.
    As diagonals are added in increasing order, if an image of a partial
    clique is smaller, so is that image of every completion, and a branch
    that ``_beaten`` finds is dropped (Read 1978; McKay 1998).  So each
    class is reached once, at its least member in field 0, whose radius
    shape is read.
    """
    table = _diagonal_table(n)
    images, beaten = _orbit_images(table), _beaten(table)
    full = (1 << len(images)) - 1
    compat = [table.row(i) for i in range(len(images))]
    stack = [(full, n, 0)]
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
            out = acc | images[i]
            if beaten(out):
                continue
            if need == 1:
                _radius_config(n, out & full)
                yield out
            else:
                stack.append((rest & compat[i], need - 1, out))


def enumerate_triangulations(n: int) -> set[Triangulation]:
    """All triangulations of the punctured n-gon: every field of ``_orbits``."""
    size = len(_diagonal_table(n).diagonals)
    full, shifts = (1 << size) - 1, range(0, 2 * n * (size + 1), size + 1)
    masks = {orbit >> shift & full for orbit in _orbits(n) for shift in shifts}
    return {Triangulation._of(n, mask) for mask in masks}


def triangulation_classes(n: int) -> dict[bytes, Triangulation]:
    """``{class_key(t): class representative}`` over all triangulations of the n-gon.

    A ``Triangulation`` is built only for the least member of each class,
    which ``class_representative`` turns into the key and the representative.
    """
    full = (1 << len(_diagonal_table(n).diagonals)) - 1
    return dict(class_representative(Triangulation._of(n, orbit & full)) for orbit in _orbits(n))


def triangulation_class_count(n: int) -> int:
    """Number of triangulation classes, without building any of them."""
    return sum(1 for _ in _orbits(n))


def tau(d: Diagonal, n: int) -> Diagonal:
    """Clockwise rotation by one step; radii also flip their tag."""
    check_diagonal(d, n)
    if isinstance(d, Arc):
        return Arc((d.a - 1) % n, (d.b - 1) % n)
    return Radius((d.a - 1) % n, opposite_tag(d.tag))


def mu(d: Diagonal) -> Diagonal:
    """Flip the tag of a radius; arcs are untouched.  An involution."""
    if isinstance(d, Radius):
        return Radius(d.a, opposite_tag(d.tag))
    return d


def close_to_border(d: Diagonal, n: int) -> bool:
    """True iff ``d`` is an arc of span 2 (it cuts off a single vertex)."""
    check_diagonal(d, n)
    return isinstance(d, Arc) and span(d, n) == 2


def factor_out(t: Triangulation, d: Diagonal) -> Triangulation:
    """Turn a close-to-border arc into a border edge.

    Removes ``d = Arc(a, a+2)`` together with the border vertex a+1 it
    cuts off (no other diagonal can touch that vertex) and renumbers the
    remaining vertices, producing a triangulation of the (n-1)-gon.
    """
    n = t.n
    _member_bit(t, d)
    if not close_to_border(d, n):
        raise ValueError(f"{d} is not close to the border")
    if n < 4:
        raise ValueError("factoring out needs n >= 4")
    removed = (d.a + 1) % n

    def relabel(v: int) -> int:
        return v if v < removed else v - 1

    moved: list[Diagonal] = []
    for x in t.sorted_diagonals:
        if x == d:
            continue
        if isinstance(x, Arc):
            moved.append(Arc(relabel(x.a), relabel(x.b)))
        else:
            moved.append(Radius(relabel(x.a), x.tag))
    return Triangulation(n - 1, moved)


# -- the region decomposition ------------------------------------------------
#
# The radii cut the polygon into puncture-adjacent regions.  Border positions
# are absolute (they run past n); the region between cyclically consecutive
# radius bases u < v is the window (u, v), and in config B the single window
# (a, a + n) runs once around from the radius pair.  The arcs inside a window
# triangulate it, and those triangles form a full binary tree: its root is
# the triangle on side (u, v), whose apex w splits the window into (u, w) and
# (w, v), and a leaf is a border edge.  The trees in window order are the
# beads of the dual star tree (``trees.star_tree_of``).

LEAF = "L"


def _decomposition(t: Triangulation) -> tuple[tuple, tuple]:
    """``(regions, triangles)`` of t, computed on first use and kept on t.

    ``regions`` holds (start, end, tree) per puncture-adjacent region,
    counterclockwise from the smallest radius base; a tree is ``LEAF`` or
    the pair of the trees of (start, apex) and (apex, end).  ``triangles``
    holds each tree triangle (u, w, v), w the apex on side (u, v), region by
    region in post-order.  Both are tuples, so racing callers store equal
    immutable values.
    """
    if t._decomposition is None:
        t._decomposition = _decompose(t)
    return t._decomposition


def _decompose(t: Triangulation) -> tuple[tuple, tuple]:
    """One sweep over the border positions x, linear in n.

    A stack holds the sides that cut the window from its start to x.  At x
    the border edge (x - 1, x) is pushed, and each side (s, x), inner sides
    first, joins the top two, which must run from s to an apex and on to x.
    In config B the loop closes the single window like an arc.
    """
    n, first = t.n, t.radius_bases[0]
    closing: list[list[int]] = [[] for _ in range(n + 1)]  # starts by end - first
    for d in t.sorted_diagonals:
        if isinstance(d, Arc):
            s = (d.a - first) % n
            closing[s + (d.b - d.a) % n].append(first + s)
    if t.config == "B":
        closing[n].append(first)
    ends = set(t.radius_bases[1:]) | {first + n}
    regions, triangles, stack = [], [], []
    for x in range(first + 1, first + n + 1):
        stack.append((x - 1, LEAF))
        for s in sorted(closing[x - first], reverse=True):
            w, right = stack.pop()
            if not stack or stack[-1][0] != s:
                raise AssertionError(f"no apex between {s} and {x}")
            stack[-1] = (s, (stack[-1][1], right))
            triangles.append((s, w, x))
        if x in ends:
            if len(stack) != 1:
                raise AssertionError(f"no apex between {stack[0][0]} and {x}")
            u, tree = stack.pop()
            regions.append((u, x, tree))
    return tuple(regions), tuple(triangles)


# -- the quiver of a triangulation -------------------------------------------
#
# Each triangle is traversed with its sides in counterclockwise order; a side
# points an arrow at its cyclic predecessor, which realizes "rotate the
# diagonal counterclockwise about the shared corner" (border edges are not
# vertices: they share a spare vertex n, whose arrows are skipped).  With
# this convention the plain fan maps to the cycle 0 -> 1 -> ... -> n-1 -> 0.
# Opposite arrows cancel in the net count of each pair, which is exactly the
# required deletion of oriented 2-cycles.
#
# In config B the two tagged radii bound separate copies of the triangle
# outside their loop, so each radius picks up its own arrows against the two
# outer sides, but the arrow between the outer sides themselves exists only
# once (they bound a single region).


def quiver_of(t: Triangulation) -> Quiver:
    """Adjacency quiver of a triangulation, computed on first use and kept on t.

    One vertex per diagonal, in the order of ``t.sorted_diagonals``.  Two
    sides of a common triangle contribute an arrow oriented by rotating
    counterclockwise about their shared corner; oriented 2-cycles cancel.
    A ``Quiver`` is immutable, so racing callers store equal values.
    """
    if t._quiver is None:
        t._quiver = _build_quiver(t)
    return t._quiver


def _build_quiver(t: Triangulation) -> Quiver:
    """The quiver of t's triangles, with sides keyed by integers.

    Side (a, b) of an arc or a border edge keys as a * n + b and radius
    (a, tag) as n * n + 2a, plus one when notched; ``vertex`` maps a key to
    its quiver vertex, and a border edge to the spare vertex n.
    """
    n, ds = t.n, t.sorted_diagonals
    nn = n * n
    vertex = [n] * (nn + 2 * n)
    for i, d in enumerate(ds):
        vertex[d.a * n + d.b if d.__class__ is Arc else nn + 2 * d.a + (d.tag == NOTCHED)] = i
    arrows = []
    regions, triangles = _decomposition(t)
    if t.config == "A":
        r = nn + (ds[-1].tag == NOTCHED)  # radius (a, tag) keys as r + 2a; radii sort last
        cycles = [
            (vertex[r + 2 * u], vertex[u * n + v % n], vertex[r + 2 * (v % n)])
            for u, v, _ in regions
        ]
    else:
        # the root triangle's third side is the loop: one copy per radius,
        # but the outer sides bound one region, so an arrow before -> after
        # takes one copy's arrow after -> before back
        *triangles, (u, w, v) = triangles
        before, after = vertex[u * n + w % n], vertex[w % n * n + v % n]
        cycles = [(vertex[nn + 2 * u + k], before, after) for k in (0, 1)]
        arrows.append((before, after))
    for u, w, v in triangles:
        u, w, v = u % n, w % n, v % n
        cycles.append((vertex[u * n + w], vertex[w * n + v], vertex[u * n + v]))
    # sides x, y, z in ccw order: arrows x -> z, y -> x and z -> y; the net
    # count of arrows i -> j minus j -> i is kept once per pair i < j
    net: dict[tuple[int, int], int] = {}
    for i, j in arrows + [a for x, y, z in cycles for a in ((x, z), (y, x), (z, y))]:
        if i < j < n:
            net[i, j] = net.get((i, j), 0) + 1
        elif j < i < n:
            net[j, i] = net.get((j, i), 0) - 1
    if any(abs(x) > 1 for x in net.values()):
        raise AssertionError("triangulation quiver acquired a multiple arrow")
    out = sorted((i, j, x) if x > 0 else (j, i, -x) for (i, j), x in net.items() if x)
    return Quiver._of(n, tuple(out))


def quiver_vertex(t: Triangulation, d: Diagonal) -> int:
    """Vertex index of ``d`` in quiver_of(t): the number of t's diagonals sorting before it."""
    return (t.mask & (_member_bit(t, d) - 1)).bit_count()
