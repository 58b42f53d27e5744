"""Command line front end: count, enumerate, convert, verify, mutate.

Exit codes: 0 success (verify: all agreements hold), 1 verification
failure, 2 usage or input error, 3 resource bound exceeded.  Output is
deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import os
import re
import stat
import sys
import time
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import counting, polygon, quiver, trees
from .errors import BoundExceededError

# json and decimal are imported in the functions that use them (convert,
# mutate and verify --json; count), so that other commands start faster


def _parse_orientation(text: str | None, edges: int) -> list[bool] | None:
    if text is None:
        return None
    if len(text) != edges or any(c not in "01" for c in text):
        raise ValueError(
            f"--seed-orientation needs {edges} characters of 0/1, got {text!r}"
        )
    return [c == "1" for c in text]


def _parse_int(text: str) -> int:
    """Every integer argument: ASCII digits with an optional leading minus.

    int() would also take "1_0", " 2", "+2" and other scripts' digits.  The
    error reads as argparse's own for ``type=int``, which exits 2.
    """
    if re.fullmatch("-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


@contextlib.contextmanager
def _output(out: str | None):
    """Yield a write function for ``out``, or for stdout when it is None.

    The file is opened on entry, so a bad path fails before any work done
    inside the block; if the block raises, the file is removed, so a failed
    command leaves no partial output behind.  ``convert`` and ``mutate``
    enter it only after reading their input, which ``out`` may name.
    """
    if out is None:
        yield sys.stdout.write
        # a reader that closed stdout early fails the command here, before
        # it reports what it wrote
        sys.stdout.flush()
        return
    fh = open(out, "w", encoding="utf-8")
    opened = os.fstat(fh.fileno())
    try:
        with fh:
            yield fh.write
    except BaseException:
        # remove only the regular file opened here: never a device such as
        # /dev/null, nor a symlink such as /dev/stdout; a failed removal
        # must not hide the error that caused it
        with contextlib.suppress(OSError):
            if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.lstat(out)):
                os.remove(out)
        raise


# -- JSON text ----------------------------------------------------------------
#
# One text writer per object type.  ``writer(objects, depth)`` yields each
# object's JSON text at indent depth ``depth``, byte for byte what
# ``json.dumps(to_json_obj(obj), indent=2, sort_keys=True)`` writes for it
# nested ``depth`` levels deep; with an indent, json.dumps runs CPython's
# pure-Python encoder.  A writer's memo lives for one call, so the parts
# that repeat across the objects of one call are formatted once.


def _quiver_texts(quivers: Iterable[quiver.Quiver], depth: int) -> Iterator[str]:
    pad = "\n" + "  " * depth
    head = "{" + pad + '  "arrows": ['
    arrow = pad + "    [" + pad + "      {}," + pad + "      {}" + pad + "    ]"
    close = pad + "  "
    tail = "]," + pad + '  "rank": '
    end = pad + "}"
    for q in quivers:
        # arrows() repeats a multiple arrow, as to_json_obj does
        arrows = ",".join([arrow.format(i, j) for i, j in q.arrows()])
        yield head + (arrows + close if arrows else "") + tail + str(q.rank) + end


def _triangulation_texts(ts: Iterable[polygon.Triangulation], depth: int) -> Iterator[str]:
    pad = "\n" + "  " * depth
    memo: dict = {}  # diagonal -> its text

    def diagonal(d: polygon.Diagonal) -> str:
        text = memo.get(d)
        if text is None:
            inner = pad + "      "
            if isinstance(d, polygon.Arc):
                body = '"arc": [' + inner + f"  {d.a}," + inner + f"  {d.b}" + inner + "]"
            else:
                # the tag is one of two plain ASCII words, so it needs no escaping
                body = f'"radius": {d.a},' + inner + f'"tag": "{d.tag}"'
            text = memo[d] = "{" + inner + body + pad + "    }"
        return text

    head = "{" + pad + '  "diagonals": [' + pad + "    "
    sep = "," + pad + "    "
    tail = pad + "  ]," + pad + '  "n": '
    end = pad + "}"
    for t in ts:
        yield head + sep.join([diagonal(d) for d in t.sorted_diagonals]) + tail + str(t.n) + end


def _star_texts(stars: Iterable[trees.StarTree], depth: int) -> Iterator[str]:
    # (bead, depth) -> text: the stars of one class map share most of their
    # small beads.  Only texts of at most 512 characters are kept, because a
    # deeply nested bead's subtrees would take memory quadratic in its depth,
    # and a bead with longer text is written piece by piece into ``out``.
    memo: dict = {}

    def bead(b: trees.BinaryTree, d: int, out: list) -> int:
        """Append the text of ``b`` at depth ``d`` to ``out``; return its length."""
        key = (b, d)
        text = memo.get(key)
        if text is None:
            if b == trees.LEAF:
                text = '"L"'
            else:
                start = len(out)
                inner = "\n" + "  " * (d + 1)
                close = inner[:-2] + "]"
                out.append("[" + inner)
                size = bead(b[0], d + 1, out)
                out.append("," + inner)
                size += bead(b[1], d + 1, out)
                out.append(close)
                size += 2 * len(inner) + 2 + len(close)
                if size > 512:
                    return size
                text = "".join(out[start:])
                del out[start:]
            memo[key] = text
        out.append(text)
        return len(text)

    pad = "\n" + "  " * depth
    head = "{" + pad + '  "beads": [' + pad + "    "
    sep = "," + pad + "    "
    tail = pad + "  ]" + pad + "}"
    for star in stars:
        out: list = []
        for i, b in enumerate(star):
            if i:
                out.append(sep)
            bead(b, depth + 2, out)
        yield head + "".join(out) + tail


def _json_text(writer: Callable[[Iterable, int], Iterator[str]], obj) -> str:
    """``obj`` as a whole JSON document: its text at depth 0 and a newline."""
    return next(writer([obj], 0)) + "\n"


# route -> its record: its desk-scale bounds on n, for verify's count
# (overridden by the --*-bound options) and for enumerate's JSON
# (overridden by --bound), its JSON text writer, the verify report field
# holding its count, its wall_time entry, and its class map
# ``{class key: representative}`` and class count at n, given the parsed
# seed orientation, which only the quiver route reads.  enumerate writes a
# class map's representatives in key order and verify counts the same
# classes; the triangulation and tree routes count without building them.
# Each function looks its module's function up at call time, so a test that
# monkeypatches that function reaches the route.  The tree count reaches
# past the tree JSON, whose size limits enumerate: 61 MB at n = 12, about
# four times that for each further leaf.  It builds key tables only up to
# max(n - 6, n // 2) leaves, so verify 19 19 takes about 1.5 s at 21 MB.
_ROUTES = dict(zip(
    ("quivers", "triangulations", "trees"),
    map(collections.namedtuple(
        "Route", "verify_bound enumerate_bound writer field timer classes count"
    )._make, [
        (10, 10, _quiver_texts, "quiver_bfs_count", "quiver_bfs",
         lambda n, o: quiver.mutation_class_representatives(quiver.dynkin_d(n, o)),
         lambda n, o: len(quiver.mutation_class_representatives(quiver.dynkin_d(n, o)))),
        (10, 9, _triangulation_texts, "triangulation_class_count", "triangulations",
         lambda n, o: polygon.triangulation_classes(n),
         lambda n, o: polygon.triangulation_class_count(n)),
        (19, 12, _star_texts, "tree_count", "trees",
         lambda n, o: trees.star_tree_classes(n),
         lambda n, o: trees.star_tree_class_count(n)),
    ]),
))


# -- count --------------------------------------------------------------------


# below this many bits Decimal(int) is fast enough to convert directly
_DECIMAL_LEAF_BITS = 1024


def _decimal(value: int) -> decimal.Decimal:
    """``value >= 0`` as an exact Decimal, by divide and conquer.

    ``Decimal(value)`` converts digit by digit, in time quadratic in the
    length.  Splitting at a power of two 2^k, converting the halves and
    joining them with ``hi * 2^k + lo`` in libmpdec, whose multiplication
    is fast on large operands, is much quicker past a few thousand digits.
    The context is exact (``MAX_PREC``, and rounding would raise), so the
    digits are those of ``str(Decimal(value))``.
    """
    import decimal

    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact]
    )
    powers: dict[int, decimal.Decimal] = {}  # k -> 2^k

    def power(k: int) -> decimal.Decimal:
        if k not in powers:
            if k <= _DECIMAL_LEAF_BITS:
                powers[k] = decimal.Decimal(1 << k)
            else:
                powers[k] = ctx.multiply(power(k // 2), power(k - k // 2))
        return powers[k]

    def convert(v: int, bits: int) -> decimal.Decimal:
        # 0 <= v < 2^bits
        if bits <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(v)
        k = bits // 2
        hi = v >> k
        return ctx.add(ctx.multiply(convert(hi, bits - k), power(k)), convert(v - (hi << k), k))

    return convert(value, value.bit_length())


def _cmd_count(args) -> int:
    value = counting.d_count(args.n) if args.type == "D" else counting.a_count(args.n)
    # str(int) refuses values past 4300 digits and a Decimal prints them
    # exactly; sys.set_int_max_str_digits would change the whole process
    print(_decimal(value))
    return 0


# -- enumerate ----------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    if args.seed_orientation is not None and args.what != "quivers":
        raise ValueError("--seed-orientation applies only to --what quivers")
    route = _ROUTES[args.what]
    bound = route.enumerate_bound if args.bound is None else args.bound
    # every input check comes before --out is opened, which truncates it
    if args.n < 3:
        raise ValueError(f"enumeration starts at n = 3, got {args.n}")
    if args.n > bound:
        raise BoundExceededError(
            f"{args.what[:-1]} enumeration supports n <= {bound}, got {args.n}"
        )
    orientation = _parse_orientation(args.seed_orientation, args.n - 1)
    with _output(args.out) as write:
        classes = route.classes(args.n, orientation)
        # the array json.dumps writes, one element at a time: a class map
        # is never empty, since n >= 3
        opening = "[\n  "
        for text in route.writer((classes[key] for key in sorted(classes)), 1):
            write(opening + text)
            opening = ",\n  "
        write("\n]\n")
    print(len(classes), file=sys.stderr if args.out is None else sys.stdout)
    return 0


# -- convert ------------------------------------------------------------------


def _load_json(path: str):
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply to read") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_convert(args) -> int:
    if args.format == "dot" and args.to != "quiver":
        raise ValueError("--format dot applies only to --to quiver")
    obj = _load_json(args.input)
    if args.source == "triangulation":
        t = polygon.triangulation_from_json_obj(obj)
        if args.to == "quiver":
            q = polygon.quiver_of(t)
            text = q.to_dot() if args.format == "dot" else _json_text(_quiver_texts, q)
        elif args.to == "tree":
            text = _json_text(_star_texts, trees.star_tree_of(t))
        else:
            raise ValueError("conversion triangulation -> triangulation is not defined")
    else:
        star = trees.star_from_json_obj(obj)
        if args.to != "triangulation":
            raise ValueError(f"conversion tree -> {args.to} is not defined")
        n = sum(trees.leaf_count(bead) for bead in star)
        # the result is a JSON triangulation, so it keeps that format's limit
        polygon._check_json_n(n)
        t = trees.triangulation_of(star, n)
        text = _json_text(_triangulation_texts, t)
    with _output(args.out) as write:
        write(text)
    return 0


# -- mutate -------------------------------------------------------------------


def _parse_index(text: str) -> int:
    try:
        return _parse_int(text)
    except argparse.ArgumentTypeError:
        raise ValueError(f"--at needs an integer index, got {text!r}") from None


def _parse_tree_move(text: str) -> tuple:
    parts = text.split(":")
    try:
        if parts[0] == "split" and len(parts) == 2:
            return ("split", _parse_index(parts[1]))
        if parts[0] == "merge" and len(parts) == 2:
            return ("merge", _parse_index(parts[1]))
        if parts[0] == "rotate" and len(parts) == 3:
            return ("rotate", _parse_index(parts[1]), parts[2])
    except ValueError:
        pass
    raise ValueError(
        f"bad tree position {text!r}; use split:I, merge:I or rotate:I:PATH"
    )


def _cmd_mutate(args) -> int:
    obj = _load_json(args.input)
    if args.what == "quiver":
        q = quiver.Quiver.from_json_obj(obj)
        text = _json_text(_quiver_texts, quiver.mutate(q, _parse_index(args.at)))
    elif args.what == "triangulation":
        t = polygon.triangulation_from_json_obj(obj)
        i = _parse_index(args.at)
        if not 0 <= i < t.n:
            raise IndexError(f"diagonal {i} out of range for {t.n} diagonals (0..{t.n - 1})")
        d = t.sorted_diagonals[i]
        text = _json_text(_triangulation_texts, polygon.flip(t, d))
    else:
        star = trees.star_from_json_obj(obj)
        moved = trees.apply_tree_move(star, _parse_tree_move(args.at))
        text = _json_text(_star_texts, moved)
    with _output(args.out) as write:
        write(text)
    return 0


# -- verify -------------------------------------------------------------------


# agreement key, the route (a key of _ROUTES) whose count it checks, the
# reference that count must equal, and the count allowed instead at n = 4:
# there the formula gives 6 classes, but triangulations up to rotation and
# tag inversion and star trees give 10, a documented fact, not a failure
_CHECKS = (
    ("quiver_bfs_vs_formula", "quivers", "formula", None),
    ("trees_vs_necklace", "trees", "necklace", None),
    ("triangulations_vs_formula", "triangulations", "formula", 10),
    ("trees_vs_formula", "trees", "formula", 10),
)


def _verify_one(n: int, args, orientation: list[bool] | None) -> dict:
    report: dict = {"n": n, "agreement": {}, "wall_time": {}}

    start = time.perf_counter()
    references = {"formula": counting.d_count(n), "necklace": counting.necklace_count(n)}
    report["formula_count"] = references["formula"]
    report["wall_time"]["formula"] = time.perf_counter() - start

    for what, route in _ROUTES.items():
        if n > getattr(args, f"{what[:-1]}_bound"):
            report[route.field] = "skipped"
            continue
        start = time.perf_counter()
        report[route.field] = route.count(n, orientation)
        report["wall_time"][route.timer] = time.perf_counter() - start

    agreement = report["agreement"]
    failures = []
    diverged = False
    for key, what, reference, allowed in _CHECKS:
        route = _ROUTES[what]
        count = report[route.field]
        if count == "skipped":
            continue
        agreement[key] = count == references[reference]
        if agreement[key]:
            continue
        if n == 4 and count == allowed:
            diverged = True
        elif route.timer not in failures:
            failures.append(route.timer)
    report["failures"] = failures
    if failures:
        report["status"] = "FAIL: " + ",".join(failures)
    elif diverged:
        report["status"] = f"ok (expected divergence at n={n})"
    else:
        report["status"] = "ok"
    return report


def _cmd_verify(args) -> int:
    if args.nmin > args.nmax:
        raise ValueError("nmin must not exceed nmax")
    if args.nmin < 3:
        raise ValueError("verification starts at n = 3")
    # one orientation string fits one n, and only the quiver route reads it
    if args.seed_orientation is not None and args.nmin != args.nmax:
        raise ValueError(
            f"--seed-orientation needs a single n, got the range {args.nmin}..{args.nmax}"
        )
    orientation = _parse_orientation(args.seed_orientation, args.nmin - 1)
    if orientation is not None and args.nmin > args.quiver_bound:
        raise ValueError(
            f"--seed-orientation is for the quiver route, which skips n = {args.nmin} "
            f"(quiver bound {args.quiver_bound})"
        )
    json_output = _output(args.json) if args.json is not None else contextlib.nullcontext()
    with json_output as write:
        reports = [_verify_one(n, args, orientation) for n in range(args.nmin, args.nmax + 1)]

        header = f"{'n':>3} {'formula':>10} {'quiver_bfs':>10} {'triang':>8} {'trees':>8}  status"
        print(header)
        print("-" * len(header))
        for r in reports:
            print(
                f"{r['n']:>3} {r['formula_count']:>10} "
                f"{str(r['quiver_bfs_count']):>10} "
                f"{str(r['triangulation_class_count']):>8} "
                f"{str(r['tree_count']):>8}  {r['status']}"
            )
        if write is not None:
            import json

            write(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    return 1 if any(r["failures"] for r in reports) else 0


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dquiver",
        description="Exact enumeration of type-D quiver mutation classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-form mutation class count")
    p.add_argument("n", type=_parse_int)
    p.add_argument("--type", choices=("D", "A"), default="D")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="enumerate canonical representatives")
    p.add_argument("n", type=_parse_int)
    p.add_argument("--what", choices=("quivers", "triangulations", "trees"), required=True)
    p.add_argument("--out", help="write the JSON array here instead of stdout")
    p.add_argument("--bound", type=_parse_int, help="override the desk-scale bound")
    p.add_argument("--seed-orientation", help="0/1 string choosing the D_n seed orientation")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("convert", help="apply a structure map to a JSON file")
    p.add_argument("--from", dest="source", choices=("triangulation", "tree"), required=True)
    p.add_argument("--to", choices=("quiver", "tree", "triangulation"), required=True)
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "dot"), default="json",
                   help="output format for quivers")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("mutate", help="one mutation step on a JSON object")
    p.add_argument("--what", choices=("quiver", "triangulation", "tree"), required=True)
    p.add_argument("input")
    p.add_argument("--at", required=True,
                   help="vertex index / diagonal index / tree move (split:I, merge:I, rotate:I:PATH)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("verify", help="cross-check all counting methods")
    p.add_argument("nmin", type=_parse_int)
    p.add_argument("nmax", type=_parse_int)
    for what, route in _ROUTES.items():
        p.add_argument(f"--{what[:-1]}-bound", type=_parse_int, default=route.verify_bound)
    p.add_argument("--seed-orientation", help="0/1 string choosing the D_n seed orientation")
    p.add_argument("--json", help="also write the verification report as JSON here")
    p.set_defaults(func=_cmd_verify)

    return parser


def _error(message: object, code: int) -> int:
    """Print the one error line and return ``code``.  If stderr's reader has
    gone too (``2>&1 | head``), the line is lost: stderr moves to devnull,
    so neither this write nor the interpreter's flush at exit raises."""
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundExceededError as exc:
        return _error(exc, 3)
    except MemoryError:
        return _error("out of memory", 3)
    except (ValueError, IndexError, OSError) as exc:
        # bad input, out-of-range positions, unreadable or unwritable files;
        # exit 1 stays reserved for failed verification
        return _error(exc, 2)


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout early (``| head``), as for an unwritable
        # --out: exit 2 with one error line, which main has printed already
        # if one of its writes failed.  With stdout on devnull, the
        # interpreter's flush at exit has nothing left to report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if code == 0:
            code = _error(exc, 2)
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
