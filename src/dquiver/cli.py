"""Command line front end: count, enumerate, convert, verify, mutate.

Exit codes: 0 success (verify: all agreements hold), 1 verification
failure, 2 usage or input error, 3 resource bound exceeded.  Output is
deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
import time
from typing import Sequence

from . import counting, polygon, quiver, trees
from .errors import BoundExceededError

QUIVER_BOUND = 9
TRIANGULATION_BOUND = 7
TREE_BOUND = 12


def _parse_orientation(text: str | None, edges: int) -> list[bool] | None:
    if text is None:
        return None
    if len(text) != edges or any(c not in "01" for c in text):
        raise ValueError(
            f"--seed-orientation needs {edges} characters of 0/1, got {text!r}"
        )
    return [c == "1" for c in text]


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- count --------------------------------------------------------------------


def _cmd_count(args) -> int:
    value = counting.d_count(args.n) if args.type == "D" else counting.a_count(args.n)
    # str(int) refuses values past 4300 digits and a Decimal prints them
    # exactly; sys.set_int_max_str_digits would change the whole process
    print(decimal.Decimal(value))
    return 0


# -- the classes of one route ------------------------------------------------


def _class_map(what: str, n: int, bound: int, seed_orientation: str | None) -> dict:
    """``{class key: representative}`` for one route at n.

    ``enumerate`` writes the representatives in key order and ``verify``
    counts the keys, so the two report the same classes.
    """
    if what == "quivers":
        if not 3 <= n <= bound:
            raise BoundExceededError(
                f"quiver enumeration supports 3 <= n <= {bound}, got {n}"
            )
        orientation = _parse_orientation(seed_orientation, n - 1)
        return quiver.mutation_class_representatives(quiver.dynkin_d(n, orientation))
    if what == "triangulations":
        classes: dict[bytes, polygon.Triangulation] = {}
        for t in polygon.enumerate_triangulations(n, max_n=bound):
            # class_key builds no Triangulation: only a new class builds one
            key = polygon.class_key(t)
            if key not in classes:
                classes[key] = polygon.class_representative(t)[1]
        return classes
    return trees.star_tree_classes(n, max_n=bound)


# -- enumerate ----------------------------------------------------------------


def _enumerate_objects(args) -> list:
    bound, to_json = {
        "quivers": (QUIVER_BOUND, quiver.Quiver.to_json_obj),
        "triangulations": (TRIANGULATION_BOUND, polygon.triangulation_to_json_obj),
        "trees": (TREE_BOUND, trees.star_to_json_obj),
    }[args.what]
    if args.bound is not None:
        bound = args.bound
    # only the JSON objects outlive this call, so the class map is not held
    # in memory while the JSON text is built
    classes = _class_map(args.what, args.n, bound, args.seed_orientation)
    return [to_json(classes[key]) for key in sorted(classes)]


def _cmd_enumerate(args) -> int:
    objs = _enumerate_objects(args)
    _write_output(_json_text(objs), args.out)
    print(len(objs), file=sys.stderr if args.out is None else sys.stdout)
    return 0


# -- convert ------------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply to read") from exc


def _cmd_convert(args) -> int:
    obj = _load_json(args.input)
    if args.source == "triangulation":
        t = polygon.triangulation_from_json_obj(obj)
        if args.to == "quiver":
            q = polygon.quiver_of(t)
            text = q.to_dot() if args.format == "dot" else _json_text(q.to_json_obj())
        elif args.to == "tree":
            text = _json_text(trees.star_to_json_obj(trees.star_tree_of(t)))
        else:
            raise ValueError("conversion triangulation -> triangulation is not defined")
    else:
        star = trees.star_from_json_obj(obj)
        if args.to != "triangulation":
            raise ValueError(f"conversion tree -> {args.to} is not defined")
        n = sum(trees.leaf_count(bead) for bead in star)
        t = trees.triangulation_of(star, n)
        text = _json_text(polygon.triangulation_to_json_obj(t))
    _write_output(text, args.out)
    return 0


# -- mutate -------------------------------------------------------------------


def _parse_tree_move(text: str) -> tuple:
    parts = text.split(":")
    try:
        if parts[0] == "split" and len(parts) == 2:
            return ("split", int(parts[1]))
        if parts[0] == "merge" and len(parts) == 2:
            return ("merge", int(parts[1]))
        if parts[0] == "rotate" and len(parts) == 3:
            return ("rotate", int(parts[1]), parts[2])
    except ValueError:
        pass
    raise ValueError(
        f"bad tree position {text!r}; use split:I, merge:I or rotate:I:PATH"
    )


def _cmd_mutate(args) -> int:
    obj = _load_json(args.input)
    if args.what == "quiver":
        q = quiver.Quiver.from_json_obj(obj)
        text = _json_text(quiver.mutate(q, int(args.at)).to_json_obj())
    elif args.what == "triangulation":
        t = polygon.triangulation_from_json_obj(obj)
        i = int(args.at)
        if not 0 <= i < t.n:
            raise IndexError(f"diagonal {i} out of range for {t.n} diagonals (0..{t.n - 1})")
        d = t.sorted_diagonals[i]
        text = _json_text(polygon.triangulation_to_json_obj(polygon.flip(t, d)))
    else:
        star = trees.star_from_json_obj(obj)
        moved = trees.apply_tree_move(star, _parse_tree_move(args.at))
        text = _json_text(trees.star_to_json_obj(moved))
    _write_output(text, args.out)
    return 0


# -- verify -------------------------------------------------------------------


# route -> the report field holding its count, its wall_time entry and the
# option bounding its n
_ROUTES = (
    ("quivers", "quiver_bfs_count", "quiver_bfs", "quiver_bound"),
    ("triangulations", "triangulation_class_count", "triangulations", "triangulation_bound"),
    ("trees", "tree_count", "trees", "tree_bound"),
)

# agreement key -> the report field holding a route's count, the reference
# it must equal, and the route that fails when it does not
_AGREEMENTS = (
    ("quiver_bfs_vs_formula", "quiver_bfs_count", "formula", "quiver_bfs"),
    ("trees_vs_necklace", "tree_count", "necklace", "trees"),
    ("triangulations_vs_formula", "triangulation_class_count", "formula", "triangulations"),
    ("trees_vs_formula", "tree_count", "formula", "trees"),
)

# (agreement key, n, count) disagreements that are documented facts, not
# failures: at n = 4 the formula gives 6 classes, but triangulations up to
# rotation and tag inversion and star trees give 10
_ALLOWED_DIVERGENCES = {
    ("triangulations_vs_formula", 4, 10),
    ("trees_vs_formula", 4, 10),
}


def _verify_one(n: int, args) -> dict:
    report: dict = {"n": n, "agreement": {}, "wall_time": {}}

    start = time.perf_counter()
    formula = counting.d_count(n)
    necklace = counting.necklace_count(n)
    report["formula_count"] = formula
    report["wall_time"]["formula"] = time.perf_counter() - start

    for what, field, timer, bound_option in _ROUTES:
        bound = getattr(args, bound_option)
        if n > bound:
            report[field] = "skipped"
            continue
        start = time.perf_counter()
        report[field] = len(_class_map(what, n, bound, args.seed_orientation))
        report["wall_time"][timer] = time.perf_counter() - start

    references = {"formula": formula, "necklace": necklace}
    agreement = report["agreement"]
    failures = []
    diverged = False
    for key, field, reference, route in _AGREEMENTS:
        count = report[field]
        if count == "skipped":
            continue
        agreement[key] = count == references[reference]
        if agreement[key]:
            continue
        if (key, n, count) in _ALLOWED_DIVERGENCES:
            diverged = True
        elif route not in failures:
            failures.append(route)
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
    reports = [_verify_one(n, args) for n in range(args.nmin, args.nmax + 1)]

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
    if args.json is not None:
        _write_output(_json_text(reports), args.json)
    return 1 if any(r["failures"] for r in reports) else 0


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dquiver",
        description="Exact enumeration of type-D quiver mutation classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-form mutation class count")
    p.add_argument("n", type=int)
    p.add_argument("--type", choices=("D", "A"), default="D")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="enumerate canonical representatives")
    p.add_argument("n", type=int)
    p.add_argument("--what", choices=("quivers", "triangulations", "trees"), required=True)
    p.add_argument("--out", help="write the JSON array here instead of stdout")
    p.add_argument("--bound", type=int, help="override the desk-scale bound")
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
    p.add_argument("nmin", type=int)
    p.add_argument("nmax", type=int)
    p.add_argument("--quiver-bound", type=int, default=QUIVER_BOUND)
    p.add_argument("--triangulation-bound", type=int, default=TRIANGULATION_BOUND)
    p.add_argument("--tree-bound", type=int, default=TREE_BOUND)
    p.add_argument("--seed-orientation", help="0/1 string choosing the D_n seed orientation")
    p.add_argument("--json", help="also write the verification report as JSON here")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, OSError) as exc:
        # bad input, out-of-range positions, unreadable or unwritable files;
        # exit 1 stays reserved for failed verification
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
