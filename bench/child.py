"""One benchmark pass, run in a fresh interpreter: ``python3 child.py SPEC``.

SPEC is a JSON file written by run.py.  The child imports ``dquiver`` (its
set-up), optionally installs the tracer, runs the operations one after the
other, and writes what it saw to the result file named in SPEC: the clock
readings, each operation's exit code or exception, its peak RSS and the
trace.  Every output goes to a file in the working directory.  The child
checks nothing; run.py reads the files and checks them against the
reference data.

Times are CLOCK_MONOTONIC readings, which on Linux are comparable between
processes, so the parent can subtract the moment it started this process.
"""

import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import dquiver
import dquiver.cli


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_cli(op: dict) -> int:
    name = op["name"]
    with open(f"{name}.stdout", "w", encoding="utf-8") as out, open(
        f"{name}.stderr", "w", encoding="utf-8"
    ) as err, redirect_stdout(out), redirect_stderr(err):
        try:
            return dquiver.cli.main(op["argv"])
        except SystemExit as exc:  # argparse rejects its input this way
            return exc.code if isinstance(exc.code, int) else 2


def run_triangulation_total(op: dict) -> int:
    total = len(dquiver.polygon.enumerate_triangulations(op["n"]))
    with open(f"{op['name']}.out", "w", encoding="utf-8") as fh:
        fh.write(f"{total}\n")
    return 0


def run_flip_walk(op: dict) -> int:
    """Walk by flips from the triangulation of a star tree.

    Writes the star's key next to the key of its round trip through the
    triangulation, then one line per flip: the quiver key of mutating at
    the flipped diagonal's vertex, the quiver key of the flipped
    triangulation, the tree key after the matching tree move, and the tree
    key of the flipped triangulation.  Each pair must be equal.
    """
    polygon, quiver, trees = dquiver.polygon, dquiver.quiver, dquiver.trees
    star = trees.star_from_json_obj({"beads": op["beads"]})
    t = trees.triangulation_of(star, op["n"])
    lines = [f"{trees.tree_key(star).decode()}\t{trees.tree_key(trees.star_tree_of(t)).decode()}"]
    for i in op["steps"]:
        d = t.sorted_diagonals[i]
        flipped = polygon.flip(t, d)
        mutated = quiver.canonical_key(quiver.mutate(polygon.quiver_of(t), i))
        rebuilt = quiver.canonical_key(polygon.quiver_of(flipped))
        moved = trees.apply_tree_move(trees.star_tree_of(t), trees.tree_move_for_flip(t, d))
        lines.append(
            f"{mutated.decode()}\t{rebuilt.decode()}\t"
            f"{trees.tree_key(moved).decode()}\t{trees.tree_key(trees.star_tree_of(flipped)).decode()}"
        )
        t = flipped
    with open(f"{op['name']}.out", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


RUNNERS = {
    "cli": run_cli,
    "triangulation_total": run_triangulation_total,
    "flip_walk": run_flip_walk,
}


def peak_rss_kb() -> int:
    """This process's own peak resident set since exec (VmHWM).

    getrusage's ru_maxrss is not used: it also counts the memory the
    parent had when it forked this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = _now()
    results = []
    for op in spec["ops"]:
        try:
            results.append({"rc": RUNNERS[op["kind"]](op), "error": None})
        except Exception:  # an operation failing is a result, not a crash
            results.append({"rc": None, "error": traceback.format_exc()})
    end = _now()
    record = {
        "ready": ready,
        "end": end,
        "ops": results,
        "peak_rss_kb": peak_rss_kb(),
        "trace": tracer.to_json_obj() if tracer else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1])
