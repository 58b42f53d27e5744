"""The benchmark's workloads: inputs made from the seed, and output checks.

Each workload is a list of operations that one pass runs in a fresh
interpreter (see child.py).  An operation carries the spec the child runs
and a check that the parent applies to what the child wrote.  A check
returns one outcome per user-visible operation: ``OK``, ``FAIL`` with a
message, or ``DEFECT`` for a failure the parent commit already had and
that reference.json lists, so that it stays visible without counting as a
regression.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))

OK, FAIL, DEFECT = "ok", "fail", "defect"
Outcome = tuple[str, str]

FLIP_N = 12
FLIP_STEPS = 500
QUIVER_N = 8


@dataclass
class Op:
    spec: dict
    # (pass directory, the child's record for this op) -> outcomes
    check: Callable[[Path, dict], list[Outcome]]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(workdir: Path, name: str) -> bytes:
    path = workdir / name
    return path.read_bytes() if path.exists() else b""


def _raised(record: dict) -> str | None:
    if record["error"] is None:
        return None
    return "raised " + record["error"].strip().splitlines()[-1]


def _cli(name: str, argv: list[str]) -> dict:
    return {"kind": "cli", "name": name, "argv": argv}


def _check_cli(record: dict, workdir: Path, name: str, stdout: bytes | None = None,
               stdout_sha256: str | None = None) -> str | None:
    """Failure message for a CLI call expected to exit 0, else None."""
    raised = _raised(record)
    if raised:
        return raised
    err = _read(workdir, f"{name}.stderr").decode(errors="replace").strip()
    if record["rc"] != 0:
        return f"exit {record['rc']}: {err}"
    out = _read(workdir, f"{name}.stdout")
    if stdout is not None and out != stdout:
        return f"stdout {out[:60]!r}, expected {stdout!r}"
    if stdout_sha256 is not None and _sha256(out) != stdout_sha256:
        return "stdout digest differs from the reference"
    return None


def _enumerate_op(name: str, argv: list[str], classes: int, digest: str) -> Op:
    out_file = f"{name}.json"

    def check(workdir: Path, record: dict) -> list[Outcome]:
        failure = _check_cli(record, workdir, name, stdout=f"{classes}\n".encode())
        if failure is None and _sha256(_read(workdir, out_file)) != digest:
            failure = f"{out_file} digest differs from the reference"
        return [(FAIL, failure) if failure else (OK, "")]

    return Op(_cli(name, argv + ["--out", out_file]), check)


# -- quiver_bfs ----------------------------------------------------------------


def seed_orientation(seed: int, pass_index: int) -> str:
    """The --seed-orientation of the D_8 seed quiver (one 0/1 per edge)."""
    rng = random.Random(f"quiver_bfs:{seed}:{pass_index}")
    return "".join(rng.choice("01") for _ in range(QUIVER_N - 1))


def quiver_bfs(seed: int, pass_index: int) -> list[Op]:
    argv = ["enumerate", str(QUIVER_N), "--what", "quivers",
            "--seed-orientation", seed_orientation(seed, pass_index)]
    return [_enumerate_op("quivers", argv, REFERENCE["d_count"][str(QUIVER_N)],
                          REFERENCE["enumerate_sha256"][f"quivers {QUIVER_N}"])]


# -- triangulation_classes -------------------------------------------------------


def _total_op(n: int) -> Op:
    name = f"total{n}"
    expected = f"{REFERENCE['triangulation_totals'][str(n)]}\n".encode()

    def check(workdir: Path, record: dict) -> list[Outcome]:
        failure = _raised(record)
        if failure is None and _read(workdir, f"{name}.out") != expected:
            failure = f"triangulation total {_read(workdir, f'{name}.out')!r}, expected {expected!r}"
        return [(FAIL, failure) if failure else (OK, "")]

    return Op({"kind": "triangulation_total", "name": name, "n": n}, check)


def triangulation_classes(seed: int, pass_index: int) -> list[Op]:
    argv = ["enumerate", "7", "--what", "triangulations"]
    return [
        _enumerate_op("triangulations", argv, REFERENCE["d_count"]["7"],
                      REFERENCE["enumerate_sha256"]["triangulations 7"]),
        _total_op(6),
        _total_op(7),
    ]


# -- star_trees ------------------------------------------------------------------


def star_trees(seed: int, pass_index: int) -> list[Op]:
    name = "verify"

    def check(workdir: Path, record: dict) -> list[Outcome]:
        failure = _check_cli(record, workdir, name,
                             stdout_sha256=REFERENCE["verify_stdout_sha256"]["12 12"])
        if failure is None and _read(workdir, f"{name}.stderr"):
            failure = "verify wrote to stderr"
        return [(FAIL, failure) if failure else (OK, "")]

    # default bounds: only the formula and the tree route run at n = 12
    return [Op(_cli(name, ["verify", "12", "12"]), check)]


# -- flip_walk -------------------------------------------------------------------


def _random_bead(rng: random.Random, leaves: int):
    if leaves == 1:
        return "L"
    left = rng.randint(1, leaves - 1)
    return [_random_bead(rng, left), _random_bead(rng, leaves - left)]


def flip_walk_inputs(seed: int, pass_index: int) -> tuple[list, list[int]]:
    """A star tree with FLIP_N leaves (as JSON beads) and the flip sequence.

    Each step names a diagonal by its index in the current triangulation's
    sorted diagonals, which is also its quiver vertex.  The cost of a walk
    depends on where it goes (about 7% between walks), so every pass of a
    run takes its own walk and the run's median averages over walks.
    """
    rng = random.Random(f"flip_walk:{seed}:{pass_index}")
    sizes, run = [], 1
    for _ in range(FLIP_N - 1):  # cut each gap between leaves with chance 1/2
        if rng.random() < 0.5:
            sizes.append(run)
            run = 0
        run += 1
    sizes.append(run)
    beads = [_random_bead(rng, size) for size in sizes]
    steps = [rng.randrange(FLIP_N) for _ in range(FLIP_STEPS)]
    return beads, steps


def flip_walk(seed: int, pass_index: int) -> list[Op]:
    beads, steps = flip_walk_inputs(seed, pass_index)
    name = "walk"

    def check(workdir: Path, record: dict) -> list[Outcome]:
        expected = len(steps) + 1
        raised = _raised(record)
        if raised:
            return [(FAIL, raised)] * expected
        lines = _read(workdir, f"{name}.out").decode().splitlines()
        outcomes: list[Outcome] = []
        first = lines[0].split("\t") if lines else []
        if len(first) == 2 and first[0] == first[1]:
            outcomes.append((OK, ""))
        else:
            outcomes.append((FAIL, "star tree -> triangulation -> star tree changed the tree"))
        for step, line in enumerate(lines[1:expected]):
            fields = line.split("\t")
            if len(fields) != 4 or not fields[0].startswith(f"{FLIP_N}:"):
                outcomes.append((FAIL, f"step {step}: malformed line"))
            elif fields[0] != fields[1]:
                outcomes.append((FAIL, f"step {step}: flip and mutation do not commute"))
            elif fields[2] != fields[3]:
                outcomes.append((FAIL, f"step {step}: flip and tree move do not commute"))
            else:
                outcomes.append((OK, ""))
        missing = expected - len(outcomes)
        return outcomes + [(FAIL, "walk ended early")] * missing

    spec = {"kind": "flip_walk", "name": name, "n": FLIP_N, "beads": beads, "steps": steps}
    return [Op(spec, check)]


# -- closed_forms ----------------------------------------------------------------

# README values, then sizes up to 10^5; several are past Python's
# 4300-digit limit on int -> str conversion
CLOSED_FORM_SIZES = (
    [("D", n) for n in range(3, 13)]
    + [("A", 5)]
    + [("D", n) for n in (1000, 7100, 7200, 55440, 100000)]
    + [("A", n) for n in (1000, 20000)]
)


def _exact_value(text: bytes) -> int | None:
    """Parse one printed decimal line in the parent, where the digit limit is lifted."""
    if not (text.endswith(b"\n") and text[:-1].isdigit()):
        return None
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    return int(text)


def _count_op(kind: str, n: int) -> Op:
    key = f"{kind} {n}"
    name = f"count_{kind}{n}"
    small = REFERENCE["d_count" if kind == "D" else "a_count"].get(str(n))
    large = REFERENCE["large_counts"].get(key)
    defects = REFERENCE["digit_limit_defects"]["ops"]

    def check(workdir: Path, record: dict) -> list[Outcome]:
        err = _read(workdir, f"{name}.stderr").decode(errors="replace")
        out = _read(workdir, f"{name}.stdout")
        if (key in defects and record["rc"] == 2 and not out
                and "Exceeds the limit (4300 digits)" in err):
            return [(DEFECT, f"count {key}: exit 2, value past the 4300-digit limit")]
        failure = _check_cli(record, workdir, name)
        if failure is None:
            value = _exact_value(out)
            if value is None:
                failure = f"stdout {out[:40]!r} is not a number"
            elif small is not None and value != small:
                failure = f"printed {value}, expected {small}"
            elif large is not None and _sha256(
                value.to_bytes((value.bit_length() + 7) // 8, "big")
            ) != large["sha256"]:
                failure = "value differs from the reference digest"
        return [(FAIL, f"count {key}: {failure}") if failure else (OK, "")]

    return Op(_cli(name, ["count", str(n), "--type", kind]), check)


def closed_forms(seed: int, pass_index: int) -> list[Op]:
    return [_count_op(kind, n) for kind, n in CLOSED_FORM_SIZES]


# the calibration kernel (calibrate.KERNELS) that tracked each workload's
# solve time best under contention, in ten-seed runs of both kernels on a
# shared 2-core host (spreads of the run medians, memory vs compute):
# quiver_bfs 0.05 vs 0.10, star_trees 0.06 vs 0.11, triangulation_classes
# 0.17 vs 0.09; closed_forms is big-integer work.  flip_walk spread less
# with "compute" (0.06-0.10 vs 0.12), but when the host was heavily loaded
# its wall time grew 1.9x against 1.4x for "compute" and 1.7x for "memory",
# so "memory" keeps its median steadier between quiet and busy hours
SOLVE_KERNEL = {
    "quiver_bfs": "memory",
    "triangulation_classes": "compute",
    "star_trees": "memory",
    "flip_walk": "memory",
    "closed_forms": "compute",
}

# (seed, pass index) -> the operations of that pass
WORKLOADS: dict[str, Callable[[int, int], list[Op]]] = {
    "quiver_bfs": quiver_bfs,
    "triangulation_classes": triangulation_classes,
    "star_trees": star_trees,
    "flip_walk": flip_walk,
    "closed_forms": closed_forms,
}
