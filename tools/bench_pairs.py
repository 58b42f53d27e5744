"""Benchmark two checkouts in alternated pairs, and record every run.

    python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS

WORKLOAD is a workload of BENCHMARK.json, or ``all`` for each of them.  A
pair runs ``python3 bench/run.py --workload W --seed SEED --seconds S`` once
in each checkout, S the ``run_seconds`` of this checkout's BENCHMARK.json.
A pair with an odd seed runs PARENT first and one with an even seed CHANGE
first, so that the host's drift falls on both sides alike.  With ``all``,
every workload runs its first pair before any runs its second.  Before every
run the tool removes the checkout's ``src/dquiver/__pycache__``, so that
each run compiles the package as a fresh checkout does.

Each run goes into the record of the checkout that ran it,
``BENCH_<commit>.json`` at its root, with the first 7 characters of its
commit: the commit, S, and per workload the runs (seed, ``env`` line and
final JSON line) and each metric's unit, values in run order and median.
Both records are rewritten after every pair; a record of another commit or
another S is started afresh.  A call's pairs of a workload take the seeds
after the largest that either record holds for it, so no seed runs twice.

It prints each pair as it ends, then, per workload and end-to-end metric of
BENCHMARK.json, each side's median and quartiles and in how many pairs the
change was better, over every pair both records hold, matched by seed.
Before any run it refuses bad usage, an unknown workload, a checkout without
``bench/run.py``, PARENT and CHANGE naming one directory, whose records would
collide, and uncommitted changes under ``src/`` or ``bench/`` in either
checkout, whose runs its commit would misstate.  A run that exits nonzero,
does not end in a JSON line or reports a wrong output stops the tool before
its pair is recorded.  Stdlib only.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USAGE = "usage: python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS"
SIDES = ("parent", "change")


def git(side: str, checkout: Path, *argv: str) -> str:
    """The stripped stdout of ``git argv`` in ``checkout``."""
    proc = subprocess.run(["git", *argv], cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{USAGE} ({side} {checkout}: git {argv[0]} failed: {proc.stderr.strip()})")
    return proc.stdout.strip()


def run(side: str, checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its seed, ``env`` line and final JSON line."""
    shutil.rmtree(checkout / "src" / "dquiver" / "__pycache__", ignore_errors=True)
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines or not lines[0].startswith("env ") or not lines[-1].startswith("{"):
        sys.exit(f"{side} {checkout}: {' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        sys.exit(f"{side} {checkout}: {workload} seed {seed} has {result.get('failed')} wrong outputs")
    return {"seed": seed, "env": json.loads(lines[0][4:]), "result": result}


def value(run: dict, name: str) -> float:
    """The value of metric ``name`` in a recorded run."""
    return run["result"]["metrics"][name]["value"]


def metrics(runs: list[dict]) -> dict:
    """Per metric of the runs: its unit, its values in run order and their median."""
    out: dict[str, dict] = {}
    for r in runs:
        for name, metric in r["result"]["metrics"].items():
            out.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
    for metric in out.values():
        metric["median"] = statistics.median(metric["values"])
    return out


def quartiles(values: list[float]) -> list[float]:
    """The first quartile, the median and the third quartile."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv: list[str]) -> int:
    if len(argv) != 4 or not argv[3].isdigit() or int(argv[3]) < 1:
        sys.exit(USAGE)
    checkouts = {side: Path(a).resolve() for side, a in zip(SIDES, argv)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if argv[2] not in [*names, "all"]:
        sys.exit(f"{USAGE} (no workload {argv[2]!r} in BENCHMARK.json)")
    workloads = names if argv[2] == "all" else [argv[2]]
    pairs, seconds = int(argv[3]), spec["run_seconds"]
    for side, checkout in checkouts.items():
        if not (checkout / "bench" / "run.py").is_file():
            sys.exit(f"{USAGE} ({side} {checkout} has no bench/run.py)")
    if checkouts["parent"] == checkouts["change"]:
        sys.exit(f"{USAGE} (PARENT and CHANGE are both {checkouts['parent']}, whose records would collide)")
    records, runs = {}, {}
    for side, checkout in checkouts.items():
        if git(side, checkout, "status", "--porcelain", "--", "src", "bench"):
            sys.exit(f"{USAGE} ({side} {checkout} has uncommitted changes under src/ or bench/; commit them first)")
        commit = git(side, checkout, "rev-parse", "HEAD")
        path = checkout / f"BENCH_{commit[:7]}.json"
        record = json.loads(path.read_text()) if path.exists() else {}
        if (record.get("commit"), record.get("seconds")) != (commit, seconds):
            record = {"workloads": {}}
        records[side] = path, {"commit": commit, "seconds": seconds}
        runs[side] = {w: entry["runs"] for w, entry in record["workloads"].items()}
    last = {w: max((r["seed"] for side in SIDES for r in runs[side].get(w, [])), default=0) for w in workloads}
    end_to_end = spec["end_to_end"]
    for i in range(1, pairs + 1):
        for workload in workloads:
            seed = last[workload] + i
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {side: run(side, checkouts[side], workload, seed, seconds) for side in order}
            for side, (path, head) in records.items():
                runs[side].setdefault(workload, []).append(pair[side])
                record = {**head, "workloads": {w: {"runs": r, "metrics": metrics(r)}
                                                for w, r in runs[side].items() if r}}
                path.write_text(json.dumps(record, indent=1) + "\n")
            cells = ", ".join(f"{name} {value(pair['parent'], name):.4f} -> {value(pair['change'], name):.4f}"
                              for name in [m["name"] for m in end_to_end])
            print(f"{workload} pair {seed} ({order[0]} first): {cells}", flush=True)
    for workload in workloads:
        by_seed = [{r["seed"]: r for r in runs[side][workload]} for side in SIDES]
        seeds = sorted(by_seed[0].keys() & by_seed[1].keys())
        for metric in end_to_end:
            old, new = ([value(rs[s], metric["name"]) for s in seeds] for rs in by_seed)
            lower = metric["better"] == "lower"
            won = sum(b < a if lower else b > a for a, b in zip(old, new))
            line = "; ".join(
                f"{side} median {q[1]:.4f} (quartiles {q[0]:.4f}, {q[2]:.4f})"
                for side, q in (("parent", quartiles(old)), ("change", quartiles(new)))
            )
            print(f"{workload} {metric['name']} ({metric['unit']}, {metric['better']} is better): {line}; "
                  f"change better in {won} of {len(seeds)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
