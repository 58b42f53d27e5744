"""Alternate the benchmark of one workload between two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS

Pair i, i = 1..PAIRS, runs ``python3 bench/run.py --workload WORKLOAD --seed
i --seconds S`` once in each checkout, S the ``run_seconds`` of this
checkout's BENCHMARK.json.  Odd pairs run PARENT first and even pairs CHANGE
first, so that the host's drift falls on both sides alike, and the two runs
of a pair are seconds apart, not a whole recording of five workloads as with
``tools/bench_record.py``.  Before every run it removes the checkout's
``src/dquiver/__pycache__``, so that each run compiles the package as a
fresh checkout does.

It prints each pair as it ends, then, for each end-to-end metric of
BENCHMARK.json, each side's median and quartiles and in how many pairs the
change was better.  A run that exits nonzero, or does not end in a JSON
line, stops the tool.  Stdlib only.
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


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its final JSON line."""
    shutil.rmtree(checkout / "src" / "dquiver" / "__pycache__", ignore_errors=True)
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines or not lines[-1].startswith("{"):
        sys.exit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    """The first quartile, the median and the third quartile."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv: list[str]) -> int:
    if len(argv) != 4 or not argv[3].isdigit() or int(argv[3]) < 1:
        sys.exit(USAGE)
    sides = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    workload, pairs = argv[2], int(argv[3])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"{USAGE} (no workload {workload!r} in BENCHMARK.json)")
    for side, checkout in sides.items():
        if not (checkout / "bench" / "run.py").is_file():
            sys.exit(f"{USAGE} ({side} {checkout} has no bench/run.py)")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {side: {name: [] for name in metrics} for side in sides}
    for seed in range(1, pairs + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        results = {side: run(sides[side], workload, seed, spec["run_seconds"]) for side in order}
        cells = []
        for name in metrics:
            old, new = (results[side]["metrics"][name]["value"] for side in sides)
            values["parent"][name].append(old)
            values["change"][name].append(new)
            cells.append(f"{name} {old:.4f} -> {new:.4f}")
        failed = " ".join(f"{side} failed {results[side].get('failed', 0)}" for side in sides)
        print(f"pair {seed} ({order[0]} first): {', '.join(cells)}; {failed}", flush=True)
    for name, metric in metrics.items():
        lower = metric["better"] == "lower"
        old, new = values["parent"][name], values["change"][name]
        won = sum(b < a if lower else b > a for a, b in zip(old, new))
        line = "; ".join(
            f"{side} median {q[1]:.4f} (quartiles {q[0]:.4f}, {q[2]:.4f})"
            for side, q in (("parent", quartiles(old)), ("change", quartiles(new)))
        )
        print(f"{workload} {name} ({metric['unit']}, {metric['better']} is better): {line}; "
              f"change better in {won} of {pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
