"""Record the benchmark of this checkout as ``BENCH_<LABEL>.json``.

    python3 tools/bench_record.py LABEL SEED...

For each seed in turn, runs ``python3 bench/run.py --workload W --seed SEED
--seconds S`` for each workload W of BENCHMARK.json, with S its
``run_seconds``, and removes ``src/dquiver/__pycache__`` before every run,
so that each run compiles the package as a fresh checkout does.  Of each
run it keeps the ``env`` line and the final JSON line.

``BENCH_<LABEL>.json``, at the checkout's root, holds the commit, the
seeds, S, and per workload the runs and each metric's values and median.
If the file already holds runs of the same commit at the same S, the new
seeds are added to them, so two checkouts can be recorded in alternation,
one seed at a time.  Stdlib only.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its seed, ``env`` line and final JSON line."""
    shutil.rmtree(ROOT / "src" / "dquiver" / "__pycache__", ignore_errors=True)
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines or not lines[0].startswith("env "):
        sys.exit(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    return {"seed": seed, "env": json.loads(lines[0][4:]), "result": json.loads(lines[-1])}


def summary(runs: list[dict]) -> dict:
    """Per metric of the runs: its unit, its values in run order and their median."""
    out: dict[str, dict] = {}
    for r in runs:
        for name, metric in r["result"]["metrics"].items():
            out.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
    for metric in out.values():
        metric["median"] = statistics.median(metric["values"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not all(s.isdigit() for s in argv[1:]):
        sys.exit("usage: python3 tools/bench_record.py LABEL SEED...")
    label, seeds = argv[0], [int(s) for s in argv[1:]]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    path = ROOT / f"BENCH_{label}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    if (record.get("commit"), record.get("seconds")) != (commit, seconds):
        record = {"commit": commit, "seconds": seconds, "seeds": [],
                  "workloads": {w: {"runs": []} for w in workloads}}
    for seed in seeds:
        for workload in workloads:
            runs = record["workloads"][workload]["runs"]
            runs.append(run(workload, seed, seconds))
            record["workloads"][workload] = {"runs": runs, "metrics": summary(runs)}
        record["seeds"].append(seed)
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
