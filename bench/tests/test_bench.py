"""Self-tests of the benchmark harness: python3 -m pytest -q bench/tests"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import FAIL, OK  # noqa: E402

# small stand-ins that reach every module, so both passes stay quick
SMALL_OPS = [
    {"kind": "cli", "name": "quivers", "argv": ["enumerate", "6", "--what", "quivers",
                                                "--seed-orientation", "10110", "--out", "q.json"]},
    {"kind": "cli", "name": "triangulations", "argv": ["enumerate", "5", "--what",
                                                       "triangulations", "--out", "t.json"]},
    {"kind": "cli", "name": "trees", "argv": ["enumerate", "7", "--what", "trees"]},
    {"kind": "cli", "name": "verify", "argv": ["verify", "3", "6"]},
    {"kind": "cli", "name": "count", "argv": ["count", "7200"]},
    {"kind": "triangulation_total", "name": "total5", "n": 5},
    {"kind": "flip_walk", "name": "walk", "n": 7, "beads": [["L", "L"], "L", [["L", "L"], ["L", "L"]]],
     "steps": [0, 3, 6, 1, 1, 5, 2, 4, 0, 6, 3, 3]},
]


def _child_outputs(workdir: Path, ops: list[dict], trace: bool) -> dict[str, bytes]:
    workdir.mkdir()
    spec = {"trace": trace, "ops": ops, "result": "result.json"}
    (workdir / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(BENCH / "child.py"), "spec.json"], cwd=workdir,
                   env=run._child_env(), check=True, timeout=120)
    record = json.loads((workdir / "result.json").read_text())
    assert [op["error"] for op in record["ops"]] == [None] * len(ops)
    assert (record["trace"] is not None) == trace
    return {p.name: p.read_bytes() for p in workdir.iterdir()
            if p.name not in ("spec.json", "result.json")}


def test_traced_pass_writes_the_same_outputs(tmp_path):
    plain = _child_outputs(tmp_path / "plain", SMALL_OPS, trace=False)
    traced = _child_outputs(tmp_path / "traced", SMALL_OPS, trace=True)
    assert sorted(plain) == sorted(traced)
    for name in plain:
        assert plain[name] == traced[name], name
    assert b"Exceeds the limit" in plain["count.stderr"]


def test_traced_pass_passes_the_workload_checks(tmp_path):
    ops = workloads.flip_walk(5, 0)
    traced = run.run_pass(ops, tmp_path / "traced", trace=True)
    assert traced.outcomes == [(OK, "")] * (workloads.FLIP_STEPS + 1)
    metrics = tracer.layer_metrics(traced.trace, traced.output_bytes, traced.solve_s, 0.0)
    assert metrics["polygon.flip.calls"] == workloads.FLIP_STEPS
    assert metrics["polygon.crossing_number.calls"] > 0
    assert metrics["trees.tree_move_for_flip.calls"] == workloads.FLIP_STEPS
    assert metrics["cli.output_bytes"] == 0  # the walk uses the library, not the command


def test_wrong_reference_is_counted_as_a_failure(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.REFERENCE["d_count"], "12", 112721)
    ops = [workloads._count_op("D", 12), workloads._count_op("D", 7200)]
    one = run.run_pass(ops, tmp_path / "p", trace=False)
    assert [status for status, _ in one.outcomes] == [FAIL, workloads.DEFECT]
    result = json.loads(run.result_line(run.RunResult("closed_forms", [one], None, []), trace=False))
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_broken_walk_output_is_counted_per_step(tmp_path):
    (op,) = workloads.flip_walk(3, 0)
    lines = ["[L]\t[L]"] + ["12:0\t12:0\t[L]\t[L]"] * 3 + ["12:0\t12:1\t[L]\t[L]"]
    (tmp_path / "walk.out").write_text("\n".join(lines) + "\n")
    outcomes = op.check(tmp_path, {"rc": 0, "error": None})
    statuses = [status for status, _ in outcomes]
    assert len(outcomes) == workloads.FLIP_STEPS + 1
    assert statuses[:4] == [OK] * 4
    assert statuses[4:] == [FAIL] * (workloads.FLIP_STEPS - 3)


def test_same_seed_same_inputs():
    for k in (0, 1, 9):
        assert workloads.flip_walk_inputs(7, k) == workloads.flip_walk_inputs(7, k)
        assert workloads.seed_orientation(7, k) == workloads.seed_orientation(7, k)
        assert workloads.flip_walk(7, k)[0].spec == workloads.flip_walk(7, k)[0].spec
        assert workloads.quiver_bfs(7, k)[0].spec == workloads.quiver_bfs(7, k)[0].spec
    walks = {json.dumps(workloads.flip_walk_inputs(s, k)) for s in range(10) for k in range(3)}
    orientations = {workloads.seed_orientation(s, 0) for s in range(20)}
    assert len(walks) == 30 and len(orientations) > 5


@pytest.mark.parametrize("seed", range(20))
def test_flip_walk_inputs_are_valid(seed):
    beads, steps = workloads.flip_walk_inputs(seed, seed % 3)

    def leaves(bead):
        return 1 if bead == "L" else leaves(bead[0]) + leaves(bead[1])

    assert sum(leaves(b) for b in beads) == workloads.FLIP_N
    assert len(steps) == workloads.FLIP_STEPS
    assert all(0 <= i < workloads.FLIP_N for i in steps)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
