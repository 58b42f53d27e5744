"""``tools/bench_record.py`` writes no record that misstates what it measured.

A seed given twice, or one the record already holds, would count twice in
every median, and a commit with uncommitted changes under ``src/`` or
``bench/`` would not be what ran: both are refused before any run.  The
recorder's ``run`` and ``git`` are stubbed and its ``ROOT`` is a temporary
directory, so nothing runs and nothing is written into the checkout.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
USAGE = "usage: python3 tools/bench_record.py LABEL SEED..."


@pytest.fixture
def recorder(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 2, "workloads": [{"name": "w1"}, {"name": "w2"}]})
    )
    module.runs, module.status = [], ""

    def run(workload, seed, seconds):
        module.runs.append((workload, seed, seconds))
        return {"seed": seed, "env": {}, "result": {"metrics": {"solve_s": {"unit": "s", "value": seed}}}}

    def git(*argv):
        return {"rev-parse": "abc123", "status": module.status}[argv[0]]

    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "run", run)
    monkeypatch.setattr(module, "git", git)
    return module


def _refused(recorder, argv) -> str:
    with pytest.raises(SystemExit) as exit_:
        recorder.main(argv)
    assert recorder.runs == []
    (message,) = str(exit_.value).splitlines()
    assert message.startswith(USAGE)
    return message


def test_the_recorder_adds_new_seeds_of_the_same_commit(recorder, tmp_path):
    assert recorder.main(["x", "1", "2"]) == 0
    assert recorder.main(["x", "3"]) == 0
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert record["commit"] == "abc123" and record["seconds"] == 2
    assert record["seeds"] == [1, 2, 3]
    assert recorder.runs == [(w, s, 2) for s in (1, 2, 3) for w in ("w1", "w2")]
    assert record["workloads"]["w1"]["metrics"]["solve_s"] == {"unit": "s", "values": [1, 2, 3], "median": 2}


@pytest.mark.parametrize("argv", [["x", "1", "1"], ["x", "2", "02"], ["x", "3", "1", "3"]])
def test_a_seed_given_twice_is_refused(recorder, tmp_path, argv):
    assert _refused(recorder, argv).endswith("are given twice or already in BENCH_x.json)")
    assert not (tmp_path / "BENCH_x.json").exists()


def test_a_seed_already_recorded_is_refused(recorder, tmp_path):
    recorder.main(["x", "1", "2"])
    written = (tmp_path / "BENCH_x.json").read_text()
    recorder.runs.clear()
    assert _refused(recorder, ["x", "3", "2"]) == (
        f"{USAGE} (seeds [2] are given twice or already in BENCH_x.json)"
    )
    assert (tmp_path / "BENCH_x.json").read_text() == written


def test_a_record_of_another_commit_is_replaced_and_may_reuse_its_seeds(recorder, tmp_path):
    (tmp_path / "BENCH_x.json").write_text(json.dumps({"commit": "old", "seconds": 2, "seeds": [1]}))
    assert recorder.main(["x", "1"]) == 0
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert (record["commit"], record["seeds"]) == ("abc123", [1])


def test_uncommitted_changes_under_src_or_bench_are_refused(recorder, tmp_path):
    recorder.status = " M src/dquiver/polygon.py"
    assert _refused(recorder, ["x", "1"]) == f"{USAGE} (src/ or bench/ has uncommitted changes; commit them first)"
    assert not (tmp_path / "BENCH_x.json").exists()
