"""``tools/bench_pairs.py`` alternates two checkouts pair by pair and records every run.

Each pair runs one workload once per checkout, the side that runs first
flipping from pair to pair, and each run starts without the checkout's
``src/dquiver/__pycache__``.  Each run goes into the ``BENCH_<commit>.json``
of the checkout that ran it, and the summary reads every pair both records
hold.  ``subprocess.run`` is replaced by a fake ``bench/run.py`` and a fake
``git``, and the tool's ``ROOT`` is a temporary directory, so nothing is
benchmarked and nothing is written into the checkout.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
USAGE = "usage: python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS"
COMMITS = {"parent": "1111111aaaa", "change": "2222222bbbb"}


@pytest.fixture
def pairs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 2,
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "solve_s", "unit": "s", "better": "lower"},
                       {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}],
    }))
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
        (tmp_path / side / "src" / "dquiver" / "__pycache__").mkdir(parents=True)
    module.calls = []
    module.commits = dict(COMMITS)
    module.status = {"parent": "", "change": ""}
    # sides whose runs report wrong outputs
    module.wrong = set()
    # solve_s per (side, seed): the change is faster in every pair but the
    # third; peak_rss_mb is 20 on both sides
    module.solve = {"parent": [0.012, 0.011, 0.010, 0.013, 0.014, 0.015, 0.016],
                    "change": [0.007, 0.008, 0.011, 0.006, 0.009, 0.009, 0.009]}
    module.exit_code = 0

    def fake_run(argv, cwd, capture_output, text):
        side = Path(cwd).name
        if argv[0] == "git":
            out = {"rev-parse": module.commits[side], "status": module.status[side]}[argv[1]]
            return subprocess.CompletedProcess(argv, 0, out + "\n", "")
        cache = Path(cwd) / "src" / "dquiver" / "__pycache__"
        workload, seed = argv[argv.index("--workload") + 1], int(argv[argv.index("--seed") + 1])
        module.calls.append((side, workload, seed, cache.exists(), argv[1:]))
        cache.mkdir()  # as the run's import would
        failed = 3 if side in module.wrong else 0
        result = {"correct": not failed, "attempted": 5, "failed": failed,
                  "metrics": {"solve_s": {"value": module.solve[side][seed - 1], "unit": "s"},
                              "peak_rss_mb": {"value": 20.0, "unit": "MB"}}}
        out = f"env {json.dumps({'side': side})}\n{workload} table\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(argv, module.exit_code, out, "boom")

    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module.subprocess, "run", fake_run)
    return module


def _argv(tmp_path, *rest):
    return [str(tmp_path / "parent"), str(tmp_path / "change"), *rest]


def _record(pairs, side) -> dict:
    return json.loads((pairs.ROOT / side / f"BENCH_{pairs.commits[side][:7]}.json").read_text())


def _seeds(pairs, side, workload) -> list[int]:
    return [r["seed"] for r in _record(pairs, side)["workloads"][workload]["runs"]]


def _refused(pairs, argv) -> str:
    with pytest.raises(SystemExit) as exit_:
        pairs.main(argv)
    assert pairs.calls == []
    (message,) = str(exit_.value).splitlines()
    assert message.startswith(USAGE)
    return message


def test_pairs_alternate_which_side_runs_first_without_bytecode(pairs, tmp_path, capsys):
    assert pairs.main(_argv(tmp_path, "w2", "4")) == 0
    order = [(side, seed) for side, _, seed, _, _ in pairs.calls]
    assert order == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    # every run found no __pycache__, though the run before it made one
    assert not any(cached for _, _, _, cached, _ in pairs.calls)
    assert {tuple(argv) for _, _, seed, _, argv in pairs.calls} == {
        ("bench/run.py", "--workload", "w2", "--seed", str(seed), "--seconds", "2") for seed in range(1, 5)
    }
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "w2 pair 1 (parent first): solve_s 0.0120 -> 0.0070, peak_rss_mb 20.0000 -> 20.0000"
    assert out[1].startswith("w2 pair 2 (change first): solve_s 0.0110 -> 0.0080")
    assert out[4:] == [
        "w2 solve_s (s, lower is better): parent median 0.0115 (quartiles 0.0108, 0.0123); "
        "change median 0.0075 (quartiles 0.0068, 0.0088); change better in 3 of 4 pairs",
        "w2 peak_rss_mb (MB, lower is better): parent median 20.0000 (quartiles 20.0000, 20.0000); "
        "change median 20.0000 (quartiles 20.0000, 20.0000); change better in 0 of 4 pairs",
    ]


def test_one_pair_reports_its_values_as_every_quartile(pairs, tmp_path, capsys):
    assert pairs.main(_argv(tmp_path, "w1", "1")) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "w1 solve_s (s, lower is better): parent median 0.0120 (quartiles 0.0120, 0.0120); "
        "change median 0.0070 (quartiles 0.0070, 0.0070); change better in 1 of 1 pairs"
    )


def test_each_side_records_exactly_its_own_runs(pairs, tmp_path):
    assert pairs.main(_argv(tmp_path, "w2", "3")) == 0
    for side in ("parent", "change"):
        record = _record(pairs, side)
        assert (record["commit"], record["seconds"]) == (COMMITS[side], 2)
        assert list(record) == ["commit", "seconds", "workloads"]
        (entry,) = record["workloads"].values()
        assert [(r["seed"], r["env"]) for r in entry["runs"]] == [(s, {"side": side}) for s in (1, 2, 3)]
        assert entry["runs"][0]["result"]["correct"] is True
        values = pairs.solve[side][:3]
        assert entry["metrics"] == {
            "solve_s": {"unit": "s", "values": values, "median": sorted(values)[1]},
            "peak_rss_mb": {"unit": "MB", "values": [20.0] * 3, "median": 20.0},
        }


def test_a_second_call_continues_the_seeds(pairs, tmp_path, capsys):
    assert pairs.main(_argv(tmp_path, "w1", "2")) == 0
    pairs.calls.clear()
    assert pairs.main(_argv(tmp_path, "w1", "3")) == 0
    assert [(side, seed) for side, _, seed, _, _ in pairs.calls] == [
        ("parent", 3), ("change", 3), ("change", 4), ("parent", 4), ("parent", 5), ("change", 5)]
    assert _seeds(pairs, "parent", "w1") == _seeds(pairs, "change", "w1") == [1, 2, 3, 4, 5]
    # the summary reads the first call's pairs too
    assert capsys.readouterr().out.splitlines()[-2].endswith("change better in 4 of 5 pairs")


def test_all_runs_every_workload_and_each_continues_its_own_seeds(pairs, tmp_path):
    assert pairs.main(_argv(tmp_path, "all", "2")) == 0
    assert pairs.main(_argv(tmp_path, "w2", "1")) == 0
    assert [(side, w, seed) for side, w, seed, _, _ in pairs.calls] == [
        ("parent", "w1", 1), ("change", "w1", 1), ("parent", "w2", 1), ("change", "w2", 1),
        ("change", "w1", 2), ("parent", "w1", 2), ("change", "w2", 2), ("parent", "w2", 2),
        ("parent", "w2", 3), ("change", "w2", 3),
    ]
    for side in ("parent", "change"):
        assert list(_record(pairs, side)["workloads"]) == ["w1", "w2"]
        assert (_seeds(pairs, side, "w1"), _seeds(pairs, side, "w2")) == ([1, 2], [1, 2, 3])


def test_the_summary_covers_only_the_pairs_both_records_hold(pairs, tmp_path, capsys):
    assert pairs.main(_argv(tmp_path, "w1", "2")) == 0
    # a new change commit starts a new record; the parent's keeps seeds 1, 2
    pairs.commits["change"] = "3333333cccc"
    capsys.readouterr()
    assert pairs.main(_argv(tmp_path, "w1", "1")) == 0
    assert _seeds(pairs, "parent", "w1") == [1, 2, 3]
    assert _seeds(pairs, "change", "w1") == [3]
    assert capsys.readouterr().out.splitlines()[1] == (
        "w1 solve_s (s, lower is better): parent median 0.0100 (quartiles 0.0100, 0.0100); "
        "change median 0.0110 (quartiles 0.0110, 0.0110); change better in 0 of 1 pairs"
    )


@pytest.mark.parametrize("old", [{"commit": "0ld", "seconds": 2}, {"commit": COMMITS["parent"], "seconds": 3}])
def test_a_record_of_another_commit_or_seconds_is_started_afresh(pairs, tmp_path, old):
    path = tmp_path / "parent" / f"BENCH_{COMMITS['parent'][:7]}.json"
    path.write_text(json.dumps({**old, "seeds": [5], "workloads": {"w1": {"runs": [{"seed": 5}]}}}))
    assert pairs.main(_argv(tmp_path, "w1", "1")) == 0
    record = _record(pairs, "parent")
    assert (record["commit"], record["seconds"]) == (COMMITS["parent"], 2)
    assert list(record) == ["commit", "seconds", "workloads"]
    assert _seeds(pairs, "parent", "w1") == [1]


@pytest.mark.parametrize("rest, why", [
    (["w1"], ""),
    (["w1", "0"], ""),
    (["w1", "x"], ""),
    (["w3", "2"], " (no workload 'w3' in BENCHMARK.json)"),
])
def test_bad_arguments_are_refused_before_any_run(pairs, tmp_path, rest, why):
    assert _refused(pairs, _argv(tmp_path, *rest)) == USAGE + why


def test_a_checkout_without_the_benchmark_is_refused(pairs, tmp_path):
    (tmp_path / "change" / "bench" / "run.py").unlink()
    assert _refused(pairs, _argv(tmp_path, "w1", "2")) == (
        f"{USAGE} (change {tmp_path / 'change'} has no bench/run.py)"
    )


def test_the_same_directory_given_twice_is_refused(pairs, tmp_path):
    argv = [str(tmp_path / "parent"), str(tmp_path / "parent" / "bench" / ".."), "w1", "1"]
    assert _refused(pairs, argv) == (
        f"{USAGE} (PARENT and CHANGE are both {tmp_path / 'parent'}, whose records would collide)"
    )
    assert list((tmp_path / "parent").glob("BENCH_*")) == []


@pytest.mark.parametrize("side", ["parent", "change"])
def test_uncommitted_changes_under_src_or_bench_are_refused(pairs, tmp_path, side):
    pairs.status[side] = " M src/dquiver/polygon.py"
    assert _refused(pairs, _argv(tmp_path, "w1", "1")) == (
        f"{USAGE} ({side} {tmp_path / side} has uncommitted changes under src/ or bench/; commit them first)"
    )
    assert list(tmp_path.glob("*/BENCH_*")) == []


def test_a_failed_run_stops_the_pairs(pairs, tmp_path):
    pairs.exit_code = 3
    with pytest.raises(SystemExit) as exit_:
        pairs.main(_argv(tmp_path, "w1", "2"))
    assert str(exit_.value) == (
        f"parent {tmp_path / 'parent'}: bench/run.py --workload w1 --seed 1 --seconds 2 exited 3: boom"
    )
    assert len(pairs.calls) == 1
    assert list(tmp_path.glob("*/BENCH_*")) == []


def test_wrong_outputs_stop_the_pairs_before_their_pair_is_recorded(pairs, tmp_path):
    assert pairs.main(_argv(tmp_path, "w1", "1")) == 0
    written = {side: _record(pairs, side) for side in ("parent", "change")}
    # pair 2 runs the change first, and its run is good
    pairs.wrong = {"parent"}
    with pytest.raises(SystemExit) as exit_:
        pairs.main(_argv(tmp_path, "w1", "2"))
    assert str(exit_.value) == f"parent {tmp_path / 'parent'}: w1 seed 2 has 3 wrong outputs"
    assert [(side, seed) for side, _, seed, _, _ in pairs.calls[2:]] == [("change", 2), ("parent", 2)]
    assert {side: _record(pairs, side) for side in written} == written
