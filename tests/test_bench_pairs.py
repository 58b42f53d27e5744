"""``tools/bench_pairs.py`` alternates its two checkouts pair by pair.

Each pair runs one workload once per checkout, the side that runs first
flipping from pair to pair, and each run starts without the checkout's
``src/dquiver/__pycache__``.  ``subprocess.run`` is replaced by a fake
``bench/run.py`` and the tool's ``ROOT`` is a temporary directory, so
nothing is benchmarked and nothing is written into the checkout.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
USAGE = "usage: python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS"


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
    # solve_s per (side, seed): the change is faster in every pair but the
    # third; peak_rss_mb is 20 on both sides
    module.solve = {"parent": [0.012, 0.011, 0.010, 0.013], "change": [0.007, 0.008, 0.011, 0.006]}
    module.exit_code = 0

    def fake_run(argv, cwd, capture_output, text):
        side = Path(cwd).name
        cache = Path(cwd) / "src" / "dquiver" / "__pycache__"
        seed = int(argv[argv.index("--seed") + 1])
        module.calls.append((side, seed, cache.exists(), argv[1:]))
        cache.mkdir()  # as the run's import would
        result = {"metrics": {"solve_s": {"unit": "s", "value": module.solve[side][seed - 1]},
                              "peak_rss_mb": {"unit": "MB", "value": 20.0}}, "failed": 0}
        return subprocess.CompletedProcess(argv, module.exit_code, f"env {{}}\n{json.dumps(result)}\n", "boom")

    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module.subprocess, "run", fake_run)
    return module


def _argv(tmp_path, *rest):
    return [str(tmp_path / "parent"), str(tmp_path / "change"), *rest]


def test_pairs_alternate_which_side_runs_first_without_bytecode(pairs, tmp_path, capsys):
    assert pairs.main(_argv(tmp_path, "w2", "4")) == 0
    order = [(side, seed) for side, seed, _, _ in pairs.calls]
    assert order == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    # every run found no __pycache__, though the run before it made one
    assert not any(cached for _, _, cached, _ in pairs.calls)
    assert {tuple(argv) for _, seed, _, argv in pairs.calls} == {
        ("bench/run.py", "--workload", "w2", "--seed", str(seed), "--seconds", "2") for seed in range(1, 5)
    }
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pair 1 (parent first): solve_s 0.0120 -> 0.0070, peak_rss_mb 20.0000 -> 20.0000; " \
                     "parent failed 0 change failed 0"
    assert out[1].startswith("pair 2 (change first): solve_s 0.0110 -> 0.0080")
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


@pytest.mark.parametrize("rest, why", [
    (["w1"], ""),
    (["w1", "0"], ""),
    (["w1", "x"], ""),
    (["w3", "2"], " (no workload 'w3' in BENCHMARK.json)"),
])
def test_bad_arguments_are_refused_before_any_run(pairs, tmp_path, rest, why):
    with pytest.raises(SystemExit) as exit_:
        pairs.main(_argv(tmp_path, *rest))
    assert str(exit_.value) == USAGE + why
    assert pairs.calls == []


def test_a_checkout_without_the_benchmark_is_refused(pairs, tmp_path):
    (tmp_path / "change" / "bench" / "run.py").unlink()
    with pytest.raises(SystemExit) as exit_:
        pairs.main(_argv(tmp_path, "w1", "2"))
    assert str(exit_.value) == f"{USAGE} (change {tmp_path / 'change'} has no bench/run.py)"
    assert pairs.calls == []


def test_a_failed_run_stops_the_pairs(pairs, tmp_path):
    pairs.exit_code = 3
    with pytest.raises(SystemExit) as exit_:
        pairs.main(_argv(tmp_path, "w1", "2"))
    assert str(exit_.value) == (
        f"{tmp_path / 'parent'}: bench/run.py --workload w1 --seed 1 --seconds 2 exited 3: boom"
    )
    assert len(pairs.calls) == 1
