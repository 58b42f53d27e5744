"""dquiver benchmark: cold-process passes of one workload, checked and timed.

    python3 bench/run.py --workload quiver_bfs --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seconds 22   # table of every workload

Run from anywhere inside a checkout that has ``src/dquiver``.  Load is a
closed loop with one caller: one pass at a time, each in a fresh
interpreter, because every ``dquiver`` invocation starts one.  Passes
repeat until ``--seconds`` have gone by (at least MIN_PASSES).  Per pass:

* ``setup_s``: from starting the interpreter to ``import dquiver`` done;
* ``solve_s``: from the first call into dquiver to the last output written;
* ``peak_rss_mb``: the pass process's maximum resident set.

The two times are wall seconds rescaled to the host's speed, which
``calibrate`` measures right before and after every pass (see there).

The parent checks every output against reference.json.  With ``--trace 1``
one more pass runs with the tracer (tracer.py) installed and reports the
per-layer metrics instead.  The last line of standard output is the JSON
result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import KERNELS
from tracer import PER_LAYER, Summary, layer_metrics
from workloads import DEFECT, FAIL, SOLVE_KERNEL, WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
# stop starting passes after this long, and give up on a pass that takes
# longer than PASS_TIMEOUT_S, so that a run ends within 180 s
RUN_CAP_S = 90.0
PASS_TIMEOUT_S = 40.0

END_TO_END = (("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class HarnessError(RuntimeError):
    """The pass could not run at all, so there is no result to report."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate(kernels: set[str]) -> dict[str, float]:
    """Seconds each named kernel of calibrate.py takes now.

    The host is shared: its speed drifts by about 15% over tens of seconds,
    on both cores together, which moves the median of a whole run by as
    much.  A pass's times are multiplied by a kernel's reference seconds
    over the mean of that kernel's calibrations just before and after the
    pass, which removes most of the drift.  Contention slows work with a
    large working set more than compact work, so each workload names the
    kernel that tracks its solve time best (workloads.SOLVE_KERNEL);
    set-up always uses "memory".  The kernels run in their own interpreter,
    so that they see what a fresh pass sees.
    """
    proc = subprocess.run([sys.executable, str(BENCH / "calibrate.py"), *sorted(kernels)],
                          capture_output=True, check=True, timeout=60)
    return json.loads(proc.stdout)


@dataclass
class Pass:
    wall_setup_s: float
    wall_solve_s: float
    peak_rss_mb: float
    outcomes: list = field(default_factory=list)
    trace: dict | None = None
    output_bytes: int = 0
    # reference over measured calibration around this pass, per time
    setup_scale: float = 1.0
    solve_scale: float = 1.0

    @property
    def setup_s(self) -> float:
        return self.wall_setup_s * self.setup_scale

    @property
    def solve_s(self) -> float:
        return self.wall_solve_s * self.solve_scale


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_pass(ops: list[Op], workdir: Path, trace: bool) -> Pass:
    """One pass in a fresh interpreter; outputs are checked here, not there."""
    workdir.mkdir(parents=True)
    spec = {"trace": trace, "ops": [op.spec for op in ops], "result": "result.json"}
    (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    with open(workdir / "child.log", "wb") as log:
        start = _now()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "spec.json"],
            cwd=workdir, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=log, timeout=PASS_TIMEOUT_S,
        )
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        log_text = (workdir / "child.log").read_text(errors="replace").strip()
        raise HarnessError(f"pass exited {proc.returncode}: {log_text[-2000:]}")
    record = json.loads(result_path.read_text(encoding="utf-8"))
    outcomes = []
    for op, op_record in zip(ops, record["ops"]):
        outcomes.extend(op.check(workdir, op_record))
    # what the dquiver command wrote: each CLI op's files are named after it
    cli_ops = {op.spec["name"] for op in ops if op.spec["kind"] == "cli"}
    output_bytes = sum(
        p.stat().st_size for p in workdir.iterdir() if p.name.split(".")[0] in cli_ops
    )
    shutil.rmtree(workdir)
    return Pass(
        wall_setup_s=record["ready"] - start,
        wall_solve_s=record["end"] - record["ready"],
        peak_rss_mb=record["peak_rss_kb"] / 1024,
        outcomes=outcomes,
        trace=record["trace"],
        output_bytes=output_bytes,
    )


def _git_sha() -> str:
    """HEAD of the checkout, read from .git directly (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dquiver").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p50..p99 that still has at least ten passes beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


@dataclass
class RunResult:
    workload: str
    passes: list[Pass]
    traced: Pass | None
    calibration: list[dict[str, float]]

    @property
    def outcomes(self) -> list:
        out = [o for p in self.passes for o in p.outcomes]
        if self.traced is not None:
            out += self.traced.outcomes
        return out

    def median(self, metric: str) -> float:
        return statistics.median(getattr(p, metric) for p in self.passes)

    def end_to_end(self) -> dict[str, float]:
        return {name: self.median(name) for name, _ in END_TO_END}

    def per_layer(self) -> dict[str, float]:
        assert self.traced is not None
        return layer_metrics(self.traced.trace, self.traced.output_bytes,
                             self.traced.solve_s, self.median("solve_s"))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        # compile the package's bytecode once, as an installed copy would have it
        subprocess.run([sys.executable, "-c", "import dquiver.cli"], env=_child_env(),
                       check=True, timeout=60)
        solve_kernel = SOLVE_KERNEL[name]
        kernels = {"memory", solve_kernel}
        calibration = [calibrate(kernels)]

        def scale(kernel: str) -> float:
            return KERNELS[kernel][1] / statistics.mean(c[kernel] for c in calibration[-2:])

        def calibrated(one: Pass) -> Pass:
            calibration.append(calibrate(kernels))
            one.setup_scale, one.solve_scale = scale("memory"), scale(solve_kernel)
            return one

        passes: list[Pass] = []
        start = _now()
        while len(passes) < MIN_PASSES or _now() - start < seconds:
            k = len(passes)
            passes.append(calibrated(run_pass(WORKLOADS[name](seed, k), workdir / f"pass{k}",
                                              trace=False)))
            if _now() - start > RUN_CAP_S:
                break
        if trace:
            traced = calibrated(run_pass(WORKLOADS[name](seed, 0), workdir / "traced", trace=True))
        else:
            traced = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return RunResult(name, passes, traced, calibration)


def describe(result: RunResult) -> list[str]:
    """Human-readable lines for one run."""
    outcomes = result.outcomes
    failed = [msg for status, msg in outcomes if status == FAIL]
    defects = [msg for status, msg in outcomes if status == DEFECT]
    lines = [
        f"{result.workload}: {len(result.passes)} passes, {len(outcomes)} operations, "
        f"{len(failed)} failed, {len(defects)} known defects, "
        f"error_rate {(len(failed) + len(defects)) / len(outcomes):.4f}"
    ]
    for name, unit in END_TO_END:
        values = [getattr(p, name) for p in result.passes]
        tail = tail_percentile(values)
        tail_text = (f"p{tail[0]} {tail[1]:.4f}" if tail else
                     "no percentile has 10 passes beyond it")
        lines.append(
            f"  {name:<12} median {statistics.median(values):.4f} {unit}, {tail_text}, "
            f"min {min(values):.4f}, max {max(values):.4f}, over {len(values)} passes"
        )
    for name in ("wall_solve_s", "wall_setup_s"):
        lines.append(f"  {name:<12} median {result.median(name):.4f} s, not rescaled")
    for kernel in sorted(result.calibration[0]):
        median = statistics.median(c[kernel] for c in result.calibration)
        lines.append(f"  calibration  {kernel}: median {median:.4f} s (reference "
                     f"{KERNELS[kernel][1]} s) over {len(result.calibration)} calibrations")
    lines += [f"  known defect: {msg}" for msg in sorted(set(defects))]
    lines += [f"  FAILED: {msg}" for msg in failed[:10]]
    if result.traced is not None:
        wall = result.traced.wall_solve_s
        lines.append(f"  traced pass: solve_s {result.traced.solve_s:.4f} s, wall {wall:.4f} s; "
                     "largest totals (wall):")
        for fn, seconds, share in Summary(result.traced.trace).top(wall):
            lines.append(f"    {fn:<40} {seconds:8.4f} s  {share:6.1%} of the traced wall time")
    return lines


def result_line(result: RunResult, trace: bool) -> str:
    outcomes = result.outcomes
    failed = sum(status == FAIL for status, _ in outcomes)
    if trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = result.per_layer()
    else:
        units = dict(END_TO_END)
        values = result.end_to_end()
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dquiver" / "__init__.py").is_file():
        print(f"error: no dquiver package under {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    # passes and calibrations share one core, so they see the same contention
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (HarnessError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print("\n".join(describe(result)))
    if args.workload == "all":
        print(f"{'metric':<14}{'unit':<6}" + "".join(f"{r.workload:>23}" for r in results))
        for name, unit in END_TO_END:
            print(f"{name:<14}{unit:<6}" + "".join(f"{r.median(name):>23.4f}" for r in results))
        rates = [sum(s != "ok" for s, _ in r.outcomes) / len(r.outcomes) for r in results]
        print(f"{'error_rate':<14}{'ratio':<6}" + "".join(f"{x:>23.4f}" for x in rates))
        return 0
    print(result_line(results[0], bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
