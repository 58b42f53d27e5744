"""Per-layer tracing for one benchmark pass.

The traced pass wraps the public functions of ``dquiver.quiver``,
``dquiver.polygon``, ``dquiver.trees`` and ``dquiver.counting`` (every
function named in the module's ``__all__`` except UNWRAPPED),
``Triangulation.__init__`` and ``dquiver.cli.main`` in place.  Nothing
inside the program is edited: wrappers are installed on the live modules,
and every name another module bound with ``from ... import`` is rebound to
the same wrapper, so calls between modules are seen too.  Classes are never replaced, because
``Triangulation.__eq__`` relies on ``isinstance``.

Calls are aggregated per (caller, function) pair instead of one span per
call, because hot functions such as ``crossing_number`` run hundreds of
thousands of times in one pass.  A function's self time is its time minus
the time of the wrapped calls made directly from it.

The child process imports this module to install the wrappers; the parent
imports it to turn the recorded aggregates into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("quiver", "polygon", "trees", "counting")
ROOT = "<pass>"

# per-element helpers whose own cost is below a wrapper's: wrapping them
# would mostly measure the tracer, so their time stays in the caller's self
# time instead
UNWRAPPED = (
    "polygon.chord_lift",
    "polygon.diagonal_sort_key",
    "polygon.opposite_tag",
    "polygon.span",
    "trees.leaf_count",
)

# functions whose results are sized or collected, for the work ratios
_SIZED = (
    "quiver.mutation_class_representatives",
    "polygon.enumerate_triangulations",
    "trees.star_tree_classes",
)
_DISTINCT = ("polygon.class_key",)


class Tracer:
    """Aggregates wrapped calls of one pass, keyed by (caller, function)."""

    def __init__(self) -> None:
        self.stack = [ROOT]
        self.inner = [0.0]
        self.agg: dict[tuple[str, str], list] = {}
        self.sizes: dict[str, int] = {}
        self.distinct: dict[str, set] = {}

    def wrap(self, name: str, fn):
        stack, inner, agg = self.stack, self.inner, self.agg
        clock = time.perf_counter
        on_result = self._result_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            stack.append(name)
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                children = inner.pop()
                inner[-1] += elapsed
                rec = agg.get((parent, name))
                if rec is None:
                    rec = agg[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - children
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _result_hook(self, name: str):
        if name in _SIZED:
            self.sizes[name] = 0

            def add_size(result) -> None:
                self.sizes[name] += len(result)

            return add_size
        if name in _DISTINCT:
            seen = self.distinct[name] = set()
            return seen.add
        return None

    def install(self) -> None:
        """Wrap the program's public functions in the live modules."""
        import dquiver.cli
        from dquiver import polygon

        originals: dict[int, tuple] = {}
        for short in MODULES:
            mod = sys.modules[f"dquiver.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and name not in UNWRAPPED):
                    originals[id(fn)] = (fn, self.wrap(name, fn))
        main = dquiver.cli.main
        originals[id(main)] = (main, self.wrap("cli.main", main))
        polygon.Triangulation.__init__ = self.wrap(
            "polygon.Triangulation", polygon.Triangulation.__init__
        )
        # rebind every module-level name that holds an original, which
        # covers the names other modules took with ``from ... import``
        for modname, mod in list(sys.modules.items()):
            if modname != "dquiver" and not modname.startswith("dquiver."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])

    def to_json_obj(self) -> dict:
        return {
            "calls": [[p, n, *rec] for (p, n), rec in sorted(self.agg.items())],
            "sizes": self.sizes,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


# -- per-layer metrics, computed in the parent ---------------------------------

_TIMED = (
    "quiver.mutate",
    "quiver.canonical_key",
    "quiver.canonical_form",
    "polygon.Triangulation",
    "polygon.class_key",
    "polygon.flip",
    "polygon.quiver_of",
    "trees.canonical_star",
    "trees.star_tree_of",
    "trees.triangulation_of",
    "trees.tree_move_for_flip",
    "trees.tree_key",
)
_CALLS = (
    "polygon.crossing_number",
    "polygon.rotate",
    "polygon.invert_tags",
    "counting.euler_phi",
)
_TOTALS = (
    "quiver.mutation_class_representatives",
    "polygon.enumerate_triangulations",
    "trees.star_tree_classes",
    "counting.d_count",
    "counting.a_count",
    "counting.necklace_count",
    "counting.euler_phi",
    "counting.catalan",
    "cli.main",
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER: list[tuple[str, str, str]] = (
    [(f"{f}.calls", "count", "lower") for f in _TIMED]
    + [(f"{f}.us_per_call", "us", "lower") for f in _TIMED]
    + [(f"{f}.calls", "count", "lower") for f in _CALLS]
    + [(f"{f}.s", "s", "lower") for f in _TOTALS]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES + ("cli",)]
    + [
        ("counting.necklace_count.self_s", "s", "lower"),
        ("quiver.new_class_per_key", "ratio", "higher"),
        ("polygon.classes_per_triangulation", "ratio", "higher"),
        ("trees.kept_per_sequence", "ratio", "higher"),
        ("polygon.enumerate_triangulations.results", "count", "higher"),
        ("cli.output_bytes", "bytes", "lower"),
        ("trace.solve_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Summary:
    """Per-function totals from the aggregates a traced child wrote."""

    def __init__(self, trace: dict) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        for _parent, name, calls, total, own in trace["calls"]:
            self.calls[name] = self.calls.get(name, 0) + calls
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.total[name] = self.total.get(name, 0.0) + total
        self.sizes = trace["sizes"]
        self.distinct = trace["distinct"]

    def us_per_call(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total.get(name, 0.0) / calls * 1e6 if calls else 0.0

    def ratio(self, numerator: float, name: str) -> float:
        calls = self.calls.get(name, 0)
        return numerator / calls if calls else 0.0

    def module_self(self, module: str) -> float:
        prefix = module + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def top(self, solve_s: float, k: int = 8) -> list[tuple[str, float, float]]:
        """The k functions with most total time, with their share of solve_s."""
        ranked = sorted(self.total.items(), key=lambda item: -item[1])[:k]
        return [(name, s, s / solve_s if solve_s else 0.0) for name, s in ranked]


def layer_metrics(trace: dict, output_bytes: int, traced_solve_s: float,
                  untraced_solve_s: float) -> dict[str, float]:
    """Every PER_LAYER metric, zero where the workload never reaches it."""
    s = Summary(trace)
    values: dict[str, float] = {}
    for f in _TIMED:
        values[f"{f}.calls"] = s.calls.get(f, 0)
        values[f"{f}.us_per_call"] = s.us_per_call(f)
    for f in _CALLS:
        values[f"{f}.calls"] = s.calls.get(f, 0)
    for f in _TOTALS:
        values[f"{f}.s"] = s.total.get(f, 0.0)
    for m in MODULES + ("cli",):
        values[f"{m}.self_s"] = s.module_self(m)
    values["counting.necklace_count.self_s"] = s.self_s.get("counting.necklace_count", 0.0)
    values["quiver.new_class_per_key"] = s.ratio(
        s.sizes.get("quiver.mutation_class_representatives", 0), "quiver.canonical_key"
    )
    values["polygon.classes_per_triangulation"] = s.ratio(
        s.distinct.get("polygon.class_key", 0), "polygon.class_key"
    )
    values["trees.kept_per_sequence"] = s.ratio(
        s.sizes.get("trees.star_tree_classes", 0), "trees.canonical_star"
    )
    values["polygon.enumerate_triangulations.results"] = s.sizes.get(
        "polygon.enumerate_triangulations", 0
    )
    values["cli.output_bytes"] = output_bytes
    values["trace.solve_s"] = traced_solve_s
    values["trace.overhead_s"] = traced_solve_s - untraced_solve_s
    return values
