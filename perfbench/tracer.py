"""Spans around the calls into fairsim's public functions, recorded from outside.

The tracer rebinds every public function of each fairsim module, plus the
record I/O and report-writing methods, to a wrapper that records a span.
Nothing under src/ changes; uninstall() puts the originals back, so the
same process can alternate traced and untraced ops.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: The package's modules; each is one layer.
LAYERS = ("densities", "rules", "metrics", "utility", "experiments", "reports", "cli")

#: Public methods traced besides module-level functions: (module, class, method, span name).
METHODS = (
    ("densities", "AuditDataset", "from_csv", "densities.from_csv"),
    ("densities", "AuditDataset", "to_csv", "densities.to_csv"),
    ("experiments", "ExperimentReport", "write", "experiments.ExperimentReport.write"),
)


class Tracer:
    """In-memory span store. A span is (id, name, start, end, parent id, op id, error)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._current = None
        self._next_id = 0
        self._undo: list[tuple] = []

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent, self._current = self._current, sid
        return sid, parent

    def _leave(self, sid, parent, name, start, error):
        end = time.perf_counter()
        self._current = parent
        self.spans.append((sid, name, start, end, parent, self.op, error))

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one whole op."""
        sid, parent = self._enter()
        start = time.perf_counter()
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._leave(sid, parent, name, start, error)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            start = time.perf_counter()
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self._leave(sid, parent, name, start, error)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"fairsim.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        # A function imported by name into another module is rebound there too.
        for mod in (importlib.import_module("fairsim"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for layer, cls_name, method, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__))
            else:
                replacement = self._wrap(name, raw)
            self._undo.append((cls, method, raw))
            setattr(cls, method, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line, once, at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "op", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans: list[tuple], ops: int) -> dict[str, dict[str, float]]:
    """Per span name: busy time, self time and call count per op, and errors by type.

    Busy time counts a span only when no enclosing span has the same name, so
    a recursive call is not counted twice. Self time is a span's duration
    minus the time its direct children cover; the thread is single, so
    children never overlap.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, name, start, end, parent, _, error in spans:
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += (end - start) - child_time[sid]
        if error is not None:
            st[f"error.{error}"] += 1
        if not _inside(by_id, parent, {name}):
            st["busy_s"] += end - start
    scale = 1.0 / max(ops, 1)
    return {name: {k: v * scale for k, v in st.items()} for name, st in stats.items()}


def _inside(by_id: dict, parent, names: set[str]) -> bool:
    """Whether the span with this parent id lies inside a span of one of the names."""
    ancestor = by_id.get(parent)
    while ancestor is not None and ancestor[1] not in names:
        ancestor = by_id.get(ancestor[4])
    return ancestor is not None


def covered(spans: list[tuple], names: set[str], ops: int) -> float:
    """Time per op inside spans of the given names, counting nested ones once."""
    by_id = {s[0]: s for s in spans}
    total = sum(end - start for _, name, start, end, parent, _, _ in spans
                if name in names and not _inside(by_id, parent, names))
    return total / max(ops, 1)


# -- per-layer metrics ------------------------------------------------------------

#: Functions whose busy time per op is reported, and those whose calls per op are.
BUSY = (
    "densities.from_csv",
    "densities.to_csv",
    "densities.sample",
    "densities.population_build",
    "rules.decision_probabilities",
    "rules.solve_equalized_odds",
    "rules.solve_parity_ratio",
    "metrics.between_group_calibration_gap",
    "metrics.within_group_calibration_error",
    "metrics.confusion",
    "metrics.separation_gap",
    "metrics.sufficiency_gap_binary",
    "utility.judge_disutility",
    "utility.mc_long_run_eu",
    "experiments.run_recommender_experiment",
    "experiments.run_equal_rates_unequal_utility",
    "experiments.run_judge_experiment",
    "experiments.run_appendix_counterexample",
    "experiments.ExperimentReport.write",
    "reports.render_doc",
)
CALLS = (
    "metrics.between_group_calibration_gap",
    "metrics.within_group_calibration_error",
    "metrics.confusion",
    "metrics.separation_gap",
    "metrics.sufficiency_gap_binary",
)
#: What the CLI commands spend outside these spans is their own overhead.
AUDIT_SPANS = {"densities.from_csv", "reports.render_doc", *CALLS}
SIMULATE_SPANS = {
    "experiments.run_recommender_experiment",
    "experiments.run_equal_rates_unequal_utility",
    "experiments.run_judge_experiment",
    "experiments.run_appendix_counterexample",
    "experiments.ExperimentReport.write",
}

#: Every per-layer metric with its unit, in report order.
PER_LAYER = (
    *((f"{name}.busy_s", "s") for name in BUSY),
    *((f"{name}.calls", "count") for name in CALLS),
    ("densities.from_csv.bytes_per_s", "B/s"),
    ("densities.to_csv.bytes_per_s", "B/s"),
    ("rules.solve_equalized_odds.setup_busy_s", "s"),
    ("rules.solve_equalized_odds.infeasible", "count"),
    ("rules.solve_equalized_odds.feasible_ratio", "ratio"),
    ("rules.solve_equalized_odds.randomized", "count"),
    ("rules.solve_parity_ratio.infeasible", "count"),
    ("experiments.ExperimentReport.write.bytes", "B"),
    ("cli.audit.other_s", "s"),
    ("cli.simulate.other_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics(workload: str, spans: list[tuple], counts: dict, untraced: list, traced: list) -> dict:
    """Every PER_LAYER metric, per traced op; 0 where the workload never calls the function."""
    ops = len(traced)
    op_spans = [s for s in spans if s[5] != "setup"]
    stats = summarize(op_spans, ops)
    setup = summarize([s for s in spans if s[5] == "setup"], 1)

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0.0)

    def rate(numerator: float, seconds: float) -> float:
        return numerator / seconds if seconds > 0 else 0.0

    m = {f"{name}.busy_s": get(name, "busy_s") for name in BUSY}
    m.update({f"{name}.calls": get(name, "calls") for name in CALLS})
    m["densities.from_csv.bytes_per_s"] = rate(counts.get("densities.from_csv.bytes", 0.0) / ops, get("densities.from_csv", "busy_s"))
    m["densities.to_csv.bytes_per_s"] = rate(counts.get("densities.to_csv.bytes", 0.0) / ops, get("densities.to_csv", "busy_s"))
    m["rules.solve_equalized_odds.setup_busy_s"] = setup.get("rules.solve_equalized_odds", {}).get("busy_s", 0.0)
    eo_calls = get("rules.solve_equalized_odds", "calls")
    eo_infeasible = get("rules.solve_equalized_odds", "error.InfeasibleRuleError")
    m["rules.solve_equalized_odds.infeasible"] = eo_infeasible
    m["rules.solve_equalized_odds.feasible_ratio"] = (eo_calls - eo_infeasible) / eo_calls if eo_calls else 0.0
    m["rules.solve_equalized_odds.randomized"] = counts.get("rules.solve_equalized_odds.randomized", 0.0) / ops
    m["rules.solve_parity_ratio.infeasible"] = get("rules.solve_parity_ratio", "error.InfeasibleRuleError")
    m["experiments.ExperimentReport.write.bytes"] = counts.get("experiments.ExperimentReport.write.bytes", 0.0) / ops
    # Taken within the traced ops: the machine's speed drifts between ops,
    # so subtracting spans from another op's time would mostly measure drift.
    traced_mean = sum(traced) / ops
    m["cli.audit.other_s"] = traced_mean - covered(op_spans, AUDIT_SPANS, ops) if workload == "audit-1m" else 0.0
    m["cli.simulate.other_s"] = (
        traced_mean - covered(op_spans, SIMULATE_SPANS, ops) if workload == "simulate-suite" else 0.0
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((st.get("self_s", 0.0) for name, st in stats.items() if name.startswith(layer + ".")), 0.0)
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return m
