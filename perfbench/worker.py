"""One benchmark process: set up one workload, then run and check its ops.

Started by run.py in a fresh interpreter, so set-up time and the memory
high-water mark belong to this workload alone. Usage:

    python3 perfbench/worker.py CONFIG.json

The config names the workload, its sizes, the seed, the measuring time and
whether to trace; the result is written as JSON to the config's
``result_path``. fairsim is imported from ``src/`` of the current directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

#: Keep at most this many op problems in the result.
_MAX_PROBLEMS = 5

#: Nominal time of one reference_work() call. It fixes the unit of every
#: reported end-to-end time, so it must never change.
REFERENCE_S = 0.034
#: Reference samples taken back to back around the timed ops and after set-up.
_REFERENCE_BURST = 5
#: Between timed ops, one more reference sample once this many seconds have passed.
_REFERENCE_EVERY_S = 0.5


def reference_work() -> float:
    """Fixed work that does not touch fairsim, timed next to the ops.

    The host's speed drifts by tens of percent over seconds to minutes. The
    ratio of REFERENCE_S to this work's median time in the same process is
    that process's speed factor; scaling wall times by it removes most of the
    drift. The mix follows fairsim's own: string formatting and parsing,
    dict updates, Fraction arithmetic, and numpy passes over small arrays, so
    it adds little to the process's memory high-water mark.
    """
    rows = [f"{i},{i * 0.37!r},{i & 1}" for i in range(12_000)]
    parsed = {}
    for line in rows:
        key, value, flag = line.split(",")
        parsed[key] = float(value) + int(flag)
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k, 1 << (k % 40))
    a = np.arange(50_000, dtype=float)
    total = 0.0
    for _ in range(20):
        total += float((np.sqrt(a) * 1.5 + (a > 25_000)).sum())
    return total + len(parsed) + float(acc)


def _time_reference(samples: list[float], count: int = 1) -> None:
    for _ in range(count):
        start = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - start)


def _import_fairsim():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import fairsim
    import fairsim.cli

    if not os.path.abspath(fairsim.__file__).startswith(src + os.sep):
        raise SystemExit(f"fairsim imported from {fairsim.__file__}, not from {src}")
    return fairsim


def _quiet_main(fairsim, argv) -> str:
    """fairsim.cli.main in-process with stdout and stderr captured; returns stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fairsim.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    if code != 0:
        raise RuntimeError(f"fairsim {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _digest(path: Path) -> str:
    """SHA-256 of a file, read in chunks so the check adds little to peak memory."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


class Audit:
    """fairsim audit --format doc of a seeded CSV."""

    def __init__(self, fairsim, cfg):
        self.fairsim = fairsim
        self.path = cfg["fixture"]
        self.expected = cfg["expected"]
        self.records = self.expected["records"]
        self.file_bytes = os.path.getsize(self.path)

    def op(self, i, tracer):
        if tracer is not None:
            tracer.counts["densities.from_csv.bytes"] += self.file_bytes
        return _quiet_main(self.fairsim, ["audit", "--input", self.path, "--format", "doc"])

    def corrupt(self, report):
        key = "input.records = "
        return report.replace(key + str(self.records), key + str(self.records + 1))

    def check(self, i, report):
        import oracles

        return oracles.check_audit(report, self.expected)


class Export:
    """sample(judge population, n, seed, equalized-odds rule).to_csv(path)."""

    def __init__(self, fairsim, cfg):
        self.fairsim = fairsim
        self.records = cfg["records"]
        self.seeds = cfg["op_seeds"]
        self.dir = Path(cfg["run_dir"]) / "export"
        self.dir.mkdir(parents=True, exist_ok=True)
        grid = cfg["grid"]
        self.pop = fairsim.PopulationModel(
            groups={
                "men": fairsim.ConditionalScoreDensity.from_base_rate(0.3, grid),
                "women": fairsim.ConditionalScoreDensity.from_base_rate(0.6, grid),
            }
        )
        self.rule = fairsim.solve_equalized_odds(self.pop, "men", 0.5)
        self.digests: dict[int, str] = {}

    def op(self, i, tracer):
        path = self.dir / f"op{i % 2}.csv"
        data = self.fairsim.sample(self.pop, self.records, self.seeds[i], self.rule)
        data.to_csv(path)
        if tracer is not None:
            tracer.counts["densities.to_csv.bytes"] += path.stat().st_size
        return path, data

    def corrupt(self, out):
        path, data = out
        raw = bytearray(path.read_bytes())
        raw[-3] = ord("0") if raw[-3] != ord("0") else ord("1")
        path.write_bytes(bytes(raw))
        return out

    def check(self, i, out):
        import oracles

        path, data = out
        digest = _digest(path)
        seed = self.seeds[i]
        if seed in self.digests:
            if self.digests[seed] != digest:
                return [f"op {i}: seed {seed} wrote different bytes than its earlier op"]
            return []
        self.digests[seed] = digest
        rates = {"men": 0.3, "women": 0.6}
        return oracles.check_export(path, data.group, data.score, data.outcome, data.decision, rates)


class ExactSolve:
    """Build a random calibrated population, solve both rules, re-measure exactly."""

    def __init__(self, fairsim, cfg):
        import gen

        self.fairsim = fairsim
        self.seed = cfg["seed"]
        self.grid = cfg["grid"]
        self.gen = gen
        self.instance = None

    def prepare(self, i):
        self.instance = self.gen.exact_instance(self.seed, i, self.grid)

    def op(self, i, tracer):
        fs = self.fairsim
        inst = self.instance
        with tracer.span("densities.population_build") if tracer is not None else contextlib.nullcontext():
            pop = fs.PopulationModel(
                groups={
                    g: fs.ConditionalScoreDensity.calibrated(fs.ScoreDensity(w).normalized())
                    for g, w in inst["raw"].items()
                }
            )
        ref, t_ref = inst["reference"], inst["t_ref"]
        try:
            eo = fs.solve_equalized_odds(pop, ref, t_ref)
        except fs.InfeasibleRuleError:
            eo = None
        try:
            parity = fs.solve_parity_ratio(pop, ref, t_ref)
        except fs.InfeasibleRuleError:
            parity = None
        sep = fs.separation_gap(pop, eo) if eo is not None else None
        harm = fs.judge_disutility(pop, parity, "per-person") if parity is not None else None
        if tracer is not None and eo is not None:
            randomized = any(isinstance(p, fs.RandomizedThreshold) for p in eo.policies.values())
            tracer.counts["rules.solve_equalized_odds.randomized"] += randomized
        return {
            "arrays": {g: (pop.group(g).f0.weights, pop.group(g).f1.weights) for g in pop.labels},
            "eo": self._policies(eo),
            "parity": self._policies(parity),
            "separation": None if sep is None else (sep.fpr_gap, sep.fnr_gap),
            "per_person_harm": None if harm is None else harm.per_group,
        }

    def _policies(self, rule):
        if rule is None:
            return None
        out = {}
        for g, p in rule.policies.items():
            if isinstance(p, self.fairsim.RandomizedThreshold):
                out[g] = ("rand", p.lower, p.upper, p.mix)
            else:
                out[g] = ("det", p.threshold)
        return out

    def corrupt(self, result):
        ref, t_ref = self.instance["reference"], self.instance["t_ref"]
        other = "b" if ref == "a" else "a"
        if result["eo"] is None:
            result["eo"] = {ref: ("det", t_ref), other: ("det", t_ref)}
        else:
            result["eo"][other] = ("det", min(1.0, t_ref + 1.0 / self.grid))
        return result

    def check(self, i, result):
        import oracles

        return oracles.check_exact(self.instance, result["arrays"], result)


class SimulateSuite:
    """fairsim simulate of all four experiments at their defaults."""

    def __init__(self, fairsim, cfg):
        self.fairsim = fairsim
        self.seeds = cfg["op_seeds"]
        self.overrides = cfg["overrides"]
        self.dir = Path(cfg["run_dir"]) / "simulate"
        self.digests: dict[int, str] = {}

    def op(self, i, tracer):
        outdir = self.dir / f"op{i}"
        seed = f"seed={self.seeds[i]}"
        runs = (
            ["recommender", seed, *self.overrides.get("recommender", [])],
            ["equal-rates", *self.overrides.get("equal-rates", [])],
            ["judge", *self.overrides.get("judge", []), "--convention", "per-outcome"],
            ["appendix", seed, *self.overrides.get("appendix", [])],
        )
        for argv in runs:
            _quiet_main(self.fairsim, ["simulate", *argv, "--out", str(outdir / argv[0])])
        if tracer is not None:
            tracer.counts["experiments.ExperimentReport.write.bytes"] += sum(
                p.stat().st_size for p in outdir.rglob("*") if p.is_file()
            )
        return outdir

    def corrupt(self, outdir):
        path = outdir / "judge" / "report.doc"
        path.write_text(path.read_text().replace("verdicts.separation.holds = true", "verdicts.separation.holds = false"))
        return outdir

    def check(self, i, outdir):
        import oracles

        try:
            problems = oracles.check_simulate(outdir)
            digest = hashlib.sha256(oracles.tree_bytes(outdir)).hexdigest()
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        seed = self.seeds[i]
        if seed in self.digests and self.digests[seed] != digest:
            problems.append(f"op {i}: seed {seed} wrote different bytes than its earlier op")
        self.digests.setdefault(seed, digest)
        return problems


WORKLOADS = {"audit-1m": Audit, "export-1m": Export, "exact-solve": ExactSolve, "simulate-suite": SimulateSuite}


def _run_ops(work, cfg, tracer):
    """Warm up, then run ops until the measuring time is spent.

    Warm-up ops are checked but not timed, so every timed op finds the
    allocator and the file cache as the ops before it left them. When
    tracing, timed ops mix untraced and traced ones.
    """
    seconds, min_ops, warmup = cfg["seconds"], cfg["min_ops"], cfg["warmup"]
    hard_stop = cfg["hard_stop"]  # time.monotonic() by which the last op must end
    times = {False: [], True: []}
    attempted = failed = 0
    problems: list[str] = []
    prepare = getattr(work, "prepare", None)
    refs: list[float] = []
    last_ref = 0.0
    begin = None
    i = 0
    while i < warmup + cfg["max_ops"]:
        timed = i >= warmup
        if timed and begin is None:
            _time_reference(refs, _REFERENCE_BURST)
            begin = time.perf_counter()
        done = len(times[False]) + len(times[True])
        if timed and done >= min_ops and time.perf_counter() - begin >= seconds:
            break
        if done and time.monotonic() + 2.0 * statistics.median(times[False] + times[True]) > hard_stop:
            break
        # untraced, traced, traced, untraced, ...: a steady drift in speed
        # then weighs on both kinds alike
        traced = tracer is not None and timed and (i - warmup) % 4 in (1, 2)
        out = None
        if prepare is not None:
            prepare(i)
        if timed and time.perf_counter() - last_ref >= _REFERENCE_EVERY_S:
            _time_reference(refs)
            last_ref = time.perf_counter()
        attempted += 1
        try:
            if traced:
                tracer.install()
                tracer.op = i
                try:
                    with tracer.span("bench.op"):
                        start = time.perf_counter()
                        out = work.op(i, tracer)
                        elapsed = time.perf_counter() - start
                finally:
                    tracer.uninstall()
                    tracer.op = None
            else:
                start = time.perf_counter()
                out = work.op(i, None)
                elapsed = time.perf_counter() - start
            if timed:
                times[traced].append(elapsed)
            if cfg["corrupt"]:
                out = work.corrupt(out)
            op_problems = work.check(i, out)
        except Exception:
            op_problems = [traceback.format_exc(limit=3)]
        del out
        if op_problems:
            failed += 1
            problems.extend(f"op {i}: {p}" for p in op_problems[:_MAX_PROBLEMS])
        i += 1
    _time_reference(refs, _REFERENCE_BURST)
    return times, refs, attempted, failed, problems[:_MAX_PROBLEMS]


def main() -> int:
    cfg = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    fairsim = _import_fairsim()
    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
    try:
        work = WORKLOADS[cfg["workload"]](fairsim, cfg)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
    setup_s = time.monotonic() - cfg["spawned_at"]
    setup_refs: list[float] = []
    _time_reference(setup_refs, _REFERENCE_BURST)
    result = {"setup_s": setup_s, "setup_speed": REFERENCE_S / statistics.median(setup_refs)}
    if not cfg["setup_only"]:
        times, refs, attempted, failed, problems = _run_ops(work, cfg, tracer)
        result.update(
            op_speed=REFERENCE_S / statistics.median(refs),
            reference_samples=len(refs),
            op_times=times[False],
            traced_op_times=times[True],
            attempted=attempted,
            failed=failed,
            problems=problems,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None and times[True] and times[False]:
            from tracer import per_layer_metrics

            result["per_layer"] = per_layer_metrics(cfg["workload"], tracer.spans, tracer.counts, times[False], times[True])
            tracer.dump(Path(cfg["span_path"]))
    Path(cfg["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
