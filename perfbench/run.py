#!/usr/bin/env python3
"""fairsim benchmark: four workloads over the audit, export, exact-solve and
simulate paths, each checked against an oracle that does not use fairsim.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit-1m --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke       # every workload once, tiny sizes
    python3 perfbench/run.py --self-test   # corrupted outputs must count as failed

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. Lines before it name every metric with its unit and op count.
Inputs come from the seed; generated files live under .perfbench-work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

WORK = Path(".perfbench-work")

#: Fresh interpreters that only set up, besides the one that runs the ops;
#: setup_s is the median over all of them.
SETUP_PROBES = 4

#: A run must end within this many seconds, whatever --seconds says.
RUN_BUDGET_S = 170.0

#: Sizes and op counts of each workload, with the tiny sizes of --smoke.
#: ``min_ops`` keeps a median meaningful on the slow workloads.
WORKLOADS = {
    "audit-1m": {"records": 1_000_000, "min_ops": 3, "smoke": {"records": 2_000}},
    "export-1m": {"records": 1_000_000, "grid": 1024, "min_ops": 3, "smoke": {"records": 2_000, "grid": 64}},
    "exact-solve": {"grid": gen.EXACT_GRID, "min_ops": 20, "smoke": {"grid": 64}},
    "simulate-suite": {
        "overrides": {},
        "min_ops": 4,
        "smoke": {
            "overrides": {
                "recommender": ["grid=64", "samples=1000"],
                "judge": ["grid=64"],
                "appendix": ["grid=64", "reshapes=3"],
            }
        },
    },
}

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
)


def _env() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _spawn(cfg: dict, run_dir: Path, tag: str, deadline: float) -> dict:
    """Run worker.py on cfg in a fresh interpreter and return its result."""
    cfg_path = run_dir / f"{tag}.config.json"
    timeout = max(1.0, deadline - time.monotonic())
    # worker.py measures set-up from here; time.monotonic is one clock for all processes.
    cfg = dict(cfg, result_path=str(run_dir / f"{tag}.result.json"), spawned_at=time.monotonic())
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(cfg_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(Path(cfg["result_path"]).read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: Path, deadline: float,
                 smoke: bool = False, corrupt: bool = False) -> dict:
    spec = dict(WORKLOADS[name])
    if smoke:
        spec.update(spec.pop("smoke"), min_ops=1)
    else:
        spec.pop("smoke")
    cfg = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_only": False,
        "corrupt": corrupt,
        # A traced run needs untraced and traced ops, at least two of each.
        "min_ops": max(spec["min_ops"], 4) if trace else spec["min_ops"],
        "max_ops": 1 if smoke else 100_000,
        "warmup": 0 if smoke else 1,
        "run_dir": str(run_dir),
        "span_path": str(WORK / "trace" / f"{name}.jsonl"),
        "hard_stop": deadline - 5.0,
        **{k: v for k, v in spec.items() if k != "min_ops"},
    }
    fixture_bytes = 0
    if name == "audit-1m":
        path, expected = gen.audit_fixture(WORK / "fixtures", seed, spec["records"])
        cfg.update(fixture=str(path), expected=expected)
        fixture_bytes = path.stat().st_size
    if name in ("export-1m", "simulate-suite"):
        cfg["op_seeds"] = gen.op_seeds(seed, 10_000)
    setups = []
    if not (trace or smoke):
        for probe in range(SETUP_PROBES):
            probe_result = _spawn(dict(cfg, setup_only=True), run_dir, f"{name}-setup{probe}", deadline)
            setups.append((probe_result["setup_s"], probe_result["setup_speed"]))
    result = _spawn(cfg, run_dir, name, deadline)
    setups.append((result["setup_s"], result["setup_speed"]))
    result["setup_samples"] = setups
    result["fixture_bytes"] = fixture_bytes
    result["records"] = spec.get("records")
    return result


def end_to_end(result: dict, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; times are scaled by each process's speed factor unless ``scaled`` is False."""
    speed = result["op_speed"] if scaled else 1.0
    times = [t * speed for t in result["op_times"]]
    if not times:
        raise RuntimeError("no op completed, so there is no time to report")
    return {
        "setup_s": statistics.median(s * (f if scaled else 1.0) for s, f in result["setup_samples"]),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _p90_line(times: list[float]) -> str:
    # The highest percentile reported is one with at least ten samples beyond it.
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        return f"op_p90_s = {p90:.6g} s ({len(times)} ops)"
    return f"op_p90_s omitted: {len(times)} ops, fewer than 100 leave under 10 samples above p90"


def report_workload(name: str, result: dict, trace: bool) -> dict[str, dict]:
    """Print every metric of one workload with its unit and sample count; return the JSON metrics."""
    tag = f"[{name}]"
    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"{tag} FAILED {problem}")
    print(f"{tag} failed_frac = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    if trace:
        layer = result.get("per_layer")
        if layer is None:
            raise RuntimeError(f"{name}: the traced run needs at least one untraced and one traced op")
        n_traced = len(result["traced_op_times"])
        for metric, unit in PER_LAYER:
            print(f"{tag} {metric} = {layer[metric]:.6g} {unit} (per op, {n_traced} traced ops)")
        return {metric: {"value": layer[metric], "unit": unit} for metric, unit in PER_LAYER}
    values = end_to_end(result)
    ops = len(result["op_times"])
    counts = {"setup_s": f"{len(result['setup_samples'])} set-ups", "peak_rss_mb": "high-water mark of the op process"}
    for metric, unit in END_TO_END:
        print(f"{tag} {metric} = {values[metric]:.6g} {unit} ({counts.get(metric, f'{ops} ops')})")
    if result["records"]:
        records_per_s = result["records"] * values["ops_per_s"]
        print(f"{tag} records_per_s = {records_per_s:.6g} records/s ({ops} ops of {result['records']} records)")
    print(f"{tag} {_p90_line([t * result['op_speed'] for t in result['op_times']])}")
    raw = end_to_end(result, scaled=False)
    print(
        f"{tag} speed factor = {result['op_speed']:.4g} ({result['reference_samples']} reference samples); "
        f"unscaled wall times: setup_s = {raw['setup_s']:.6g} s, op_p50_s = {raw['op_p50_s']:.6g} s, "
        f"ops_per_s = {raw['ops_per_s']:.6g} ops/s"
    )
    if result["fixture_bytes"]:
        print(f"{tag} fixture_bytes = {result['fixture_bytes']} B")
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END}


def _checkout_ok() -> bool:
    return Path("src/fairsim/__init__.py").is_file()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once at tiny sizes")
    parser.add_argument("--self-test", action="store_true", help="check that corrupted outputs count as failed")
    args = parser.parse_args(argv)
    if not _checkout_ok():
        print("perfbench: run from the root of a fairsim checkout (src/fairsim not found)", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args.seed)

    names = list(WORKLOADS) if args.workload == "all" or args.smoke else [args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    print(f"env: {json.dumps(_env())}")
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), run_dir, deadline, smoke=args.smoke)
            attempted += result["attempted"]
            failed += result["failed"]
            got = report_workload(name, result, bool(args.trace))
            if len(names) == 1:
                metrics = got
            else:
                metrics.update({f"{name}.{k}": v for k, v in got.items()})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def self_test(seed: int) -> int:
    """Each workload at smoke size, once as is and once with its output corrupted."""
    run_dir = WORK / f"selftest-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for name in WORKLOADS:
            for corrupt in (False, True):
                deadline = time.monotonic() + RUN_BUDGET_S
                result = run_workload(name, seed, 0.0, False, run_dir, deadline, smoke=True, corrupt=corrupt)
                want = result["attempted"] if corrupt else 0
                good = result["attempted"] == 1 and result["failed"] == want
                ok &= good
                label = "corrupted" if corrupt else "intact"
                print(f"self-test {name} {label}: {result['failed']}/{result['attempted']} failed, "
                      f"want {want}: {'ok' if good else 'WRONG'}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"self-test: {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
