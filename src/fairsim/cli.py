"""Command-line front end: audit a CSV of records, run a named experiment,
or list the experiments. Exit status encodes whether the computation ran,
never what it found; identical configurations produce byte-identical output
files."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .densities import AuditDataset, is_defined
from .experiments import EXPERIMENTS
from .metrics import (
    between_group_calibration_gap,
    separation_gap,
    sufficiency_gap_binary,
    within_group_calibration_error,
)
from .reports import render_doc, render_text

#: Largest ``--bins`` that ``audit`` accepts. Each group's calibration arrays
#: hold one cell per bin, so the cap bounds their memory before any is built.
MAX_BINS = 100_000

#: Largest ``grid`` (cells per density) that ``simulate`` accepts. Exact
#: solves and reshapes take time in proportion to it.
MAX_GRID = 65_536
#: Largest ``samples`` (Monte Carlo draws per group); each draw holds about
#: 50 bytes of arrays while the estimate runs.
MAX_SAMPLES = 10_000_000
#: Largest ``reshapes`` (reshaped populations measured by ``appendix``).
MAX_RESHAPES = 10_000

#: Inclusive bounds on the sizes ``simulate`` takes, checked when the command
#: line is resolved, before any experiment runs or allocates.
SIZE_BOUNDS = {"grid": (2, MAX_GRID), "samples": (1, MAX_SAMPLES), "reshapes": (1, MAX_RESHAPES)}


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation; equal configs yield identical outputs."""

    command: str
    experiment: str | None = None
    overrides: dict[str, object] = field(default_factory=dict)
    input_path: str | None = None
    bins: int = 10
    tol: float = 1e-6
    out_dir: str | None = None
    fmt: str = "text"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="compute fairness metrics for a CSV of records")
    audit.add_argument("--input", required=True, help="CSV with header group,score,outcome,decision")
    audit.add_argument(
        "--bins", type=int, default=10, help=f"equal-width score bins, 1 to {MAX_BINS:,} (default 10)"
    )
    audit.add_argument("--tol", type=float, default=1e-6, help="gap tolerance for holds/fails lines")
    audit.add_argument("--out", default=None, help="directory for the report file")
    audit.add_argument("--format", choices=("text", "doc"), default="text", dest="fmt")

    simulate = sub.add_parser("simulate", help="run a named experiment")
    simulate.add_argument("experiment", help="experiment id (see `fairsim list`)")
    simulate.add_argument("overrides", nargs="*", metavar="key=value", help="parameter overrides")
    simulate.add_argument("--grid", type=int, default=None, help=f"density grid size, 2 to {MAX_GRID:,}")
    simulate.add_argument(
        "--samples", type=int, default=None, help=f"Monte Carlo sample count, 1 to {MAX_SAMPLES:,}"
    )
    simulate.add_argument("--seed", type=int, default=None, help="random seed")
    simulate.add_argument("--convention", choices=("per-outcome", "per-person"), default=None)
    simulate.add_argument("--out", default=None, help="output directory (default fairsim-out/<id>)")
    simulate.add_argument("--format", choices=("text", "doc"), default="doc", dest="fmt")

    sub.add_parser("list", help="list the available experiments")
    return parser


def _parse_overrides(spec, pairs, flag_values) -> dict[str, object]:
    values = {name: p.default for name, p in spec.params.items()}
    explicit: set[str] = set()
    for flag, val in flag_values.items():
        if val is not None and flag in spec.params:
            values[flag] = val
            explicit.add(flag)
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        key, raw = pair.split("=", 1)
        if key not in spec.params:
            raise ValueError(
                f"unknown parameter {key!r} for experiment {spec.name!r}; "
                f"valid parameters: {', '.join(spec.params)}"
            )
        param = spec.params[key]
        try:
            value = param.kind(raw)
        except ValueError:
            raise ValueError(f"parameter {key!r} expects {param.kind.__name__}, got {raw!r}") from None
        if param.choices is not None and value not in param.choices:
            raise ValueError(f"parameter {key!r} must be one of {param.choices}, got {value!r}")
        values[key] = value
        explicit.add(key)
    for name, (lo, hi) in SIZE_BOUNDS.items():
        if name in values and not lo <= values[name] <= hi:
            raise ValueError(f"{name} must be between {lo} and {hi}, got {values[name]}")
    missing = [name for name in spec.cli_required if name not in explicit]
    if missing:
        raise ValueError(
            f"experiment {spec.name!r} requires explicit {', '.join(missing)} "
            f"(flag --{missing[0]} or {missing[0]}=...)"
        )
    return values


def audit(csv_path: str, bins: int = 10, tol: float = 1e-6) -> dict:
    """Empirical fairness metrics of a record file, as a nested report mapping.

    ``tol`` only draws the holds/fails line under each gap; gaps are findings,
    never errors.
    """
    if not 1 <= bins <= MAX_BINS:
        raise ValueError(f"bins must be between 1 and {MAX_BINS}, got {bins}")
    data = AuditDataset.from_csv(csv_path)
    labels = data.labels
    if len(labels) < 2:
        raise ValueError(f"audit needs at least 2 groups, found {len(labels)} ({', '.join(labels)})")

    report: dict = {"input": {"path": str(csv_path), "records": len(data), "groups": len(labels)}}
    base = {}
    for g in labels:
        mask = data.group_mask(g)
        base[g] = float(data.outcome[mask].mean())
    report["base_rate"] = base

    calib = between_group_calibration_gap(data, bins=bins)
    report["calibration"] = {
        "sup_gap": calib.sup_gap,
        "l1_gap": calib.l1_gap,
        "holds": is_defined(calib.sup_gap) and calib.sup_gap <= tol,
    }
    within = {}
    for g in labels:
        w = within_group_calibration_error(data, g, bins=bins)
        within[g] = {"sup_error": w.sup_error, "l1_error": w.l1_error}
    report["within_group"] = within

    if data.decisions_complete():
        sep = separation_gap(data)
        suff = sufficiency_gap_binary(data)
        report["rates"] = {g: {"fpr": rp.fpr, "fnr": rp.fnr} for g, rp in sep.rate_pairs.items()}
        report["separation"] = {
            "fpr_gap": sep.fpr_gap,
            "fnr_gap": sep.fnr_gap,
            "holds": sep.holds(tol),
        }
        report["sufficiency"] = {
            "gap_r1": suff.gap_r1,
            "gap_r0": suff.gap_r0,
            "holds": suff.holds(tol),
        }
    else:
        report["rates"] = {"available": False}
    return report


def _cmd_audit(config: RunConfig) -> int:
    try:
        report = audit(config.input_path, bins=config.bins, tol=config.tol)
    except (ValueError, OSError) as exc:
        print(f"audit error: {exc}", file=sys.stderr)
        return 1
    text = render_doc(report) if config.fmt == "doc" else render_text(f"audit: {config.input_path}", report)
    sys.stdout.write(text)
    if config.out_dir is not None:
        outdir = Path(config.out_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        name = "audit.doc" if config.fmt == "doc" else "audit.txt"
        (outdir / name).write_text(text, encoding="utf-8")
    return 0


def _cmd_simulate(config: RunConfig) -> int:
    spec = EXPERIMENTS.get(config.experiment)
    if spec is None:
        print(
            f"unknown experiment {config.experiment!r}; valid ids: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    try:
        report = spec.run(config.overrides)
    except ValueError as exc:
        print(f"simulate error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(config.out_dir) if config.out_dir is not None else Path("fairsim-out") / spec.name
    written = report.write(outdir, fmt=config.fmt)
    sys.stdout.write(report.to_doc() if config.fmt == "doc" else report.to_text())
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, spec in EXPERIMENTS.items():
        defaults = " ".join(f"{k}={p.default}" for k, p in spec.params.items())
        print(f"{name.ljust(width)}  {spec.summary}")
        print(f"{''.ljust(width)}  defaults: {defaults}")
    return 0


def build_config(args) -> RunConfig:
    """Resolve parsed arguments into a validated RunConfig.

    Experiment parameters are type-checked against the experiment's schema
    here, before any computation starts.
    """
    if args.command == "audit":
        return RunConfig(
            command="audit",
            input_path=args.input,
            bins=args.bins,
            tol=args.tol,
            out_dir=args.out,
            fmt=args.fmt,
        )
    if args.command == "simulate":
        spec = EXPERIMENTS.get(args.experiment)
        overrides: dict[str, object] = {}
        if spec is not None:
            flags = {
                "grid": args.grid,
                "samples": args.samples,
                "seed": args.seed,
                "convention": args.convention,
            }
            overrides = _parse_overrides(spec, args.overrides, flags)
        return RunConfig(
            command="simulate",
            experiment=args.experiment,
            overrides=overrides,
            out_dir=args.out,
            fmt=args.fmt,
        )
    return RunConfig(command="list")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
    except ValueError as exc:
        print(f"simulate error: {exc}", file=sys.stderr)
        return 2
    if config.command == "audit":
        return _cmd_audit(config)
    if config.command == "simulate":
        return _cmd_simulate(config)
    return _cmd_list()


if __name__ == "__main__":
    raise SystemExit(main())
