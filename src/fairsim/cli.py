"""Command-line front end: audit a CSV of records, run a named experiment,
or list the experiments. Exit status encodes whether the computation ran,
never what it found; identical configurations produce byte-identical output
files.

An experiment's parameters are set by key=value pairs. Each of --grid,
--samples, --seed and --convention is another way to write the pair of the
same name, and is ignored by an experiment that has no such parameter.
Pairs may come before or after the flags; a pair wins over the flag of the
same name."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import get_args

from .densities import AuditDataset
from .experiments import EXPERIMENTS
from .metrics import (
    CalibrationReport,
    SeparationGaps,
    SufficiencyGaps,
    WithinGroupCalibration,
    confusion_tables,
    level_tables,
    within,
)
from .reports import render_doc, render_text
from .utility import CONVENTIONS

#: Largest ``--bins`` that ``audit`` accepts, checked before the file is read.
#: Each group's calibration arrays hold one cell per bin, so the cap bounds one
#: group's arrays; ``MAX_LEVEL_CELLS`` bounds all groups' together.
MAX_BINS = 100_000
#: Largest groups x bins that ``audit`` accepts, checked once the file is read
#: and the group count known, before any tally is built. A group-bin cell
#: takes about 65 bytes across the tallies and reports, so the cap bounds
#: them near 130 MiB.
MAX_LEVEL_CELLS = 2_000_000

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairsim", description=__doc__.split("\n\n", 1)[0])
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
    simulate.add_argument("--convention", choices=CONVENTIONS, default=None)
    simulate.add_argument("--out", default=None, help="output directory (default fairsim-out/<id>)")
    simulate.add_argument("--format", choices=("text", "doc"), default="doc", dest="fmt")

    sub.add_parser("list", help="list the available experiments")
    return parser


#: The ``simulate`` flags, each another way to write the ``key=value`` pair
#: of the same name.
_PAIR_FLAGS = ("grid", "samples", "seed", "convention")


def _parse_overrides(spec, args) -> dict[str, object]:
    """The experiment's keyword values: its defaults, then each set flag the
    experiment takes as one more pair, then the pairs, so a pair wins over
    its flag. Each value is type-checked against the experiment's schema."""
    params = spec.params
    values = {name: p.default for name, p in params.items()}
    explicit: set[str] = set()
    flags = [f"{n}={getattr(args, n)}" for n in _PAIR_FLAGS if n in params and getattr(args, n) is not None]
    for pair in flags + args.overrides:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        key, raw = pair.split("=", 1)
        if key not in params:
            raise ValueError(
                f"unknown parameter {key!r} for experiment {spec.name!r}; "
                f"valid parameters: {', '.join(params)}"
            )
        kind = params[key].annotation
        choices = get_args(kind)
        if choices and raw not in choices:
            raise ValueError(f"parameter {key!r} must be one of {choices}, got {raw!r}")
        try:
            values[key] = raw if choices else kind(raw)
        except ValueError:
            raise ValueError(f"parameter {key!r} expects {kind.__name__}, got {raw!r}") from None
        explicit.add(key)
    for name, (lo, hi) in SIZE_BOUNDS.items():
        if name in values and not lo <= values[name] <= hi:
            raise ValueError(f"{name} must be between {lo} and {hi}, got {values[name]}")
    if values.get("seed", 0) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {values['seed']}")
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
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number of at least 0, got {tol}")
    data = AuditDataset.from_csv(csv_path)
    labels = data.labels
    if len(labels) < 2:
        raise ValueError(f"audit needs at least 2 groups, found {len(labels)} ({', '.join(labels)})")
    if len(labels) * bins > MAX_LEVEL_CELLS:
        raise ValueError(
            f"{len(labels)} groups at {bins} bins make {len(labels) * bins:,} calibration cells, "
            f"over the cap of {MAX_LEVEL_CELLS:,}"
        )

    report: dict = {"input": {"path": str(csv_path), "records": len(data), "groups": len(labels)}}
    by_level = level_tables(data, bins)  # record counts: integer-valued floats, so each sum is exact
    report["base_rate"] = dict(zip(labels, (by_level.positive.sum(axis=1) / by_level.total.sum(axis=1)).tolist()))

    calib = CalibrationReport.of(by_level)
    report["calibration"] = {"sup_gap": calib.sup_gap, "l1_gap": calib.l1_gap, "holds": within(calib.sup_gap, tol)}
    within_group = WithinGroupCalibration.of(by_level)
    report["within_group"] = {g: {"sup_error": w.sup_error, "l1_error": w.l1_error} for g, w in within_group.items()}

    if data.decisions_complete():
        tables = confusion_tables(data)
        sep = SeparationGaps.of(tables)
        suff = SufficiencyGaps.of(tables)
        report["rates"] = {g: {"fpr": sep.fpr[g], "fnr": sep.fnr[g]} for g in labels}
        report["separation"] = {"fpr_gap": sep.fpr_gap, "fnr_gap": sep.fnr_gap, "holds": within(sep.max_gap, tol)}
        report["sufficiency"] = {"gap_r1": suff.gap_r1, "gap_r0": suff.gap_r0, "holds": within(suff.max_gap, tol)}
    else:
        report["rates"] = {"available": False}
    return report


def _cmd_audit(args) -> int:
    try:
        report = audit(args.input, bins=args.bins, tol=args.tol)
        text = render_doc(report) if args.fmt == "doc" else render_text(f"audit: {args.input}", report)
        if args.out is not None:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            name = "audit.doc" if args.fmt == "doc" else "audit.txt"
            (outdir / name).write_text(text, encoding="utf-8")
    except (ValueError, OSError) as exc:
        print(f"audit error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    spec = EXPERIMENTS.get(args.experiment)
    if spec is None:
        print(
            f"unknown experiment {args.experiment!r}; valid ids: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    try:
        report = spec.run(_parse_overrides(spec, args))
    except ValueError as exc:
        print(f"simulate error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out) if args.out is not None else Path("fairsim-out") / spec.name
    try:
        written = report.write(outdir, fmt=args.fmt)
    except OSError as exc:
        print(f"simulate error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(report.to_doc() if args.fmt == "doc" else report.to_text())
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


def main(argv=None) -> int:
    parser = _build_parser()
    # argparse leaves a key=value pair that follows a flag unmatched; for
    # ``simulate`` such pairs are overrides like any other.
    args, extras = parser.parse_known_args(argv)
    if extras and (args.command != "simulate" or any(s.startswith("-") for s in extras)):
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "simulate":
        args.overrides += extras
        return _cmd_simulate(args)
    return _cmd_list()


if __name__ == "__main__":
    raise SystemExit(main())
