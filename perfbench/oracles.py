"""Correctness oracles for the benchmark's ops.

Each check recomputes the expected output with numpy, the standard library
and exact rationals, never with fairsim's code, and returns a list of
problems: an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np

from gen import calibrated_split


def fmt12(value: float) -> str:
    """A float as the report documents print it: 12 significant digits, exact zero as 0."""
    return "0" if value == 0.0 else f"{value:.12g}"


def parse_doc(text: str) -> dict[str, str]:
    """`key = value` lines into a mapping; keys may contain spaces and commas."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _expect(doc: dict, key: str, want: str, problems: list) -> None:
    got = doc.get(key)
    if got != want:
        problems.append(f"{key}: got {got!r}, want {want!r}")


# -- audit-1m -------------------------------------------------------------------


def check_audit(report: str, expected: dict) -> list[str]:
    """The audit report's counts, rates and gaps against the fixture's own counts."""
    doc = parse_doc(report)
    problems: list[str] = []
    _expect(doc, "input.records", str(expected["records"]), problems)
    _expect(doc, "input.groups", str(expected["groups"]), problems)
    for label, value in expected["base_rate"].items():
        _expect(doc, f"base_rate.{label}", fmt12(value), problems)
        _expect(doc, f"rates.{label}.fpr", fmt12(expected["fpr"][label]), problems)
        _expect(doc, f"rates.{label}.fnr", fmt12(expected["fnr"][label]), problems)
    _expect(doc, "separation.fpr_gap", fmt12(expected["fpr_gap"]), problems)
    _expect(doc, "separation.fnr_gap", fmt12(expected["fnr_gap"]), problems)
    _expect(doc, "sufficiency.gap_r1", fmt12(expected["gap_r1"]), problems)
    _expect(doc, "sufficiency.gap_r0", fmt12(expected["gap_r0"]), problems)
    return problems


# -- export-1m ------------------------------------------------------------------

_CHUNK = 65536


def check_export(path: Path, group, score, outcome, decision, base_rates: dict[str, float]) -> list[str]:
    """The written file against a stdlib-csv rendering of the sampled columns.

    Rendering and comparison run in chunks, so the check adds little to the
    process's memory high-water mark. The sampled columns are also checked
    for plausibility: decisions present and base rates near the model's.
    """
    problems: list[str] = []
    n = len(group)
    if not (len(score) == len(outcome) == len(decision) == n):
        return ["sampled columns differ in length"]
    if np.any((decision != 0) & (decision != 1)):
        problems.append("a sampled record has no decision")
    for label, rate in base_rates.items():
        mask = group == label
        observed = float(outcome[mask].mean()) if mask.any() else float("nan")
        # six standard errors of a binomial proportion
        if not abs(observed - rate) <= 6.0 * math.sqrt(rate * (1.0 - rate) / max(1, int(mask.sum()))):
            problems.append(f"group {label!r}: sampled base rate {observed:.6g}, model {rate:.6g}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("group", "score", "outcome", "decision"))
    offset = 0
    with open(path, "rb") as fh:
        for start in range(0, n, _CHUNK):
            stop = min(n, start + _CHUNK)
            writer.writerows(
                zip(
                    group[start:stop].tolist(),
                    map(repr, score[start:stop].tolist()),
                    outcome[start:stop].tolist(),
                    decision[start:stop].tolist(),
                )
            )
            want = buf.getvalue().encode("utf-8")
            buf.seek(0)
            buf.truncate()
            got = fh.read(len(want))
            if got != want:
                return problems + [f"file differs from the csv rendering within bytes {offset}..{offset + len(want)}"]
            offset += len(want)
        if fh.read(1):
            problems.append(f"file has bytes after the last record (offset {offset})")
    return problems


# -- exact-solve ----------------------------------------------------------------


class ExactDensity:
    """Exact threshold masses of one piecewise-constant density.

    Each cell value is a binary float, so it is an integer over a power of
    two; all values are scaled to one common denominator.
    """

    def __init__(self, values: np.ndarray):
        ratios = [v.as_integer_ratio() for v in values.tolist()]
        self.grid = len(ratios)
        self.denom = max(d for _, d in ratios)
        self.scaled = [n * (self.denom // d) for n, d in ratios]
        self.suffix = list(accumulate(reversed(self.scaled), initial=0))[::-1]

    def total(self) -> Fraction:
        return Fraction(self.suffix[0], self.denom * self.grid)

    def above(self, t: Fraction) -> Fraction:
        """Exact mass of {s > t}."""
        if t <= 0:
            return self.total()
        if t >= 1:
            return Fraction(0)
        j = int(t * self.grid)
        inside = Fraction(self.scaled[j], self.denom) * (Fraction(j + 1, self.grid) - t)
        return Fraction(self.suffix[j + 1], self.denom * self.grid) + inside


def decided(density: ExactDensity, policy: tuple) -> Fraction:
    """Exact mass decided 1 by ("det", t) or ("rand", lower, upper, mix)."""
    if policy[0] == "det":
        return density.above(Fraction(policy[1]))
    _, lower, upper, mix = policy
    q = Fraction(mix)
    return q * density.above(Fraction(lower)) + (1 - q) * density.above(Fraction(upper))


def check_exact(instance: dict, arrays: dict, result: dict) -> list[str]:
    """One exact-solve op against exact rationals and the float64 feasibility check.

    ``arrays`` maps each group to the (f0, f1) cell values of the population
    the op built; ``result`` holds the op's solved policies (None when the
    solver reported infeasibility) and its re-measured gaps.
    """
    problems: list[str] = []
    for g, raw in instance["raw"].items():
        want0, want1 = calibrated_split(raw)
        got0, got1 = arrays[g]
        if not (np.allclose(got0, want0, rtol=1e-12, atol=0) and np.allclose(got1, want1, rtol=1e-12, atol=0)):
            problems.append(f"group {g!r}: built densities differ from the calibrated construction")
    dens = {g: (ExactDensity(f0), ExactDensity(f1)) for g, (f0, f1) in arrays.items()}
    ref, t_ref = instance["reference"], Fraction(instance["t_ref"])

    eo = result["eo"]
    if (eo is not None) != instance["eo_feasible"]:
        problems.append(f"equalized odds: solver feasible={eo is not None}, float64 ROC check {instance['eo_feasible']}")
    if eo is not None:
        if eo[ref] != ("det", t_ref):
            problems.append(f"equalized odds: reference policy {eo[ref]!r} is not the threshold {t_ref}")
        rate_pairs = set()
        for g, (f0, f1) in dens.items():
            fpr = decided(f0, eo[g]) / f0.total()
            fnr = 1 - decided(f1, eo[g]) / f1.total()
            rate_pairs.add((fpr, fnr))
        if len(rate_pairs) != 1:
            problems.append(f"equalized odds: exact (fpr, fnr) differ across groups: {sorted(map(str, rate_pairs))}")
        if result["separation"] != (0.0, 0.0):
            problems.append(f"equalized odds: re-measured separation gaps {result['separation']}, want exactly 0")

    parity = result["parity"]
    if (parity is not None) != instance["parity_feasible"]:
        problems.append(f"parity ratio: solver feasible={parity is not None}, float64 check {instance['parity_feasible']}")
    if parity is not None:
        missed = {g: f1.total() - decided(f1, parity[g]) for g, (_, f1) in dens.items()}
        if len(set(missed.values())) != 1:
            problems.append(f"parity ratio: exact declined-positive masses differ: {missed}")
        for g, (f0, f1) in dens.items():
            want = float(missed[g] / (f0.total() + f1.total()))
            if result["per_person_harm"][g] != want:
                problems.append(f"parity ratio: group {g!r} per-person harm {result['per_person_harm'][g]!r}, exact {want!r}")
    return problems


# -- simulate-suite -------------------------------------------------------------

#: Report lines the README fixes for each experiment at its defaults (judge
#: with the per-outcome convention): every verdict, each gap that is exactly
#: zero in the model and so must print as 0, and the stated magnitudes.
README_LINES = {
    "recommender": {
        "verdicts.equal_utility.holds": "false",
        "verdicts.zero_wrong_side_mass.holds": "false",
        "metrics.eu.calibrated_optimum": "0.25",
    },
    "equal-rates": {
        "verdicts.equal_rates.holds": "true",
        "verdicts.equal_rates.magnitude": "0",
        "verdicts.equal_utility.holds": "false",
        "verdicts.equal_utility.magnitude": "0.06",
    },
    "judge": {
        "verdicts.separation.holds": "true",
        "verdicts.separation.magnitude": "0",
        "verdicts.sufficiency.holds": "false",
        "verdicts.equal_harm.holds": "true",
        "verdicts.equal_harm.magnitude": "0",
        "metrics.separation.fpr_gap": "0",
        "metrics.separation.fnr_gap": "0",
    },
    "appendix": {
        "verdicts.harm_parity_preserved.holds": "true",
        "verdicts.harm_parity_preserved.magnitude": "0",
        "verdicts.composition_changed.holds": "true",
        "verdicts.women_unchanged.holds": "true",
        "verdicts.women_unchanged.magnitude": "0",
        "metrics.popA.missed_positive_gap": "0",
        "metrics.popB.missed_positive_gap": "0",
    },
}


def check_simulate(outdir: Path) -> list[str]:
    """Every experiment's report against the lines the README fixes."""
    problems: list[str] = []
    for name, lines in README_LINES.items():
        path = outdir / name / "report.doc"
        if not path.is_file():
            problems.append(f"{name}: no report.doc")
            continue
        doc = parse_doc(path.read_text(encoding="utf-8"))
        for key, want in lines.items():
            _expect(doc, key, want, problems)
    return problems


def tree_bytes(root: Path) -> bytes:
    """All files under root, with their relative names, as one byte string."""
    parts = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        parts.append(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return b"\0\0".join(parts)
