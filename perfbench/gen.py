"""Seeded inputs for the benchmark, built with numpy and the standard library.

Nothing here imports fairsim: the program under test receives only what this
module generates. Equal seeds give equal inputs, byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

#: audit-1m groups and their shares of the records. The comma in one label
#: makes the CSV writer quote it, so the reader's quoting path runs.
AUDIT_GROUPS = (
    ("White", 0.51),
    ("Black", 0.34),
    ("Asian, Pacific Islander", 0.08),
    ("Hispanic", 0.04),
    ("Native American", 0.02),
    ("Other", 0.01),
)

#: Per-group Beta(a, b) score shapes and decision thresholds, so that base
#: rates, error rates and calibration all differ between groups.
_AUDIT_SHAPES = ((2.0, 5.0), (3.0, 3.0), (2.5, 4.0), (4.0, 3.0), (1.5, 2.5), (3.0, 5.0))
_AUDIT_THRESHOLDS = (0.45, 0.55, 0.5, 0.6, 0.4, 0.5)

#: Fixture files kept in the cache directory; older ones are deleted.
_CACHE_KEEP = 3

EXACT_GRID = 4096
#: Instances this close to the feasibility boundary are redrawn, so the
#: float64 oracle and the exact solver cannot disagree by rounding.
BOUNDARY_MARGIN = 1e-9


def op_seeds(seed: int, count: int) -> list[int]:
    """Per-op seeds, each used by two consecutive ops so repeats can be compared."""
    rng = np.random.default_rng([seed, 0x5EED])
    distinct = rng.integers(0, 2**31 - 1, size=(count + 1) // 2)
    return [int(s) for s in np.repeat(distinct, 2)[:count]]


def _quoted(label: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([label])
    return buf.getvalue()


def audit_columns(seed: int, n: int) -> dict:
    """Columns of the audit input: group codes, scores, outcomes and decisions."""
    rng = np.random.default_rng([seed, 0xA0D1])
    shares = np.array([s for _, s in AUDIT_GROUPS])
    code = rng.choice(len(AUDIT_GROUPS), size=n, p=shares / shares.sum())
    a = np.array([s[0] for s in _AUDIT_SHAPES])[code]
    b = np.array([s[1] for s in _AUDIT_SHAPES])[code]
    score = rng.beta(a, b)
    # Outcomes follow a per-group distortion of the score, so calibration
    # gaps are nonzero but small.
    tilt = 0.8 + 0.05 * code
    outcome = (rng.random(n) < np.clip(score * tilt + 0.02, 0.0, 1.0)).astype(np.int8)
    thresholds = np.array(_AUDIT_THRESHOLDS)[code]
    flip = rng.random(n) < 0.05
    decision = ((score > thresholds) ^ flip).astype(np.int8)
    return {"code": code, "score": score, "outcome": outcome, "decision": decision}


def audit_expected(cols: dict) -> dict:
    """Counts-based report values the audit must reproduce, from the columns alone."""
    code, outcome, decision = cols["code"], cols["outcome"], cols["decision"]
    k = len(AUDIT_GROUPS)
    cell = code * 4 + outcome * 2 + decision
    counts = np.bincount(cell, minlength=4 * k).reshape(k, 4)  # [y0d0, y0d1, y1d0, y1d1]
    base, fpr, fnr, ppv, npv = {}, {}, {}, {}, {}
    for gi, (label, _) in enumerate(AUDIT_GROUPS):
        tn, fp, fn, tp = (int(c) for c in counts[gi])
        n_g = tn + fp + fn + tp
        base[label] = (fn + tp) / n_g
        fpr[label] = fp / (fp + tn)
        fnr[label] = fn / (fn + tp)
        ppv[label] = tp / (tp + fp)
        npv[label] = fn / (fn + tn)

    def spread(values: dict) -> float:
        return max(values.values()) - min(values.values())

    return {
        "records": int(len(code)),
        "groups": k,
        "base_rate": base,
        "fpr": fpr,
        "fnr": fnr,
        "fpr_gap": spread(fpr),
        "fnr_gap": spread(fnr),
        "gap_r1": spread(ppv),
        "gap_r0": spread(npv),
    }


def write_audit_csv(cols: dict, path: Path) -> None:
    labels = [_quoted(label) for label, _ in AUDIT_GROUPS]
    lines = ["group,score,outcome,decision"]
    lines += [
        f"{labels[c]},{s!r},{o},{d}"
        for c, s, o, d in zip(
            cols["code"].tolist(), cols["score"].tolist(), cols["outcome"].tolist(), cols["decision"].tolist()
        )
    ]
    tmp = path.with_suffix(".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def audit_fixture(cache: Path, seed: int, n: int) -> tuple[Path, dict]:
    """The audit CSV and its expected values, cached by seed and size."""
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"audit-s{seed}-n{n}.csv"
    expected_path = path.with_suffix(".json")
    if path.exists() and expected_path.exists():
        os.utime(path)
        return path, json.loads(expected_path.read_text(encoding="utf-8"))
    cols = audit_columns(seed, n)
    expected = audit_expected(cols)
    write_audit_csv(cols, path)
    expected_path.write_text(json.dumps(expected), encoding="utf-8")
    _evict(cache, keep=path)
    return path, expected


def _evict(cache: Path, keep: Path) -> None:
    fixtures = sorted(cache.glob("audit-*.csv"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in fixtures[_CACHE_KEEP:]:
        if old != keep:
            old.unlink(missing_ok=True)
            old.with_suffix(".json").unlink(missing_ok=True)


# -- exact-solve instances ------------------------------------------------------


def calibrated_split(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f0, f1) cell values of a calibrated group with marginal proportional to raw."""
    grid = raw.size
    mids = (np.arange(grid) + 0.5) / grid
    marginal = raw / (float(np.sum(raw)) / grid)
    return (1.0 - mids) * marginal, mids * marginal


def roc_reach(f0: np.ndarray, f1: np.ndarray, fpr_t: float, tpr_t: float) -> float:
    """Largest lambda with lambda*(fpr_t, tpr_t) on the group's ROC polyline, in float64.

    The ROC is piecewise linear between the cell boundaries because the
    densities are piecewise constant; lambda >= 1 means the target is reachable.
    """
    a0 = np.concatenate([np.cumsum(f0[::-1])[::-1], [0.0]])
    a1 = np.concatenate([np.cumsum(f1[::-1])[::-1], [0.0]])
    x, y = a0 / a0[0], a1 / a1[0]
    h = x * tpr_t - y * fpr_t  # sign of the boundary point relative to the ray
    lam = [y[k] / tpr_t for k in np.flatnonzero((h[:-1] == 0) & (y[:-1] > 0))]
    for k in np.flatnonzero(h[:-1] * h[1:] < 0):
        u = h[k] / (h[k] - h[k + 1])
        lam.append((y[k] + u * (y[k + 1] - y[k])) / tpr_t)
    return max(lam, default=0.0)


def exact_instance(seed: int, index: int, grid: int = EXACT_GRID) -> dict:
    """One random calibrated two-group population with a reference group and threshold.

    Drawn like the test suite's random instances: positive random marginals
    with opposite linear tilts, base rates at least 0.05 apart, and a
    reference threshold in [0.35, 0.65]. Infeasible targets are kept; only
    draws within BOUNDARY_MARGIN of either solver's feasibility boundary are
    redrawn.
    """
    rng = np.random.default_rng([seed, 0xE5AC7, index])
    mids = (np.arange(grid) + 0.5) / grid
    while True:
        slope_a, slope_b = rng.uniform(0.4, 1.6, 2)
        raw = {
            "a": rng.uniform(0.2, 1.0, grid) * (1.0 - slope_a * (mids - 0.5)),
            "b": rng.uniform(0.2, 1.0, grid) * (1.0 + slope_b * (mids - 0.5)),
        }
        split = {g: calibrated_split(w) for g, w in raw.items()}
        base = {g: float(np.sum(f1)) / grid for g, (_, f1) in split.items()}
        if abs(base["a"] - base["b"]) < 0.05:
            continue
        t_ref = float(rng.uniform(0.35, 0.65))
        ref = ("a", "b")[int(rng.integers(2))]
        other = "b" if ref == "a" else "a"
        f0_ref, f1_ref = split[ref]
        k = int(np.floor(t_ref * grid))
        part = (k + 1) / grid - t_ref
        above0 = (float(np.sum(f0_ref[k + 1 :])) / grid + f0_ref[k] * part) / (float(np.sum(f0_ref)) / grid)
        above1 = (float(np.sum(f1_ref[k + 1 :])) / grid + f1_ref[k] * part) / (float(np.sum(f1_ref)) / grid)
        reach = roc_reach(*split[other], above0, above1)
        declined = base[ref] * (1.0 - above1)  # reference P(D=0, Y=1)
        parity_margin = base[other] - declined
        if abs(reach - 1.0) < BOUNDARY_MARGIN or abs(parity_margin) < BOUNDARY_MARGIN:
            continue
        return {
            "raw": raw,
            "reference": ref,
            "t_ref": t_ref,
            "eo_feasible": reach >= 1.0,
            "parity_feasible": parity_margin > 0,
        }
