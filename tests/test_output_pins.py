"""SHA-256 pins of the files ``simulate`` writes and of what ``audit`` prints.

Byte-identical output is part of what fairsim promises, across commits and
not only across runs: a refactor or speed-up that moves one digit of a
report or a series fails here. Each ``simulate`` case runs one experiment at
its defaults plus the listed overrides and writes it in the default ``doc``
format. Each ``audit`` case audits a seeded record file written by the test
and pins its stdout in one format at one bin count. The solver pin covers the
``repr`` of every solved rule, or the text of every infeasible solve, on
seeded random calibrated populations."""

import csv
import hashlib

import numpy as np
import pytest

from fairsim import (
    ConditionalScoreDensity,
    InfeasibleRuleError,
    PopulationModel,
    ScoreDensity,
    solve_equalized_odds,
    solve_parity_ratio,
)
from fairsim.cli import main
from fairsim.experiments import EXPERIMENTS

CASES = {
    "recommender": ("recommender", {}),
    **{f"recommender-{m}": ("recommender", {"map": m}) for m in ("identity", "flip", "compress")},
    "equal-rates": ("equal-rates", {}),
    "appendix": ("appendix", {}),
    "appendix-grid1000": ("appendix", {"grid": 1000}),
    **{
        f"judge-{convention}-{rule}": ("judge", {"convention": convention, "rule": rule})
        for convention in ("per-outcome", "per-person")
        for rule in ("equalized-odds", "parity-ratio")
    },
    **{
        f"judge-grid1000-{rule}": ("judge", {"grid": 1000, "convention": "per-outcome", "rule": rule})
        for rule in ("equalized-odds", "parity-ratio")
    },
}

SHA256 = {
    "recommender": {
        "report.doc": "381db367d6f8f5a08bc03526098dbc82263e93e581a8b2120bb7384b79bc2a2e",
        "series_eu_act.csv": "b2e3e9815e0f65482fb0de4bf197f8abf4cfb68c776f4cfa66efe8131abe493d",
        "series_eu_skip.csv": "a36dcce4da43b87c7b895991fd50e46021590d4818874e3df266004516e723a4",
        "series_displayed_calibration_women.csv": "c9181f2c8da235ef3963ab7b98701bf98048be91533ffd7e8747fc0b15f888be",
        "series_displayed_calibration_men.csv": "d4762653d7eb238f1f8b8e83c12fce6ba2c41ec9fadf77eb007d1c3c09d90f84",
    },
    "recommender-identity": {
        "report.doc": "d9cf50ef104d12583a04529d0afb6a81cb7ac29648fb56310655079d50d2c7a5",
        "series_eu_act.csv": "b2e3e9815e0f65482fb0de4bf197f8abf4cfb68c776f4cfa66efe8131abe493d",
        "series_eu_skip.csv": "a36dcce4da43b87c7b895991fd50e46021590d4818874e3df266004516e723a4",
        "series_displayed_calibration_women.csv": "c9181f2c8da235ef3963ab7b98701bf98048be91533ffd7e8747fc0b15f888be",
        "series_displayed_calibration_men.csv": "c9181f2c8da235ef3963ab7b98701bf98048be91533ffd7e8747fc0b15f888be",
    },
    "recommender-flip": {
        "report.doc": "abba5c7e2d348e5848368dcef6b0476e9a6fbe80f318b9d735dcab67438c11ac",
        "series_eu_act.csv": "b2e3e9815e0f65482fb0de4bf197f8abf4cfb68c776f4cfa66efe8131abe493d",
        "series_eu_skip.csv": "a36dcce4da43b87c7b895991fd50e46021590d4818874e3df266004516e723a4",
        "series_displayed_calibration_women.csv": "c9181f2c8da235ef3963ab7b98701bf98048be91533ffd7e8747fc0b15f888be",
        "series_displayed_calibration_men.csv": "5c5a2a80b916f533b67b824524af95a02605762f31dfc9d2164625c2e3dc9a9a",
    },
    "recommender-compress": {
        "report.doc": "e2e38d2ce3650b3b26e321fbac2903cb61ccdf24d3985881c89c83321b810175",
        "series_eu_act.csv": "b2e3e9815e0f65482fb0de4bf197f8abf4cfb68c776f4cfa66efe8131abe493d",
        "series_eu_skip.csv": "a36dcce4da43b87c7b895991fd50e46021590d4818874e3df266004516e723a4",
        "series_displayed_calibration_women.csv": "c9181f2c8da235ef3963ab7b98701bf98048be91533ffd7e8747fc0b15f888be",
        "series_displayed_calibration_men.csv": "95fdf185656407ae0c292133d7b175f281de2c8008519b4c293f0b9798c1be71",
    },
    "equal-rates": {
        "report.doc": "67b431c8a4b9b4d76d94836b4d53d5b5cda533e4e36117fa948e8ded05fa4b21",
        "series_false_decision_loss.csv": "f684a0bf35c11c41cf7985cd17832ffb2d923e9838a5c616cc868579ae51aacd",
    },
    "appendix": {
        "report.doc": "8acb927b64c65a2da895e11459f2d1e0eb867af48ff5dcb4bb09f2d419fd36a6",
        "series_men_negative_density_popA.csv": "8efd107930e237e0d8c7b52ae69a94a8854a59c17a14a10d9e572f3aab81c739",
        "series_men_negative_density_popB.csv": "210f7de8905f662aaab7f56f4f3108fad7815ee1a2e9ae38d7479630fdba5ff1",
    },
    "appendix-grid1000": {
        "report.doc": "ab861ed2d2c705239432986c5ce83f083e0c216f667e93ddfeb5c69be0155fa4",
        "series_men_negative_density_popA.csv": "947c5d224d7125f375bcbc4798a7e705949f914991fc6376f7370044f5d1175b",
        "series_men_negative_density_popB.csv": "080423206fa01278123cc0771ee5fdd87efae68d9ec2e3951daff44c59ef2727",
    },
    "judge-per-outcome-equalized-odds": {
        "report.doc": "626e3951e4d38707e4fe613fc9067fc983e91c8f34b752f80f1c5e8c0a7d5f49",
        "series_roc_men.csv": "05a81efcc4178b0daba8606f73a34e1fab3d72aa146f6e36ae462a0926b850fc",
        "series_roc_women.csv": "a947138aedbe96db7aed8a53bac48729c4388525558979ae122cc141f99ad1b4",
    },
    "judge-per-outcome-parity-ratio": {
        "report.doc": "f31e5937033705d7e2738e48d95618fba4b849b9d0d6c647f165c889c6a94cbc",
        "series_roc_men.csv": "05a81efcc4178b0daba8606f73a34e1fab3d72aa146f6e36ae462a0926b850fc",
        "series_roc_women.csv": "a947138aedbe96db7aed8a53bac48729c4388525558979ae122cc141f99ad1b4",
    },
    "judge-per-person-equalized-odds": {
        "report.doc": "ade30a0fd1a688aa49251f748dbd40bfdc74f691a7938961acee36807ad38dcf",
        "series_roc_men.csv": "05a81efcc4178b0daba8606f73a34e1fab3d72aa146f6e36ae462a0926b850fc",
        "series_roc_women.csv": "a947138aedbe96db7aed8a53bac48729c4388525558979ae122cc141f99ad1b4",
    },
    "judge-per-person-parity-ratio": {
        "report.doc": "8ba9334d85df56ac2670cc62f8bcff70ec21e187c684f2646ac9c7beb07fd643",
        "series_roc_men.csv": "05a81efcc4178b0daba8606f73a34e1fab3d72aa146f6e36ae462a0926b850fc",
        "series_roc_women.csv": "a947138aedbe96db7aed8a53bac48729c4388525558979ae122cc141f99ad1b4",
    },
    "judge-grid1000-equalized-odds": {
        "report.doc": "ec78f3a8fd8d6a451642852e16a5606a72a691c1e861959f3bef99e5e702d8db",
        "series_roc_men.csv": "0d5e5d7ff61ce72d70036c670aa276add2552ae15ff9b8e4c9df1ca6c053e511",
        "series_roc_women.csv": "b898a68e5beb569017e1cec00f1593bcba3ba928969baf5ef1753673a7523078",
    },
    "judge-grid1000-parity-ratio": {
        "report.doc": "dd3fd62898e191bd75676c24bece0352b35e98ad8544d788ccfde3e98e1ee6e1",
        "series_roc_men.csv": "0d5e5d7ff61ce72d70036c670aa276add2552ae15ff9b8e4c9df1ca6c053e511",
        "series_roc_women.csv": "b898a68e5beb569017e1cec00f1593bcba3ba928969baf5ef1753673a7523078",
    },
}


@pytest.mark.parametrize("case", CASES)
def test_simulate_output_bytes_are_pinned(case, tmp_path):
    name, overrides = CASES[case]
    spec = EXPERIMENTS[name]
    defaults = {key: p.default for key, p in spec.params.items() if p.default is not p.empty}
    report = spec.run(defaults | overrides)
    written = report.write(tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written} == SHA256[case]


#: Groups of the audit file: label, record count, the score range of its
#: records and its decision threshold. The first label holds a comma and a
#: space, so the CSV quotes it; ``narrow`` has records in only a few bins at
#: every pinned bin count.
AUDIT_GROUPS = (
    ("Native American, Alaska", 400, (0.0, 1.0), 0.5),
    ("b", 300, (0.1, 1.0), 0.45),
    ("c", 250, (0.0, 0.9), 0.55),
    ("narrow", 60, (0.55, 0.7), 0.62),
)


def write_audit_records(path, decisions: bool) -> None:
    """A seeded record file: outcomes drawn from a per-group tilt of the
    score, decisions by a per-group threshold, or none at all."""
    rng = np.random.default_rng(20261018)
    rows = []
    for k, (label, n, (lo, hi), threshold) in enumerate(AUDIT_GROUPS):
        scores = lo + (hi - lo) * rng.random(n)
        outcomes = rng.random(n) < np.clip(scores * (0.8 + 0.1 * k) + 0.05, 0, 1)
        decided = scores > threshold
        rows += [
            [label, repr(float(s)), int(y), int(d) if decisions else ""]
            for s, y, d in zip(scores, outcomes, decided)
        ]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("group", "score", "outcome", "decision"))
        writer.writerows(rows)


AUDIT_SHA256 = {
    "decided-doc-7": "915479faa875d2567abca0d9890f8467e148c2e04e81218b3b98610969b77f3e",
    "decided-doc-10": "f154e7aee521de1ed833c7d339a7ecd1f6ecd730630ff0c7d155f7b54a471cbb",
    "decided-doc-37": "da9b1072521d5bd72f9dcec5ced800e55ba39884f865b71bb0a04f3440a7ba40",
    "decided-text-7": "8b9e080c869c05657a3eb1d3b12146ad4616ed383f38a01767ecf9977811a43e",
    "decided-text-10": "b4e70c3eafe921096e0371585f3fb6e56ad72a5cef42ed556f412f273d2e069b",
    "decided-text-37": "89ab2176cbe7958b06cbb6b885afb00785f325c4851d02eb57017f82a4b86f98",
    "undecided-doc-7": "78a40b6758379fea3fd403e5bf01880c7064cf73c5ef152d91df3af3d90a3c97",
    "undecided-doc-10": "e9266882c9947adb24117bb731a4cab1773bbf5a64df9e089ca747834a9ba581",
    "undecided-doc-37": "c0968ffc9ab7491e0bb9e3c5964b8f5c853cfd354097300a53e0a7f1ee418090",
    "undecided-text-7": "ca3724552c6408172b01340c69047599716bab928a5e112d08c61d7a2fb4024e",
    "undecided-text-10": "ace09d5def9d70645fa97668bd363aa19ab8c1a17d75d81b48b52ce8adb4b4bc",
    "undecided-text-37": "c814128d9ab8b8fe2d365e2f89fe2a5390db20eb4ce46d42c99c9573a335858a",
}


@pytest.mark.parametrize("bins", [7, 10, 37])
@pytest.mark.parametrize("fmt", ["doc", "text"])
@pytest.mark.parametrize("decisions", [True, False], ids=["decided", "undecided"])
def test_audit_stdout_bytes_are_pinned(decisions, fmt, bins, tmp_path, monkeypatch, capsys):
    # The report names its input path, so the file is read by a relative name.
    monkeypatch.chdir(tmp_path)
    write_audit_records("records.csv", decisions)
    assert main(["audit", "--input", "records.csv", "--format", fmt, "--bins", str(bins)]) == 0
    out = capsys.readouterr().out
    key = f"{'decided' if decisions else 'undecided'}-{fmt}-{bins}"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == AUDIT_SHA256[key]


def solver_population(k: int) -> tuple[PopulationModel, float]:
    """Seeded calibrated two-group population k and a reference threshold.

    Grids alternate between 1024 and 4096. Each marginal is random positive
    weights under a linear tilt, so base rates and ROC curves differ; every
    fifth population has two identical groups, and every third threshold is
    a grid boundary. Wide tilts and thresholds make some solves infeasible.
    """
    rng = np.random.default_rng([20261018, k])
    grid = (1024, 4096)[k % 2]
    mids = (np.arange(grid) + 0.5) / grid
    slopes = rng.uniform(-1.8, 1.8, 2)
    weights = {g: rng.uniform(0.2, 1.0, grid) * (1.0 + s * (mids - 0.5)) for g, s in zip("ab", slopes)}
    if k % 5 == 4:
        weights["b"] = weights["a"]
    threshold = int(rng.integers(1, grid)) / grid if k % 3 == 0 else float(rng.uniform(0.05, 0.95))
    groups = {g: ConditionalScoreDensity.calibrated(ScoreDensity(w).normalized()) for g, w in weights.items()}
    return PopulationModel(groups=groups), threshold


def test_solved_rules_are_pinned():
    # 80 solves: 24 equalized-odds rules (8 of them deterministic), 16
    # infeasible equalized-odds targets, 39 parity rules and 1 infeasible one.
    digest = hashlib.sha256()
    for k in range(20):
        pop, threshold = solver_population(k)
        for reference in ("a", "b"):
            for solve in (solve_equalized_odds, solve_parity_ratio):
                try:
                    out = repr(solve(pop, reference, threshold))
                except InfeasibleRuleError as exc:
                    out = "ERR " + str(exc)
                digest.update(out.encode("utf-8") + b"\0")
    assert digest.hexdigest() == "dfb860385b8c3153d096f582a22f98f5a32dd2d92842b53549bb075641267ba3"
