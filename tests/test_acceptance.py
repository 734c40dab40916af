"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line with the measured values (visible with `pytest -s` or `-rA`)."""

import math
import time

import numpy as np
import pytest

from fairsim import (
    PayoffMatrix,
    ScoreDensity,
    ScoreMap,
    SufficiencyGaps,
    classify_cases,
    confusion_tables,
    judge_disutility,
    long_run_eu,
    mc_long_run_eu,
    run_appendix_counterexample,
    run_equal_rates_unequal_utility,
    run_judge_experiment,
    sample,
    separation_gap,
    solve_equalized_odds,
    solve_parity_ratio,
)
from fairsim.cli import audit
from _helpers import judge_population, random_equalized_odds_instance

GRID = 1024
REC = PayoffMatrix.recommender()


def report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_recommender_optimum():
    start = time.perf_counter()
    uniform = ScoreDensity.uniform(GRID)
    analytic = long_run_eu(uniform, ScoreMap.identity(GRID), REC, 0.5)
    assert analytic == pytest.approx(0.25, abs=1e-4)
    mc, _ = mc_long_run_eu(uniform, ScoreMap.identity(GRID), REC, 0.5, n=1_000_000, seed=42)
    assert mc == pytest.approx(0.25, abs=0.01)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("1 recommender-optimum", f"analytic={analytic:.6f} mc={mc:.6f} elapsed={elapsed:.2f}s")


def test_criterion_2_calibration_dominance():
    start = time.perf_counter()
    uniform = ScoreDensity.uniform(GRID)
    eu_truthful = long_run_eu(uniform, ScoreMap.identity(GRID), REC, 0.5)
    rng = np.random.default_rng(2024)
    mids = uniform.midpoints()
    n_equal = n_strict = 0
    for i in range(200):
        kind = i % 4
        if kind == 0:  # keeps every score on its side of one half
            offset = rng.uniform(0.005, 0.495, GRID)
            values = 0.5 + np.where(mids > 0.5, offset, -offset)
        elif kind == 1:  # arbitrary
            values = rng.uniform(0.0, 1.0, GRID)
        elif kind == 2:  # monotone but distorted
            values = np.sort(rng.uniform(0.0, 1.0, GRID))
        else:  # constant
            values = np.full(GRID, rng.uniform(0.0, 1.0))
        score_map = ScoreMap(values)
        eu = long_run_eu(uniform, score_map, REC, 0.5)
        assert eu <= eu_truthful + 1e-9
        wrong_mass = classify_cases(uniform, score_map, 0.5, REC).wrong_side_mass
        if wrong_mass == 0.0:
            assert eu == eu_truthful
            n_equal += 1
        else:
            assert eu < eu_truthful - 1e-9
            n_strict += 1
    assert n_equal > 0 and n_strict > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("2 calibration-dominance", f"maps=200 equal={n_equal} strict={n_strict} elapsed={elapsed:.2f}s")


def test_criterion_3_equal_rates_unequal_harm():
    result = run_equal_rates_unequal_utility(0.1, 0.4, 0.1)
    disparity = result.metrics["eu"]["disparity"]
    expected = 0.1 * abs((2 * 0.1 - 1) - (2 * 0.4 - 1))
    assert disparity == pytest.approx(expected, abs=1e-9)
    assert disparity == pytest.approx(0.06, abs=1e-9)
    assert result.verdicts["equal_rates"].holds
    report("3 equal-rates-unequal-harm", f"disparity={disparity:.12f}")


def test_criterion_4_judge_conjunction():
    start = time.perf_counter()
    result = run_judge_experiment(0.3, 0.6, 0.5)
    sep = result.verdicts["separation"].magnitude
    suff = result.verdicts["sufficiency"].magnitude
    harm = result.metrics["disutility"]["per_outcome"]["disparity"]
    assert sep <= 1e-6
    assert suff >= 1e-3
    assert harm == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("4 judge-conjunction", f"sep={sep:.3g} suff={suff:.4f} harm={harm} elapsed={elapsed:.2f}s")


def test_criterion_5_impossibility_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    violations = 0
    min_gap = math.inf
    for _ in range(500):
        pop, rule = random_equalized_odds_instance(rng, grid=256, min_gap=0.05)
        sep = separation_gap(pop, rule)
        assert sep.max_gap <= 1e-6
        assert any(sep.fpr[g] + sep.fnr[g] > 1e-6 for g in pop.labels)  # imperfect
        gap = SufficiencyGaps.of(confusion_tables(pop, rule)).max_gap
        min_gap = min(min_gap, gap)
        if gap < 1e-4:
            violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("5 impossibility-sweep", f"populations=500 min_gap={min_gap:.4f} elapsed={elapsed:.1f}s")


def test_criterion_6_declined_composition_counterexample():
    result = run_appendix_counterexample(grid=GRID, reshapes=100, seed=7)
    gap_a = result.metrics["popA"]["missed_positive_gap"]
    gap_b = result.metrics["popB"]["missed_positive_gap"]
    shift = result.metrics["false_omission"]["men_shift"]
    assert gap_a <= 1e-6 and gap_b <= 1e-6
    assert shift > 0.01
    assert result.metrics["reshapes"]["count"] == 100
    assert result.metrics["reshapes"]["parity_max_residual"] <= 1e-6
    assert result.metrics["reshapes"]["false_omission_min_gap"] > 1e-3
    report(
        "6 declined-composition",
        f"parity_gaps=({gap_a:.2g},{gap_b:.2g}) shift={shift:.4f} "
        f"reshape_min_gap={result.metrics['reshapes']['false_omission_min_gap']:.4f}",
    )


def test_criterion_7_convention_split():
    pop = judge_population(GRID)
    rule_eq = solve_equalized_odds(pop, "men", 0.5)
    per_outcome = judge_disutility(pop, rule_eq, "per-outcome")
    per_person = judge_disutility(pop, rule_eq, "per-person")
    assert per_outcome.disparity == 0.0
    assert per_person.disparity > 1e-3

    rule_parity = solve_parity_ratio(pop, "men", 0.5)
    balanced = judge_disutility(pop, rule_parity, "per-person")
    assert balanced.disparity <= 1e-6

    # independent float re-measurement of the declined-positive mass per group
    def joint_below(csd, threshold):
        t = float(threshold)
        g = csd.grid_size
        k = int(t * g)
        mass = csd.f1.weights[:k].sum() / g
        mass += csd.f1.weights[k] * (t - k / g) if k < g else 0.0
        return float(mass)

    joints = {g: joint_below(pop.group(g), rule_parity.for_group(g).threshold) for g in pop.labels}
    assert abs(joints["men"] - joints["women"]) <= 1e-9
    report(
        "7 convention-split",
        f"per_outcome={per_outcome.disparity} per_person={per_person.disparity:.4f} "
        f"parity_rule_disparity={balanced.disparity}",
    )


def test_criterion_8_empirical_analytic_coherence(tmp_path):
    pop = judge_population(GRID)
    rule = solve_equalized_odds(pop, "men", 0.5)
    data = sample(pop, 1_000_000, seed=42, rule=rule)
    path = tmp_path / "judge.csv"
    data.to_csv(path)
    measured = audit(str(path), bins=10)

    sep = separation_gap(pop, rule)
    suff = SufficiencyGaps.of(confusion_tables(pop, rule))
    analytic = {
        "base_rate.men": pop.group("men").base_rate,
        "base_rate.women": pop.group("women").base_rate,
        "rates.men.fpr": sep.fpr["men"],
        "rates.men.fnr": sep.fnr["men"],
        "rates.women.fpr": sep.fpr["women"],
        "rates.women.fnr": sep.fnr["women"],
        "separation.fpr_gap": sep.fpr_gap,
        "separation.fnr_gap": sep.fnr_gap,
        "sufficiency.gap_r1": suff.gap_r1,
        "sufficiency.gap_r0": suff.gap_r0,
    }
    from fairsim.reports import flatten

    flat = flatten(measured)
    deviation = max(abs(flat[key] - value) for key, value in analytic.items())
    assert deviation < 0.01
    report("8 empirical-coherence", f"records=1000000 sup_deviation={deviation:.5f}")
