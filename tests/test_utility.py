import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairsim import (
    ConditionalScoreDensity,
    DecisionRule,
    PayoffMatrix,
    PopulationModel,
    ScoreDensity,
    ScoreMap,
    classify_cases,
    is_defined,
    judge_disutility,
    long_run_eu,
    mc_long_run_eu,
    optimal_threshold,
    pointwise_eu,
    separation_gap,
    solve_equalized_odds,
    solve_parity_ratio,
)
from _helpers import judge_population

REC = PayoffMatrix.recommender()
GRID = 1024
UNIFORM = ScoreDensity.uniform(GRID)
IDENTITY = ScoreMap.identity(GRID)


def test_pointwise_eu_of_acting():
    assert pointwise_eu(0.5, REC, 1) == 0.0
    assert pointwise_eu(0.8, REC, 1) == pytest.approx(0.6, abs=1e-12)
    assert pointwise_eu(0.1, REC, 1) == pytest.approx(-0.8, abs=1e-12)


def test_pointwise_eu_of_declining_uses_the_skip_branch():
    assert pointwise_eu(0.9, REC, 0) == 0.0
    richer = PayoffMatrix.recommender(outside=0.5)
    assert pointwise_eu(0.2, richer, 0) == 0.5


def test_pointwise_eu_validates_inputs():
    with pytest.raises(ValueError):
        pointwise_eu(1.2, REC, 1)
    with pytest.raises(ValueError):
        pointwise_eu(0.5, REC, 2)


def test_optimal_threshold_of_the_recommender_payoff():
    assert optimal_threshold(REC) == 0.5


def test_optimal_threshold_moves_with_the_outside_option():
    assert optimal_threshold(PayoffMatrix.recommender(outside=0.5)) == pytest.approx(0.75)
    # outside option no better than a sure dud: acting always wins
    assert optimal_threshold(PayoffMatrix(u11=1, u10=-1, u01=-1, u00=-1, outside=-1)) == 0.0


def test_optimal_threshold_rejects_degenerate_payoffs():
    with pytest.raises(ValueError):
        optimal_threshold(PayoffMatrix(u11=1.0, u10=1.0, u01=0, u00=0, outside=0))


def test_long_run_eu_calibrated_uniform():
    assert long_run_eu(UNIFORM, IDENTITY, REC, 0.5) == pytest.approx(0.25, abs=1e-4)


def test_long_run_eu_flipped_scores_invert_the_payoff():
    flip = ScoreMap.from_callable(lambda p: 1.0 - p, GRID)
    assert long_run_eu(UNIFORM, flip, REC, 0.5) == pytest.approx(-0.25, abs=1e-4)


def test_side_preserving_distortion_keeps_the_optimum():
    squeeze = ScoreMap.from_callable(lambda p: 0.5 + (p - 0.5) / 2.0, GRID)
    assert long_run_eu(UNIFORM, squeeze, REC, 0.5) == long_run_eu(UNIFORM, IDENTITY, REC, 0.5)
    cases = classify_cases(UNIFORM, squeeze, 0.5, REC)
    assert cases.wrong_side_mass == 0.0


def test_long_run_eu_requires_normalized_density():
    with pytest.raises(ValueError):
        long_run_eu(ScoreDensity(np.full(8, 2.0)), None, REC, 0.5)


def test_classify_cases_identity_has_no_loss():
    cases = classify_cases(UNIFORM, IDENTITY, 0.5, REC)
    assert cases.total_loss == 0.0
    assert cases.cases["case1"].mass == pytest.approx(0.5, abs=1e-12)
    assert cases.cases["case4"].mass == pytest.approx(0.5, abs=1e-12)


def test_classify_cases_constant_high_score():
    cases = classify_cases(UNIFORM, ScoreMap.constant(0.9, GRID), 0.5, REC)
    assert cases.cases["case2"].mass == pytest.approx(0.5, abs=1e-12)
    assert cases.cases["case4"].mass == pytest.approx(0.5, abs=1e-12)
    assert cases.cases["case2"].loss == pytest.approx(0.25, abs=1e-12)
    assert cases.cases["case3"].mass == 0.0


def test_no_map_beats_the_truthful_score_and_losses_decompose():
    rng = np.random.default_rng(1)
    eu_id = long_run_eu(UNIFORM, IDENTITY, REC, 0.5)
    for _ in range(25):
        score_map = ScoreMap(rng.uniform(0.0, 1.0, GRID))
        eu = long_run_eu(UNIFORM, score_map, REC, 0.5)
        cases = classify_cases(UNIFORM, score_map, 0.5, REC)
        assert eu <= eu_id + 1e-9
        assert eu_id - eu == pytest.approx(cases.total_loss, abs=1e-9)


def test_optimum_threshold_beats_a_threshold_sweep():
    rng = np.random.default_rng(8)
    densities = [UNIFORM] + [ScoreDensity(rng.uniform(0.05, 3.0, GRID)).normalized() for _ in range(5)]
    best_t = optimal_threshold(REC)
    for density in densities:
        best = long_run_eu(density, IDENTITY, REC, best_t)
        for t in np.linspace(0.0, 1.0, 41):
            assert long_run_eu(density, IDENTITY, REC, float(t)) <= best + 1e-6


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16))
def test_loss_decomposition_property(values):
    density = ScoreDensity.uniform(16)
    score_map = ScoreMap(np.array(values))
    delta = long_run_eu(density, None, REC, 0.5) - long_run_eu(density, score_map, REC, 0.5)
    assert delta == pytest.approx(classify_cases(density, score_map, 0.5, REC).total_loss, abs=1e-9)


# -- judge disutility ----------------------------------------------------------------


def test_equal_fnr_gives_exactly_equal_per_outcome_harm():
    pop = judge_population(GRID)
    rule = solve_equalized_odds(pop, "men", 0.5)
    report = judge_disutility(pop, rule, "per-outcome")
    assert report.disparity == 0.0
    assert report.verdict
    # the per-outcome disparity is by construction the fnr separation gap
    assert report.disparity == separation_gap(pop, rule).fnr_gap


def test_equal_fnr_does_not_equalize_per_person_harm():
    pop = judge_population(GRID)
    rule = solve_equalized_odds(pop, "men", 0.5)
    report = judge_disutility(pop, rule, "per-person")
    assert report.disparity > 0.1
    assert not report.verdict


def test_parity_rule_equalizes_per_person_harm():
    pop = judge_population(GRID)
    rule = solve_parity_ratio(pop, "men", 0.5)
    report = judge_disutility(pop, rule, "per-person")
    assert report.disparity <= 1e-6


def test_per_outcome_undefined_without_positive_mass():
    csd = ConditionalScoreDensity(f0=ScoreDensity.uniform(16), f1=ScoreDensity(np.zeros(16)))
    other = ConditionalScoreDensity.calibrated(ScoreDensity.uniform(16))
    pop = PopulationModel(groups={"a": csd, "b": other})
    report = judge_disutility(pop, DecisionRule.shared(0.5, pop.labels), "per-outcome")
    assert not is_defined(report.per_group["a"])
    assert not is_defined(report.disparity)
    assert not report.verdict


def test_convention_must_be_named():
    pop = judge_population(64)
    with pytest.raises(ValueError, match="convention"):
        judge_disutility(pop, DecisionRule.shared(0.5, pop.labels), "averaged")


def test_disparity_verdict_returns_magnitude_either_way():
    pop = judge_population(GRID)
    rule = solve_equalized_odds(pop, "men", 0.5)
    strict = judge_disutility(pop, rule, "per-person", tolerance=1e-6)
    assert not strict.verdict and strict.disparity > 1e-6
    loose = judge_disutility(pop, rule, "per-person", tolerance=1.0)
    assert loose.verdict and loose.disparity == strict.disparity


# -- Monte Carlo -------------------------------------------------------------------


def test_mc_estimate_is_deterministic_and_close():
    est1, se1 = mc_long_run_eu(UNIFORM, IDENTITY, REC, 0.5, n=200_000, seed=11)
    est2, _ = mc_long_run_eu(UNIFORM, IDENTITY, REC, 0.5, n=200_000, seed=11)
    assert est1 == est2
    assert est1 == pytest.approx(0.25, abs=0.01)
    assert 0.0 < se1 < 0.01
