from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairsim import (
    CaseStats,
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
    make_score_map,
    mc_long_run_eu,
    optimal_threshold,
    pointwise_eu,
    separation_gap,
    solve_equalized_odds,
    solve_parity_ratio,
    utility_report,
)
from fairsim.metrics import within
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
    assert optimal_threshold(PayoffMatrix(u11=1, u10=-1, outside=-1)) == 0.0


def test_optimal_threshold_rejects_degenerate_payoffs():
    with pytest.raises(ValueError):
        optimal_threshold(PayoffMatrix(u11=1.0, u10=1.0, outside=0))


def test_long_run_eu_calibrated_uniform():
    assert long_run_eu(UNIFORM, IDENTITY, REC, 0.5) == Fraction(1, 4)


def test_long_run_eu_flipped_scores_invert_the_payoff():
    flip = ScoreMap.from_callable(lambda p: 1.0 - p, GRID)
    assert long_run_eu(UNIFORM, flip, REC, 0.5) == Fraction(-1, 4)


def test_flipped_scores_on_a_grid_of_1000_give_exact_values():
    # the float midpoint sums gave -0.24999999999999997 and a mass of 1.0000000000000004
    density, flip = ScoreDensity.uniform(1000), make_score_map("flip", 1000, 0.9)
    assert long_run_eu(density, flip, REC, 0.5) == Fraction(-1, 4)
    assert classify_cases(density, flip, 0.5, REC).wrong_side_mass == 1


def test_a_threshold_inside_a_cell_splits_it():
    # on an odd grid t = 1/2 is the midpoint of cell 388, which the identity
    # map displays as 0.5: those with s in (1/2, 389/777) skip, wrongly
    cases = classify_cases(ScoreDensity.uniform(777), ScoreMap.identity(777), 0.5, REC)
    assert cases.wrong_side_mass == Fraction(1, 1554)
    assert cases.cases["case3"] == CaseStats(mass=Fraction(1, 1554), loss=Fraction(1, 1554**2))


def test_side_preserving_distortion_keeps_the_optimum():
    squeeze = ScoreMap.from_callable(lambda p: 0.5 + (p - 0.5) / 2.0, GRID)
    assert long_run_eu(UNIFORM, squeeze, REC, 0.5) == long_run_eu(UNIFORM, IDENTITY, REC, 0.5)
    cases = classify_cases(UNIFORM, squeeze, 0.5, REC)
    assert cases.wrong_side_mass == 0.0


def test_long_run_eu_requires_normalized_density():
    with pytest.raises(ValueError):
        long_run_eu(ScoreDensity(np.full(8, 2.0)), ScoreMap.identity(8), REC, 0.5)


def test_classify_cases_requires_normalized_density():
    with pytest.raises(ValueError, match="must integrate to 1"):
        classify_cases(ScoreDensity(np.full(8, 2.0)), ScoreMap.identity(8), 0.5, REC)


def test_long_run_eu_refuses_a_map_on_another_grid():
    # read cell by cell, the model's value is 1/8
    with pytest.raises(ValueError, match="score map grid does not match density grid"):
        long_run_eu(ScoreDensity.uniform(2), ScoreMap([0, 1, 0, 1]), REC, 0.5)


def test_classify_cases_refuses_a_map_on_another_grid():
    with pytest.raises(ValueError, match="score map grid does not match density grid"):
        classify_cases(ScoreDensity.uniform(2), ScoreMap([0, 1, 0, 1]), 0.5, REC)


def test_mc_long_run_eu_refuses_a_map_on_another_grid():
    with pytest.raises(ValueError, match="score map grid does not match density grid"):
        mc_long_run_eu(ScoreDensity.uniform(2), ScoreMap([0, 1, 0, 1]), REC, 0.5, n=10, seed=1)


def test_classify_cases_identity_has_no_loss():
    cases = classify_cases(UNIFORM, IDENTITY, 0.5, REC)
    assert sum(c.loss for c in cases.cases.values()) == 0
    assert cases.cases["case1"].mass == Fraction(1, 2)
    assert cases.cases["case4"].mass == Fraction(1, 2)


def test_classify_cases_constant_high_score():
    cases = classify_cases(UNIFORM, ScoreMap.constant(0.9, GRID), 0.5, REC)
    assert cases.cases["case2"].mass == Fraction(1, 2)
    assert cases.cases["case4"].mass == Fraction(1, 2)
    assert cases.cases["case2"].loss == Fraction(1, 4)
    assert cases.cases["case3"].mass == 0


def test_no_map_beats_the_truthful_score_and_losses_decompose():
    rng = np.random.default_rng(1)
    eu_id = long_run_eu(UNIFORM, IDENTITY, REC, 0.5)
    for _ in range(25):
        score_map = ScoreMap(rng.uniform(0.0, 1.0, GRID))
        eu = long_run_eu(UNIFORM, score_map, REC, 0.5)
        cases = classify_cases(UNIFORM, score_map, 0.5, REC)
        assert eu <= eu_id
        assert eu_id - eu == sum(c.loss for c in cases.cases.values())


def test_optimum_threshold_beats_a_threshold_sweep():
    rng = np.random.default_rng(8)
    densities = [UNIFORM] + [ScoreDensity(rng.uniform(0.05, 3.0, GRID)).normalized() for _ in range(5)]
    best_t = optimal_threshold(REC)
    for density in densities:
        best = long_run_eu(density, IDENTITY, REC, best_t)
        for t in np.linspace(0.0, 1.0, 41):
            assert long_run_eu(density, IDENTITY, REC, float(t)) <= best


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16))
def test_loss_decomposition_property(values):
    density = ScoreDensity.uniform(16)
    score_map = ScoreMap(np.array(values))
    delta = long_run_eu(density, ScoreMap.identity(16), REC, 0.5) - long_run_eu(density, score_map, REC, 0.5)
    assert delta == sum(c.loss for c in classify_cases(density, score_map, 0.5, REC).cases.values())


def _oracle(weights, values, threshold, payoff):
    """Expected utility of deciding on ``values`` and of the warranted
    decision s > t, and each case's [mass, loss], summed part by part in
    ``Fraction``s: cell k's density is Fraction(w_k), so a whole cell's mass
    is Fraction(w_k) / G, and a cell that holds t is cut at t."""
    grid = len(weights)
    t = Fraction(threshold)
    u11, u10, outside = map(Fraction, (payoff.u11, payoff.u10, payoff.outside))
    names = {(False, False): "case1", (True, False): "case2", (False, True): "case3", (True, True): "case4"}
    cases = {name: [Fraction(0), Fraction(0)] for name in names.values()}
    eu_map = eu_warranted = Fraction(0)
    for k, (w, v) in enumerate(zip(weights.tolist(), values.tolist())):
        lo, hi = Fraction(k, grid), Fraction(k + 1, grid)
        edges = [lo, t, hi] if lo < t < hi else [lo, hi]
        acted = Fraction(v) > t
        for a, b in zip(edges, edges[1:]):
            mass = Fraction(w) * (b - a)
            acting, skipping = mass * (u10 + (u11 - u10) * (a + b) / 2), mass * outside
            warranted = a >= t
            taken, best = (acting if acted else skipping), (acting if warranted else skipping)
            eu_map += taken
            eu_warranted += best
            cases[names[acted, warranted]][0] += mass
            cases[names[acted, warranted]][1] += best - taken
    return eu_map, eu_warranted, cases


@settings(max_examples=40, deadline=None)
@given(
    grid=st.sampled_from([16, 64, 777, 1000, 1024]),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["identity", "constant", "flip", "compress", "random"]),
    position=st.floats(0.0, 1.0),
    on_boundary=st.booleans(),
)
@example(grid=777, seed=0, kind="identity", position=0.5, on_boundary=False)
@example(grid=1000, seed=1, kind="flip", position=0.5, on_boundary=True)
# 1/777 rounds down as a float, but its float product with 777 rounds up to 1
@example(grid=777, seed=2, kind="random", position=1 / 777, on_boundary=True)
def test_exact_utility_matches_a_per_cell_fraction_oracle(grid, seed, kind, position, on_boundary):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 2.0, grid)
    weights[rng.random(grid) < 0.2] = 0.0
    density = ScoreDensity(weights).normalized()
    t = round(position * grid) / grid if on_boundary else position
    if kind == "random":
        values = rng.uniform(0.0, 1.0, grid)
        values[rng.random(grid) < 0.1] = t  # ties with t skip
        score_map = ScoreMap(values)
    else:
        score_map = make_score_map(kind, grid, float(rng.choice([t, rng.random()])))

    eu_map, eu_warranted, oracle = _oracle(density.weights, score_map.values, t, REC)
    cases = classify_cases(density, score_map, t, REC)
    assert long_run_eu(density, score_map, REC, t) == eu_map
    assert {name: [c.mass, c.loss] for name, c in cases.cases.items()} == oracle
    assert cases.wrong_side_mass == oracle["case2"][0] + oracle["case3"][0]
    assert sum(c.mass for c in cases.cases.values()) == density.exact_total()
    assert eu_warranted - long_run_eu(density, score_map, REC, t) == sum(c.loss for c in cases.cases.values())


# -- judge disutility ----------------------------------------------------------------


def test_equal_fnr_gives_exactly_equal_per_outcome_harm():
    pop = judge_population(GRID)
    rule = solve_equalized_odds(pop, "men", 0.5)
    report = judge_disutility(pop, rule, "per-outcome")
    assert report.disparity == 0.0
    assert within(report.disparity, 1e-6)
    # the per-outcome disparity is by construction the fnr separation gap
    assert report.disparity == separation_gap(pop, rule).fnr_gap


def test_equal_fnr_does_not_equalize_per_person_harm():
    pop = judge_population(GRID)
    rule = solve_equalized_odds(pop, "men", 0.5)
    report = judge_disutility(pop, rule, "per-person")
    assert report.disparity > 0.1
    assert not within(report.disparity, 1e-6)


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
    assert not within(report.disparity, 1e-6)


def test_convention_must_be_named():
    pop = judge_population(64)
    with pytest.raises(ValueError, match="convention"):
        judge_disutility(pop, DecisionRule.shared(0.5, pop.labels), "averaged")


def test_disparity_verdict_returns_magnitude_either_way():
    pop = judge_population(GRID)
    rule = solve_equalized_odds(pop, "men", 0.5)
    strict = judge_disutility(pop, rule, "per-person")
    assert not within(strict.disparity, 1e-6) and strict.disparity > 1e-6
    assert within(strict.disparity, 1.0)
    assert utility_report(strict.per_group) == strict


# -- Monte Carlo -------------------------------------------------------------------


def test_mc_estimate_is_deterministic_and_close():
    est1, se1 = mc_long_run_eu(UNIFORM, IDENTITY, REC, 0.5, n=200_000, seed=11)
    est2, _ = mc_long_run_eu(UNIFORM, IDENTITY, REC, 0.5, n=200_000, seed=11)
    assert est1 == est2
    assert est1 == pytest.approx(0.25, abs=0.01)
    assert 0.0 < se1 < 0.01
