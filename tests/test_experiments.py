import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from fairsim import (
    ConditionalScoreDensity,
    ScoreDensity,
    run_appendix_counterexample,
    run_equal_rates_unequal_utility,
    run_judge_experiment,
    run_recommender_experiment,
)
from fairsim import rules
from fairsim.densities import is_defined
from fairsim.experiments import EXPERIMENTS, JUDGE_RULES
from fairsim.utility import CONVENTIONS

GRID = 1024


# -- recommender ---------------------------------------------------------------


def test_recommender_identity_map_is_harmless():
    report = run_recommender_experiment("identity", grid=GRID, samples=50_000)
    eu = report.metrics["eu"]["analytic"]
    assert eu["women"] == pytest.approx(0.25, abs=1e-4)
    assert eu["men"] == eu["women"]
    assert eu["disparity"] == 0.0
    assert report.verdicts["equal_utility"].holds


def test_recommender_constant_map_loses_a_quarter():
    report = run_recommender_experiment("constant", 0.9, grid=GRID, samples=50_000)
    eu = report.metrics["eu"]["analytic"]
    assert eu["women"] == pytest.approx(0.25, abs=1e-4)
    assert eu["men"] == pytest.approx(0.0, abs=1e-4)
    assert eu["disparity"] == pytest.approx(0.25, abs=1e-4)
    assert not report.verdicts["equal_utility"].holds
    assert report.metrics["cases_men"]["case2"]["loss"] == pytest.approx(0.25, abs=1e-6)


def test_recommender_side_preserving_map_is_unfair_free():
    report = run_recommender_experiment("compress", grid=GRID, samples=50_000)
    assert report.metrics["eu"]["analytic"]["disparity"] == 0.0
    # miscalibrated on display, yet no utility gap
    assert report.metrics["calibration_displayed"]["sup_gap"] > 0.1
    assert report.verdicts["zero_wrong_side_mass"].holds


def test_recommender_reports_name_their_map():
    """Two maps give two reports whose ``params`` lines tell them apart."""
    docs = {m: run_recommender_experiment(m, grid=64, samples=1000).to_doc() for m in ("constant", "flip")}
    params = {m: [line for line in doc.splitlines() if line.startswith("params.")] for m, doc in docs.items()}
    assert params["constant"][:2] == ["params.map = constant", "params.map_value = 0.9"]
    assert params["flip"][:2] == ["params.map = flip", "params.map_value = 0.9"]
    assert params["constant"][2:] == params["flip"][2:]


def test_recommender_mc_tracks_the_analytic_values():
    report = run_recommender_experiment("constant", 0.9, grid=GRID, samples=200_000, seed=3)
    eu = report.metrics["eu"]
    assert eu["mc"]["women"] == pytest.approx(eu["analytic"]["women"], abs=0.01)
    assert eu["mc"]["men"] == pytest.approx(eu["analytic"]["men"], abs=0.01)


# -- equal rates, unequal harm ----------------------------------------------------


def test_equal_rates_concentration_example():
    report = run_equal_rates_unequal_utility(0.1, 0.4, 0.1)
    loss = report.metrics["loss_per_false_decision"]
    assert loss["men"] == pytest.approx(0.8, abs=1e-12)
    assert loss["women"] == pytest.approx(0.2, abs=1e-12)
    assert report.metrics["eu"]["disparity"] == pytest.approx(0.06, abs=1e-9)
    assert report.verdicts["equal_rates"].holds
    assert not report.verdicts["equal_utility"].holds
    # equal-rate groups can still differ a lot per wrong decision
    assert abs(loss["men"] - loss["women"]) >= 0.5


def test_equal_rates_same_probability_is_fair():
    report = run_equal_rates_unequal_utility(0.2, 0.2, 0.1)
    assert report.metrics["eu"]["disparity"] == 0.0
    assert report.verdicts["equal_utility"].holds


def test_equal_rates_no_false_mass():
    report = run_equal_rates_unequal_utility(0.1, 0.4, 0.0)
    assert report.metrics["eu"]["disparity"] == 0.0
    assert report.metrics["rates"]["fpr"] == 0.0
    assert not is_defined(report.metrics["rates"]["fnr"])


def test_equal_rates_rejects_right_side_probabilities():
    with pytest.raises(ValueError, match="wrong side"):
        run_equal_rates_unequal_utility(0.6, 0.4, 0.1)


# -- judge ------------------------------------------------------------------------


def test_judge_core_conjunction():
    report = run_judge_experiment(0.3, 0.6, 0.5)
    assert report.verdicts["separation"].holds
    assert not report.verdicts["sufficiency"].holds
    assert report.verdicts["sufficiency"].magnitude >= 1e-3
    assert report.metrics["disutility"]["per_outcome"]["disparity"] == 0.0
    assert report.verdicts["equal_harm"].holds
    assert report.metrics["witness"]["applies"] and report.metrics["witness"]["consistent"]


def test_judge_equal_base_rates_degenerate_case():
    report = run_judge_experiment(0.5, 0.5, 0.5)
    assert report.verdicts["separation"].holds
    assert report.verdicts["sufficiency"].holds  # identical groups, theorem silent
    assert not report.metrics["witness"]["applies"]


def test_judge_per_person_convention_flags_the_gap():
    report = run_judge_experiment(0.3, 0.6, 0.5, convention="per-person")
    assert not report.verdicts["equal_harm"].holds
    assert report.verdicts["equal_harm"].magnitude > 0.1


def test_judge_parity_rule_restores_per_person_verdict():
    report = run_judge_experiment(0.3, 0.6, 0.5, convention="per-person", rule="parity-ratio")
    assert report.verdicts["equal_harm"].holds
    assert report.metrics["disutility"]["per_person"]["disparity"] <= 1e-6


def test_judge_rejects_an_unknown_convention():
    with pytest.raises(ValueError, match=re.escape(f"convention must be one of {CONVENTIONS}, got 'bogus'")):
        run_judge_experiment(0.3, 0.6, 0.5, convention="bogus")


def test_judge_verdicts_are_recomputable_from_metrics():
    report = run_judge_experiment(0.3, 0.6, 0.5)
    sep = max(report.metrics["separation"]["fpr_gap"], report.metrics["separation"]["fnr_gap"])
    assert report.verdicts["separation"].magnitude == sep
    suff = max(report.metrics["sufficiency"]["gap_r1"], report.metrics["sufficiency"]["gap_r0"])
    assert report.verdicts["sufficiency"].magnitude == suff
    assert report.verdicts["equal_harm"].magnitude == report.metrics["disutility"]["per_outcome"]["disparity"]


@pytest.mark.parametrize("rule", JUDGE_RULES)
def test_judge_measures_each_group_once_beyond_the_solver(rule, monkeypatch):
    """The solver measures its reference group, then one table serves every
    reported metric: 3 exact confusion measurements for 2 groups."""
    calls = []
    measure = rules.ConfusionCounts.of

    def counted(*args):
        calls.append(args)
        return measure(*args)

    monkeypatch.setattr(rules.ConfusionCounts, "of", counted)
    run_judge_experiment(rule=rule)
    assert len(calls) == 3


# -- declined-case composition counterexample ----------------------------------------


def test_counterexample_keeps_parity_and_moves_composition():
    report = run_appendix_counterexample(grid=GRID, reshapes=20, seed=7)
    assert report.metrics["popA"]["missed_positive_gap"] <= 1e-6
    assert report.metrics["popB"]["missed_positive_gap"] <= 1e-6
    assert report.metrics["false_omission"]["men_shift"] > 0.01
    assert report.metrics["false_omission"]["women_shift"] == 0.0
    assert report.verdicts["harm_parity_preserved"].holds
    assert report.verdicts["composition_changed"].holds


def test_counterexample_rejects_a_grid_too_small_to_reshape():
    with pytest.raises(ValueError, match="grid 2 is too small"):
        run_appendix_counterexample(grid=2, reshapes=1)


def test_counterexample_matches_hand_computed_shares():
    report = run_appendix_counterexample(grid=GRID, reshapes=5, seed=7)
    # triangular-below shape: declined positives 0.225 of declined mass 0.9
    assert report.metrics["popA"]["false_omission_men"] == pytest.approx(0.25, abs=1e-9)
    # fixed three-segment reshape: 81/295 by direct integration
    assert report.metrics["popB"]["false_omission_men"] == pytest.approx(81 / 295, abs=1e-4)


def test_counterexample_reshapes_keep_parity_and_break_composition():
    report = run_appendix_counterexample(grid=GRID, reshapes=30, seed=11)
    assert report.metrics["reshapes"]["count"] == 30
    assert report.metrics["reshapes"]["parity_max_residual"] <= 1e-6
    assert report.metrics["reshapes"]["false_omission_min_gap"] > 1e-3


def test_reshape_on_one_side_of_the_threshold_changes_nothing():
    from fairsim.experiments import run_appendix_counterexample as run
    from fairsim import PopulationModel, SufficiencyGaps, confusion_tables, solve_parity_ratio

    men = ConditionalScoreDensity.from_base_rate(0.3, GRID)
    women = ConditionalScoreDensity.from_base_rate(0.6, GRID)
    pop = PopulationModel(groups={"men": men, "women": women})
    rule = solve_parity_ratio(pop, "men", 0.5)

    # redistribute only the above-threshold negative mass, keeping its total
    # and mean: two levels on [1/2, 3/4) and [3/4, 1]
    w = men.f0.weights.copy()
    half = GRID // 2
    upper_mass = men.f0.weights[half:].sum() / GRID
    upper_mean = float(np.sum(men.f0.weights[half:] * men.f0.midpoints()[half:]) / GRID)
    nu2 = (upper_mean - upper_mass * 0.625) / 0.25
    nu1 = upper_mass - nu2
    assert nu1 >= 0 and nu2 >= 0
    w[half : half + GRID // 4] = nu1 / 0.25
    w[half + GRID // 4 :] = nu2 / 0.25
    reshaped = ConditionalScoreDensity(f0=ScoreDensity(w), f1=men.f1)
    pop_r = pop.with_group("men", reshaped)

    before = SufficiencyGaps.of(confusion_tables(pop, rule)).pos_given_r0["men"]
    after = SufficiencyGaps.of(confusion_tables(pop_r, rule)).pos_given_r0["men"]
    assert after == pytest.approx(before, abs=1e-12)


def test_experiments_are_deterministic():
    a = run_judge_experiment(0.3, 0.6, 0.5).to_doc()
    b = run_judge_experiment(0.3, 0.6, 0.5).to_doc()
    assert a == b
    a = run_appendix_counterexample(grid=256, reshapes=10, seed=5).to_doc()
    b = run_appendix_counterexample(grid=256, reshapes=10, seed=5).to_doc()
    assert a == b


def test_run_experiments_script_writes_every_report(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
    main = runpy.run_path(str(script))["main"]
    monkeypatch.setattr("sys.argv", [str(script), str(tmp_path)])
    assert main() == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert f"{name}: wrote " in out
        assert (tmp_path / name / "report.doc").read_text().startswith(f"experiment.id = {name}\n")
