import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairsim import (
    AuditDataset,
    ConditionalScoreDensity,
    ConfusionCounts,
    DecisionRule,
    DeterministicThreshold,
    InfeasibleRuleError,
    PayoffMatrix,
    PopulationModel,
    RandomizedThreshold,
    ScoreDensity,
    between_group_calibration_gap,
    coarsen,
    confusion,
    decide,
    rates,
    separation_gap,
    solve_equalized_odds,
    solve_parity_ratio,
    sufficiency_gap_binary,
)
from _helpers import calibrated_uniform_pair, judge_population


def test_decide_is_strict_at_the_threshold():
    rule = DecisionRule.shared(0.5, ["a"])
    assert decide(rule, "a", 0.5) == 0.0
    assert decide(rule, "a", 0.51) == 1.0


def test_decide_randomized_mixes_the_two_thresholds():
    rule = DecisionRule({"a": RandomizedThreshold(lower=0.3, upper=0.7, mix=0.25)})
    assert decide(rule, "a", 0.5) == pytest.approx(0.25)
    assert decide(rule, "a", 0.2) == 0.0
    assert decide(rule, "a", 0.8) == 1.0


def test_decide_validates_inputs():
    rule = DecisionRule.shared(0.5, ["a"])
    with pytest.raises(KeyError):
        decide(rule, "b", 0.5)
    with pytest.raises(ValueError):
        decide(rule, "a", 1.5)


def test_policy_validation():
    with pytest.raises(ValueError):
        DeterministicThreshold(1.5)
    with pytest.raises(ValueError):
        RandomizedThreshold(lower=0.8, upper=0.2, mix=0.5)
    with pytest.raises(ValueError):
        RandomizedThreshold(lower=0.2, upper=0.8, mix=1.5)


#: Thresholds and mixes as a rule text gives them (floats) and as the solvers do
#: (rationals, most of them not binary floats).
UNIT = st.one_of(st.floats(0, 1), st.fractions(0, 1, max_denominator=10**12))


@settings(max_examples=300, deadline=None)
@given(
    a=UNIT,
    b=UNIT,
    mix=UNIT,
    records=st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=1, max_size=40),
    weights=st.lists(st.floats(0, 8), min_size=1, max_size=16),
)
def test_policies_match_the_per_kind_decision_formulas(a, b, mix, records, weights):
    """Both policy kinds evaluate through ``mixture()``; the formulas each kind
    used to have of its own are the oracle."""
    lower, upper = sorted((a, b))
    scores = np.array([s for s, _ in records] + [float(lower), float(upper)])
    outcomes = np.array([y for _, y in records] + [1, 0], dtype=np.int8)
    data = AuditDataset(group=["g"] * len(scores), score=scores, outcome=outcomes)
    density = ScoreDensity(np.array(weights))

    det = DeterministicThreshold(a)
    want = (scores > float(a)).astype(float)
    assert det.probability(scores).tobytes() == want.tobytes()
    assert [det.probability(s) for s in scores] == want.tolist()
    assert det.decided_mass(density) == density.exact_mass_above(a)
    decided = scores > float(a)
    assert confusion(data, DecisionRule({"g": det}), "g") == ConfusionCounts(
        tp=int(np.sum(decided & (outcomes == 1))),
        fp=int(np.sum(decided & (outcomes == 0))),
        fn=int(np.sum(~decided & (outcomes == 1))),
        tn=int(np.sum(~decided & (outcomes == 0))),
    )

    rand = RandomizedThreshold(lower, upper, mix)
    q = float(mix)
    want = q * (scores > float(lower)) + (1.0 - q) * (scores > float(upper))
    assert rand.probability(scores).tobytes() == want.tobytes()
    assert [rand.probability(s) for s in scores] == want.tolist()
    qf = mix if isinstance(mix, Fraction) else Fraction(float(mix))
    assert rand.decided_mass(density) == qf * density.exact_mass_above(lower) + (1 - qf) * density.exact_mass_above(upper)
    lo, hi = float(lower), float(upper)
    n1_lo = int(np.sum((scores > lo) & (outcomes == 1)))
    n1_hi = int(np.sum((scores > hi) & (outcomes == 1)))
    n0_lo = int(np.sum((scores > lo) & (outcomes == 0)))
    n0_hi = int(np.sum((scores > hi) & (outcomes == 0)))
    tp = qf * n1_lo + (1 - qf) * n1_hi
    fp = qf * n0_lo + (1 - qf) * n0_hi
    pos, neg = int(np.sum(outcomes == 1)), int(np.sum(outcomes == 0))
    want_counts = ConfusionCounts(tp=tp, fp=fp, fn=pos - tp, tn=neg - fp)
    assert confusion(data, DecisionRule({"g": rand}), "g") == want_counts


def test_rule_serialization_round_trip():
    rule = DecisionRule(
        {
            "men": DeterministicThreshold(0.5),
            "women": RandomizedThreshold(lower=0.25, upper=0.75, mix=0.125),
        }
    )
    text = rule.serialize()
    assert "group=men kind=det t1=0.5" in text
    assert "group=women kind=rand t1=0.25 t2=0.75 q=0.125" in text
    back = DecisionRule.parse(text)
    assert back.for_group("men").threshold == 0.5
    assert back.for_group("women").mix == 0.125


def test_rule_parse_rejects_malformed_lines():
    good = "group=a kind=det t1=0.5\n"
    for bad, line in (
        ("group=men kind=maybe t1=0.5", 1),
        (good + "group=men kind=det t1", 2),  # token without "="
        (good + "group=men kind=det t1=abc", 2),
        (good + "group=b kind=det t1=0.5\n" + "group=men kind=rand t1=0.2 t2=x q=0.5", 3),
        (good + "group=men kind=det t1=1.5", 2),  # out of range
        (good + "group=men kind=rand t1=0.2 t2=0.8 q=-0.5", 2),
        (good + "group=men kind=rand t1=0.8 t2=0.2 q=0.5", 2),  # lower above upper
        (good + "group=men kind=det t1=nan", 2),
        (good + "kind=det t1=0.5", 2),  # no group
        ("", 1),
        (" \n\t\n", 1),
        ("group=a kind=det t1=0.5\ngroup=a kind=det t1=0.7", 2),  # repeated group
        (good + "group=men kind=det t1=0.5 t1=0.9", 2),  # repeated key
        (good + "group=men kind=det t1=0.5 extra=1", 2),  # unknown key
        (good + "group=men kind=det t1=0.5 q=0.5", 2),  # a rand key on a det line
    ):
        with pytest.raises(ValueError, match=f"^line {line}: "):
            DecisionRule.parse(bad)


_RULE_TOKENS = st.one_of(
    st.sampled_from(["group=a", "group=b", "kind=det", "kind=rand", "kind=", "t1=0.25", "t2=0.75", "q=0.5", "t1", "=", "=="]),
    st.builds("{}={}".format, st.sampled_from(["group", "kind", "t1", "t2", "q", "x", ""]), st.text(max_size=6)),
)
_RULE_TEXTS = st.one_of(
    st.lists(st.lists(_RULE_TOKENS, max_size=6).map(" ".join), max_size=4).map("\n".join),
    st.text(max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(text=_RULE_TEXTS)
def test_rule_parse_fails_only_with_a_numbered_line(text):
    try:
        DecisionRule.parse(text)
    except ValueError as exc:
        assert re.match(r"line [1-9][0-9]*: ", str(exc)), str(exc)


def test_recommender_payoff_values():
    payoff = PayoffMatrix.recommender()
    assert (payoff.u11, payoff.u10, payoff.u01, payoff.u00, payoff.outside) == (1.0, -1.0, 0.0, 0.0, 0.0)


# -- coarsen -------------------------------------------------------------------


def test_coarsen_always_act_puts_all_mass_high():
    pop = calibrated_uniform_pair(1024)
    coarse = coarsen(pop, DecisionRule.shared(0.0, pop.labels))
    g = coarse.group("a")
    assert g.f1.weights[0] == 0.0 and g.f0.weights[0] == 0.0
    assert g.f1.total_mass() + g.f0.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_coarsen_calibrated_uniform_at_half():
    pop = calibrated_uniform_pair(1024)
    coarse = coarsen(pop, DecisionRule.shared(0.5, pop.labels))
    g = coarse.group("a")
    flagged = (g.f1.weights[1] + g.f0.weights[1]) / 2.0
    assert flagged == pytest.approx(0.5, abs=1e-12)
    pos_given_flagged = g.f1.weights[1] / (g.f1.weights[1] + g.f0.weights[1])
    assert pos_given_flagged == pytest.approx(0.75, abs=1e-12)


def test_coarsen_feeds_the_same_sufficiency_numbers():
    pop = judge_population(1024)
    rule = solve_equalized_odds(pop, "men", 0.5)
    direct = sufficiency_gap_binary(pop, rule)
    via_coarse = between_group_calibration_gap(coarsen(pop, rule))
    assert via_coarse.gap[1] == pytest.approx(direct.gap_r1, abs=1e-12)
    assert via_coarse.gap[0] == pytest.approx(direct.gap_r0, abs=1e-12)


# -- equalized odds solver -------------------------------------------------------


def test_equalized_odds_identical_groups_returns_the_reference_threshold():
    pop = calibrated_uniform_pair(1024)
    rule = solve_equalized_odds(pop, "a", 0.5)
    pol = rule.for_group("b")
    assert isinstance(pol, DeterministicThreshold)
    assert float(pol.threshold) == 0.5


def test_equalized_odds_matches_rates_exactly():
    pop = judge_population(1024)
    rule = solve_equalized_odds(pop, "men", 0.5)
    sep = separation_gap(pop, rule)
    assert sep.fpr_gap == 0.0
    assert sep.fnr_gap == 0.0
    # on unequal base rates the same rule cannot keep the binary output calibrated
    assert sufficiency_gap_binary(pop, rule).max_gap > 1e-3


def test_equalized_odds_reports_infeasible_targets():
    # the low-base-rate two-level group cannot reach the other group's point
    pop = judge_population(1024)
    with pytest.raises(InfeasibleRuleError, match="men"):
        solve_equalized_odds(pop, "women", 0.5)


def test_equalized_odds_extreme_reference_thresholds():
    pop = judge_population(1024)
    for t_ref in (0.0, 1.0):
        rule = solve_equalized_odds(pop, "men", t_ref)
        sep = separation_gap(pop, rule)
        assert sep.max_gap == 0.0


def test_equalized_odds_needs_known_reference():
    pop = judge_population(64)
    with pytest.raises(KeyError):
        solve_equalized_odds(pop, "nope", 0.5)


# -- parity solver ----------------------------------------------------------------


def test_parity_identical_groups_returns_the_reference_threshold():
    pop = calibrated_uniform_pair(1024)
    rule = solve_parity_ratio(pop, "a", 0.5)
    assert float(rule.for_group("b").threshold) == 0.5


def test_parity_matches_declined_positive_mass_exactly():
    pop = judge_population(1024)
    rule = solve_parity_ratio(pop, "men", 0.5)
    joints = {}
    for g in pop.labels:
        c = confusion(pop, rule, g)
        joints[g] = float(c.fn / c.total)
    assert joints["men"] == pytest.approx(0.225, abs=1e-12)
    assert joints["women"] == joints["men"]


def test_parity_infeasible_when_target_exceeds_base_rate():
    pop = PopulationModel(
        groups={
            "hi": ConditionalScoreDensity.from_base_rate(0.75, 1024),
            "lo": ConditionalScoreDensity.from_base_rate(0.6, 1024),
        }
    )
    # declining everyone in the reference targets its whole base rate, 0.75
    with pytest.raises(InfeasibleRuleError, match="base rate"):
        solve_parity_ratio(pop, "hi", 1.0)


# -- monotonicity -------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.floats(0.05, 4.0), min_size=8, max_size=16),
    t_lo=st.floats(0.0, 1.0),
    t_hi=st.floats(0.0, 1.0),
)
def test_raising_a_threshold_trades_fnr_against_fpr(weights, t_lo, t_hi):
    if t_lo > t_hi:
        t_lo, t_hi = t_hi, t_lo
    csd = ConditionalScoreDensity.calibrated(ScoreDensity(np.array(weights)).normalized())
    pop = PopulationModel(groups={"a": csd, "b": csd})
    low = rates(confusion(pop, DecisionRule.shared(t_lo, pop.labels), "a"))
    high = rates(confusion(pop, DecisionRule.shared(t_hi, pop.labels), "a"))
    assert high.fnr >= low.fnr - 1e-12
    assert high.fpr <= low.fpr + 1e-12
