import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fairsim import (
    ConditionalScoreDensity,
    ConfusionCounts,
    DecisionRule,
    DeterministicThreshold,
    InfeasibleRuleError,
    PayoffMatrix,
    PopulationModel,
    RandomizedThreshold,
    ScoreDensity,
    SufficiencyGaps,
    confusion_tables,
    is_defined,
    separation_gap,
    solve_equalized_odds,
    solve_parity_ratio,
)
from fairsim.cli import MAX_GRID
from fairsim.rules import _roc_point_policy, _walk_plan
from _helpers import calibrated_uniform_pair, judge_population, random_calibrated_population


def test_decide_is_strict_at_the_threshold():
    rule = DecisionRule.shared(0.5, ["a"])
    assert rule.for_group("a").probability(0.5) == 0.0
    assert rule.for_group("a").probability(0.51) == 1.0


def test_decide_randomized_mixes_the_two_thresholds():
    rule = DecisionRule({"a": RandomizedThreshold(lower=0.3, upper=0.7, mix=0.25)})
    assert rule.for_group("a").probability(0.5) == pytest.approx(0.25)
    assert rule.for_group("a").probability(0.2) == 0.0
    assert rule.for_group("a").probability(0.8) == 1.0


def test_decide_validates_inputs():
    rule = DecisionRule.shared(0.5, ["a"])
    with pytest.raises(KeyError, match="covered groups"):
        rule.for_group("b")


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
    scores=st.lists(st.floats(0, 1), min_size=1, max_size=40),
    weights=st.lists(st.floats(0, 8), min_size=1, max_size=16),
)
def test_policies_match_the_per_kind_decision_formulas(a, b, mix, scores, weights):
    """Both policy kinds evaluate through ``mixture()``; the formulas each kind
    used to have of its own are the oracle."""
    lower, upper = sorted((a, b))
    scores = np.array(scores + [float(lower), float(upper)])
    density = ScoreDensity(np.array(weights))

    det = DeterministicThreshold(a)
    want = (scores > float(a)).astype(float)
    assert det.probability(scores).tobytes() == want.tobytes()
    assert [det.probability(s) for s in scores] == want.tolist()
    assert det.decided_mass(density) == density.exact_mass_above(a)

    rand = RandomizedThreshold(lower, upper, mix)
    q = float(mix)
    want = q * (scores > float(lower)) + (1.0 - q) * (scores > float(upper))
    assert rand.probability(scores).tobytes() == want.tobytes()
    assert [rand.probability(s) for s in scores] == want.tolist()
    qf = mix if isinstance(mix, Fraction) else Fraction(float(mix))
    assert rand.decided_mass(density) == qf * density.exact_mass_above(lower) + (1 - qf) * density.exact_mass_above(upper)


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
    # blank and whitespace-only lines, before or between rules, are skipped
    assert DecisionRule.parse("\n" + text.replace("\n", "\n \t\n\n")).serialize() == text
    # a rational is written as n/d and read back as the same Fraction
    rule = DecisionRule(
        {
            "a": DeterministicThreshold(Fraction(1, 3)),
            "b": RandomizedThreshold(lower=0.1, upper=Fraction(1), mix=Fraction(2, 7)),
        }
    )
    text = rule.serialize()
    assert text == "group=a kind=det t1=1/3\ngroup=b kind=rand t1=0.1 t2=1/1 q=2/7"
    back = DecisionRule.parse(text)
    assert back == rule
    assert isinstance(back.for_group("b").upper, Fraction) and isinstance(back.for_group("b").lower, float)


def test_a_parsed_judge_rule_re_measures_to_zero_gaps():
    # The solved women's policy holds rationals of about 155 digits, which
    # twelve significant digits would round off.
    pop = judge_population(1024)
    rule = solve_equalized_odds(pop, "men", 0.5)
    back = DecisionRule.parse(rule.serialize())
    gap = separation_gap(pop, back)
    assert (gap.fpr_gap, gap.fnr_gap) == (0.0, 0.0)
    assert back == rule


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), threshold=st.floats(0.05, 0.95))
def test_rule_text_round_trip_keeps_exact_confusion_masses(seed, threshold):
    pop = random_calibrated_population(np.random.default_rng(seed), grid=64)
    for solve in (solve_equalized_odds, solve_parity_ratio):
        for reference in pop.labels:
            try:
                rule = solve(pop, reference, threshold)
            except InfeasibleRuleError:
                continue
            back = DecisionRule.parse(rule.serialize())
            for label, csd in pop.groups.items():
                want = ConfusionCounts.of(csd, rule.for_group(label))
                assert ConfusionCounts.of(csd, back.for_group(label)) == want


@pytest.mark.parametrize("label", ["Native American", "a\tb", "trailing\n", "\u00a0"])
def test_serialize_refuses_a_label_that_holds_whitespace(label):
    # Rule lines split on whitespace, so ``parse`` could not read such a line back.
    rule = DecisionRule({"a": DeterministicThreshold(0.25), label: DeterministicThreshold(0.5)})
    with pytest.raises(ValueError) as exc:
        rule.serialize()
    assert str(exc.value) == f"group label {label!r} holds whitespace, which rule text cannot carry"


def test_a_label_with_equals_signs_and_commas_round_trips():
    rule = DecisionRule(
        {
            "a=b,c": DeterministicThreshold(0.5),
            "Asian,Pacific=Islander": RandomizedThreshold(lower=0.25, upper=0.75, mix=0.125),
        }
    )
    text = rule.serialize()
    assert text.splitlines()[0] == "group=a=b,c kind=det t1=0.5"
    back = DecisionRule.parse(text)
    assert back == rule
    assert back.serialize() == text


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
        (good + "group=men kind=det t1=1/0", 2),  # zero denominator
        (good + "group=men kind=det t1=1/-2", 2),  # negative denominator
        (good + "group=men kind=det t1=3/2", 2),  # out of range
        (good + "group=men kind=rand t1=0 t2=1 q=1/2/3", 2),
        (good + "group=men kind=det t1=1/" + "1" * 5000, 2),  # past the int-string digit limit
        (good + "kind=det t1=0.5", 2),  # no group
        ("", 1),
        (" \n\t\n", 1),
        ("group=a kind=det t1=0.5\ngroup=a kind=det t1=0.7", 2),  # repeated group
        (good + "group=men kind=det t1=0.5 t1=0.9", 2),  # repeated key
        (good + "group=men kind=det t1=0.5 extra=1", 2),  # unknown key
        (good + "group=men kind=det t1=0.5 q=0.5", 2),  # a rand key on a det line
        ("\n\ngroup=a kind=maybe t1=0.5", 3),  # numbered by physical line
        (good + "\n  \n" + "group=men kind=det t1=abc", 4),
    ):
        with pytest.raises(ValueError, match=f"^line {line}: "):
            DecisionRule.parse(bad)


@pytest.mark.parametrize(
    "bad, named",
    [
        ("group=men kind=det t1=1/" + "1" * 5000, "t1 '1/1"),  # past the int-string digit limit
        ("group=men kind=det t1=" + "9" * 5000 + "x", "t1 '9"),
        ("group=men kind=det t1=0.5 " + "x" * 5000, "token 'x"),
        ("group=men kind=det t1=0.5 " + "k" * 5000 + "=1", "unknown key 'k"),
        ("group=men kind=det t1=0.5 " + "k" * 5000 + "=1 " + "k" * 5000 + "=2", "key 'k"),
        ("group=men t1=0.5 kind=" + "r" * 5000, "malformed rule line 'group=men"),
        (("group=" + "a" * 5000 + " kind=det t1=0.5\n") * 2, "group 'a"),  # repeated group
    ],
    ids=["long-fraction", "long-number", "long-token", "long-key", "long-repeat", "long-kind", "long-group"],
)
def test_rule_parse_errors_echo_a_bounded_piece_of_the_text(bad, named):
    good = "group=b kind=det t1=0.5\n"
    with pytest.raises(ValueError) as info:
        DecisionRule.parse(good + bad)
    message = str(info.value)
    assert len(message) < 200
    assert message.startswith(f"line {1 + len(bad.splitlines())}: ")
    assert named in message


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
    assert (payoff.u11, payoff.u10, payoff.outside) == (1.0, -1.0, 0.0)


# -- the decision as a two-level score: sufficiency over decided 0 and 1 ------


def test_always_act_leaves_the_decided_0_level_empty():
    pop = calibrated_uniform_pair(1024)
    rule = DecisionRule.shared(0.0, pop.labels)
    c = confusion_tables(pop, rule)["a"]
    assert c.fn == 0 and c.tn == 0
    assert float(c.tp + c.fp) == pytest.approx(1.0, abs=1e-12)
    suff = SufficiencyGaps.of(confusion_tables(pop, rule))
    assert not any(is_defined(r) for r in suff.pos_given_r0.values())
    assert suff.coarsened_sup_gap == suff.gap_r1 == 0.0  # only the decided-1 level counts


def test_calibrated_uniform_at_half_flags_half_at_rate_three_quarters():
    pop = calibrated_uniform_pair(1024)
    rule = DecisionRule.shared(0.5, pop.labels)
    c = confusion_tables(pop, rule)["a"]
    assert float(c.tp + c.fp) == pytest.approx(0.5, abs=1e-12)
    assert SufficiencyGaps.of(confusion_tables(pop, rule)).pos_given_r1["a"] == pytest.approx(0.75, abs=1e-12)


def test_coarsened_calibration_reads_the_sufficiency_gaps():
    """The coarsened sup gap is the larger sufficiency gap, and the l1 gap
    averages the exact level gaps by the pooled mass decided 0 and 1, both
    exact."""
    pop = judge_population(1024)
    rule = solve_equalized_odds(pop, "men", 0.5)
    suff = SufficiencyGaps.of(confusion_tables(pop, rule))
    assert suff.coarsened_sup_gap == suff.max_gap == max(suff.gap_r1, suff.gap_r0)
    tables = confusion_tables(pop, rule).values()
    weight = Fraction(1, 2)  # two groups of equal size
    r0 = [c.fn / (c.fn + c.tn) for c in tables]
    r1 = [c.tp / (c.tp + c.fp) for c in tables]
    m0 = sum(weight * (c.fn + c.tn) for c in tables)
    m1 = sum(weight * (c.tp + c.fp) for c in tables)
    l1 = ((max(r0) - min(r0)) * m0 + (max(r1) - min(r1)) * m1) / (m0 + m1)
    assert type(suff.coarsened_l1_gap) is Fraction and suff.coarsened_l1_gap == l1


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
    assert SufficiencyGaps.of(confusion_tables(pop, rule)).max_gap > 1e-3


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


def _two_class_group(w0, w1) -> ConditionalScoreDensity:
    """Group from nonnegative cell weights of each class, scaled jointly to total mass 1."""
    w0, w1 = np.asarray(w0, dtype=float), np.asarray(w1, dtype=float)
    scale = w0.size / (w0.sum() + w1.sum())
    return ConditionalScoreDensity(f0=ScoreDensity(w0 * scale), f1=ScoreDensity(w1 * scale))


@st.composite
def _axis_targets(draw):
    """A two-class group whose top cells hold one class only, and a target on
    the tpr axis (fpr 0) or the fpr axis (tpr 0): either any rational rate or
    the exact rate of a grid boundary."""
    grid = draw(st.integers(2, 12))
    cells = st.lists(st.integers(0, 5), min_size=grid, max_size=grid)
    w0, w1 = np.array(draw(cells)), np.array(draw(cells))
    pure_from = draw(st.integers(1, grid))
    (w1 if draw(st.booleans()) else w0)[pure_from:] = 0
    assume(w0.sum() > 0 and w1.sum() > 0)
    csd = _two_class_group(w0, w1)
    on_tpr_axis = draw(st.booleans())
    hit = (csd.f1 if on_tpr_axis else csd.f0).boundary_numerators()
    k = draw(st.integers(0, grid))
    rate = draw(st.one_of(st.fractions(0, 1, max_denominator=10**6), st.just(Fraction(hit[k], hit[0]))))
    return csd, on_tpr_axis, rate


@settings(max_examples=300, deadline=None)
@given(instance=_axis_targets())
def test_axis_targets_are_met_exactly_or_unreachable_at_every_boundary(instance):
    """A target on an axis is reachable only by deciding 1 where the other
    class has no mass, so a scan of the grid boundaries is the oracle: the
    target is infeasible exactly when no boundary with none of the other
    class above it keeps at least the target rate of its own class above it."""
    csd, on_tpr_axis, rate = instance
    fpr, tpr = (Fraction(0), rate) if on_tpr_axis else (rate, Fraction(0))
    hit, miss = (csd.f1, csd.f0) if on_tpr_axis else (csd.f0, csd.f1)
    n_hit, n_miss = hit.boundary_numerators(), miss.boundary_numerators()
    reachable = any(m == 0 and Fraction(h, n_hit[0]) >= rate for h, m in zip(n_hit, n_miss))
    try:
        policy = _roc_point_policy(csd, fpr, tpr)
    except InfeasibleRuleError:
        assert not reachable
    else:
        assert reachable
        c = ConfusionCounts.of(csd, policy)
        assert (c.fp / csd.f0.exact_total(), c.tp / csd.f1.exact_total()) == (fpr, tpr)


def _farthest_crossing_policy(csd: ConditionalScoreDensity, fpr_target: Fraction, tpr_target: Fraction):
    """Reference chord walk: collect every crossing of the ROC polyline with
    the ray through the target, then take the one that reaches farthest along
    it (the first one on ties)."""
    grid = csd.grid_size
    n1, d1 = csd.f1.boundary_numerators(), csd.f1.exact_denominator
    n0, d0 = csd.f0.boundary_numerators(), csd.f0.exact_denominator
    p1, p0 = csd.f1.exact_total(), csd.f0.exact_total()
    if p1 == 0 or p0 == 0:
        raise InfeasibleRuleError("group has a degenerate outcome class; rates undefined")
    if fpr_target == 0 and tpr_target == 0:
        return DeterministicThreshold(1.0)
    if fpr_target == 1 and tpr_target == 1:
        return DeterministicThreshold(0.0)
    c1, c0 = fpr_target * p0, tpr_target * p1
    # the mass of f_y above boundary k is n_y[k] / d_y; h[k] has the sign of
    # (fpr, tpr) at boundary k relative to the ray
    h = [Fraction(m1, d1) * c1 - Fraction(m0, d0) * c0 for m1, m0 in zip(n1, n0)]
    candidates = []
    for k in range(grid):
        if h[k] == 0 and (n1[k] > 0 or n0[k] > 0):
            candidates.append((Fraction(k, grid), Fraction(n1[k], d1), Fraction(n0[k], d0)))
        if (h[k] > 0 > h[k + 1]) or (h[k] < 0 < h[k + 1]):
            w1 = Fraction((n1[k] - n1[k + 1]) * grid, d1)
            w0 = Fraction((n0[k] - n0[k + 1]) * grid, d0)
            u = -h[k + 1] / (w1 * c1 - w0 * c0)
            t = Fraction(k + 1, grid) - u
            candidates.append((t, Fraction(n1[k + 1], d1) + w1 * u, Fraction(n0[k + 1], d0) + w0 * u))
    best = None
    for t, mass1, mass0 in candidates:
        lam = mass1 / c0 if c0 else mass0 / c1
        if best is None or lam > best[0]:
            best = (lam, t)
    if best is None or best[0] < 1:
        reach = float(best[0]) if best is not None else 0.0
        raise InfeasibleRuleError(
            f"target (fpr={float(fpr_target):.6g}, tpr={float(tpr_target):.6g}) lies above the "
            f"group's ROC curve (best reach {reach:.6g} of the target along its ray)"
        )
    lam, t = best
    if lam == 1:
        return DeterministicThreshold(t)
    return RandomizedThreshold(lower=t, upper=Fraction(1), mix=1 / lam)


@st.composite
def _chord_targets(draw):
    """A two-class group from small integer cell weights, whose ROC curve is
    in general not concave and can cross a ray several times, and a target:
    any rational point, a point on either axis, or the ROC point of a grid
    boundary scaled by 1/2, 1 or 6/5."""
    grid = draw(st.integers(2, 12))
    cells = st.lists(st.integers(0, 5), min_size=grid, max_size=grid)
    w0, w1 = np.array(draw(cells)), np.array(draw(cells))
    assume(w0.sum() > 0 and w1.sum() > 0)
    csd = _two_class_group(w0, w1)
    rate = st.fractions(0, 1, max_denominator=10**6)
    kind = draw(st.sampled_from(["point", "axis", "boundary"]))
    if kind == "point":
        return csd, draw(rate), draw(rate)
    if kind == "axis":
        return (csd, Fraction(0), draw(rate)) if draw(st.booleans()) else (csd, draw(rate), Fraction(0))
    n1, n0 = csd.f1.boundary_numerators(), csd.f0.boundary_numerators()
    k = draw(st.integers(0, grid))
    scale = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(6, 5)]))
    fpr, tpr = scale * Fraction(n0[k], n0[0]), scale * Fraction(n1[k], n1[0])
    assume(fpr <= 1 and tpr <= 1)
    return csd, fpr, tpr


def _policy_or_error(solve, csd, fpr, tpr) -> str:
    try:
        return repr(solve(csd, fpr, tpr))
    except InfeasibleRuleError as exc:
        return f"InfeasibleRuleError: {exc}"


@settings(max_examples=400, deadline=None)
@given(instance=_chord_targets())
def test_the_first_crossing_is_the_farthest_crossing(instance):
    """The walk stops at its first crossing of the ray; on any ROC curve,
    however often it crosses the ray, that gives the policy or the error of
    the scan over every crossing."""
    csd, fpr, tpr = instance
    assert _policy_or_error(_roc_point_policy, csd, fpr, tpr) == _policy_or_error(
        _farthest_crossing_policy, csd, fpr, tpr
    )


def _plain_walk_policy(csd: ConditionalScoreDensity, fpr_target: Fraction, tpr_target: Fraction):
    """Reference ROC walk: the exact loop over every boundary of the two
    boundary-numerator tuples, with no float pre-scan."""
    grid = csd.grid_size
    n1, d1 = csd.f1.boundary_numerators(), csd.f1.exact_denominator
    n0, d0 = csd.f0.boundary_numerators(), csd.f0.exact_denominator
    p1, p0 = csd.f1.exact_total(), csd.f0.exact_total()
    if p1 == 0 or p0 == 0:
        raise InfeasibleRuleError("group has a degenerate outcome class; rates undefined")
    if fpr_target == 0 and tpr_target == 0:
        return DeterministicThreshold(1.0)
    if fpr_target == 1 and tpr_target == 1:
        return DeterministicThreshold(0.0)
    c1, c0 = fpr_target * p0, tpr_target * p1
    x1 = c1.numerator * c0.denominator * d0
    x0 = c0.numerator * c1.denominator * d1
    for k in range(grid + 1):
        h = n1[k] * x1 - n0[k] * x0
        if h == 0:
            t, mass1, mass0 = Fraction(k, grid), Fraction(n1[k], d1), Fraction(n0[k], d0)
            break
        if k and (h > 0) != (h_prev > 0):
            w1 = Fraction((n1[k - 1] - n1[k]) * grid, d1)
            w0 = Fraction((n0[k - 1] - n0[k]) * grid, d0)
            u = Fraction(-h, d1 * d0 * c1.denominator * c0.denominator) / (w1 * c1 - w0 * c0)
            t, mass1, mass0 = Fraction(k, grid) - u, Fraction(n1[k], d1) + w1 * u, Fraction(n0[k], d0) + w0 * u
            break
        h_prev = h
    lam = mass1 / c0 if c0 else mass0 / c1
    if lam < 1:
        raise InfeasibleRuleError(
            f"target (fpr={float(fpr_target):.6g}, tpr={float(tpr_target):.6g}) lies above the "
            f"group's ROC curve (best reach {float(lam):.6g} of the target along its ray)"
        )
    if lam == 1:
        return DeterministicThreshold(t)
    return RandomizedThreshold(lower=t, upper=Fraction(1), mix=1 / lam)


@st.composite
def _solver_instances(draw):
    """A reference group, another group and a reference threshold on one of
    the grids 1, 2, 777, 1024 and 4096. Each group is calibrated from a
    random marginal or has arbitrary class weights. Weights are random
    mantissas over exponents spread by up to 2000 bits, so that many
    underflow to subnormals or to zero, and in a third of the draws some
    cells are set to small multiples of the least subnormal. The reference
    may have the top cells of one class emptied, so its rates at a threshold
    above them put the target on an axis, and the other group may be a copy
    of it, so the walk meets the target exactly."""
    grid = draw(st.sampled_from([1, 2, 777, 1024, 4096]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([0, 12, 64, 600, 2000]))
    subnormal_share = draw(st.sampled_from([0.0, 0.0, 0.1]))

    def weights():
        w = rng.uniform(0.5, 1.0, grid) * np.exp2(-rng.integers(0, span + 1, grid).astype(float))
        subnormal = rng.random(grid) < subnormal_share
        w[subnormal] = rng.integers(1, 1 << 20, int(subnormal.sum())) * 5e-324
        w[rng.integers(grid)] = rng.uniform(0.5, 1.0)  # keeps the total near 1 or above
        return w

    groups = {}
    for label in ("ref", "other"):
        if grid > 1 and draw(st.booleans()):
            groups[label] = ConditionalScoreDensity.calibrated(ScoreDensity(weights()).normalized())
            continue
        w0, w1 = weights(), weights()
        if label == "ref" and draw(st.booleans()):
            (w0 if draw(st.booleans()) else w1)[draw(st.integers(0, grid)) :] = 0
        scale = grid / (w0.sum() + w1.sum())
        groups[label] = ConditionalScoreDensity(f0=ScoreDensity(w0 * scale), f1=ScoreDensity(w1 * scale))
    if draw(st.integers(0, 3)) == 0:  # the target then lies on the other group's ROC curve
        groups["other"] = groups["ref"]
    threshold = draw(
        st.one_of(
            st.integers(0, grid).map(lambda k: Fraction(k, grid)),
            st.floats(0, 1),
            st.fractions(0, 1, max_denominator=10**6),
        )
    )
    return PopulationModel(groups=groups), threshold


def _outcome(solve) -> str:
    try:
        return repr(solve())
    except (InfeasibleRuleError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _plain_equalized_odds(pop: PopulationModel, reference: str, threshold) -> dict:
    ref = ConfusionCounts.of(pop.group(reference), DeterministicThreshold(threshold))
    if not (is_defined(ref.fpr) and is_defined(ref.fnr)):
        raise ValueError("reference group has a degenerate outcome class; rates undefined")
    policies = {reference: DeterministicThreshold(threshold)}
    for label, csd in pop.groups.items():
        if label != reference:
            try:
                policies[label] = _plain_walk_policy(csd, ref.fpr, 1 - ref.fnr)
            except InfeasibleRuleError as exc:
                raise InfeasibleRuleError(f"group {label!r}: {exc}") from None
    return policies


@settings(max_examples=150, deadline=None)
@given(instance=_solver_instances())
def test_equalized_odds_matches_the_plain_exact_walk(instance):
    """The solver's walk skips the boundaries its float pre-scan settles, on
    every target, axis targets included; on any group, grid and weight
    spread, subnormal cells included, it returns exactly the policies (kind,
    rational thresholds and mix), or the error, of the exact walk over every
    boundary."""
    pop, threshold = instance
    assert _outcome(lambda: solve_equalized_odds(pop, "ref", threshold).policies) == _outcome(
        lambda: _plain_equalized_odds(pop, "ref", threshold)
    )


def _check_pre_scan(csd: ConditionalScoreDensity, fpr: Fraction, tpr: Fraction) -> None:
    """Every boundary the walk's float pre-scan settles below the plan's last
    entry has, exactly, a nonzero h of the sign of h at boundary 0, so the
    walk cannot stop there; and the last entry is G, or a boundary where h is
    exactly 0 or of the other sign, so the walk stops there at the latest."""
    c1, c0 = fpr * csd.f0.exact_total(), tpr * csd.f1.exact_total()
    x1 = c1.numerator * c0.denominator * csd.f0.exact_denominator
    x0 = c0.numerator * c1.denominator * csd.f1.exact_denominator
    h = [a * x1 - b * x0 for a, b in zip(csd.f1.boundary_numerators(), csd.f0.boundary_numerators())]
    visited = _walk_plan(csd, c1, c0, h[0])
    assert visited == sorted(set(visited))
    assert all(type(k) is int for k in visited)
    if h[0] == 0:
        assert visited[0] == 0  # the walk stops at boundary 0
        return
    last = visited[-1]
    assert last == csd.grid_size or h[last] == 0 or (h[last] > 0) != (h[0] > 0)
    settled = set(range(last)) - set(visited)
    assert all(h[k] != 0 and (h[k] > 0) == (h[0] > 0) for k in settled)


@settings(max_examples=150, deadline=None)
@given(instance=_solver_instances())
def test_the_pre_scan_settles_only_boundaries_of_the_first_sign(instance):
    pop, threshold = instance
    ref = ConfusionCounts.of(pop.group("ref"), DeterministicThreshold(threshold))
    csd = pop.group("other")
    assume(is_defined(ref.fpr) and is_defined(ref.fnr) and csd.f0.exact_total() and csd.f1.exact_total())
    fpr, tpr = ref.fpr, 1 - ref.fnr
    for target in ((fpr, tpr), (Fraction(0), tpr), (fpr, Fraction(0))):
        _check_pre_scan(csd, *target)


def test_the_pre_scan_leaves_exact_ties_to_the_exact_walk():
    """A target on a calibrated group's own ROC curve at a boundary makes h
    exactly 0 there, which the float values miss by a rounding in about one
    case in six; the margin leaves every such boundary to the exact walk,
    which stops on it."""
    grid = 777
    marginal = ScoreDensity(np.random.default_rng(5).uniform(0.2, 1.0, grid)).normalized()
    csd = ConditionalScoreDensity.calibrated(marginal)
    n1, n0 = csd.f1.boundary_numerators(), csd.f0.boundary_numerators()
    for k in range(1, grid, 13):
        fpr, tpr = Fraction(n0[k], n0[0]), Fraction(n1[k], n1[0])
        _check_pre_scan(csd, fpr, tpr)
        assert _roc_point_policy(csd, fpr, tpr) == DeterministicThreshold(Fraction(k, grid))


def test_the_pre_scan_leaves_subnormal_ties_to_the_exact_walk():
    """Where one class keeps only subnormal cells above a boundary, a target
    on the group's own ROC curve there has a subnormal rate mass, whose float
    rounding can move a float value off an exact tie by more than the
    relative margin, which underflows to 0; the absolute floor leaves every
    such boundary to the exact walk."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        w0, w1 = rng.uniform(0.5, 2.0, (2, 4))
        top = rng.integers(1, 4)
        (w0 if rng.integers(2) else w1)[top:] = rng.integers(1, 64, 4 - top) * 5e-324
        csd = _two_class_group(w0, w1)
        n1, n0 = csd.f1.boundary_numerators(), csd.f0.boundary_numerators()
        for k in range(1, 4):
            fpr, tpr = Fraction(n0[k], n0[0]), Fraction(n1[k], n1[0])
            _check_pre_scan(csd, fpr, tpr)
            assert _policy_or_error(_roc_point_policy, csd, fpr, tpr) == _policy_or_error(
                _plain_walk_policy, csd, fpr, tpr
            )


def test_the_walk_plan_ends_at_the_first_certain_crossing():
    """Past the first boundary of certain other sign the walk never reads, so
    the plan ends there: against the 0.3 group's rates at t = 0.5, the 0.6
    group at the grid cap settles every boundary below its crossing, and its
    plan is that one boundary."""
    other = ConditionalScoreDensity.from_base_rate(0.6, MAX_GRID)
    rates = ConfusionCounts.of(ConditionalScoreDensity.from_base_rate(0.3, MAX_GRID), DeterministicThreshold(0.5))
    fpr, tpr = rates.fpr, 1 - rates.fnr
    _check_pre_scan(other, fpr, tpr)
    c1, c0 = fpr * other.f0.exact_total(), tpr * other.f1.exact_total()
    h0 = other.f1.exact_total() * c1 - other.f0.exact_total() * c0  # the sign of h[0]
    assert len(_walk_plan(other, c1, c0, h0)) == 1


def test_the_pre_scan_at_the_grid_cap():
    """At the grid cap the summation bound behind the margin is loosest. On a
    calibrated group there, a target strictly inside its ROC and one on each
    axis: the pre-scan settles only boundaries of the first sign, and the
    solver returns what the exact walk over every boundary returns."""
    grid = MAX_GRID
    mids = (np.arange(grid) + 0.5) / grid
    tilted = np.random.default_rng(7).uniform(0.2, 1.0, grid) * (0.2 + mids)
    other = ConditionalScoreDensity.calibrated(ScoreDensity(tilted).normalized())
    ref = ConditionalScoreDensity.calibrated(ScoreDensity(np.exp(-(((mids - 0.5) / 0.1) ** 2))).normalized())
    pop = PopulationModel({"ref": ref, "other": other})
    rule = solve_equalized_odds(pop, "ref", 0.5)
    assert rule.policies == _plain_equalized_odds(pop, "ref", 0.5)
    assert isinstance(rule.for_group("other"), RandomizedThreshold)  # the target lies inside the ROC
    rates = ConfusionCounts.of(ref, DeterministicThreshold(0.5))
    fpr, tpr = rates.fpr, 1 - rates.fnr
    _check_pre_scan(other, fpr, tpr)
    for target in ((Fraction(0), tpr), (fpr, Fraction(0))):
        _check_pre_scan(other, *target)
        assert _policy_or_error(_roc_point_policy, other, *target) == _policy_or_error(
            _plain_walk_policy, other, *target
        )


def test_equalized_odds_with_a_group_that_has_no_outcome_1_mass():
    """A group whose f1 is all zero has no false negative rate: as the
    reference it leaves no target, and as any other group it cannot be
    moved onto one."""
    pop = PopulationModel(
        {"none": _two_class_group(np.ones(8), np.zeros(8)), "uniform": calibrated_uniform_pair(8).group("a")}
    )
    with pytest.raises(ValueError, match="^reference group has a degenerate outcome class; rates undefined$"):
        solve_equalized_odds(pop, "none", 0.5)
    with pytest.raises(InfeasibleRuleError, match="^group 'none': group has a degenerate outcome class"):
        solve_equalized_odds(pop, "uniform", 0.5)


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
    for g, c in confusion_tables(pop, rule).items():
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


@st.composite
def _groups_with_empty_leading_cells(draw):
    grid = draw(st.integers(2, 12))
    cells = st.lists(st.integers(0, 5), min_size=grid, max_size=grid)
    groups = {}
    for label in ("a", "b", "c")[: draw(st.integers(2, 3))]:
        w0, w1 = np.array(draw(cells)), np.array(draw(cells))
        w1[: draw(st.integers(0, grid - 1))] = 0
        assume(w0.sum() + w1.sum() > 0)
        groups[label] = _two_class_group(w0, w1)
    return PopulationModel(groups=groups)


@settings(max_examples=200, deadline=None)
@given(pop=_groups_with_empty_leading_cells(), reference=st.sampled_from("ab"), threshold=UNIT)
def test_parity_declines_the_reference_positive_mass_in_every_group(pop, reference, threshold):
    target = ConfusionCounts.of(pop.group(reference), DeterministicThreshold(threshold)).fn
    if any(csd.f1.exact_total() < target for csd in pop.groups.values()):
        with pytest.raises(InfeasibleRuleError):
            solve_parity_ratio(pop, reference, threshold)
        return
    rule = solve_parity_ratio(pop, reference, threshold)
    for label, csd in pop.groups.items():
        assert ConfusionCounts.of(csd, rule.for_group(label)).fn == target


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
    low = confusion_tables(pop, DecisionRule.shared(t_lo, pop.labels))["a"]
    high = confusion_tables(pop, DecisionRule.shared(t_hi, pop.labels))["a"]
    assert high.fnr >= low.fnr - 1e-12
    assert high.fpr <= low.fpr + 1e-12
