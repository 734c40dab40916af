import math
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairsim import (
    AuditDataset,
    ConditionalScoreDensity,
    ConfusionCounts,
    DecisionRule,
    ImpossibilityWitness,
    InfeasibleRuleError,
    PopulationModel,
    ScoreDensity,
    ScoreMap,
    SufficiencyGaps,
    UNDEFINED,
    CalibrationReport,
    Verdict,
    apply_score_map,
    confusion_tables,
    is_defined,
    separation_gap,
    solve_equalized_odds,
    solve_parity_ratio,
)
from fairsim import metrics
from fairsim.cli import audit
from fairsim.densities import cell_index, cell_midpoints, conditional_rate, group_index
from fairsim.metrics import (
    _per_level_max_gap,
    _summarize_gaps,
    level_tables,
    spread,
    within,
)
from _helpers import (
    calibrated_uniform_pair,
    judge_population,
    random_calibrated_population,
    random_equalized_odds_instance,
)


def test_confusion_always_act_rule():
    pop = calibrated_uniform_pair(1024)
    c = confusion_tables(pop, DecisionRule.shared(0.0, pop.labels))["a"]
    assert float(c.fp) == pytest.approx(0.5, abs=1e-12)  # whole f0 mass
    assert float(c.fn) == 0.0


def test_confusion_calibrated_uniform_at_half_matches_closed_form():
    pop = calibrated_uniform_pair(1024)
    c = confusion_tables(pop, DecisionRule.shared(0.5, pop.labels))["a"]
    assert float(c.tp) == pytest.approx(0.375, abs=1e-12)
    assert float(c.fp) == pytest.approx(0.125, abs=1e-12)
    assert float(c.total) == pytest.approx(1.0, abs=1e-9)
    assert float(c.fpr) == pytest.approx(0.25, abs=1e-12)
    assert float(c.fnr) == pytest.approx(0.25, abs=1e-12)


def test_confusion_cells_sum_to_group_mass():
    pop = judge_population(512)
    rule = DecisionRule.shared(0.37, pop.labels)
    for g in pop.labels:
        c = confusion_tables(pop, rule)[g]
        assert float(c.total) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0 for v in (c.tp, c.fp, c.fn, c.tn))


def test_confusion_empirical_counts_one_record_per_cell():
    data = AuditDataset(
        group=np.array(["a", "a", "a", "a"]),
        score=np.array([0.9, 0.9, 0.1, 0.1]),
        outcome=np.array([1, 0, 1, 0]),
        decision=np.array([1, 1, 0, 0]),
    )
    c = confusion_tables(data)["a"]
    assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
    assert (c.fpr, c.fnr, c.pos_given_r1, c.pos_given_r0) == (Fraction(1, 2),) * 4


def test_confusion_empirical_requires_recorded_decisions():
    data = AuditDataset(group=np.array(["a"]), score=np.array([0.4]), outcome=np.array([1]))
    with pytest.raises(ValueError, match="^group 'a' has records without decisions$"):
        confusion_tables(data)


def test_confusion_tables_refuses_a_rule_on_a_dataset():
    data = AuditDataset(group=["a", "b"], score=np.array([0.4, 0.6]), outcome=np.array([1, 0]), decision=[1, 0])
    with pytest.raises(ValueError, match="^a dataset is measured on its recorded decisions; it takes no rule$"):
        confusion_tables(data, DecisionRule.shared(0.5, data.labels))


def test_rates_of_perfect_classifier():
    c = ConfusionCounts(tp=3, fp=0, fn=0, tn=7)
    assert (c.fpr, c.fnr, c.pos_given_r1, c.pos_given_r0) == (0, 0, 1, 0)


def test_rates_undefined_on_empty_classes():
    c = ConfusionCounts(tp=0, fp=2, fn=0, tn=3)
    assert not is_defined(c.fnr)
    assert c.fpr == Fraction(2, 5)


@given(
    tp=st.integers(0, 50), fp=st.integers(0, 50), fn=st.integers(0, 50), tn=st.integers(0, 50)
)
def test_rates_equal_exact_rational_arithmetic(tp, fp, fn, tn):
    c = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
    ratios = {"fpr": (fp, fp + tn), "fnr": (fn, fn + tp), "pos_given_r1": (tp, tp + fp), "pos_given_r0": (fn, fn + tn)}
    for name, (num, den) in ratios.items():
        rate = getattr(c, name)
        if den:
            assert type(rate) is Fraction and rate == Fraction(num, den)
        else:
            assert not is_defined(rate)


# -- calibration reports ----------------------------------------------------------


def test_identical_groups_have_zero_calibration_gap():
    report = CalibrationReport.of(level_tables(calibrated_uniform_pair(1024)))
    assert report.sup_gap <= 1e-12


def test_flipped_group_blows_up_the_calibration_gap():
    pop = apply_score_map(
        calibrated_uniform_pair(1024), "a", ScoreMap.from_callable(lambda p: 1.0 - p, 1024)
    )
    report = CalibrationReport.of(level_tables(pop))
    assert report.sup_gap > 0.95


def test_equalized_odds_on_unequal_base_rates_breaks_output_calibration():
    pop = judge_population(1024)
    rule = solve_equalized_odds(pop, "men", 0.5)
    assert SufficiencyGaps.of(confusion_tables(pop, rule)).coarsened_sup_gap > 1e-3


def test_within_group_error_of_calibrated_group_vanishes():
    report = CalibrationReport.of(level_tables(calibrated_uniform_pair(1024)))
    assert report.sup_error["a"] <= 1.0 / 1024


def narrative_dataset():
    # 100 records at score 0.8: 81 men of whom 80 positive, 19 women all negative,
    # so the pooled rate at 0.8 stays exactly 0.8 while the men's rate is 80/81.
    groups = ["men"] * 81 + ["women"] * 19
    outcomes = [1] * 80 + [0] + [0] * 19
    return AuditDataset(
        group=np.array(groups, dtype=object),
        score=np.full(100, 0.8),
        outcome=np.array(outcomes),
    )


def test_skewed_bin_composition_breaks_within_group_calibration():
    data = narrative_dataset()
    report = CalibrationReport.of(level_tables(data, bins=10))
    expected = float(Fraction(80, 81) - Fraction(4, 5))
    bin8 = int(np.argmax(~np.isnan(report.group_rates["men"])))
    assert report.levels[bin8] == pytest.approx(0.85)
    assert report.sup_error["men"] == pytest.approx(expected, abs=1e-12)


def test_skewed_bin_composition_keeps_pooled_calibration():
    data = narrative_dataset()
    tables = level_tables(data, bins=10)
    pooled = conditional_rate(tables.positive.sum(axis=0), tables.total.sum(axis=0))
    occupied = ~np.isnan(pooled)
    assert pooled[occupied][0] == pytest.approx(0.8, abs=1e-12)
    assert CalibrationReport.of(tables).sup_gap == pytest.approx(80 / 81, abs=1e-12)  # the one occupied level


def test_constant_score_at_matching_base_rate_is_calibrated():
    data = AuditDataset(
        group=np.array(["a"] * 4, dtype=object),
        score=np.full(4, 0.5),
        outcome=np.array([1, 0, 1, 0]),
    )
    report = CalibrationReport.of(level_tables(data, bins=10))
    assert report.sup_error["a"] == 0.0


def test_one_group_has_within_group_errors_and_no_calibration_gap():
    # no level has 2 groups with mass, so both gaps are undefined; the group's own errors are not
    data = AuditDataset(group=np.array(["a"]), score=np.array([0.5]), outcome=np.array([1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = CalibrationReport.of(level_tables(data))
    assert not is_defined(report.sup_gap) and not is_defined(report.l1_gap)
    assert report.sup_error == report.l1_error == {"a": 0.5}


# -- one tally per dataset: the per-group masked counts are the oracle ---------------

TALLY_LABELS = ("a", "b, c", "d e", "f")
#: Scores on bin edges at the bin counts drawn below, or anywhere in [0, 1].
TALLY_SCORES = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.1, 0.5, 0.7, 1.0, 3 / 7, 10 / 37]))


@st.composite
def _tally_datasets(draw):
    """Up to four groups, some of one record; decisions recorded, absent, or
    missing for some records of some groups only."""
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(TALLY_LABELS), TALLY_SCORES, st.integers(0, 1), st.integers(0, 1), st.booleans()),
            min_size=1,
            max_size=30,
        )
    )
    undecided = draw(st.sets(st.sampled_from(TALLY_LABELS), max_size=2))
    decision = [-1 if g in undecided and drop else d for g, _, _, d, drop in rows]
    return AuditDataset(
        group=[r[0] for r in rows],
        score=np.array([r[1] for r in rows]),
        outcome=np.array([r[2] for r in rows]),
        decision=decision if draw(st.booleans()) else None,
    )


def _masked_confusion(data, group):
    mask = data.codes == group_index(data.labels, group)
    if np.any(data.decision[mask] == -1):
        raise ValueError(f"group {group!r} has records without decisions")
    tn, fp, fn, tp = np.bincount(data.outcome[mask] * 2 + data.decision[mask], minlength=4).tolist()
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def _masked_level_tallies(data, group, bins):
    mask = data.codes == group_index(data.labels, group)
    bin_of = cell_index(data.score[mask], bins)
    total = np.bincount(bin_of, minlength=bins).astype(float)
    positive = np.bincount(bin_of, weights=data.outcome[mask], minlength=bins)
    reference = conditional_rate(np.bincount(bin_of, weights=data.score[mask], minlength=bins), total)
    return positive, total, reference


def _result(f, *args):
    """What a call gives: its value, or the type and text of its error."""
    try:
        return f(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


def _bits(*values):
    """Values as comparable bytes: NaN matches NaN, -0.0 does not match 0.0."""
    return [(np.asarray(v).dtype, np.asarray(v).tobytes()) for v in values]


def _exact(*values):
    """Values as comparable exact keys: a ``Fraction`` matches only an equal
    ``Fraction``, and the undefined marker only itself."""
    return [(type(v), v) if is_defined(v) else "undefined" for v in values]


def _exact_gap(ratios):
    """max - min of the exact rates num/den: undefined if any den is 0."""
    if any(den == 0 for _, den in ratios):
        return UNDEFINED
    exact = [Fraction(num) / Fraction(den) for num, den in ratios]
    return max(exact) - min(exact)


def _assert_gaps_round_once(sep, suff, tables):
    """Each separation, sufficiency and coarsened gap is the exact
    ``max - min`` of the exact rates of the oracle ``tables``, left for the
    report to round once; the coarsened gaps leave out a level with fewer
    than 2 defined groups, and the l1 gap weights the levels by the mass
    decided 0 and 1, summed over the groups."""
    fpr = [(c.fp, c.fp + c.tn) for c in tables]
    fnr = [(c.fn, c.fn + c.tp) for c in tables]
    r1 = [(c.tp, c.tp + c.fp) for c in tables]
    r0 = [(c.fn, c.fn + c.tn) for c in tables]
    got = (sep.fpr_gap, sep.fnr_gap, suff.gap_r1, suff.gap_r0)
    assert _exact(*got) == _exact(*map(_exact_gap, (fpr, fnr, r1, r0)))
    gaps, masses = [], []
    for level in (r0, r1):
        defined = [Fraction(num) / Fraction(den) for num, den in level if den]
        if len(defined) >= 2:
            gaps.append(max(defined) - min(defined))
            masses.append(sum(den for _, den in level))
    sup = max(gaps) if gaps else UNDEFINED
    l1 = sum(g * m for g, m in zip(gaps, masses)) / sum(masses) if gaps and sum(masses) else UNDEFINED
    assert _exact(suff.coarsened_sup_gap, suff.coarsened_l1_gap) == _exact(sup, l1)
    if is_defined(suff.max_gap):  # every group is defined at both levels
        assert _exact(suff.coarsened_sup_gap) == _exact(suff.max_gap)


def _assert_rates_read_the_properties(sep, suff, tables):
    """Every per-group rate of the views is the matching exact
    ``ConfusionCounts`` property of the oracle ``tables``, keyed in their order."""
    views = {"fpr": sep.fpr, "fnr": sep.fnr, "pos_given_r1": suff.pos_given_r1, "pos_given_r0": suff.pos_given_r0}
    for name, view in views.items():
        assert list(view) == list(tables)
        assert _exact(*view.values()) == _exact(*(getattr(c, name) for c in tables.values()))


def _cells(counts):
    return counts if isinstance(counts, tuple) else [(type(c), c) for c in (counts.tp, counts.fp, counts.fn, counts.tn)]


@settings(max_examples=100, deadline=None)
@given(data=_tally_datasets(), bins=st.sampled_from([1, 2, 7, 10, 37]), tile=st.integers(1, 4))
def test_counts_tallied_tile_by_tile_are_the_one_tile_counts(data, bins, tile):
    # Scores are summed in one pass in record order whatever the tile.
    def tables():
        levels = level_tables(data, bins)
        return _result(confusion_tables, data), _bits(levels.positive, levels.total, levels.reference)

    whole = tables()
    with mock.patch.object(metrics, "_TALLY_TILE", tile):
        assert tables() == whole


@settings(max_examples=300, deadline=None)
@given(data=_tally_datasets(), bins=st.sampled_from([1, 2, 7, 10, 37]))
def test_the_all_group_tally_matches_per_group_masks_bit_for_bit(data, bins):
    # every group's table, or the first error of the per-group masked tables
    tables = [_result(_masked_confusion, data, g) for g in data.labels]
    first_error = next((t for t in tables if isinstance(t, tuple)), None)
    got = _result(confusion_tables, data)
    if first_error is not None:
        assert got == first_error
    else:
        assert list(got) == list(data.labels)
        assert [_cells(c) for c in got.values()] == [_cells(c) for c in tables]

    by_level = level_tables(data, bins)  # each group's base rate, from its level counts
    masks = [data.codes == group_index(data.labels, g) for g in data.labels]
    base_rates = [np.count_nonzero(data.outcome[mask]) / np.count_nonzero(mask) for mask in masks]
    assert _bits(by_level.positive.sum(axis=1) / by_level.total.sum(axis=1)) == _bits(np.array(base_rates))

    got = CalibrationReport.of(level_tables(data, bins=bins))
    group_rates, references, sup_error, l1_error, pooled_tot = {}, [], {}, {}, 0.0
    for g in data.labels:
        positive, total, reference = _masked_level_tallies(data, g, bins)
        group_rates[g] = conditional_rate(positive, total)
        references.append(reference)
        sup_error[g], l1_error[g] = _summarize_gaps(np.abs(group_rates[g] - reference), total)
        pooled_tot = pooled_tot + total
    assert _bits(*by_level.reference) == _bits(*references)
    assert _bits(got.levels) == _bits(cell_midpoints(bins))
    assert list(got.group_rates) == list(got.sup_error) == list(got.l1_error) == list(data.labels)
    assert _bits(*got.group_rates.values()) == _bits(*group_rates.values())
    assert _bits(*got.sup_error.values(), *got.l1_error.values()) == _bits(*sup_error.values(), *l1_error.values())
    gap = _per_level_max_gap(np.vstack(list(group_rates.values())))  # undefined everywhere for one group
    assert _bits(got.sup_gap, got.l1_gap) == _bits(*_summarize_gaps(gap, pooled_tot))
    if len(data.labels) < 2:
        return  # the views below and audit need 2 groups

    # separation and sufficiency from the per-group masked tables, or their first error
    sep = _result(separation_gap, data)
    suff = _result(lambda: SufficiencyGaps.of(confusion_tables(data)))
    if first_error is not None:
        assert sep == suff == first_error
    else:
        _assert_rates_read_the_properties(sep, suff, dict(zip(data.labels, tables)))
        _assert_gaps_round_once(sep, suff, tables)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        data.to_csv(path)
        base = audit(str(path), bins=bins)["base_rate"]
    want = {g: Fraction(np.count_nonzero(data.outcome[m]), np.count_nonzero(m)) for g, m in zip(data.labels, masks)}
    assert list(base) == list(want)
    assert _exact(*base.values()) == _exact(*want.values())


# -- separation and sufficiency -----------------------------------------------------


def test_identical_groups_share_rates():
    pop = calibrated_uniform_pair(1024)
    sep = separation_gap(pop, DecisionRule.shared(0.5, pop.labels))
    assert sep.fpr_gap == 0.0 and sep.fnr_gap == 0.0
    suff = SufficiencyGaps.of(confusion_tables(pop, DecisionRule.shared(0.5, pop.labels)))
    assert suff.max_gap == 0.0


def test_shared_threshold_on_unequal_base_rates_separates_rates():
    pop = judge_population(1024)
    sep = separation_gap(pop, DecisionRule.shared(0.5, pop.labels))
    assert sep.max_gap > 0.01


def test_solver_output_remeasures_to_zero_gaps():
    pop = judge_population(1024)
    sep = separation_gap(pop, solve_equalized_odds(pop, "men", 0.5))
    assert sep.max_gap <= 1e-6


def test_perfect_predictor_keeps_sufficiency():
    w = np.zeros(16)
    w[:8] = 1.0
    f0 = ScoreDensity(w * 0.5 / (w.sum() / 16))
    w1 = np.zeros(16)
    w1[8:] = 1.0
    f1 = ScoreDensity(w1 * 0.5 / (w1.sum() / 16))
    csd = ConditionalScoreDensity(f0=f0, f1=f1)
    pop = PopulationModel(groups={"a": csd, "b": csd})
    suff = SufficiencyGaps.of(confusion_tables(pop, DecisionRule.shared(0.5, pop.labels)))
    assert suff.pos_given_r1["a"] == 1.0
    assert suff.max_gap == 0.0


def test_undefined_rates_propagate_to_gaps():
    csd = ConditionalScoreDensity(f0=ScoreDensity.uniform(16), f1=ScoreDensity(np.zeros(16)))
    pop = PopulationModel(groups={"a": csd, "b": csd})
    sep = separation_gap(pop, DecisionRule.shared(0.5, pop.labels))
    assert not is_defined(sep.fnr_gap)
    assert not is_defined(sep.max_gap)


@given(
    values=st.lists(
        st.one_of(st.floats(-1e300, 1e300), st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324])),
        max_size=8,
    ),
    undefined_at=st.none() | st.integers(0, 7),
)
def test_spread_is_the_largest_pairwise_gap_bit_for_bit(values, undefined_at):
    exact = [Fraction(v) for v in values]
    if undefined_at is not None and values:
        values[undefined_at % len(values)] = exact[undefined_at % len(values)] = UNDEFINED
        assert not is_defined(spread(values))
        assert not is_defined(spread(exact))
        return
    pairwise = max((abs(a - b) for a in values for b in values), default=0.0)
    assert spread(values).hex() == pairwise.hex()
    # exact rates take the same gap rule, exactly, and round to the same bits
    assert _exact(spread(exact)) == _exact(max((abs(a - b) for a in exact for b in exact), default=0.0))
    assert float(spread(exact)).hex() == pairwise.hex()


@pytest.mark.parametrize(
    "gap, tol, holds",
    [
        (UNDEFINED, 1.0, False),
        (UNDEFINED, math.inf, False),
        (1e-6, 1e-6, True),
        (Fraction(1, 3), Fraction(1, 3), True),
        (0.0, 0.0, True),
        (-0.0, 0.0, True),
        (5e-324, 0.0, False),
        (0.5, 0.25, False),
    ],
)
def test_within_is_the_one_holds_rule(gap, tol, holds):
    """A gap holds when it is defined and at most the tolerance; a verdict
    built by the rule carries the gap and the tolerance it was judged by."""
    assert within(gap, tol) is holds
    assert Verdict.within(gap, tol) == Verdict(holds, gap, tol)


# -- every gap is the exact spread of exact rates, rounded only when printed ---------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    groups=st.sampled_from([2, 3]),
    grid=st.sampled_from([16, 100, 128, 1000]),
    kind=st.sampled_from(["equalized-odds", "parity-ratio", "shared"]),
    t_ref=st.floats(0.2, 0.8),
)
def test_population_gaps_are_exact_spreads_rounded_once(seed, groups, grid, kind, t_ref):
    rng = np.random.default_rng(seed)
    mids = cell_midpoints(grid)
    labels = ["a", "b", "c"][:groups]
    marginals = {g: rng.uniform(0.2, 1.0, grid) * (1.0 + rng.uniform(-1.6, 1.6) * (mids - 0.5)) for g in labels}
    pop = PopulationModel(
        groups={g: ConditionalScoreDensity.calibrated(ScoreDensity(w).normalized()) for g, w in marginals.items()},
    )
    rule = DecisionRule.shared(t_ref, labels)
    if kind != "shared":
        solve = solve_equalized_odds if kind == "equalized-odds" else solve_parity_ratio
        try:
            rule = solve(pop, "a", t_ref)
        except InfeasibleRuleError:
            pass
    tables = [ConfusionCounts.of(pop.group(g), rule.for_group(g)) for g in labels]
    sep, suff = separation_gap(pop, rule), SufficiencyGaps.of(confusion_tables(pop, rule))
    _assert_rates_read_the_properties(sep, suff, dict(zip(labels, tables)))
    _assert_gaps_round_once(sep, suff, tables)


def _witness(pop, rule):
    """The witness of the rule on the population, built from its gaps."""
    base = {g: pop.group(g).f1.total_mass() for g in pop.labels}
    return ImpossibilityWitness(base, separation_gap(pop, rule), SufficiencyGaps.of(confusion_tables(pop, rule)))


def test_witness_rejects_equal_base_rates():
    pop = calibrated_uniform_pair(1024)
    with pytest.raises(ValueError, match="base rates"):
        _witness(pop, DecisionRule.shared(0.5, pop.labels))


def test_witness_rejects_perfect_rules():
    w0 = np.zeros(16)
    w0[:8] = 1.0
    w1 = np.zeros(16)
    w1[8:] = 1.0
    a = ConditionalScoreDensity(
        f0=ScoreDensity(w0 * 0.7 * 2), f1=ScoreDensity(w1 * 0.3 * 2)
    )
    b = ConditionalScoreDensity(
        f0=ScoreDensity(w0 * 0.4 * 2), f1=ScoreDensity(w1 * 0.6 * 2)
    )
    pop = PopulationModel(groups={"a": a, "b": b})
    with pytest.raises(ValueError, match="accurate"):
        _witness(pop, DecisionRule.shared(0.5, pop.labels))


def test_witness_on_the_equalized_odds_construction():
    pop = judge_population(1024)
    rule = solve_equalized_odds(pop, "men", 0.5)
    witness = _witness(pop, rule)
    assert witness.separation_holds
    assert witness.sufficiency_violated
    assert witness.consistent
    # Error rates shared by every group fix each group's P(Y=1 | D=1) and
    # P(Y=1 | D=0) by its base rate alone; the sufficiency gap is their spread.
    fpr = np.mean(list(witness.separation.fpr.values()))
    fnr = np.mean(list(witness.separation.fnr.values()))
    flagged = [(1 - fnr) * b / ((1 - fnr) * b + fpr * (1 - b)) for b in witness.base_rates.values()]
    cleared = [fnr * b / (fnr * b + (1 - fpr) * (1 - b)) for b in witness.base_rates.values()]
    predicted = max(spread(flagged), spread(cleared))
    assert witness.sufficiency.max_gap == pytest.approx(predicted, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_witness_never_sees_both_criteria_hold(seed):
    rng = np.random.default_rng(seed)
    pop, rule = random_equalized_odds_instance(rng, grid=128)
    witness = _witness(pop, rule)
    assert witness.separation_holds
    assert witness.sufficiency.max_gap >= 1e-4
    assert witness.consistent


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), t_ref=st.floats(0.2, 0.8), reference=st.sampled_from(["a", "b"]))
def test_sufficiency_matches_chouldechova_identity(seed, t_ref, reference):
    """Per group FPR = p/(1-p) * (1-PPV)/PPV * (1-FNR) (Chouldechova,
    arXiv:1703.00056), so the base rate and separation_gap's rates predict
    the PPV that SufficiencyGaps reports."""
    pop = random_calibrated_population(np.random.default_rng(seed), grid=128)
    try:
        rule = solve_equalized_odds(pop, reference, t_ref)
    except InfeasibleRuleError:
        rule = solve_parity_ratio(pop, reference, t_ref)
    sep = separation_gap(pop, rule)
    suff = SufficiencyGaps.of(confusion_tables(pop, rule))
    for g in pop.labels:
        p = pop.group(g).f1.total_mass()
        ppv = suff.pos_given_r1[g]
        fnr = sep.fnr[g]
        assert sep.fpr[g] == pytest.approx(p / (1 - p) * (1 - ppv) / ppv * (1 - fnr), rel=1e-9)
