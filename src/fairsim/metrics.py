"""Group fairness metrics over analytic populations and empirical datasets.

Analytic metrics are computed from exact rational confusion masses and
converted to floats only at the reporting boundary; empirical metrics reduce
to exact rational arithmetic on record counts. Conditional probabilities whose
conditioning event has no mass carry the in-band undefined marker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .densities import (
    UNDEFINED,
    AuditDataset,
    PopulationModel,
    cell_index,
    cell_midpoints,
    conditional_rate,
    group_index,
    is_defined,
)
from .rules import DecisionRule, group_confusion_masses


@dataclass(frozen=True)
class ConfusionCounts:
    """Cells of a 2x2 decision-vs-outcome table.

    Cells are exact: integers for empirical data, rationals for analytic
    masses. ``tp`` counts (d=1, y=1), ``fp`` (d=1, y=0), ``fn`` (d=0, y=1),
    ``tn`` (d=0, y=0).
    """

    tp: int | Fraction
    fp: int | Fraction
    fn: int | Fraction
    tn: int | Fraction

    def __post_init__(self):
        if any(c < 0 for c in (self.tp, self.fp, self.fn, self.tn)):
            raise ValueError("confusion cells must be nonnegative")

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn

    def as_floats(self) -> tuple[float, float, float, float]:
        return (float(self.tp), float(self.fp), float(self.fn), float(self.tn))


@dataclass(frozen=True)
class RatePair:
    """False positive and false negative rates; undefined on empty classes."""

    fpr: float
    fnr: float


def _ratio(num, den) -> float:
    if den == 0:
        return UNDEFINED
    return float(Fraction(num) / Fraction(den))


def rates(counts: ConfusionCounts) -> RatePair:
    """fpr = fp/(fp+tn), fnr = fn/(fn+tp), via exact division."""
    return RatePair(
        fpr=_ratio(counts.fp, counts.fp + counts.tn),
        fnr=_ratio(counts.fn, counts.fn + counts.tp),
    )


def false_omission_rate(counts: ConfusionCounts) -> float:
    """P(Y=1 | D=0) = fn/(fn+tn), via exact division."""
    return _ratio(counts.fn, counts.fn + counts.tn)


def tally(data: AuditDataset, cell, cells: int, weights=None) -> np.ndarray:
    """Records, or their ``weights``, summed per group and cell, where ``cell``
    gives each record's cell in ``range(cells)``: one row per label, from one
    ``bincount`` over all records, which adds each cell in record order just
    as a ``bincount`` of one group's records does."""
    return np.bincount(data.codes * cells + cell, weights, len(data.labels) * cells).reshape(-1, cells)


def _confusion_tables(source: PopulationModel | AuditDataset, rule: DecisionRule | None, groups) -> dict:
    """Each named group's ``confusion`` table, checked in the order given. One
    tally of the recorded decisions serves every group; a rule makes one
    tally per mixture position, in which each record meets its own group's
    threshold at that position, and a group sums the tallies of its own
    positions with its policy's weights."""
    if isinstance(source, PopulationModel):
        if rule is None:
            raise ValueError("analytic confusion requires a decision rule")
        return {g: ConfusionCounts(*group_confusion_masses(source.group(g), rule.for_group(g))) for g in groups}

    cell = source.outcome * 3 + 1  # plus the decision, which is -1 where missing
    rows = {g: group_index(source.labels, g) for g in groups}
    if rule is None:  # with no decision column, every decision is missing
        counts = tally(source, cell + (-1 if source.decision is None else source.decision), 6)
        tables = {g: counts[row] for g, row in rows.items()}
    else:
        mixtures = {g: rule.for_group(g).mixture() for g in groups}
        # Row c holds each group's threshold at position c; a group with
        # fewer positions leaves its entry unread.
        thresholds = np.zeros((max(map(len, mixtures.values())), len(source.labels)))
        for g, mixture in mixtures.items():
            thresholds[: len(mixture), rows[g]] = [float(t) for _, t in mixture]
        counts = [tally(source, cell + (source.score > t[source.codes]), 6) for t in thresholds]
        tables = {g: sum(w * counts[c][rows[g]] for c, (w, _) in enumerate(mixture)) for g, mixture in mixtures.items()}
    for g, table in tables.items():
        missing_y0, tn, fp, missing_y1, fn, tp = table.tolist()
        if missing_y0 or missing_y1:
            raise ValueError(f"group {g!r} has records without decisions and no rule was given")
        tables[g] = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
    return tables


def confusion(source: PopulationModel | AuditDataset, rule: DecisionRule | None, group: str) -> ConfusionCounts:
    """Decision-vs-outcome table for one group.

    Analytic sources need a rule and yield exact masses. Empirical sources
    yield exact counts, taken from the recorded decision column when ``rule``
    is None; a randomized rule on a dataset yields expected (fractional)
    counts rather than draws.
    """
    return _confusion_tables(source, rule, [group])[group]


def spread(values) -> float:
    """Largest pairwise |a - b| among the values: undefined if any value is,
    0.0 if there are none.

    It is max - min, the same IEEE subtraction as |a - b| of the extreme
    pair, which no other pair's rounded difference exceeds.
    """
    values = list(values)
    if not all(is_defined(v) for v in values):
        return UNDEFINED
    return max(values) - min(values) if values else 0.0


@dataclass(frozen=True)
class CalibrationReport:
    """Per-level conditional positive rates and their between-group gaps.

    Levels are grid-cell midpoints for analytic sources, bin centers for
    datasets. ``sup_gap`` is the largest per-level pairwise gap; ``l1_gap``
    averages it with ``level_mass``, the pooled mass per level, which for
    datasets is the pooled record count. Levels with no mass (or only one
    group present) are undefined and excluded.
    """

    levels: np.ndarray
    group_rates: dict[str, np.ndarray]
    pooled: np.ndarray
    gap: np.ndarray
    level_mass: np.ndarray
    sup_gap: float
    l1_gap: float

    @property
    def sufficiency_holds(self) -> bool:
        return is_defined(self.sup_gap) and self.sup_gap <= 1e-12


def _summarize_gaps(gap: np.ndarray, mass: np.ndarray) -> tuple[float, float]:
    defined = ~np.isnan(gap)
    if not defined.any():
        return UNDEFINED, UNDEFINED
    sup = float(np.max(gap[defined]))
    wsum = float(np.sum(mass[defined]))
    l1 = float(np.sum(gap[defined] * mass[defined]) / wsum) if wsum > 0 else UNDEFINED
    return sup, l1


def _per_level_max_gap(stack: np.ndarray) -> np.ndarray:
    """Max pairwise |difference| across rows, undefined unless >=2 rows defined."""
    defined = ~np.isnan(stack)
    enough = defined.sum(axis=0) >= 2
    lo = np.nanmin(np.where(defined, stack, np.inf), axis=0)
    hi = np.nanmax(np.where(defined, stack, -np.inf), axis=0)
    return np.where(enough, hi - lo, UNDEFINED)


def _level_tallies(source: PopulationModel | AuditDataset, bins: int) -> tuple:
    """Every group's tallies per score level, one row per label: the levels,
    the outcome-1 mass (density values) or record count, the total, the
    reference rate that a calibrated score shows, each group's weight in a
    pooled tally, and the divisor that turns a total into a level mass.

    Analytic levels are the grid-cell midpoints, each its own reference, and
    groups pool by population weight. Empirical levels are ``bins``
    equal-width bins, whose reference is the mean score in the bin, and
    groups pool by record count.
    """
    if isinstance(source, PopulationModel):
        positive = np.stack([csd.f1.weights for csd in source.groups.values()])
        total = np.stack([csd.f0.weights + csd.f1.weights for csd in source.groups.values()])
        levels = cell_midpoints(source.grid_size)
        weights = source.normalized_weights().values()
        return levels, positive, total, np.tile(levels, (len(total), 1)), weights, source.grid_size
    if bins < 1:
        raise ValueError("bins must be at least 1")
    bin_of = cell_index(source.score, bins)
    counts = tally(source, bin_of * 2 + source.outcome, bins * 2).reshape(-1, bins, 2).astype(float)
    positive, total = counts[:, :, 1], counts.sum(axis=2)
    reference = conditional_rate(tally(source, bin_of, bins, source.score), total)
    return cell_midpoints(bins), positive, total, reference, np.ones(len(total)), 1


def between_group_calibration_gap(
    source: PopulationModel | AuditDataset, bins: int = 10
) -> CalibrationReport:
    """How far conditional positive rates at equal score levels drift apart
    across groups; a zero sup gap over defined levels is group calibration."""
    levels, positive, total, _, weights, divisor = _level_tallies(source, bins)
    if len(total) < 2:
        raise ValueError("calibration gap needs at least 2 groups")
    group_rates = conditional_rate(positive, total)
    pooled_pos = sum(weight * pos for weight, pos in zip(weights, positive))  # row by row, in label order
    pooled_tot = sum(weight * tot for weight, tot in zip(weights, total))
    level_mass = pooled_tot / divisor
    gap = _per_level_max_gap(group_rates)
    sup_gap, l1_gap = _summarize_gaps(gap, level_mass)
    return CalibrationReport(
        levels=levels,
        group_rates=dict(zip(source.labels, group_rates)),
        pooled=conditional_rate(pooled_pos, pooled_tot),
        gap=gap,
        level_mass=level_mass,
        sup_gap=sup_gap,
        l1_gap=l1_gap,
    )


@dataclass(frozen=True)
class WithinGroupCalibration:
    """Per-level |conditional positive rate - score level| for one group."""

    levels: np.ndarray
    observed: np.ndarray
    reference: np.ndarray
    error: np.ndarray
    sup_error: float
    l1_error: float


def within_group_calibration_errors(
    source: PopulationModel | AuditDataset, bins: int = 10
) -> dict[str, WithinGroupCalibration]:
    """Each group's deviation from the classical calibration identity
    (positive rate at score r equals r), keyed by label in label order.
    Empirical levels compare against the mean score within each bin."""
    levels, positive, total, reference, _, divisor = _level_tallies(source, bins)
    observed = conditional_rate(positive, total)
    error = np.abs(observed - reference)
    rows = zip(source.labels, observed, reference, error, total / divisor)
    return {g: WithinGroupCalibration(levels, o, r, e, *_summarize_gaps(e, mass)) for g, o, r, e, mass in rows}


def within_group_calibration_error(
    source: PopulationModel | AuditDataset, group: str, bins: int = 10
) -> WithinGroupCalibration:
    """One group's row of ``within_group_calibration_errors``."""
    reports = within_group_calibration_errors(source, bins)
    group_index(source.labels, group)  # an unknown group's KeyError
    return reports[group]


class _TwoGaps:
    """A criterion measured by the two gaps named in ``_gap_names``: it holds
    when the larger, ``max_gap``, is within a tolerance."""

    @property
    def max_gap(self) -> float:
        gaps = [getattr(self, name) for name in self._gap_names]
        return max(gaps) if all(is_defined(g) for g in gaps) else UNDEFINED

    def holds(self, tol: float = 1e-12) -> bool:
        return is_defined(self.max_gap) and self.max_gap <= tol


@dataclass(frozen=True)
class SeparationGaps(_TwoGaps):
    """Pairwise spread of false positive and false negative rates."""

    _gap_names = ("fpr_gap", "fnr_gap")

    rate_pairs: dict[str, RatePair]
    fpr_gap: float
    fnr_gap: float


def separation_gap(source: PopulationModel | AuditDataset, rule: DecisionRule | None = None) -> SeparationGaps:
    if len(source.labels) < 2:
        raise ValueError("separation gap needs at least 2 groups")
    pairs = {g: rates(c) for g, c in _confusion_tables(source, rule, source.labels).items()}
    return SeparationGaps(
        rate_pairs=pairs,
        fpr_gap=spread(rp.fpr for rp in pairs.values()),
        fnr_gap=spread(rp.fnr for rp in pairs.values()),
    )


@dataclass(frozen=True)
class SufficiencyGaps(_TwoGaps):
    """Pairwise spread of outcome rates conditional on the binary decision."""

    _gap_names = ("gap_r1", "gap_r0")

    pos_given_r1: dict[str, float]
    pos_given_r0: dict[str, float]
    gap_r1: float
    gap_r0: float


def sufficiency_gap_binary(source: PopulationModel | AuditDataset, rule: DecisionRule | None = None) -> SufficiencyGaps:
    if len(source.labels) < 2:
        raise ValueError("sufficiency gap needs at least 2 groups")
    counts = _confusion_tables(source, rule, source.labels)
    pos_r1 = {g: _ratio(c.tp, c.tp + c.fp) for g, c in counts.items()}
    pos_r0 = {g: false_omission_rate(c) for g, c in counts.items()}
    return SufficiencyGaps(
        pos_given_r1=pos_r1,
        pos_given_r0=pos_r0,
        gap_r1=spread(pos_r1.values()),
        gap_r0=spread(pos_r0.values()),
    )


@dataclass(frozen=True)
class ImpossibilityWitness:
    """Measured evidence that rate equality and group calibration of a binary
    output cannot coexist on unequal base rates with an imperfect rule."""

    base_rates: dict[str, float]
    separation: SeparationGaps
    sufficiency: SufficiencyGaps
    predicted_sufficiency_gap: float
    separation_tol: float
    sufficiency_floor: float

    @property
    def separation_holds(self) -> bool:
        return self.separation.holds(self.separation_tol)

    @property
    def sufficiency_violated(self) -> bool:
        g = self.sufficiency.max_gap
        return is_defined(g) and g > self.sufficiency_floor

    @property
    def consistent(self) -> bool:
        """True unless both criteria were observed to hold simultaneously."""
        return self.sufficiency_violated or not self.separation_holds


def impossibility_witness(
    pop: PopulationModel,
    rule: DecisionRule,
    separation_tol: float = 1e-6,
    sufficiency_floor: float = 1e-4,
) -> ImpossibilityWitness:
    """Measure both criteria on a population where they cannot both hold.

    Preconditions (ValueError otherwise): base rates differ by more than 1e-6
    and the rule is imperfect (fpr + fnr > 1e-6 in some group), the regime in
    which the conflict is forced.
    """
    labels = pop.labels
    if len(labels) < 2:
        raise ValueError("witness needs at least 2 groups")
    base = {g: pop.group(g).base_rate for g in labels}
    base_gap = spread(base.values())
    if base_gap <= 1e-6:
        raise ValueError(f"base rates are equal (spread {base_gap:.3g}); the conflict is not forced")

    sep = separation_gap(pop, rule)
    imperfect = False
    for rp in sep.rate_pairs.values():
        if not (is_defined(rp.fpr) and is_defined(rp.fnr)):
            raise ValueError("a group has an empty outcome class; rates undefined")
        if rp.fpr + rp.fnr > 1e-6:
            imperfect = True
    if not imperfect:
        raise ValueError("rule is (near-)perfectly accurate; the conflict is not forced")

    suff = sufficiency_gap_binary(pop, rule)

    # Gap implied by exactly shared rates: what sufficiency would measure if
    # separation held with the mean observed rates.
    fpr = float(np.mean([rp.fpr for rp in sep.rate_pairs.values()]))
    fnr = float(np.mean([rp.fnr for rp in sep.rate_pairs.values()]))
    pred_r1 = {}
    pred_r0 = {}
    for g, b in base.items():
        flag = (1 - fnr) * b + fpr * (1 - b)
        clear = fnr * b + (1 - fpr) * (1 - b)
        pred_r1[g] = (1 - fnr) * b / flag if flag > 0 else UNDEFINED
        pred_r0[g] = fnr * b / clear if clear > 0 else UNDEFINED
    predicted = SufficiencyGaps(pred_r1, pred_r0, spread(pred_r1.values()), spread(pred_r0.values())).max_gap

    return ImpossibilityWitness(
        base_rates=base,
        separation=sep,
        sufficiency=suff,
        predicted_sufficiency_gap=predicted,
        separation_tol=separation_tol,
        sufficiency_floor=sufficiency_floor,
    )
