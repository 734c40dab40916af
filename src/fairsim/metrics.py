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

from .densities import UNDEFINED, AuditDataset, PopulationModel, cell_index, conditional_rate, is_defined
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


def confusion(source: PopulationModel | AuditDataset, rule: DecisionRule | None, group: str) -> ConfusionCounts:
    """Decision-vs-outcome table for one group.

    Analytic sources need a rule and yield exact masses. Empirical sources
    yield exact counts, taken from the recorded decision column when ``rule``
    is None; a randomized rule on a dataset yields expected (fractional)
    counts rather than draws.
    """
    if isinstance(source, PopulationModel):
        if rule is None:
            raise ValueError("analytic confusion requires a decision rule")
        tp, fp, fn, tn = group_confusion_masses(source.group(group), rule.for_group(group))
        return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)

    mask = source.group_mask(group)
    outcomes = source.outcome[mask]
    if rule is None:
        if source.decision is None or np.any(source.decision[mask] == -1):
            raise ValueError(f"group {group!r} has records without decisions and no rule was given")
        components = [(1, source.decision[mask])]  # recorded decisions: one component of weight 1
    else:
        scores = source.score[mask]
        components = [(w, scores > float(t)) for w, t in rule.for_group(group).mixture()]
    counts = sum(w * np.bincount(outcomes * 2 + decided, minlength=4) for w, decided in components)
    tn, fp, fn, tp = counts.tolist()  # cell outcome * 2 + decision
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


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
    is the same gap averaged with the pooled mass per level. Levels with no
    mass (or only one group present) are undefined and excluded.
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
    gap = np.where(enough, hi - lo, UNDEFINED)
    return gap


def _level_tallies(source: PopulationModel | AuditDataset, group: str, bins: int) -> tuple:
    """One group's tallies per score level: the levels, the outcome-1 mass
    (density values) or record count, the total, the reference rate that a
    calibrated score shows, the group's weight in a pooled tally, and the
    divisor that turns a total into a level mass.

    Analytic levels are the grid-cell midpoints, each its own reference, and
    groups pool by population weight. Empirical levels are ``bins``
    equal-width bins, whose reference is the mean score in the bin, and
    groups pool by record count.
    """
    if isinstance(source, PopulationModel):
        csd = source.group(group)
        levels = csd.f0.midpoints()
        total = csd.f0.weights + csd.f1.weights
        weight = source.normalized_weights()[group]
        return levels, csd.f1.weights, total, levels.copy(), weight, csd.grid_size
    if bins < 1:
        raise ValueError("bins must be at least 1")
    mask = source.group_mask(group)
    scores = source.score[mask]
    bin_of = cell_index(scores, bins)
    total = np.bincount(bin_of, minlength=bins).astype(float)
    positive = np.bincount(bin_of, weights=source.outcome[mask], minlength=bins)
    reference = conditional_rate(np.bincount(bin_of, weights=scores, minlength=bins), total)
    return (np.arange(bins) + 0.5) / bins, positive, total, reference, 1, 1


def between_group_calibration_gap(
    source: PopulationModel | AuditDataset, bins: int = 10
) -> CalibrationReport:
    """How far conditional positive rates at equal score levels drift apart
    across groups; a zero sup gap over defined levels is group calibration."""
    group_rates = {}
    pooled_pos = pooled_tot = 0.0
    for g in source.labels:
        levels, positive, total, _, weight, divisor = _level_tallies(source, g, bins)
        group_rates[g] = conditional_rate(positive, total)
        pooled_pos = pooled_pos + weight * positive
        pooled_tot = pooled_tot + weight * total
    if len(group_rates) < 2:
        raise ValueError("calibration gap needs at least 2 groups")
    level_mass = pooled_tot / divisor
    gap = _per_level_max_gap(np.vstack(list(group_rates.values())))
    sup_gap, l1_gap = _summarize_gaps(gap, level_mass)
    return CalibrationReport(
        levels=levels,
        group_rates=group_rates,
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


def within_group_calibration_error(
    source: PopulationModel | AuditDataset, group: str, bins: int = 10
) -> WithinGroupCalibration:
    """Deviation of the group's score from the classical calibration identity
    (positive rate at score r equals r). Empirical levels compare against the
    mean score within each bin."""
    levels, positive, total, reference, _, divisor = _level_tallies(source, group, bins)
    observed = conditional_rate(positive, total)
    mass = total / divisor
    error = np.abs(observed - reference)
    sup_error, l1_error = _summarize_gaps(error, mass)
    return WithinGroupCalibration(
        levels=levels,
        observed=observed,
        reference=reference,
        error=error,
        sup_error=sup_error,
        l1_error=l1_error,
    )


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
    labels = source.labels
    if len(labels) < 2:
        raise ValueError("separation gap needs at least 2 groups")
    pairs = {g: rates(confusion(source, rule, g)) for g in labels}
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
    labels = source.labels
    if len(labels) < 2:
        raise ValueError("sufficiency gap needs at least 2 groups")
    pos_r1: dict[str, float] = {}
    pos_r0: dict[str, float] = {}
    for g in labels:
        c = confusion(source, rule, g)
        pos_r1[g] = _ratio(c.tp, c.tp + c.fp)
        pos_r0[g] = _ratio(c.fn, c.fn + c.tn)
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
