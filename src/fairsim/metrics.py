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


@dataclass(frozen=True)
class RatePair:
    """False positive and false negative rates; undefined on empty classes."""

    fpr: float
    fnr: float


def _rate(num, den) -> Fraction | None:
    """num / den as an exact rate, or None when the conditioning event is empty."""
    return Fraction(num) / Fraction(den) if den else None


def _float(rate: Fraction | None) -> float:
    """An exact rate correctly rounded, or the undefined marker for None."""
    return UNDEFINED if rate is None else float(rate)


def _gap(rates) -> float:
    """``float(max - min)`` of a collection of exact rates, rounded once: undefined if any is."""
    return UNDEFINED if None in rates else float(max(rates) - min(rates))


def rates(counts: ConfusionCounts) -> RatePair:
    """fpr = fp/(fp+tn), fnr = fn/(fn+tp), via exact division."""
    return RatePair(
        fpr=_float(_rate(counts.fp, counts.fp + counts.tn)),
        fnr=_float(_rate(counts.fn, counts.fn + counts.tp)),
    )


def false_omission_rate(counts: ConfusionCounts) -> float:
    """P(Y=1 | D=0) = fn/(fn+tn), via exact division."""
    return _float(_rate(counts.fn, counts.fn + counts.tn))


def tally(data: AuditDataset, cell, cells: int, weights=None) -> np.ndarray:
    """Records, or their ``weights``, summed per group and cell, where ``cell``
    gives each record's cell in ``range(cells)``: one row per label, from one
    ``bincount`` over all records, which adds each cell in record order just
    as a ``bincount`` of one group's records does."""
    return np.bincount(data.codes * cells + cell, weights, len(data.labels) * cells).reshape(-1, cells)


def _confusion_tables(source: PopulationModel | AuditDataset, rule: DecisionRule | None, groups) -> dict:
    """Each named group's table, checked in the order given. One tally of the
    recorded decisions serves every group; a rule makes one tally per mixture
    position, in which each record meets its own group's threshold at that
    position, and a group sums the tallies of its own positions with its
    policy's weights."""
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


def confusion_tables(source: PopulationModel | AuditDataset, rule: DecisionRule | None = None) -> dict:
    """Every group's decision-vs-outcome ``ConfusionCounts``, keyed by label
    in label order: the one measurement every binary-decision metric reads.

    Analytic sources need a rule and yield exact masses. Empirical sources
    yield exact counts, taken from the recorded decision column when ``rule``
    is None; a randomized rule on a dataset yields expected (fractional)
    counts rather than draws.
    """
    return _confusion_tables(source, rule, source.labels)


def confusion(source: PopulationModel | AuditDataset, rule: DecisionRule | None, group: str) -> ConfusionCounts:
    """The ``confusion_tables`` row of one group, measured alone."""
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


class _TwoGaps:
    """A criterion measured by the two gaps named in ``_gap_names``: it holds
    when the larger, ``max_gap``, is within a tolerance."""

    @property
    def max_gap(self) -> float:
        gaps = [getattr(self, name) for name in self._gap_names]
        return max(gaps) if all(is_defined(g) for g in gaps) else UNDEFINED

    def holds(self, tol: float) -> bool:
        return is_defined(self.max_gap) and self.max_gap <= tol


@dataclass(frozen=True)
class SeparationGaps(_TwoGaps):
    """Pairwise spread of false positive and false negative rates."""

    _gap_names = ("fpr_gap", "fnr_gap")

    rate_pairs: dict[str, RatePair]
    fpr_gap: float
    fnr_gap: float

    @classmethod
    def of(cls, tables: dict[str, ConfusionCounts]) -> "SeparationGaps":
        """The view of ``confusion_tables``: exact rates, each gap rounded once."""
        if len(tables) < 2:
            raise ValueError("separation gap needs at least 2 groups")
        fpr = {g: _rate(c.fp, c.fp + c.tn) for g, c in tables.items()}
        fnr = {g: _rate(c.fn, c.fn + c.tp) for g, c in tables.items()}
        return cls(
            rate_pairs={g: RatePair(_float(fpr[g]), _float(fnr[g])) for g in tables},
            fpr_gap=_gap(fpr.values()),
            fnr_gap=_gap(fnr.values()),
        )


def separation_gap(source: PopulationModel | AuditDataset, rule: DecisionRule | None = None) -> SeparationGaps:
    return SeparationGaps.of(confusion_tables(source, rule))


@dataclass(frozen=True)
class SufficiencyGaps(_TwoGaps):
    """Pairwise spread of outcome rates conditional on the binary decision.
    The same rates read the decision as a score with two levels, decided 0
    and 1, whose coarsened calibration gap ``coarsened_sup_gap`` is the
    largest level gap over the groups defined there (``max_gap`` when every
    rate is defined); ``coarsened_l1_gap`` averages the level gaps by pooled
    mass. A level with fewer than 2 defined groups is left out."""

    _gap_names = ("gap_r1", "gap_r0")

    pos_given_r1: dict[str, float]
    pos_given_r0: dict[str, float]
    gap_r1: float
    gap_r0: float
    coarsened_sup_gap: float
    coarsened_l1_gap: float

    @classmethod
    def of(cls, tables: dict[str, ConfusionCounts], weights: dict[str, float]) -> "SufficiencyGaps":
        """The view of ``confusion_tables``: exact rates, each gap rounded
        once; a group's masses pool with its ``weights`` entry."""
        if len(tables) < 2:
            raise ValueError("sufficiency gap needs at least 2 groups")
        r1 = {g: _rate(c.tp, c.tp + c.fp) for g, c in tables.items()}
        r0 = {g: _rate(c.fn, c.fn + c.tn) for g, c in tables.items()}
        levels = []  # (exact gap, pooled mass) of each level with 2 or more defined groups
        for level, decided in ((r0, lambda c: c.fn + c.tn), (r1, lambda c: c.tp + c.fp)):
            defined = [r for r in level.values() if r is not None]
            if len(defined) >= 2:
                mass = sum(Fraction(weights[g]) * decided(c) for g, c in tables.items())
                levels.append((max(defined) - min(defined), mass))
        return cls(
            pos_given_r1={g: _float(r) for g, r in r1.items()},
            pos_given_r0={g: _float(r) for g, r in r0.items()},
            gap_r1=_gap(r1.values()),
            gap_r0=_gap(r0.values()),
            coarsened_sup_gap=float(max(gap for gap, _ in levels)) if levels else UNDEFINED,
            coarsened_l1_gap=_float(_rate(sum(gap * mass for gap, mass in levels), sum(mass for _, mass in levels))),
        )


def sufficiency_gap_binary(source: PopulationModel | AuditDataset, rule: DecisionRule | None = None) -> SufficiencyGaps:
    weights = source.normalized_weights() if isinstance(source, PopulationModel) else dict.fromkeys(source.labels, 1)
    return SufficiencyGaps.of(confusion_tables(source, rule), weights)


@dataclass(frozen=True)
class ImpossibilityWitness:
    """Measured evidence that rate equality and group calibration of a binary
    output cannot coexist on unequal base rates with an imperfect rule.
    Separation holds within 1e-6; sufficiency is violated by more than 1e-4.
    A ValueError says the conflict is not forced: base rates within 1e-6, an
    undefined rate, or fpr + fnr within 1e-6 in every group."""

    base_rates: dict[str, float]
    separation: SeparationGaps
    sufficiency: SufficiencyGaps

    def __post_init__(self):
        base_gap = spread(self.base_rates.values())
        if base_gap <= 1e-6:
            raise ValueError(f"base rates are equal (spread {base_gap:.3g}); the conflict is not forced")
        if not is_defined(self.separation.max_gap):
            raise ValueError("a group has an empty outcome class; rates undefined")
        if all(rp.fpr + rp.fnr <= 1e-6 for rp in self.separation.rate_pairs.values()):
            raise ValueError("rule is (near-)perfectly accurate; the conflict is not forced")

    @property
    def separation_holds(self) -> bool:
        return self.separation.holds(1e-6)

    @property
    def sufficiency_violated(self) -> bool:
        return self.sufficiency.max_gap > 1e-4  # false when undefined

    @property
    def consistent(self) -> bool:
        """True unless both criteria were observed to hold simultaneously."""
        return self.sufficiency_violated or not self.separation_holds
