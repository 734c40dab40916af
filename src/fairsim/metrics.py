"""Group fairness metrics over analytic populations and empirical datasets.

Binary-decision metrics are exact: rational confusion masses of a population,
or record counts of a dataset, give ``Fraction`` rates and gaps, which only
``reports.format_value`` rounds. Calibration metrics are float views over
per-level float rates. Conditional probabilities whose conditioning event has
no mass carry the in-band undefined marker.
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
    is_defined,
)
from .rules import ConfusionCounts, DecisionRule


#: Records per tile of a count ``tally``, whose keys are made a tile at a time.
_TALLY_TILE = 1 << 16


def tally(data: AuditDataset, cell, cells: int, weights=None) -> np.ndarray:
    """Records, or their ``weights``, summed per group and cell, where ``cell``
    gives each record's cell in ``range(cells)``: one row per label. Counts
    are summed tile by tile, as integer sums do not depend on order. Weights
    are summed by one ``bincount`` over all records, which adds each cell in
    record order just as a ``bincount`` of one group's records does."""
    size = len(data.labels) * cells
    if weights is not None:
        return np.bincount(_keys(data.codes, cell, cells), weights, size).reshape(-1, cells)
    counts = np.zeros(size, np.intp)
    for start in range(0, len(data.codes), _TALLY_TILE):
        part = slice(start, start + _TALLY_TILE)
        counts += np.bincount(_keys(data.codes[part], cell[part], cells), minlength=size)
    return counts.reshape(-1, cells)


def _keys(codes: np.ndarray, cell: np.ndarray, cells: int) -> np.ndarray:
    """Each record's ``codes * cells + cell``, made in place in the one
    array that ``bincount`` reads as it is."""
    keys = np.multiply(codes, cells, dtype=np.intp)
    keys += cell
    return keys


def confusion_tables(source: PopulationModel | AuditDataset, rule: DecisionRule | None = None) -> dict:
    """Every group's decision-vs-outcome ``ConfusionCounts``, keyed by label
    in label order: the one measurement every binary-decision metric reads.

    Analytic sources need a rule and yield exact masses. Empirical sources
    take no rule: they yield exact counts from one tally of the recorded
    decision column.
    """
    if isinstance(source, PopulationModel):
        if rule is None:
            raise ValueError("analytic confusion requires a decision rule")
        return {g: ConfusionCounts.of(csd, rule.for_group(g)) for g, csd in source.groups.items()}
    if rule is not None:
        raise ValueError("a dataset is measured on its recorded decisions; it takes no rule")

    counts = tally(source, source.outcome * 3 + 1 + source.decision, 6)  # a missing decision is -1
    tables = {}
    for g, table in zip(source.labels, counts):
        missing_y0, tn, fp, missing_y1, fn, tp = table.tolist()
        if missing_y0 or missing_y1:
            raise ValueError(f"group {g!r} has records without decisions")
        tables[g] = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
    return tables


def spread(values) -> Fraction | float:
    """Largest pairwise |a - b| among the values, floats or exact rates, as
    ``max - min``: undefined if any value is, 0.0 if there are none.

    Exact rates give the exact gap. For floats, the IEEE subtraction
    max - min is the exact difference rounded once, and it is |a - b| of the
    extreme pair, which no other pair's rounded difference exceeds.
    """
    values = list(values)
    if not all(is_defined(v) for v in values):
        return UNDEFINED
    return max(values) - min(values) if values else 0.0


def within(gap, tol: float) -> bool:
    """The one holds rule: the gap is defined and at most ``tol``."""
    return is_defined(gap) and gap <= tol


@dataclass(frozen=True)
class CalibrationReport:
    """Every group's conditional positive rate at the ``level_tables``
    levels, and both calibrations read off it. Between groups, ``sup_gap``
    is the largest per-level pairwise gap and ``l1_gap`` their mean by pooled
    mass (for datasets, record count); a level where fewer than 2 groups
    have mass is left out, so with one group both gaps are undefined. Within
    each group, keyed by label, ``sup_error`` is the largest |rate - reference|
    and ``l1_error`` its mean weighted by the group's mass per level."""

    levels: np.ndarray
    group_rates: dict[str, np.ndarray]
    sup_gap: float
    l1_gap: float
    sup_error: dict[str, float]
    l1_error: dict[str, float]

    @classmethod
    def of(cls, tables: LevelTables) -> "CalibrationReport":
        """The one calibration view of ``level_tables``."""
        rates = conditional_rate(tables.positive, tables.total)
        sup_error, l1_error = {}, {}
        for g, rate, reference, total in zip(tables.labels, rates, tables.reference, tables.total):
            sup_error[g], l1_error[g] = _summarize_gaps(np.abs(rate - reference), total / tables.divisor)
        gaps = _summarize_gaps(_per_level_max_gap(rates), tables.total.sum(axis=0) / tables.divisor)
        return cls(tables.levels, dict(zip(tables.labels, rates)), *gaps, sup_error, l1_error)


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


@dataclass(frozen=True)
class LevelTables:
    """Every group's tallies per score level, one row per label in label
    order: the outcome-1 mass (density values) or record count, the total,
    and the rate a calibrated score shows. Groups pool by plain row sums,
    and a total over ``divisor`` is a level mass."""

    labels: tuple[str, ...]
    levels: np.ndarray
    positive: np.ndarray
    total: np.ndarray
    reference: np.ndarray
    divisor: int


def level_tables(source: PopulationModel | AuditDataset, bins: int = 10) -> LevelTables:
    """The one measurement of score levels, which every calibration metric
    reads. Analytic levels are the grid-cell midpoints, each its own
    reference; the k groups are of equal size, so a pooled total over G*k
    is a mass. ``bins`` applies only to datasets: their levels are ``bins``
    equal-width bins, whose reference is the mean score in the bin, and a
    pooled total is a record count."""
    if isinstance(source, PopulationModel):
        positive = np.stack([csd.f1.weights for csd in source.groups.values()])
        total = np.stack([csd.f0.weights + csd.f1.weights for csd in source.groups.values()])
        levels = cell_midpoints(source.grid_size)
        return LevelTables(source.labels, levels, positive, total, np.tile(levels, (len(total), 1)), len(levels) * len(total))
    if bins < 1:
        raise ValueError("bins must be at least 1")
    bin_of = cell_index(source.score, bins)
    counts = tally(source, bin_of * 2 + source.outcome, bins * 2).reshape(-1, bins, 2).astype(float)
    total = counts.sum(axis=2)
    reference = conditional_rate(tally(source, bin_of, bins, source.score), total)
    return LevelTables(source.labels, cell_midpoints(bins), counts[:, :, 1], total, reference, 1)


class _TwoGaps:
    """A criterion measured by the two gaps named in ``_gap_names``: it holds
    when the larger, ``max_gap``, is ``within`` a tolerance."""

    @property
    def max_gap(self) -> Fraction | float:
        gaps = [getattr(self, name) for name in self._gap_names]
        return max(gaps) if all(is_defined(g) for g in gaps) else UNDEFINED


@dataclass(frozen=True)
class SeparationGaps(_TwoGaps):
    """Per-group false positive and false negative rates, and their
    pairwise spreads, all exact."""

    _gap_names = ("fpr_gap", "fnr_gap")

    fpr: dict[str, Fraction | float]
    fnr: dict[str, Fraction | float]
    fpr_gap: Fraction | float
    fnr_gap: Fraction | float

    @classmethod
    def of(cls, tables: dict[str, ConfusionCounts]) -> "SeparationGaps":
        """The view of ``confusion_tables``: its exact rates and their spreads."""
        if len(tables) < 2:
            raise ValueError("separation gap needs at least 2 groups")
        fpr = {g: c.fpr for g, c in tables.items()}
        fnr = {g: c.fnr for g, c in tables.items()}
        return cls(fpr, fnr, spread(fpr.values()), spread(fnr.values()))


def separation_gap(source: PopulationModel | AuditDataset, rule: DecisionRule | None = None) -> SeparationGaps:
    return SeparationGaps.of(confusion_tables(source, rule))


@dataclass(frozen=True)
class SufficiencyGaps(_TwoGaps):
    """Pairwise spread of outcome rates conditional on the binary decision,
    all exact. The same rates read the decision as a score with two levels,
    decided 0 and 1, whose coarsened calibration gap ``coarsened_sup_gap`` is
    the largest level gap over the groups defined there (``max_gap`` when
    every rate is defined); ``coarsened_l1_gap`` averages the level gaps by
    pooled mass, the sum of the level's cells over the groups. A level with
    fewer than 2 defined groups is left out."""

    _gap_names = ("gap_r1", "gap_r0")

    pos_given_r1: dict[str, Fraction | float]
    pos_given_r0: dict[str, Fraction | float]
    gap_r1: Fraction | float
    gap_r0: Fraction | float
    coarsened_sup_gap: Fraction | float
    coarsened_l1_gap: Fraction | float

    @classmethod
    def of(cls, tables: dict[str, ConfusionCounts]) -> "SufficiencyGaps":
        """The view of ``confusion_tables``: its exact rates and their gaps."""
        if len(tables) < 2:
            raise ValueError("sufficiency gap needs at least 2 groups")
        r1 = {g: c.pos_given_r1 for g, c in tables.items()}
        r0 = {g: c.pos_given_r0 for g, c in tables.items()}
        levels = []  # (exact gap, pooled mass) of each level with 2 or more defined groups
        for level, decided in ((r0, lambda c: c.fn + c.tn), (r1, lambda c: c.tp + c.fp)):
            defined = [r for r in level.values() if is_defined(r)]
            if len(defined) >= 2:
                levels.append((spread(defined), sum(map(decided, tables.values()))))
        pooled = sum(mass for _, mass in levels)
        sup = max(gap for gap, _ in levels) if levels else UNDEFINED
        l1 = sum(gap * mass for gap, mass in levels) / pooled if pooled else UNDEFINED
        return cls(r1, r0, spread(r1.values()), spread(r0.values()), sup, l1)


@dataclass(frozen=True)
class ImpossibilityWitness:
    """Measured evidence that rate equality and group calibration of a binary
    output cannot coexist on unequal base rates with an imperfect rule.
    Separation holds within 1e-6; sufficiency is violated by more than 1e-4.
    A ValueError says the conflict is not forced: base rates within 1e-6, an
    undefined rate, or fpr + fnr within 1e-6 in every group."""

    base_rates: dict[str, Fraction | float]
    separation: SeparationGaps
    sufficiency: SufficiencyGaps

    def __post_init__(self):
        base_gap = spread(self.base_rates.values())
        if within(base_gap, 1e-6):
            raise ValueError(f"base rates are equal (spread {float(base_gap):.3g}); the conflict is not forced")
        sep = self.separation
        if not is_defined(sep.max_gap):
            raise ValueError("a group has an empty outcome class; rates undefined")
        if all(within(fpr + fnr, 1e-6) for fpr, fnr in zip(sep.fpr.values(), sep.fnr.values())):
            raise ValueError("rule is (near-)perfectly accurate; the conflict is not forced")

    @property
    def separation_holds(self) -> bool:
        return within(self.separation.max_gap, 1e-6)

    @property
    def sufficiency_violated(self) -> bool:
        return self.sufficiency.max_gap > 1e-4  # false when undefined

    @property
    def consistent(self) -> bool:
        """True unless both criteria were observed to hold simultaneously."""
        return self.sufficiency_violated or not self.separation_holds
