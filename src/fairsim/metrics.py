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
    ConditionalScoreDensity,
    PopulationModel,
    cell_index,
    cell_midpoints,
    conditional_rate,
    is_defined,
)
from .rules import DecisionRule, Policy, group_confusion_masses


def _rate(num, den) -> Fraction | float:
    """num / den as an exact rate, or the undefined marker when the
    conditioning event is empty."""
    return Fraction(num) / Fraction(den) if den else UNDEFINED


@dataclass(frozen=True)
class ConfusionCounts:
    """Cells of a 2x2 decision-vs-outcome table, and the exact conditional
    rates read off them.

    Cells are exact: integers for empirical data, rationals for analytic
    masses. ``tp`` counts (d=1, y=1), ``fp`` (d=1, y=0), ``fn`` (d=0, y=1),
    ``tn`` (d=0, y=0). Each rate is a ``Fraction``, or the undefined marker
    when its conditioning class is empty.
    """

    tp: int | Fraction
    fp: int | Fraction
    fn: int | Fraction
    tn: int | Fraction

    def __post_init__(self):
        if any(c < 0 for c in (self.tp, self.fp, self.fn, self.tn)):
            raise ValueError("confusion cells must be nonnegative")

    @classmethod
    def of(cls, csd: ConditionalScoreDensity, policy: Policy) -> "ConfusionCounts":
        """One group's exact masses under its policy."""
        return cls(*group_confusion_masses(csd, policy))

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn

    @property
    def fpr(self) -> Fraction | float:
        """P(D=1 | Y=0) = fp/(fp+tn)."""
        return _rate(self.fp, self.fp + self.tn)

    @property
    def fnr(self) -> Fraction | float:
        """P(D=0 | Y=1) = fn/(fn+tp)."""
        return _rate(self.fn, self.fn + self.tp)

    @property
    def pos_given_r1(self) -> Fraction | float:
        """P(Y=1 | D=1) = tp/(tp+fp)."""
        return _rate(self.tp, self.tp + self.fp)

    @property
    def pos_given_r0(self) -> Fraction | float:
        """P(Y=1 | D=0) = fn/(fn+tn), the false omission rate."""
        return _rate(self.fn, self.fn + self.tn)


def tally(data: AuditDataset, cell, cells: int, weights=None) -> np.ndarray:
    """Records, or their ``weights``, summed per group and cell, where ``cell``
    gives each record's cell in ``range(cells)``: one row per label, from one
    ``bincount`` over all records, which adds each cell in record order just
    as a ``bincount`` of one group's records does."""
    return np.bincount(data.codes * cells + cell, weights, len(data.labels) * cells).reshape(-1, cells)


def confusion_tables(source: PopulationModel | AuditDataset, rule: DecisionRule | None = None) -> dict:
    """Every group's decision-vs-outcome ``ConfusionCounts``, keyed by label
    in label order: the one measurement every binary-decision metric reads.

    Analytic sources need a rule and yield exact masses. Empirical sources
    yield exact counts, taken from one tally of the recorded decision column
    when ``rule`` is None. A rule makes one tally per mixture position, in
    which each record meets its own group's threshold at that position, and
    a group sums the tallies of its own positions with its policy's weights;
    so a randomized rule on a dataset yields expected (fractional) counts
    rather than draws.
    """
    if isinstance(source, PopulationModel):
        if rule is None:
            raise ValueError("analytic confusion requires a decision rule")
        return {g: ConfusionCounts.of(csd, rule.for_group(g)) for g, csd in source.groups.items()}

    cell = source.outcome * 3 + 1  # plus the decision, which is -1 where missing
    if rule is None:
        counts = tally(source, cell + source.decision, 6)
        tables = dict(zip(source.labels, counts))
    else:
        mixtures = [rule.for_group(g).mixture() for g in source.labels]
        # Row c holds each group's threshold at position c; a group with
        # fewer positions leaves its entry unread.
        thresholds = np.zeros((max(map(len, mixtures)), len(source.labels)))
        for row, mixture in enumerate(mixtures):
            thresholds[: len(mixture), row] = [float(t) for _, t in mixture]
        counts = [tally(source, cell + (source.score > t[source.codes]), 6) for t in thresholds]
        tables = {
            g: sum(w * counts[c][row] for c, (w, _) in enumerate(mixture))
            for row, (g, mixture) in enumerate(zip(source.labels, mixtures))
        }
    for g, table in tables.items():
        missing_y0, tn, fp, missing_y1, fn, tp = table.tolist()
        if missing_y0 or missing_y1:
            raise ValueError(f"group {g!r} has records without decisions and no rule was given")
        tables[g] = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
    return tables


def spread(values) -> float:
    """Largest pairwise |a - b| among the values, floats or exact rates, as
    ``float(max - min)``, rounded once: undefined if any value is, 0.0 if
    there are none.

    For floats, the IEEE subtraction max - min is the exact difference
    rounded once, and it is |a - b| of the extreme pair, which no other
    pair's rounded difference exceeds.
    """
    values = list(values)
    if not all(is_defined(v) for v in values):
        return UNDEFINED
    return float(max(values) - min(values)) if values else 0.0


def within(gap, tol: float) -> bool:
    """The one holds rule: the gap is defined and at most ``tol``."""
    return is_defined(gap) and gap <= tol


@dataclass(frozen=True)
class CalibrationReport:
    """Per-level conditional positive rates at the ``level_tables`` levels,
    and their between-group gaps. ``sup_gap`` is the largest per-level
    pairwise gap; ``l1_gap`` averages it with ``level_mass``, the pooled mass
    per level, which for datasets is the pooled record count. Levels with no
    mass (or only one group present) are undefined and excluded."""

    levels: np.ndarray
    group_rates: dict[str, np.ndarray]
    pooled: np.ndarray
    gap: np.ndarray
    level_mass: np.ndarray
    sup_gap: float
    l1_gap: float

    @classmethod
    def of(cls, tables: LevelTables) -> "CalibrationReport":
        """The between-group view of ``level_tables``."""
        if len(tables.total) < 2:
            raise ValueError("calibration gap needs at least 2 groups")
        group_rates = conditional_rate(tables.positive, tables.total)
        pooled_pos = sum(w * pos for w, pos in zip(tables.weights, tables.positive))  # row by row, in label order
        pooled_tot = sum(w * tot for w, tot in zip(tables.weights, tables.total))
        level_mass, gap = pooled_tot / tables.divisor, _per_level_max_gap(group_rates)
        by_group, pooled = dict(zip(tables.labels, group_rates)), conditional_rate(pooled_pos, pooled_tot)
        return cls(tables.levels, by_group, pooled, gap, level_mass, *_summarize_gaps(gap, level_mass))


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
    and the rate a calibrated score shows. Groups pool with ``weights``, and
    a total over ``divisor`` is a level mass."""

    labels: tuple[str, ...]
    levels: np.ndarray
    positive: np.ndarray
    total: np.ndarray
    reference: np.ndarray
    weights: tuple[float, ...]
    divisor: int


def level_tables(source: PopulationModel | AuditDataset, bins: int = 10) -> LevelTables:
    """The one measurement of score levels, which every calibration metric
    reads. Analytic levels are the grid-cell midpoints, each its own
    reference, and groups pool by population weight. ``bins`` applies only to
    datasets: their levels are ``bins`` equal-width bins, whose reference is
    the mean score in the bin, and groups pool by record count."""
    if isinstance(source, PopulationModel):
        positive = np.stack([csd.f1.weights for csd in source.groups.values()])
        total = np.stack([csd.f0.weights + csd.f1.weights for csd in source.groups.values()])
        levels, weights = cell_midpoints(source.grid_size), tuple(source.normalized_weights().values())
        return LevelTables(source.labels, levels, positive, total, np.tile(levels, (len(total), 1)), weights, len(levels))
    if bins < 1:
        raise ValueError("bins must be at least 1")
    bin_of = cell_index(source.score, bins)
    counts = tally(source, bin_of * 2 + source.outcome, bins * 2).reshape(-1, bins, 2).astype(float)
    total = counts.sum(axis=2)
    reference = conditional_rate(tally(source, bin_of, bins, source.score), total)
    return LevelTables(source.labels, cell_midpoints(bins), counts[:, :, 1], total, reference, (1.0,) * len(total), 1)


@dataclass(frozen=True)
class WithinGroupCalibration:
    """Per-level |conditional positive rate - score level| for one group."""

    levels: np.ndarray
    observed: np.ndarray
    reference: np.ndarray
    error: np.ndarray
    sup_error: float
    l1_error: float

    @classmethod
    def of(cls, tables: LevelTables) -> "dict[str, WithinGroupCalibration]":
        """The within-group view of ``level_tables``: one row per label, in label order."""
        observed = conditional_rate(tables.positive, tables.total)
        error = np.abs(observed - tables.reference)
        rows = zip(tables.labels, observed, tables.reference, error, tables.total / tables.divisor)
        return {g: cls(tables.levels, o, r, e, *_summarize_gaps(e, mass)) for g, o, r, e, mass in rows}


class _TwoGaps:
    """A criterion measured by the two gaps named in ``_gap_names``: it holds
    when the larger, ``max_gap``, is within a tolerance."""

    @property
    def max_gap(self) -> float:
        gaps = [getattr(self, name) for name in self._gap_names]
        return max(gaps) if all(is_defined(g) for g in gaps) else UNDEFINED

    def holds(self, tol: float) -> bool:
        return within(self.max_gap, tol)


@dataclass(frozen=True)
class SeparationGaps(_TwoGaps):
    """Per-group false positive and false negative rates, and their
    pairwise spreads."""

    _gap_names = ("fpr_gap", "fnr_gap")

    fpr: dict[str, float]
    fnr: dict[str, float]
    fpr_gap: float
    fnr_gap: float

    @classmethod
    def of(cls, tables: dict[str, ConfusionCounts]) -> "SeparationGaps":
        """The view of ``confusion_tables``: exact rates, each gap rounded once."""
        if len(tables) < 2:
            raise ValueError("separation gap needs at least 2 groups")
        fpr = {g: c.fpr for g, c in tables.items()}
        fnr = {g: c.fnr for g, c in tables.items()}
        return cls(
            fpr={g: float(r) for g, r in fpr.items()},
            fnr={g: float(r) for g, r in fnr.items()},
            fpr_gap=spread(fpr.values()),
            fnr_gap=spread(fnr.values()),
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
        r1 = {g: c.pos_given_r1 for g, c in tables.items()}
        r0 = {g: c.pos_given_r0 for g, c in tables.items()}
        levels = []  # (exact gap, pooled mass) of each level with 2 or more defined groups
        for level, decided in ((r0, lambda c: c.fn + c.tn), (r1, lambda c: c.tp + c.fp)):
            defined = [r for r in level.values() if is_defined(r)]
            if len(defined) >= 2:
                mass = sum(Fraction(weights[g]) * decided(c) for g, c in tables.items())
                levels.append((max(defined) - min(defined), mass))
        return cls(
            pos_given_r1={g: float(r) for g, r in r1.items()},
            pos_given_r0={g: float(r) for g, r in r0.items()},
            gap_r1=spread(r1.values()),
            gap_r0=spread(r0.values()),
            coarsened_sup_gap=float(max(gap for gap, _ in levels)) if levels else UNDEFINED,
            coarsened_l1_gap=float(_rate(sum(gap * mass for gap, mass in levels), sum(mass for _, mass in levels))),
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
        if within(base_gap, 1e-6):
            raise ValueError(f"base rates are equal (spread {base_gap:.3g}); the conflict is not forced")
        sep = self.separation
        if not is_defined(sep.max_gap):
            raise ValueError("a group has an empty outcome class; rates undefined")
        if all(within(fpr + fnr, 1e-6) for fpr, fnr in zip(sep.fpr.values(), sep.fnr.values())):
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
