"""Expected utility and harm of threshold decisions.

Covers two settings: a self-serving decider acting on a displayed score whose
payoff depends on the unknown outcome, and decisions imposed on others where
only the harm of declining a positive case counts. Harm parity supports two
accounting conventions that deliberately have no default: ``per-outcome``
conditions on the positive class, ``per-person`` averages over the whole
group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, get_args

import numpy as np

from .densities import UNDEFINED, PopulationModel, ScoreDensity, ScoreMap, draw_categorical, integrate, is_defined
from .metrics import ConfusionCounts, confusion_tables, rates, spread
from .rules import DecisionRule, PayoffMatrix

Convention = Literal["per-outcome", "per-person"]
CONVENTIONS = get_args(Convention)


def pointwise_eu(p: float, payoff: PayoffMatrix, decision: int) -> float:
    """Expected utility of one decision at outcome probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    if decision not in (0, 1):
        raise ValueError("decision must be 0 or 1")
    if decision:
        return p * payoff.u11 + (1.0 - p) * payoff.u10
    return p * payoff.u01 + (1.0 - p) * payoff.u00


def optimal_threshold(payoff: PayoffMatrix) -> float:
    """Probability above which acting beats the outside option.

    Solves p*u11 + (1-p)*u10 = outside and clamps to [0, 1]; requires the
    acting branch to improve with the outcome (u11 > u10).
    """
    if payoff.u11 <= payoff.u10:
        raise ValueError("optimal threshold needs u11 > u10")
    t = (payoff.outside - payoff.u10) / (payoff.u11 - payoff.u10)
    return min(1.0, max(0.0, t))


def _branch_eu(mids: np.ndarray, payoff: PayoffMatrix, act: np.ndarray) -> np.ndarray:
    eu_act = mids * payoff.u11 + (1.0 - mids) * payoff.u10
    eu_skip = mids * payoff.u01 + (1.0 - mids) * payoff.u00
    return np.where(act, eu_act, eu_skip)


def long_run_eu(
    true_density: ScoreDensity,
    displayed: ScoreMap | None,
    payoff: PayoffMatrix,
    threshold: float,
) -> float:
    """Average expected utility when deciding on the displayed score.

    Integrates the per-decision expected utility over the distribution of
    the true probability; the decision acts exactly when the displayed score
    strictly exceeds the threshold.
    """
    if not true_density.is_normalized():
        raise ValueError("true-probability density must integrate to 1")

    def eu(mids: np.ndarray) -> np.ndarray:
        shown = mids if displayed is None else displayed(mids)
        return _branch_eu(mids, payoff, shown > threshold)

    return integrate(true_density, eu)


@dataclass(frozen=True)
class CaseStats:
    mass: float
    loss: float


@dataclass(frozen=True)
class CaseBreakdown:
    """Mass and utility loss of the four displayed-vs-true threshold quadrants.

    case1: both below the threshold (correctly skipped); case2: displayed
    above, truth below (wrongly acted); case3: displayed below, truth above
    (wrongly skipped); case4: both above. Loss is measured against the
    decision the true probability would warrant, so cases 1 and 4 carry none.
    """

    cases: dict[str, CaseStats]

    @property
    def wrong_side_mass(self) -> float:
        return self.cases["case2"].mass + self.cases["case3"].mass


def classify_cases(
    true_density: ScoreDensity, displayed: ScoreMap | None, threshold: float, payoff: PayoffMatrix
) -> CaseBreakdown:
    mids = true_density.midpoints()
    shown = mids if displayed is None else displayed(mids)
    act = shown > threshold
    should = mids > threshold
    cell_mass = true_density.weights * true_density.cell_width
    taken = _branch_eu(mids, payoff, act)
    warranted = _branch_eu(mids, payoff, should)
    regret = warranted - taken

    quadrants = {
        "case1": ~act & ~should,
        "case2": act & ~should,
        "case3": ~act & should,
        "case4": act & should,
    }
    cases = {
        name: CaseStats(
            mass=float(np.sum(cell_mass[sel])),
            loss=float(np.sum(cell_mass[sel] * regret[sel])),
        )
        for name, sel in quadrants.items()
    }
    return CaseBreakdown(cases=cases)


@dataclass(frozen=True)
class UtilityReport:
    """Per-group expected utility (or disutility) with its spread."""

    per_group: dict[str, float]
    disparity: float
    tolerance: float
    verdict: bool


def utility_report(per_group: dict[str, float], tolerance: float) -> UtilityReport:
    """Assemble a report; the disparity is the largest pairwise gap and the
    verdict compares it against the tolerance."""
    disparity = spread(per_group.values())
    verdict = is_defined(disparity) and disparity <= tolerance
    return UtilityReport(per_group=per_group, disparity=disparity, tolerance=tolerance, verdict=verdict)


def harm_report(tables: dict[str, ConfusionCounts], convention: Convention) -> UtilityReport:
    """Expected harm per group, read off ``confusion_tables``, when declining
    a positive case costs 1; the verdict holds when the groups' harms lie
    within 1e-6.

    ``per-outcome`` reports P(D=0 | Y=1), the harm among those the decision
    actually fails; ``per-person`` reports P(D=0, Y=1), the harm averaged over
    the whole group, which rescales by the base rate. Undefined per-outcome
    when a group has no positive mass.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    if convention == "per-outcome":
        per_group = {g: rates(c).fnr for g, c in tables.items()}
    else:
        per_group = {g: float(Fraction(c.fn) / Fraction(c.total)) for g, c in tables.items()}
    return utility_report(per_group, 1e-6)


def judge_disutility(pop: PopulationModel, rule: DecisionRule, convention: Convention) -> UtilityReport:
    """``harm_report`` of the rule on the population."""
    return harm_report(confusion_tables(pop, rule), convention)


def mc_long_run_eu(
    true_density: ScoreDensity,
    displayed: ScoreMap | None,
    payoff: PayoffMatrix,
    threshold: float,
    n: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of long_run_eu with realized outcomes.

    Returns (estimate, standard error). Deterministic given the seed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not true_density.is_normalized():
        raise ValueError("true-probability density must integrate to 1")
    rng = np.random.default_rng(seed)
    g = true_density.grid_size
    cells = draw_categorical(rng, true_density.weights / true_density.weights.sum(), n)
    p = (cells + rng.random(n)) / g
    shown = p if displayed is None else displayed(p)
    act = shown > threshold
    liked = rng.random(n) < p
    u = np.array([payoff.u00, payoff.u01, payoff.u10, payoff.u11])[(act << 1) | liked]
    est = float(np.mean(u))
    stderr = float(np.std(u, ddof=1) / math.sqrt(n)) if n > 1 else UNDEFINED
    return est, stderr
