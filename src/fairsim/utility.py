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

from .densities import UNDEFINED, PopulationModel, ScoreDensity, ScoreMap, draw_categorical
from .metrics import ConfusionCounts, confusion_tables, spread
from .rules import DecisionRule, PayoffMatrix

Convention = Literal["per-outcome", "per-person"]
CONVENTIONS = get_args(Convention)


def pointwise_eu(p: float | Fraction, payoff: PayoffMatrix, decision: int) -> float | Fraction:
    """Expected utility of one decision at outcome probability p: a float,
    or the exact ``Fraction`` when p is one."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    if decision not in (0, 1):
        raise ValueError("decision must be 0 or 1")
    exact = isinstance(p, Fraction)
    u11, u10, outside = (Fraction(u) if exact else u for u in (payoff.u11, payoff.u10, payoff.outside))
    return p * u11 + (1 - p) * u10 if decision else outside


def optimal_threshold(payoff: PayoffMatrix) -> float:
    """Probability above which acting beats the outside option.

    Solves p*u11 + (1-p)*u10 = outside and clamps to [0, 1]; requires the
    acting branch to improve with the outcome (u11 > u10).
    """
    if payoff.u11 <= payoff.u10:
        raise ValueError("optimal threshold needs u11 > u10")
    t = (payoff.outside - payoff.u10) / (payoff.u11 - payoff.u10)
    return min(1.0, max(0.0, t))


def _check_inputs(true_density: ScoreDensity, displayed: ScoreMap) -> None:
    if not true_density.is_normalized():
        raise ValueError("true-probability density must integrate to 1")
    if displayed.grid_size != true_density.grid_size:
        raise ValueError("score map grid does not match density grid")


def _acting(
    density: ScoreDensity, n: tuple[int, ...], cells: np.ndarray, payoff: PayoffMatrix
) -> tuple[Fraction, Fraction]:
    """Exact mass of the selected cells, read off the density's
    ``boundary_numerators()`` n, and acting's utility on them: linear in the
    score, it is their mass times its value at their mean score, and cell
    k's mean score is its midpoint (2k + 1) / 2G."""
    mass = moment = 0
    for k in np.flatnonzero(cells).tolist():
        cell = n[k] - n[k + 1]
        mass, moment = mass + cell, moment + cell * (2 * k + 1)
    if not mass:
        return Fraction(0), Fraction(0)
    exact = Fraction(mass, density.exact_denominator)
    return exact, exact * pointwise_eu(Fraction(moment, 2 * density.grid_size * mass), payoff, 1)


def long_run_eu(true_density: ScoreDensity, displayed: ScoreMap, payoff: PayoffMatrix, threshold: float) -> Fraction:
    """Exact average expected utility when acting where the displayed score,
    constant on each grid cell, strictly exceeds the threshold."""
    _check_inputs(true_density, displayed)
    mass, acted = _acting(true_density, true_density.boundary_numerators(), displayed.values > threshold, payoff)
    return Fraction(payoff.outside) * (true_density.exact_total() - mass) + acted


@dataclass(frozen=True)
class CaseStats:
    mass: Fraction
    loss: Fraction


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
    def wrong_side_mass(self) -> Fraction:
        return self.cases["case2"].mass + self.cases["case3"].mass


def classify_cases(
    true_density: ScoreDensity, displayed: ScoreMap, threshold: float, payoff: PayoffMatrix
) -> CaseBreakdown:
    """The exact ``CaseBreakdown``. The cell j that holds t is split at t: on
    a part [a, b] the mass is the cell's density times b - a, and acting's
    utility that mass times its value at (a + b) / 2."""
    _check_inputs(true_density, displayed)
    grid, t = true_density.grid_size, Fraction(threshold)
    j = min(max(math.floor(t * grid), 0), grid - 1)
    t = min(max(t, Fraction(j, grid)), Fraction(j + 1, grid))
    height = Fraction(true_density.weights[j])
    cells, act = np.arange(grid), displayed.values > threshold
    n = true_density.boundary_numerators()
    cases = {}
    for name, acted, warranted in (("case1", 0, 0), ("case2", 1, 0), ("case3", 0, 1), ("case4", 1, 1)):
        mass, utility = _acting(true_density, n, (act == acted) & (cells > j if warranted else cells < j), payoff)
        if act[j] == acted:  # the part of cell j on the warranted side of t
            a, b = (t, Fraction(j + 1, grid)) if warranted else (Fraction(j, grid), t)
            mass += height * (b - a)
            utility += height * (b - a) * pointwise_eu((a + b) / 2, payoff, 1)
        # the loss is what the warranted decision gains over the one taken
        cases[name] = CaseStats(mass, (utility - Fraction(payoff.outside) * mass) * (warranted - acted))
    return CaseBreakdown(cases=cases)


@dataclass(frozen=True)
class UtilityReport:
    """Per-group expected utility (or disutility) with its spread."""

    per_group: dict[str, Fraction | float]
    disparity: Fraction | float


def utility_report(per_group: dict[str, Fraction | float]) -> UtilityReport:
    """Assemble a report; the disparity is the largest pairwise gap."""
    return UtilityReport(per_group=per_group, disparity=spread(per_group.values()))


def harm_report(tables: dict[str, ConfusionCounts], convention: Convention) -> UtilityReport:
    """Expected harm per group, read off ``confusion_tables``, when declining
    a positive case costs 1.

    ``per-outcome`` reports P(D=0 | Y=1), the harm among those the decision
    actually fails; ``per-person`` reports P(D=0, Y=1), the harm averaged over
    the whole group, which rescales by the base rate. Undefined per-outcome
    when a group has no positive mass.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    if convention == "per-outcome":
        per_group = {g: float(c.fnr) for g, c in tables.items()}
    else:
        per_group = {g: float(Fraction(c.fn) / Fraction(c.total)) for g, c in tables.items()}
    return utility_report(per_group)


def judge_disutility(pop: PopulationModel, rule: DecisionRule, convention: Convention) -> UtilityReport:
    """``harm_report`` of the rule on the population."""
    return harm_report(confusion_tables(pop, rule), convention)


def mc_long_run_eu(
    true_density: ScoreDensity,
    displayed: ScoreMap,
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
    _check_inputs(true_density, displayed)
    rng = np.random.default_rng(seed)
    g = true_density.grid_size
    cells = draw_categorical(rng, true_density.weights / true_density.weights.sum(), n)
    p = (cells + rng.random(n)) / g
    act = displayed(p) > threshold
    liked = rng.random(n) < p
    u = np.array([payoff.outside, payoff.outside, payoff.u10, payoff.u11])[(act << 1) | liked]
    est = float(np.mean(u))
    stderr = float(np.std(u, ddof=1) / math.sqrt(n)) if n > 1 else UNDEFINED
    return est, stderr
