"""Shared constructions for the test suite."""

from __future__ import annotations

import numpy as np

from fairsim import (
    ConditionalScoreDensity,
    InfeasibleRuleError,
    PopulationModel,
    ScoreDensity,
    solve_equalized_odds,
)


def calibrated_uniform_pair(grid: int = 1024) -> PopulationModel:
    """Two identical groups with a calibrated uniform score."""
    marginal = ScoreDensity.uniform(grid)
    return PopulationModel(
        groups={
            "a": ConditionalScoreDensity.calibrated(marginal),
            "b": ConditionalScoreDensity.calibrated(marginal),
        }
    )


def judge_population(grid: int = 1024, base_m: float = 0.3, base_f: float = 0.6) -> PopulationModel:
    return PopulationModel(
        groups={
            "men": ConditionalScoreDensity.from_base_rate(base_m, grid),
            "women": ConditionalScoreDensity.from_base_rate(base_f, grid),
        }
    )


def random_calibrated_population(rng: np.random.Generator, grid: int = 256, min_gap: float = 0.05):
    """Two calibrated groups whose base rates differ by at least min_gap.

    Marginals are positive random weights with an opposite linear tilt per
    group, which shifts the base rates apart; rejection keeps the gap.
    """
    mids = (np.arange(grid) + 0.5) / grid
    for _ in range(200):
        slope_a = rng.uniform(0.4, 1.6)
        slope_b = rng.uniform(0.4, 1.6)
        w_a = rng.uniform(0.2, 1.0, grid) * (1.0 - slope_a * (mids - 0.5))
        w_b = rng.uniform(0.2, 1.0, grid) * (1.0 + slope_b * (mids - 0.5))
        groups = {
            "a": ConditionalScoreDensity.calibrated(ScoreDensity(w_a).normalized()),
            "b": ConditionalScoreDensity.calibrated(ScoreDensity(w_b).normalized()),
        }
        if abs(groups["a"].f1.total_mass() - groups["b"].f1.total_mass()) >= min_gap:
            return PopulationModel(groups=groups)
    raise RuntimeError("could not draw a population with the requested base-rate gap")


def random_equalized_odds_instance(rng: np.random.Generator, grid: int = 256, min_gap: float = 0.05):
    """Random unequal-base-rate population with a feasible equalized-odds rule.

    When the two ROC curves cross, a reference point can lie above the other
    curve in either direction, so infeasible draws are resampled.
    """
    for _ in range(100):
        pop = random_calibrated_population(rng, grid, min_gap)
        for _ in range(4):
            t_ref = rng.uniform(0.35, 0.65)
            for ref in ("a", "b"):
                try:
                    return pop, solve_equalized_odds(pop, ref, t_ref)
                except InfeasibleRuleError:
                    continue
    raise RuntimeError("could not draw a feasible equalized-odds instance")
