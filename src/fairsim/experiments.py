"""Canned, parameterized experiments with structured reports and plot data.

Each experiment builds a concrete population and rule, measures everything
with the metrics modules, and emits a report whose verdicts carry the numeric
magnitudes they were derived from, plus x,y series for external plotting.
All experiments are deterministic given their parameters.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Literal, get_args

import numpy as np

from .densities import (
    DEFAULT_GRID,
    ConditionalScoreDensity,
    PopulationModel,
    ScoreDensity,
    ScoreMap,
    UNDEFINED,
    apply_score_map,
)
from .metrics import (
    CalibrationReport,
    ConfusionCounts,
    ImpossibilityWitness,
    SeparationGaps,
    SufficiencyGaps,
    confusion_tables,
    level_tables,
    within,
)
from .reports import render_doc, render_text, write_series_csv
from .rules import PayoffMatrix, solve_equalized_odds, solve_parity_ratio
from .utility import (
    CONVENTIONS,
    Convention,
    classify_cases,
    harm_report,
    long_run_eu,
    mc_long_run_eu,
    optimal_threshold,
    pointwise_eu,
    utility_report,
)

ANALYTIC_TOL = 1e-6


@dataclass(frozen=True)
class Verdict:
    holds: bool
    magnitude: float
    tolerance: float

    @classmethod
    def within(cls, magnitude: float, tolerance: float) -> "Verdict":
        """The verdict that ``magnitude`` is defined and at most ``tolerance``."""
        return cls(within(magnitude, tolerance), magnitude, tolerance)


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    params: dict[str, object]
    metrics: dict[str, object]
    verdicts: dict[str, Verdict]
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def doc_mapping(self) -> dict:
        return {
            "experiment": {"id": self.experiment},
            "params": dict(self.params),
            "metrics": self.metrics,
            "verdicts": {
                name: {"holds": v.holds, "magnitude": v.magnitude, "tolerance": v.tolerance}
                for name, v in self.verdicts.items()
            },
        }

    def to_doc(self) -> str:
        return render_doc(self.doc_mapping())

    def to_text(self) -> str:
        return render_text(f"experiment: {self.experiment}", self.doc_mapping())

    def write(self, outdir, fmt: str = "doc") -> list[Path]:
        """Write the report and one CSV per plot series; returns written paths."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        if fmt == "doc":
            report_path = outdir / "report.doc"
            report_path.write_text(self.to_doc(), encoding="utf-8")
        elif fmt == "text":
            report_path = outdir / "report.txt"
            report_path.write_text(self.to_text(), encoding="utf-8")
        else:
            raise ValueError(f"unknown format {fmt!r}; expected 'doc' or 'text'")
        written.append(report_path)
        for name, points in self.series.items():
            path = outdir / f"series_{name}.csv"
            write_series_csv(path, points)
            written.append(path)
        return written


def _roc_series(csd: ConditionalScoreDensity) -> list[tuple[float, float]]:
    # rate above boundary k is n[k] / n[0]: int / int is correctly rounded
    n1 = csd.f1.boundary_numerators()
    n0 = csd.f0.boundary_numerators()
    return [
        (n0[k] / n0[0] if n0[0] else UNDEFINED, n1[k] / n1[0] if n1[0] else UNDEFINED)
        for k in range(csd.grid_size, -1, -1)
    ]


# -- recommendation scores used by their own subjects ------------------------

RecommenderMap = Literal["identity", "constant", "flip", "compress"]
RECOMMENDER_MAPS = get_args(RecommenderMap)


def make_score_map(name: str, grid: int, value: float) -> ScoreMap:
    """Named displayed-score transformations used by the recommender experiment."""
    if name == "identity":
        return ScoreMap.identity(grid)
    if name == "constant":
        return ScoreMap.constant(value, grid)
    if name == "flip":
        return ScoreMap.from_callable(lambda p: 1.0 - p, grid)
    if name == "compress":
        # squeezes toward 0.5 without moving anything across it
        return ScoreMap.from_callable(lambda p: 0.5 + (p - 0.5) / 2.0, grid)
    raise ValueError(f"unknown score map {name!r}; known maps: {RECOMMENDER_MAPS}")


def run_recommender_experiment(
    map: RecommenderMap = "constant",
    map_value: float = 0.9,
    grid: int = DEFAULT_GRID,
    samples: int = 1_000_000,
    seed: int = 42,
) -> ExperimentReport:
    """Both groups decide for themselves on displayed scores; the men's
    scores pass through the named ``make_score_map``. Reports analytic and
    Monte Carlo long-run expected utility per group, the utility disparity,
    the loss split over the four displayed-vs-true quadrants, and the
    displayed-score calibration gap."""
    men_map = make_score_map(map, grid, map_value)
    true_density = ScoreDensity.uniform(grid)
    payoff = PayoffMatrix.recommender()
    t = optimal_threshold(payoff)
    identity = ScoreMap.identity(grid)

    eu_women = long_run_eu(true_density, identity, payoff, t)
    eu_men = long_run_eu(true_density, men_map, payoff, t)
    cases_men = classify_cases(true_density, men_map, t, payoff)
    analytic = utility_report({"women": eu_women, "men": eu_men})

    mc_women, se_women = mc_long_run_eu(true_density, identity, payoff, t, samples, seed)
    mc_men, se_men = mc_long_run_eu(true_density, men_map, payoff, t, samples, seed + 1)

    displayed_pop = PopulationModel(
        groups={
            "women": ConditionalScoreDensity.calibrated(true_density),
            "men": ConditionalScoreDensity.calibrated(true_density),
        }
    )
    displayed_pop = apply_score_map(displayed_pop, "men", men_map)
    calib = CalibrationReport.of(level_tables(displayed_pop))

    grid_line = np.linspace(0.0, 1.0, 101)
    series = {
        "eu_act": [(float(p), pointwise_eu(float(p), payoff, 1)) for p in grid_line],
        "eu_skip": [(float(p), payoff.outside) for p in grid_line],
        "displayed_calibration_women": list(zip(calib.levels, calib.group_rates["women"])),
        "displayed_calibration_men": list(zip(calib.levels, calib.group_rates["men"])),
    }
    metrics = {
        "eu": {
            "analytic": {"women": eu_women, "men": eu_men, "disparity": analytic.disparity},
            "mc": {
                "women": mc_women,
                "men": mc_men,
                "stderr_women": se_women,
                "stderr_men": se_men,
                "disparity": abs(mc_women - mc_men),
            },
            "calibrated_optimum": eu_women,
        },
        "cases_men": {
            name: {"mass": stats.mass, "loss": stats.loss} for name, stats in cases_men.cases.items()
        },
        "calibration_displayed": {"sup_gap": calib.sup_gap, "l1_gap": calib.l1_gap},
    }
    verdicts = {
        "equal_utility": Verdict.within(analytic.disparity, ANALYTIC_TOL),
        "zero_wrong_side_mass": Verdict.within(cases_men.wrong_side_mass, 0.0),
    }
    params = {"map": map, "map_value": map_value, "grid": grid, "n_mc": samples, "seed": seed, "threshold": t}
    return ExperimentReport("recommender", params, metrics, verdicts, series)


# -- equal error rates, unequal harm ------------------------------------------


def run_equal_rates_unequal_utility(
    p_men: float = 0.1, p_women: float = 0.4, fp_mass: float = 0.1
) -> ExperimentReport:
    """Both groups take the same mass of wrong act-decisions, but at different
    true probabilities, so their error rates agree while their utility loss
    does not. Evaluated in closed form on point masses."""
    for name, p in (("p_men", p_men), ("p_women", p_women)):
        if not 0.0 <= p < 0.5:
            raise ValueError(f"{name} must lie in [0, 0.5) so the decision is on the wrong side, got {p!r}")
    if not 0.0 <= fp_mass <= 1.0:
        raise ValueError("fp_mass must lie in [0, 1]")

    payoff = PayoffMatrix.recommender()
    quadrants = ConfusionCounts(
        tp=Fraction(0), fp=Fraction(float(fp_mass)), fn=Fraction(0), tn=1 - Fraction(float(fp_mass))
    )

    eu = {}
    loss_per_decision = {}
    for label, p in (("men", p_men), ("women", p_women)):
        acted = pointwise_eu(p, payoff, 1)
        eu[label] = fp_mass * acted + (1.0 - fp_mass) * payoff.outside
        loss_per_decision[label] = payoff.outside - acted
    analytic = utility_report(eu)

    metrics = {
        "rates": {"fpr": float(quadrants.fpr), "fnr": float(quadrants.fnr)},
        "eu": {"men": eu["men"], "women": eu["women"], "disparity": analytic.disparity},
        "loss_per_false_decision": dict(loss_per_decision),
    }
    verdicts = {
        "equal_rates": Verdict.within(0.0, 0.0),  # both groups share the quadrants by construction
        "equal_utility": Verdict.within(analytic.disparity, ANALYTIC_TOL),
    }
    series = {
        "false_decision_loss": [(p_men, loss_per_decision["men"]), (p_women, loss_per_decision["women"])]
    }
    params = {"p_men": p_men, "p_women": p_women, "fp_mass": fp_mass}
    return ExperimentReport("equal-rates", params, metrics, verdicts, series)


# -- scores imposed on defendants ---------------------------------------------

JudgeRule = Literal["equalized-odds", "parity-ratio"]
JUDGE_RULES = get_args(JudgeRule)


def run_judge_experiment(
    base_rate_m: float = 0.3,
    base_rate_f: float = 0.6,
    reference_t: float = 0.5,
    grid: int = DEFAULT_GRID,
    convention: Convention = "per-outcome",
    rule: JudgeRule = "equalized-odds",
    reference: Literal["men", "women"] = "men",
) -> ExperimentReport:
    """Calibrated raw scores, unequal base rates, group-specific thresholds.

    Solves for the requested parity rule, then re-measures everything: error
    rate gaps, calibration of the coarsened binary output, and per-group
    expected harm under both accounting conventions. The selected convention
    drives the equal-harm verdict."""
    if rule not in JUDGE_RULES:
        raise ValueError(f"rule must be one of {JUDGE_RULES}, got {rule!r}")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    pop = PopulationModel(
        groups={
            "men": ConditionalScoreDensity.from_base_rate(base_rate_m, grid),
            "women": ConditionalScoreDensity.from_base_rate(base_rate_f, grid),
        }
    )
    solve = solve_equalized_odds if rule == "equalized-odds" else solve_parity_ratio
    solved = solve(pop, reference, reference_t)

    tables = confusion_tables(pop, solved)
    sep = SeparationGaps.of(tables)
    suff = SufficiencyGaps.of(tables)
    du_outcome = harm_report(tables, "per-outcome")
    du_person = harm_report(tables, "per-person")
    selected = du_outcome if convention == "per-outcome" else du_person

    base = {g: pop.group(g).base_rate for g in pop.labels}
    try:
        witness_applies, witness_consistent = True, ImpossibilityWitness(base, sep, suff).consistent
    except ValueError:  # the conflict is not forced
        witness_applies, witness_consistent = False, True

    metrics = {
        "base_rate": base,
        "rule": {label: line for label, line in zip(solved.labels, solved.serialize().splitlines())},
        "separation": {
            "fpr_gap": sep.fpr_gap,
            "fnr_gap": sep.fnr_gap,
            "fpr": sep.fpr,
            "fnr": sep.fnr,
        },
        "sufficiency": {
            "gap_r1": suff.gap_r1,
            "gap_r0": suff.gap_r0,
            "pos_given_r1": dict(suff.pos_given_r1),
            "pos_given_r0": dict(suff.pos_given_r0),
        },
        "coarsened_calibration": {"sup_gap": suff.coarsened_sup_gap, "l1_gap": suff.coarsened_l1_gap},
        "disutility": {
            "per_outcome": {**du_outcome.per_group, "disparity": du_outcome.disparity},
            "per_person": {**du_person.per_group, "disparity": du_person.disparity},
        },
        "witness": {"applies": witness_applies, "consistent": witness_consistent},
    }
    verdicts = {
        "separation": Verdict.within(sep.max_gap, ANALYTIC_TOL),
        "sufficiency": Verdict.within(suff.max_gap, ANALYTIC_TOL),
        "equal_harm": Verdict.within(selected.disparity, ANALYTIC_TOL),
    }
    series = {
        "roc_men": _roc_series(pop.group("men")),
        "roc_women": _roc_series(pop.group("women")),
    }
    params = {
        "base_rate_m": base_rate_m,
        "base_rate_f": base_rate_f,
        "reference_t": reference_t,
        "grid": grid,
        "convention": convention,
        "rule_kind": rule,
        "reference": reference,
    }
    return ExperimentReport("judge", params, metrics, verdicts, series)


# -- harm parity does not pin down the composition of declined cases -----------


def _three_level_negative(
    grid: int, total: float, mean: float, cut_lo: float, cut_hi: float, upper_mass: float
) -> ScoreDensity | None:
    """Piecewise-constant density on three segments with prescribed total mass
    and mean; returns None when the solved masses go negative."""
    k_lo = round(cut_lo * grid)
    k_hi = round(cut_hi * grid)
    if not 0 < k_lo < k_hi < grid:
        return None
    a = k_lo / grid
    b = k_hi / grid
    c1, c2, c3 = a / 2.0, (a + b) / 2.0, (1.0 + b) / 2.0
    rest = total - upper_mass
    tilt = mean - upper_mass * c3
    mu1 = (rest * c2 - tilt) / (c2 - c1)
    mu2 = rest - mu1
    if mu1 < 0 or mu2 < 0 or upper_mass < 0:
        return None
    weights = np.empty(grid)
    weights[:k_lo] = mu1 / a
    weights[k_lo:k_hi] = mu2 / (b - a)
    weights[k_hi:] = upper_mass / (1.0 - b)
    return ScoreDensity(weights)


def run_appendix_counterexample(grid: int = DEFAULT_GRID, reshapes: int = 100, seed: int = 7) -> ExperimentReport:
    """Two populations identical except for the negative-class score shape of
    one group (same mass, same mean). One fixed rule equalizes the declined
    positive mass across groups on both populations, yet the share of
    positives among the declined shifts, so harm parity cannot force equal
    declined-case composition."""
    base_m, base_f, t_ref = 0.3, 0.6, 0.5
    men_a = ConditionalScoreDensity.from_base_rate(base_m, grid)
    women = ConditionalScoreDensity.from_base_rate(base_f, grid)
    pop_a = PopulationModel(groups={"men": men_a, "women": women})
    rule = solve_parity_ratio(pop_a, "men", t_ref)

    neg_total = men_a.f0.total_mass()
    neg_mean = float(np.sum(men_a.f0.weights * men_a.f0.midpoints()) / grid)
    reshaped = _three_level_negative(grid, neg_total, neg_mean, 0.25, 0.75, upper_mass=0.05)
    if reshaped is None:
        raise ValueError(f"grid {grid} is too small for the reshaped negative density")
    men_b = ConditionalScoreDensity(f0=reshaped, f1=men_a.f1)
    pop_b = pop_a.with_group("men", men_b)

    def declined(pop: PopulationModel, g: str) -> tuple[float, float]:
        """The group's missed positive mass and false omission rate under the rule."""
        counts = ConfusionCounts.of(pop.group(g), rule.for_group(g))
        return float(counts.fn), float(counts.pos_given_r0)

    # every population shares the women's density and policy
    mf, fo_women = declined(pop_a, "women")
    out = {}
    for tag, pop in (("popA", pop_a), ("popB", pop_b)):
        mm, fo_men = declined(pop, "men")
        out[tag] = {
            "missed_positive_men": mm,
            "missed_positive_women": mf,
            "missed_positive_gap": abs(mm - mf),
            "false_omission_men": fo_men,
            "false_omission_women": fo_women,
            "false_omission_gap": abs(fo_men - fo_women),
        }
    men_shift = abs(out["popA"]["false_omission_men"] - out["popB"]["false_omission_men"])
    women_shift = abs(out["popA"]["false_omission_women"] - out["popB"]["false_omission_women"])

    below_a = float(men_a.f0.exact_mass_below(t_ref))
    rng = np.random.default_rng(seed)
    reshape_parity_residuals = []
    reshape_false_omission_gaps = []
    produced = 0
    attempts = 0
    while produced < reshapes:
        attempts += 1
        if attempts > 200 * max(reshapes, 1):
            raise RuntimeError("reshape generation stalled; constraints too tight")
        cand = _three_level_negative(
            grid,
            neg_total,
            neg_mean,
            cut_lo=rng.uniform(0.1, 0.4),
            cut_hi=rng.uniform(0.6, 0.9),
            upper_mass=rng.uniform(0.01, 0.12),
        )
        if cand is None:
            continue
        if abs(float(cand.exact_mass_below(t_ref)) - below_a) < 0.02:
            continue  # must move mass across the threshold
        pop_r = pop_a.with_group("men", ConditionalScoreDensity(f0=cand, f1=men_a.f1))
        mm, fo_men = declined(pop_r, "men")
        reshape_parity_residuals.append(abs(mm - mf))
        reshape_false_omission_gaps.append(abs(fo_men - fo_women))
        produced += 1

    metrics = {
        "popA": out["popA"],
        "popB": out["popB"],
        "false_omission": {"men_shift": men_shift, "women_shift": women_shift},
        "reshapes": {
            "count": produced,
            "parity_max_residual": max(reshape_parity_residuals) if reshape_parity_residuals else 0.0,
            "false_omission_min_gap": min(reshape_false_omission_gaps) if reshape_false_omission_gaps else UNDEFINED,
        },
    }
    parity_worst = max(out["popA"]["missed_positive_gap"], out["popB"]["missed_positive_gap"])
    verdicts = {
        "harm_parity_preserved": Verdict.within(parity_worst, ANALYTIC_TOL),
        "composition_changed": Verdict(men_shift > 0.01, men_shift, 0.01),
        "women_unchanged": Verdict.within(women_shift, 0.0),
    }
    mids = men_a.f0.midpoints()
    series = {
        "men_negative_density_popA": list(zip(mids, men_a.f0.weights)),
        "men_negative_density_popB": list(zip(mids, men_b.f0.weights)),
    }
    params = {"grid": grid, "n_reshapes": reshapes, "seed": seed}
    return ExperimentReport("appendix", params, metrics, verdicts, series)


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """A ``simulate`` experiment, specified by its runner's keywords: the name
    users type, the annotation (``int``, ``float``, ``str`` or a ``Literal``
    of choices) and the default. The runner is looked up by name at each
    call, so a rebinding of the module attribute (a tracer, a stub) is seen."""

    name: str
    summary: str
    runner: str
    cli_required: tuple[str, ...] = ()

    @property
    def params(self) -> Mapping[str, inspect.Parameter]:
        return inspect.signature(globals()[self.runner], eval_str=True).parameters

    def run(self, values: dict[str, object]) -> ExperimentReport:
        return globals()[self.runner](**values)


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            "recommender",
            "self-serving decisions on displayed scores; one group's scores transformed",
            "run_recommender_experiment",
        ),
        ExperimentSpec(
            "equal-rates",
            "equal error rates with unequal per-decision utility loss",
            "run_equal_rates_unequal_utility",
        ),
        ExperimentSpec(
            "judge",
            "group-specific thresholds equalizing error rates or expected harm",
            "run_judge_experiment",
            cli_required=("convention",),
        ),
        ExperimentSpec(
            "appendix",
            "harm parity preserved under negative-class reshapes that change declined-case composition",
            "run_appendix_counterexample",
        ),
    )
}
