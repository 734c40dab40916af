"""Group-fairness metrics, threshold decision rules, and expected-utility
experiments for score-based binary decisions."""

from .densities import (
    DEFAULT_GRID,
    UNDEFINED,
    AuditDataset,
    ConditionalScoreDensity,
    PopulationModel,
    ScoreDensity,
    ScoreMap,
    apply_score_map,
    is_defined,
    sample,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentReport,
    Verdict,
    make_score_map,
    run_appendix_counterexample,
    run_equal_rates_unequal_utility,
    run_judge_experiment,
    run_recommender_experiment,
)
from .metrics import (
    CalibrationReport,
    ImpossibilityWitness,
    SeparationGaps,
    SufficiencyGaps,
    confusion_tables,
    separation_gap,
)
from .rules import (
    ConfusionCounts,
    DecisionRule,
    DeterministicThreshold,
    InfeasibleRuleError,
    PayoffMatrix,
    RandomizedThreshold,
    solve_equalized_odds,
    solve_parity_ratio,
)
from .utility import (
    CaseBreakdown,
    CaseStats,
    UtilityReport,
    classify_cases,
    judge_disutility,
    long_run_eu,
    mc_long_run_eu,
    optimal_threshold,
    pointwise_eu,
    utility_report,
)

__version__ = "0.1.0"
