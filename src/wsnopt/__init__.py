"""Large-scale power allocation for decentralized detection networks."""

from .evo import (
    Bounds,
    BudgetExhausted,
    FunctionProblem,
    TrackedObjective,
)
from .harness import ExperimentConfig, run_experiment, run_trial
from .problem import PowerAllocationProblem, WsnConfig
from .solvers import SOLVERS, solve
from .stats import (
    friedman_ranks,
    load_reference_table,
    paired_rank_tests,
    wilcoxon_signed_rank,
)

__all__ = [
    "Bounds",
    "BudgetExhausted",
    "ExperimentConfig",
    "FunctionProblem",
    "PowerAllocationProblem",
    "SOLVERS",
    "TrackedObjective",
    "WsnConfig",
    "friedman_ranks",
    "load_reference_table",
    "paired_rank_tests",
    "run_experiment",
    "run_trial",
    "solve",
    "wilcoxon_signed_rank",
]
