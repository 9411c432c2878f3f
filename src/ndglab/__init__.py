"""Simulation laboratory for repeated two-player demand-splitting games.

Lookahead planners with tunable reward weights play against rule-based or
learned opponent models over many rounds; a benchmark suite sweeps the
weights over a grid and tabulates profits and agreement rates.
"""

from .core import (
    GameConfig,
    GameLog,
    Role,
    chi,
    reward,
    reward_matrix,
    round_columns,
)
from .engine import RngPlan, pretrain, run_game
from .experiments import (
    AgentSpec,
    CellResult,
    ExperimentSpec,
    SweepSummary,
    aggregate,
    benchmark_spec,
    run_test,
)
from .opponent import (
    DirichletLearner,
    HeuristicModel,
    heuristic_sample,
    heuristic_table,
    load_learner,
    save_learner,
    uniform_table,
)
from .planner import backward_induction, brute_force_value

__version__ = "0.1.0"

__all__ = [
    "GameConfig",
    "GameLog",
    "Role",
    "chi",
    "reward",
    "reward_matrix",
    "round_columns",
    "RngPlan",
    "pretrain",
    "run_game",
    "AgentSpec",
    "CellResult",
    "ExperimentSpec",
    "SweepSummary",
    "aggregate",
    "benchmark_spec",
    "run_test",
    "DirichletLearner",
    "HeuristicModel",
    "heuristic_sample",
    "heuristic_table",
    "load_learner",
    "save_learner",
    "uniform_table",
    "backward_induction",
    "brute_force_value",
    "__version__",
]
