"""Simulation laboratory for repeated two-player demand-splitting games.

Lookahead planners with tunable reward weights play against rule-based or
learned opponent models over many rounds; a benchmark suite sweeps the
weights over a grid and tabulates profits and agreement rates.
"""

import os
import sys

# Every product here is small (9 x 9 by 9 x C at q = 10), far below where
# OpenBLAS splits one across threads, yet by default it starts a thread per
# visible CPU when numpy loads, and their spin-waits keep the main thread off
# the CPU: on 2 vCPUs a fresh `import numpy` took 108-150 ms with the second
# thread and 55-85 ms without it.  One thread also runs every product through
# the single-threaded kernel, whose column bits do not depend on the product's
# width, so an item solves to the same bits in any batch.  OpenBLAS reads the
# variable once, as it loads, so it is removed again: child processes and
# later code see the caller's environment.  A caller's own thread count, or a
# numpy loaded before ndglab, is left as it is.
if "numpy" not in sys.modules and not any(
    name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .core import (  # noqa: E402
    GameConfig,
    GameLog,
    Role,
    chi,
    reward,
    reward_matrix,
    round_columns,
)
from .engine import RngPlan, pretrain, run_game  # noqa: E402
from .experiments import (  # noqa: E402
    AgentSpec,
    CellResult,
    ExperimentSpec,
    SweepSummary,
    aggregate,
    benchmark_spec,
    run_test,
)
from .opponent import (  # noqa: E402
    DirichletLearner,
    HeuristicModel,
    heuristic_sample,
    heuristic_table,
    load_learner,
    save_learner,
    uniform_table,
)
from .planner import backward_induction, brute_force_value  # noqa: E402

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
