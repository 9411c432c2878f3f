#!/usr/bin/env python3
"""Watch a learning planner's belief close in on the rule-based opponent.

Plays one game per checkpoint length, all on the same seed so each longer
game extends the shorter one, and prints how far the learner's estimate is
from the opponent's true conditional distribution on the contexts it has
actually visited.
"""

import argparse
import sys

import numpy as np

from ndglab import (
    DirichletLearner,
    GameConfig,
    HeuristicModel,
    MdpAgent,
    heuristic_table,
    run_game,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sigma", type=float, default=1.0, help="opponent spread")
    parser.add_argument("--omega", type=float, default=0.5, help="planner reward weight")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--checkpoints", default="60,120,250,500,1000",
        help="comma list of game lengths to report at",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        # every input is checked before the first game
        lengths = []
        for part in args.checkpoints.split(","):
            if part.strip():
                try:
                    lengths.append(int(part))
                except ValueError:
                    raise ValueError(f"--checkpoints must be whole numbers, got {part.strip()!r}") from None
        if not lengths:
            raise ValueError("--checkpoints needs at least one game length")
        opponent = HeuristicModel(sigma=args.sigma, q=10)
        configs = [GameConfig(rounds=rounds, omega_a=args.omega, seed=args.seed) for rounds in lengths]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    truth = heuristic_table(opponent)
    print(f"{'rounds':>8} {'contexts seen':>14} {'mean L1 (seen)':>15} {'success %':>10}")
    for config in configs:
        learner = DirichletLearner.uniform(10)
        agent_a = MdpAgent(args.omega, config.horizon, 10, learner=learner)
        log = run_game(config, agent_a, opponent)
        seen = learner.counts.sum(axis=-1) > 9  # more mass than the prior alone
        gap = np.abs(learner.estimate - truth).sum(axis=-1)
        mean_gap = float(gap[seen].mean()) if seen.any() else float("nan")
        print(
            f"{config.rounds:>8} {int(seen.sum()):>14} {mean_gap:>15.3f} {log.success_rate_pct:>10.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
