"""One repeated game: simultaneous moves, payoff accounting, learning updates.

Round 1 always plays the preset opening pair from the config.  Every later
round asks both agents for a demand at the current state (neither sees the
other's current choice), pays out, lets both observe the opponent's demand
in the state the round was played at, and advances the state to the pair
just played.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from typing import Protocol

import numpy as np

from .core import GameConfig, GameLog, JointState, Role, RoundRecord, atomic_write
from .opponent import DirichletLearner, HeuristicModel, heuristic_sample

__all__ = [
    "RngPlan",
    "Agent",
    "HeuristicAgent",
    "run_game",
    "pretrain",
    "ROUND_FIELDS",
    "SUMMARY_FIELDS",
    "write_round_csv",
    "write_game_summary_csv",
]


def _child_seq(seq: np.random.SeedSequence, index: int) -> np.random.SeedSequence:
    # Stateless spawn: the same (entropy, key, index) always names the same child.
    return np.random.SeedSequence(
        entropy=seq.entropy, spawn_key=tuple(seq.spawn_key) + (index,)
    )


class RngPlan:
    """Named deterministic random streams for one game.

    Same seed, same configuration: bit-identical game.  Each agent gets its
    own child stream, so changing one player's settings cannot shift the
    other player's draws; a further child seeds an optional warm-up game.
    """

    def __init__(self, seed: int | np.random.SeedSequence):
        if isinstance(seed, np.random.SeedSequence):
            self.seed_seq = seed
        else:
            self.seed_seq = np.random.SeedSequence(int(seed))
        self.agent_a = np.random.default_rng(_child_seq(self.seed_seq, 0))
        self.agent_b = np.random.default_rng(_child_seq(self.seed_seq, 1))

    def pretrain_plan(self) -> "RngPlan":
        """A fresh plan for the warm-up game, disjoint from this plan's streams."""
        return RngPlan(_child_seq(self.seed_seq, 2))


class Agent(Protocol):
    role: Role
    # False promises that play never reads the stream bound by bind_rng, so
    # the same config and agents replay the same game under any seed.
    draws_randomness: bool

    def act(self, state: JointState) -> int: ...

    def observe(self, state: JointState, opponent_demand: int) -> None: ...

    def bind_rng(self, rng: np.random.Generator) -> None: ...


class HeuristicAgent:
    """Non-optimizing player that samples its demand from its own rule-based model."""

    draws_randomness = True

    def __init__(self, role: Role, model: HeuristicModel):
        self.role = role
        self.model = model
        self.rng: np.random.Generator | None = None

    def bind_rng(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def act(self, state: JointState) -> int:
        if self.rng is None:
            raise RuntimeError("no rng bound; run_game binds one before play")
        return heuristic_sample(self.model, state, self.role, self.rng)

    def observe(self, state: JointState, opponent_demand: int) -> None:
        pass


def run_game(
    config: GameConfig,
    agent_a: Agent,
    agent_b: Agent,
    rng: RngPlan | None = None,
) -> GameLog:
    """Play one full game and return its log.

    ``rng`` defaults to ``RngPlan(config.seed)``.  Moves are simultaneous:
    A is asked before B, but neither sees the other's demand, so the order
    cannot change the outcome, which the test suite asserts.
    """
    if getattr(agent_a, "role", None) is not Role.A:
        raise ValueError("agent_a must be configured with the A seat")
    if getattr(agent_b, "role", None) is not Role.B:
        raise ValueError("agent_b must be configured with the B seat")
    plan = rng if rng is not None else RngPlan(config.seed)
    agent_a.bind_rng(plan.agent_a)
    agent_b.bind_rng(plan.agent_b)

    state = JointState(config.initial_demand, config.initial_demand)
    records = []
    for t in range(1, config.rounds + 1):
        if t == 1:
            demand_a = demand_b = config.initial_demand
        else:
            demand_a = agent_a.act(state)
            demand_b = agent_b.act(state)
        records.append(RoundRecord.from_demands(t, demand_a, demand_b, config))
        agent_a.observe(state, demand_b)
        agent_b.observe(state, demand_a)
        state = JointState(demand_a, demand_b)
    return GameLog.from_records(config, records)


def pretrain(
    config: GameConfig,
    agent_a,
    agent_b,
    n_rounds: int,
    rng: RngPlan | None = None,
) -> tuple[DirichletLearner, DirichletLearner]:
    """Warm-up game whose only output is the two agents' trained beliefs.

    Plays ``n_rounds`` under the usual game semantics with both (learning)
    agents, on a random stream disjoint from the main game's (``rng``
    defaults to ``RngPlan(config.seed)``), and returns the two learners.
    ``n_rounds = 0`` returns the priors untouched.
    """
    if not (getattr(agent_a, "learning", False) and getattr(agent_b, "learning", False)):
        raise ValueError("pretraining needs two learning agents")
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be non-negative, got {n_rounds}")
    if n_rounds == 0:
        return agent_a.learner, agent_b.learner
    plan = rng if rng is not None else RngPlan(config.seed)
    warmup_config = replace(config, rounds=n_rounds)
    run_game(warmup_config, agent_a, agent_b, plan.pretrain_plan())
    return agent_a.learner, agent_b.learner


# === CSV serialization ===

ROUND_FIELDS = (
    "round",
    "demand_a",
    "demand_b",
    "compatible",
    "profit_a",
    "profit_b",
    "reward_a",
    "reward_b",
    "unclaimed",
)

SUMMARY_FIELDS = (
    "omega_a",
    "omega_b",
    "seed",
    "cum_profit_a",
    "cum_profit_b",
    "total",
    "success_rate_pct",
)


def write_round_csv(log: GameLog, path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUND_FIELDS)
        for r in log.records:
            writer.writerow(
                [
                    r.t,
                    r.demand_a,
                    r.demand_b,
                    int(r.compatible),
                    r.profit_a,
                    r.profit_b,
                    r.reward_a,
                    r.reward_b,
                    r.unclaimed,
                ]
            )


def write_game_summary_csv(log: GameLog, path) -> None:
    """One-row headline summary; numeric columns use fixed two-decimal formatting."""
    cfg = log.config
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        writer.writerow(
            [
                f"{cfg.omega_a:.2f}",
                f"{cfg.omega_b:.2f}",
                cfg.seed,
                f"{log.cum_profit_a:.2f}",
                f"{log.cum_profit_b:.2f}",
                f"{log.cum_profit_a + log.cum_profit_b:.2f}",
                f"{log.success_rate_pct:.2f}",
            ]
        )
