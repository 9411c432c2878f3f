"""Repeated games: simultaneous moves, payoff accounting, learning updates.

Round 1 always plays the preset opening pair from the config.  Every later
round asks both agents for a demand at the current state (neither sees the
other's current choice), records it, lets both observe the opponent's demand
in the state the round was played at, and advances the state to the pair
just played.  :func:`run_games` steps several games together, round by
round, so that their planners share one batched solve per round;
:func:`run_game` is its one-game case.

The loop alone decides when rules are solved: every planner before round 2,
then every learner, whose belief moves each round, before each later round.
So agents reused for a second game play it as fresh agents would.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from typing import Protocol

import numpy as np

from .core import GameConfig, GameLog, JointState, Role, atomic_write, round_columns
from .opponent import DirichletLearner, HeuristicModel, heuristic_sample
from .planner import MdpAgent, solve_rules

__all__ = [
    "RngPlan",
    "Agent",
    "HeuristicAgent",
    "run_game",
    "run_games",
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

    def act(self, state: JointState) -> int: ...

    def observe(self, state: JointState, opponent_demand: int) -> None: ...

    def bind_rng(self, rng: np.random.Generator) -> None: ...


class HeuristicAgent:
    """Non-optimizing player that samples its demand from its own rule-based model."""

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
    """Play one full game and return its log: the one-game case of :func:`run_games`.

    ``rng`` defaults to ``RngPlan(config.seed)``.
    """
    plan = rng if rng is not None else RngPlan(config.seed)
    return run_games([config], [(agent_a, agent_b)], [plan])[0]


def run_games(configs, pairs, plans, warmup_rounds: int = 0) -> list[GameLog]:
    """Play one game per config, ``(agent_a, agent_b)`` pair and plan, all in lockstep.

    Every game steps through the same rounds, so the configs must share
    ``q``, ``rounds`` and ``initial_demand``; a sweep's configs differ only
    in their weights.  With ``warmup_rounds``, each pair first plays a
    warm-up game of that length on its plan's :meth:`RngPlan.pretrain_plan`
    streams, again in lockstep.
    """
    configs = list(configs)
    pairs = list(pairs)
    plans = list(plans)
    if not len(configs) == len(pairs) == len(plans):
        raise ValueError(
            f"need one config and plan per game, got {len(configs)} configs "
            f"and {len(plans)} plans for {len(pairs)} games"
        )
    if not configs:
        return []
    if len({(c.q, c.rounds, c.initial_demand) for c in configs}) > 1:
        raise ValueError("games played in lockstep must share q, rounds and initial_demand")
    if warmup_rounds:
        _warm_up(configs[0], pairs, plans, warmup_rounds)
    return [GameLog(config, demands) for config, demands in zip(configs, _play(configs[0], pairs, plans))]


def _warm_up(config: GameConfig, pairs, plans, n_rounds: int) -> None:
    # Warm-up games train the agents in place, on streams disjoint from the main games'.
    _play(replace(config, rounds=n_rounds), pairs, [plan.pretrain_plan() for plan in plans])


def _play(config: GameConfig, pairs, plans) -> np.ndarray:
    """Step every game one round at a time; return demands as ``(games, rounds, 2)``.

    Every game plays ``config``'s rounds from its opening demand.  Before
    round 2 every planner is solved, and before each later round every
    learner, in one batched solve per round.  Moves are simultaneous: A is
    asked before B, but neither sees the other's demand, so the order cannot
    change the outcome, which the test suite asserts.  Each agent draws only from its own stream, so
    the order in which games interleave cannot move a draw either.
    """
    for (agent_a, agent_b), plan in zip(pairs, plans):
        if getattr(agent_a, "role", None) is not Role.A:
            raise ValueError("agent_a must be configured with the A seat")
        if getattr(agent_b, "role", None) is not Role.B:
            raise ValueError("agent_b must be configured with the B seat")
        agent_a.bind_rng(plan.agent_a)
        agent_b.bind_rng(plan.agent_b)
    planners = [agent for pair in pairs for agent in pair if isinstance(agent, MdpAgent)]
    demands = np.empty((len(pairs), config.rounds, 2), dtype=np.int64)
    demands[:, 0] = config.initial_demand
    states = [JointState(config.initial_demand, config.initial_demand)] * len(pairs)
    for t in range(config.rounds):
        if t:
            solve_rules(planners)
            if t == 1:  # a fixed model's rule holds for the rest of the game
                planners = [agent for agent in planners if agent.learning]
        for g, (agent_a, agent_b) in enumerate(pairs):
            state = states[g]
            if t:
                demand_a, demand_b = agent_a.act(state), agent_b.act(state)
                demands[g, t] = demand_a, demand_b
            else:
                demand_a = demand_b = config.initial_demand
            agent_a.observe(state, demand_b)
            agent_b.observe(state, demand_a)
            states[g] = JointState(demand_a, demand_b)
    return demands


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
    _warm_up(config, [(agent_a, agent_b)], [plan], n_rounds)
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
    """One row per round, the columns of :func:`core.round_columns`."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUND_FIELDS)
        columns = round_columns(log.config, log.demands)
        writer.writerows(zip(*(columns[name].tolist() for name in ROUND_FIELDS)))


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
