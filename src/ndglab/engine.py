"""Repeated games: simultaneous moves, payoff accounting, learning updates.

Round 1 always plays the preset opening pair from the config.  Every later
round reads both seats' demands at the previous round's pair (neither sees
the other's current choice), records them, and feeds each learner the
opponent's demand in the state the round was played at.  Each seat reads
that state from its own side, as ``(own_prev, opp_prev)``, so no agent
knows its seat.  A seat is an :class:`MdpAgent`, which plays its solved
rule, or a :class:`HeuristicModel`, which samples.  :func:`run_games` steps
several games together, round by round, over one ``(games, rounds, 2)``
demand array, so that their planners share one batched solve per round;
:func:`run_game` is its one-game case.

The loop alone decides when rules are solved: every planner before round 2,
then every learner, whose belief moves each round, before each later round.
So agents reused for a second game play it as fresh agents would.
"""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np

from .core import GameConfig, GameLog, atomic_write, round_columns
from .opponent import DirichletLearner, HeuristicModel, heuristic_sample
from .planner import MdpAgent, solve_rules

__all__ = [
    "RngPlan",
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


def run_game(
    config: GameConfig,
    agent_a: MdpAgent | HeuristicModel,
    agent_b: MdpAgent | HeuristicModel,
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
    in their weights.  A seat holds an :class:`MdpAgent` or a
    :class:`HeuristicModel` built for that ``q``, and an :class:`MdpAgent`
    holds one seat of the batch; anything else is refused before the first
    round.  With ``warmup_rounds``, each pair first plays a
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


def _check_seats(config: GameConfig, pairs) -> None:
    seated = {}  # each MdpAgent's first seat: its rule, stream and learner serve one seat
    for g, pair in enumerate(pairs):
        for name, agent in zip(("agent_a", "agent_b"), pair):
            if isinstance(agent, MdpAgent):
                first = seated.setdefault(id(agent), (name, g))
                if first != (name, g):
                    raise ValueError(f"{name} of game {g} is the MdpAgent already seated as {first[0]} of game {first[1]}")
            elif not isinstance(agent, HeuristicModel):
                raise ValueError(f"{name} must be an MdpAgent or a HeuristicModel, got {type(agent).__name__}")
            if agent.q != config.q:
                raise ValueError(f"{name} was built for q={agent.q}, the game has q={config.q}")


def _play(config: GameConfig, pairs, plans) -> np.ndarray:
    """Step every game one round at a time; return demands as ``(games, rounds, 2)``.

    Every game plays ``config``'s rounds from its opening demand.  Before
    round 2 every planner is solved, and before each later round every
    learner, in one batched solve per round.  Each round then reads every
    planner's demand from its rule at its game's previous pair, and samples
    every rule-based seat with one :func:`heuristic_sample` call per distinct
    model.  A rule-based seat draws only its demands, so its game's
    uniforms are drawn up front as one ``rounds - 1`` block, with the bits
    of one draw per round.  Each agent draws only from its own stream, so
    neither the order of the seats nor how games interleave can move a draw.
    """
    _check_seats(config, pairs)
    rounds = config.rounds
    demands = np.empty((len(pairs), rounds, 2), dtype=np.int64)
    demands[:, 0] = config.initial_demand
    planners, samplers = [], {}
    for g, (pair, plan) in enumerate(zip(pairs, plans)):
        for seat, (agent, rng) in enumerate(zip(pair, (plan.agent_a, plan.agent_b))):
            if isinstance(agent, MdpAgent):
                agent.rng = rng
                planners.append((agent, g, seat))
            else:
                samplers.setdefault(agent, []).append((g, seat, rng.random(rounds - 1)))
    # per model: the games and seats it holds, and their uniforms as (seats, rounds - 1)
    samplers = [(model, *map(np.array, zip(*seats))) for model, seats in samplers.items()]
    learners = [(agent.learner, g, seat) for agent, g, seat in planners if agent.learning]
    every_planner = [agent for agent, _, _ in planners]
    learning = [agent for agent in every_planner if agent.learning]
    prev = demands[:, 0].tolist()
    for t in range(rounds):
        if t:
            solve_rules(every_planner if t == 1 else learning)  # a fixed model's rule holds
            for agent, g, seat in planners:
                demands[g, t, seat] = agent.rule[prev[g][seat] - 1, prev[g][1 - seat] - 1]
            for model, games, seats, uniforms in samplers:
                own, opp = demands[games, t - 1, seats], demands[games, t - 1, 1 - seats]
                demands[games, t, seats] = heuristic_sample(model, own, opp, uniforms[:, t - 1])
        now = demands[:, t].tolist()
        for learner, g, seat in learners:
            learner.update(prev[g][seat], prev[g][1 - seat], now[g][1 - seat])
        prev = now
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
