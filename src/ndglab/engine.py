"""Repeated games: simultaneous moves, payoff accounting, learning updates.

Round 1 always plays the preset opening pair from the config.  Every later
round reads both seats' demands at the previous round's pair (neither sees
the other's current choice), records them, and feeds each learner the
opponent's demand in the state the round was played at.  Each seat reads
that state from its own side, as ``(own_prev, opp_prev)``, so no seat
knows its side.  A seat is what its player knows of the opponent: a fixed
model table or a :class:`DirichletLearner`, planned against under the
weight, horizon and tie rule of the game's config, or a
:class:`HeuristicModel`, which samples.  :func:`run_games` steps several
games together, round by round, over one ``(games, rounds, 2)`` demand
array, so that their planners share batched solves and their learners one
:func:`observe` call per round; :func:`run_game` is its one-game case.

The loop alone decides when rules are solved: every fixed planner's full
rule once, before round 2; every learner, whose belief moves each round,
before each later round, at the one state it plays there only, from stacked
copies of the learners written back when the run ends.  So seats reused for
a second game play it as fresh seats would.
"""

from __future__ import annotations

import csv
from functools import cached_property

import numpy as np

from .core import GameConfig, GameLog, atomic_write, round_columns
from .opponent import DirichletLearner, HeuristicModel, heuristic_sample, observe
from .planner import _validate_model, backward_induction_batch, solve_rules, solver_inputs

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

    Same seed, same configuration: bit-identical game.  Each seat gets its
    own child stream, so changing one player's settings cannot shift the
    other player's draws; a further child seeds an optional warm-up game.
    A seat's stream is built when it is first read.
    """

    agent_a = cached_property(lambda self: np.random.default_rng(_child_seq(self.seed_seq, 0)))
    agent_b = cached_property(lambda self: np.random.default_rng(_child_seq(self.seed_seq, 1)))

    def __init__(self, seed: int | np.random.SeedSequence):
        if isinstance(seed, np.random.SeedSequence):
            self.seed_seq = seed
        else:
            self.seed_seq = np.random.SeedSequence(int(seed))

    def pretrain_plan(self) -> "RngPlan":
        """A fresh plan for the warm-up game, disjoint from this plan's streams."""
        return RngPlan(_child_seq(self.seed_seq, 2))


def run_game(config: GameConfig, agent_a, agent_b, rng: RngPlan | None = None) -> GameLog:
    """Play one full game and return its log: the one-game case of :func:`run_games`.

    ``rng`` defaults to ``RngPlan(config.seed)``.
    """
    plan = rng if rng is not None else RngPlan(config.seed)
    return run_games([config], [(agent_a, agent_b)], [plan])[0]


def run_games(configs, pairs, plans, warmup_rounds: int = 0) -> list[GameLog]:
    """Play one game per config, ``(agent_a, agent_b)`` pair and plan, all in lockstep.

    Every game steps through the same rounds and solves, so the configs must
    share ``q``, ``rounds``, ``initial_demand``, ``horizon`` and
    ``tie_break``; a sweep's configs differ only in their weights.  A seat
    holds a fixed model table, a :class:`DirichletLearner` or a
    :class:`HeuristicModel` for that ``q``; a learner holds one seat of the
    batch, and each game has a plan of its own.  Anything else is refused
    before the first round.  With ``warmup_rounds``, a non-negative int, each
    pair first plays a warm-up game of that length on its plan's
    :meth:`RngPlan.pretrain_plan` streams, again in lockstep.
    """
    if isinstance(warmup_rounds, bool) or not isinstance(warmup_rounds, (int, np.integer)) or warmup_rounds < 0:
        raise ValueError(f"warmup_rounds must be a non-negative int, got {warmup_rounds!r}")
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
    if len({(c.q, c.rounds, c.initial_demand, c.horizon, c.tie_break) for c in configs}) > 1:
        raise ValueError("games played in lockstep must share q, rounds, initial_demand, horizon and tie_break")
    if len(set(map(id, plans))) < len(plans):
        raise ValueError("every game needs an RngPlan of its own")
    if warmup_rounds:
        _warm_up(configs, pairs, plans, warmup_rounds)
    demands = _play(configs, pairs, plans, configs[0].rounds)
    return [GameLog(config, game) for config, game in zip(configs, demands)]


def _warm_up(configs, pairs, plans, n_rounds: int) -> None:
    # Warm-up games train the learners in place, on streams disjoint from the main games'.
    _play(configs, pairs, [plan.pretrain_plan() for plan in plans], n_rounds)


def _check_seats(config: GameConfig, pairs) -> dict:
    """Refuse a bad seat; return each distinct fixed table, checked once, by its ``id``."""
    tables, learners = {}, {}  # a learner's counts serve one seat
    for g, pair in enumerate(pairs):
        for name, seat in zip(("agent_a", "agent_b"), pair):
            if isinstance(seat, np.ndarray):
                if id(seat) not in tables:
                    tables[id(seat)] = _validate_model(seat, config.q)
                continue
            if isinstance(seat, DirichletLearner):
                first = learners.setdefault(id(seat), (name, g))
                if first != (name, g):
                    raise ValueError(f"{name} of game {g} reuses the DirichletLearner of {first[0]} of game {first[1]}")
            elif not isinstance(seat, HeuristicModel):
                raise ValueError(
                    f"{name} must be a model table, a DirichletLearner or a HeuristicModel, got {type(seat).__name__}"
                )
            if seat.q != config.q:
                raise ValueError(f"{name} was built for q={seat.q}, the game has q={config.q}")
    return tables


def _play(configs, pairs, plans, rounds: int) -> np.ndarray:
    """Step every game one round at a time; return demands as ``(games, rounds, 2)``.

    Planners use their game's weight and the shared horizon and tie rule.
    Fixed planners are solved in one batch before round 2, and a round
    gathers their demands from the stacked rules.  Learners are solved in
    one batch every later round, which returns each one's demand at the
    state it plays.  A round samples each rule-based model once, from uniforms
    drawn up front per seat with the bits of one draw per round.  Each seat
    draws only from its own stream, read only if it draws, so seat order and
    interleaving cannot move a draw.  Learners are copied into stacked run
    arrays, fed by one :func:`observe` per round and copied back at the end.
    """
    config = configs[0]
    tables = _check_seats(config, pairs)
    h, q = config.horizon, config.q
    demands = np.empty((len(pairs), rounds, 2), dtype=np.int64)
    demands[:, 0] = config.initial_demand
    random_ties = config.tie_break == "random"
    fixed, learning, samplers = [], [], {}  # planners as (g, seat, table or learner, omega, stream)
    for g, (game, pair, plan) in enumerate(zip(configs, pairs, plans)):
        for seat, (held, omega, name) in enumerate(zip(pair, (game.omega_a, game.omega_b), ("agent_a", "agent_b"))):
            if isinstance(held, HeuristicModel):
                samplers.setdefault(held, []).append((g, seat, getattr(plan, name).random(rounds - 1)))
                continue
            stream = getattr(plan, name) if random_ties else None
            if isinstance(held, DirichletLearner):
                learning.append((g, seat, held, omega, stream))
            else:
                fixed.append((g, seat, tables[id(held)], omega, stream))
    # per model: the games and seats it holds, and their uniforms as (seats, rounds - 1)
    samplers = [(model, *map(np.array, zip(*seats))) for model, seats in samplers.items()]
    fixed_games, fixed_seats = _seat_arrays(fixed)
    planners, rules = np.arange(len(fixed)), np.empty((len(fixed), q - 1, q - 1), dtype=np.intp)
    learners = counts = estimate = ()
    if learning:
        _, _, learners, omegas, streams = zip(*learning)
        by_demand, gains = solver_inputs([learner.estimate for learner in learners], omegas, q)
        counts = np.stack([learner.counts for learner in learners])
        estimate = by_demand.reshape(counts.shape).transpose(0, 2, 3, 1)  # in each learner's view
        learner_games, learner_seats = _seat_arrays(learning)
    for t in range(rounds):
        if learning:  # each learner's state from its side; the opening round is played at the opening pair
            state = max(t - 1, 0)
            own_prev = demands[learner_games, state, learner_seats]
            opp_prev = demands[learner_games, state, 1 - learner_seats]
        if t:
            if t == 1 and fixed:  # a fixed model's rule holds for the run
                _, _, *inputs = zip(*fixed)
                rules[...] = solve_rules(*inputs, h, q)
            before = demands[:, t - 1]
            own, opp = before[fixed_games, fixed_seats], before[fixed_games, 1 - fixed_seats]
            demands[fixed_games, t, fixed_seats] = rules[planners, own - 1, opp - 1]
            if learning:  # a learner acts only at the state it plays, so only that state's demand is read
                states = (own_prev - 1) * (q - 1) + opp_prev - 1
                demands[learner_games, t, learner_seats] = backward_induction_batch(
                    by_demand, gains, h, rngs=streams, states=states
                )
            for model, model_games, model_seats, uniforms in samplers:
                own, opp = before[model_games, model_seats], before[model_games, 1 - model_seats]
                demands[model_games, t, model_seats] = heuristic_sample(model, own, opp, uniforms[:, t - 1])
        if learning:
            observe(counts, estimate, own_prev, opp_prev, demands[learner_games, t, 1 - learner_seats])
    for learner, run_counts, run_estimate in zip(learners, counts, estimate):
        learner.counts[...] = run_counts
        learner.estimate[...] = run_estimate
    return demands


def _seat_arrays(planners) -> tuple[np.ndarray, np.ndarray]:
    """The games and seats of planners given as ``(g, seat, ...)``, as two index arrays."""
    return np.array([(g, seat) for g, seat, *_ in planners], dtype=np.intp).reshape(-1, 2).T


def pretrain(config: GameConfig, agent_a, agent_b, n_rounds: int, rng: RngPlan | None = None):
    """Warm-up game that trains two learners in place; returns ``(agent_a, agent_b)``.

    Plays ``n_rounds`` under the usual game semantics, with the weights,
    horizon and tie rule of ``config``, between the two
    :class:`DirichletLearner` seats, on a random stream disjoint from the
    main game's (``rng`` defaults to ``RngPlan(config.seed)``).
    ``n_rounds = 0`` leaves them untouched.
    """
    if not (isinstance(agent_a, DirichletLearner) and isinstance(agent_b, DirichletLearner)):
        raise ValueError("pretraining needs a DirichletLearner on both seats")
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be non-negative, got {n_rounds}")
    if n_rounds:
        _warm_up([config], [(agent_a, agent_b)], [rng if rng is not None else RngPlan(config.seed)], n_rounds)
    return agent_a, agent_b


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
