"""Game loop, named random streams, warm-up play, and CSV round trips."""

import random
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndglab import (
    DirichletLearner,
    GameConfig,
    GameLog,
    HeuristicModel,
    Role,
    RngPlan,
    heuristic_table,
    pretrain,
    round_columns,
    run_game,
    uniform_table,
)
from ndglab import benchmark_spec, engine, experiments, opponent, run_test
from ndglab.engine import ROUND_FIELDS, run_games, write_game_summary_csv, write_round_csv
from ndglab.experiments import write_cells_csv, write_summary_csv
from ndglab.opponent import save_learner
from ndglab.core import TIE_BREAKS

from oracles import csv_rows, random_model, reference_game


def _uniform_pair(config):
    return uniform_table(config.q), uniform_table(config.q)


def _heuristic_pair(sigma_a=1.0, sigma_b=1.0, q=10):
    return HeuristicModel(sigma=sigma_a, q=q), HeuristicModel(sigma=sigma_b, q=q)


def test_fixed_uniform_agents_settle_on_the_even_split():
    # forced 3/3 opening, then 5/5 for the remaining 59 rounds
    config = GameConfig(omega_a=0.3, omega_b=0.8)
    log = run_game(config, *_uniform_pair(config))
    assert log.demands[0].tolist() == [3, 3]
    assert np.all(log.demands[1:] == 5)
    assert log.cum_profit_a == 3 + 59 * 5 == 298
    assert log.cum_profit_b == 298
    assert log.success_rate_pct == 100.0


def test_opening_round_is_forced():
    config = GameConfig(initial_demand=7, rounds=5)
    log = run_game(config, *_heuristic_pair())
    assert log.demands[0].tolist() == [7, 7]
    assert round_columns(config, log.demands)["compatible"][0] == 0  # 14 > 10, still played and recorded


def test_seat_roles_are_checked(monkeypatch):
    # a learner's counts serve one seat of a batch: one learner on both seats
    # of a game or on a seat of each of two lockstep games is refused before
    # round 1 and before any warm-up game
    def no_round_is_played(*args, **kwargs):
        raise AssertionError("a round was played")

    monkeypatch.setattr(engine, "backward_induction_batch", no_round_is_played)
    config = GameConfig(rounds=30)
    rule = HeuristicModel(1.0, 10)  # a rule-based model draws nothing of its own and may repeat
    shared = DirichletLearner.uniform(10)
    plans = [RngPlan(1), RngPlan(2)]
    for warmup_rounds in (0, 3):
        with pytest.raises(ValueError, match="agent_b of game 0 reuses the DirichletLearner of agent_a of game 0"):
            run_games([config], [(shared, shared)], plans[:1], warmup_rounds)
        with pytest.raises(ValueError, match="agent_a of game 1 reuses the DirichletLearner of agent_a of game 0"):
            run_games([config] * 2, [(shared, rule), (shared, rule)], plans, warmup_rounds)
        with pytest.raises(ValueError, match="agent_b of game 1 reuses the DirichletLearner of agent_a of game 0"):
            run_games([config] * 2, [(shared, rule), (rule, shared)], plans, warmup_rounds)
    assert shared.counts.sum() == 729.0  # nothing was observed


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("make_table", [lambda: uniform_table(3), lambda: random_model(np.random.default_rng(3), 3)])
def test_one_table_on_many_seats_plays_as_its_copies(tie_break, make_table):
    # a table holds nothing a game changes: on both seats of a game, and on a
    # seat of each of two lockstep games, it plays as independent copies;
    # q=3 under a uniform model ties every column, so random ties draw
    table = make_table()
    configs = [
        GameConfig(q=3, rounds=15, initial_demand=1, omega_a=wa, omega_b=wb, seed=s, tie_break=tie_break)
        for wa, wb, s in ((0.2, 0.2, 1), (0.2, 0.7, 2), (0.7, 0.2, 3))
    ]
    rule = HeuristicModel(1.0, 3)

    def play(first, second, third):
        pairs = [(first, second), (third, rule), (rule, third)]
        return run_games(configs, pairs, [RngPlan(c.seed) for c in configs])

    shared = play(table, table, table)
    assert shared == play(table.copy(), table.copy(), table.copy())
    assert shared[0] == run_game(configs[0], table.copy(), table.copy())


def test_a_seat_built_for_another_game_is_refused_before_round_1(monkeypatch):
    # a q=8 learner or a q=14 rule-based model in a q=10 game, or a seat of no
    # known kind; test_planner checks the fixed tables
    def no_round_is_played(*args, **kwargs):
        raise AssertionError("a round was played")

    monkeypatch.setattr(engine, "backward_induction_batch", no_round_is_played)
    monkeypatch.setattr(engine, "RuleRows", no_round_is_played)
    config = GameConfig(rounds=5)
    rule = HeuristicModel(1.0, 10)
    for seat, wrong, message in (
        ("agent_a", DirichletLearner.uniform(8), "agent_a was built for q=8"),
        ("agent_b", DirichletLearner.uniform(6), "agent_b was built for q=6"),
        ("agent_a", HeuristicModel(1.0, 14), "agent_a was built for q=14"),
        ("agent_b", HeuristicModel(1.0, 14), "agent_b was built for q=14"),
        ("agent_b", object(), "agent_b must be a model table, a DirichletLearner or a HeuristicModel"),
    ):
        pair = (wrong, rule) if seat == "agent_a" else (rule, wrong)
        with pytest.raises(ValueError, match=message):
            run_game(config, *pair)
        with pytest.raises(ValueError, match=message):  # also before a warm-up game
            run_games([config], [pair], [RngPlan(0)], warmup_rounds=3)


def test_same_seed_reproduces_the_game():
    config = GameConfig(seed=42)
    log1 = run_game(config, *_heuristic_pair())
    log2 = run_game(config, *_heuristic_pair())
    assert np.array_equal(log1.demands, log2.demands)
    log3 = run_game(GameConfig(seed=43), *_heuristic_pair())
    assert not np.array_equal(log3.demands, log1.demands)


SEATS = (("rule", 1.0), ("rule", 2.5), ("fixed-uniform", None), ("fixed-heuristic", 3.0), ("learner", None))
# Every batch holds these games: two spreads on seat B, fixed planners on both
# seats, learners, and rule-based models on both seats, one model on both
# seats of a game included; Hypothesis adds more and shuffles them.
CORE_GAMES = (
    (("fixed-heuristic", 3.0), ("rule", 1.0)),
    (("fixed-heuristic", 3.0), ("rule", 2.5)),
    (("rule", 1.0), ("fixed-uniform", None)),
    (("rule", 2.5), ("fixed-uniform", None)),
    (("learner", None), ("rule", 1.0)),
    (("learner", None), ("learner", None)),
    (("rule", 2.5), ("rule", 1.0)),
    (("rule", 1.0), ("rule", 1.0)),
)


def _seat(spec, seat, q):
    """The seat a spec names on seat 0 (A) or 1 (B), and the seat as
    ``oracles.reference_game`` reads it."""
    kind, sigma = spec
    if kind == "rule":
        model = HeuristicModel(sigma=sigma, q=q)
        return model, model
    if kind == "learner":
        return DirichletLearner.uniform(q), None
    table = uniform_table(q) if kind == "fixed-uniform" else heuristic_table(HeuristicModel(sigma, q))
    # the seat holds its own view; the replay takes (prev_a, prev_b) tables and swaps seat B's itself
    return table, table if seat == 0 else table.transpose(1, 0, 2)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 20),
    st.integers(1, 24),
    st.integers(1, 4),
    st.sampled_from(TIE_BREAKS),
    st.lists(st.tuples(st.sampled_from(SEATS), st.sampled_from(SEATS)), max_size=4),
    st.randoms(use_true_random=False),
    st.integers(0, 2**16),
)
@example(q=3, rounds=24, horizon=2, tie_break="smallest", extra=[], order=random.Random(0), seed=5)
def test_mixed_lockstep_games_equal_each_game_played_alone(q, rounds, horizon, tie_break, extra, order, seed):
    # rule-based seats grouped by model, one run memo per model whose rows
    # later rounds revisit, block-drawn uniforms, planners of every kind on
    # either seat: each game equals itself alone and a scalar replay
    games = list(CORE_GAMES) + extra
    order.shuffle(games)
    weights = (0.0, 0.3, 0.5, 1.0)
    configs = [
        GameConfig(q=q, rounds=rounds, horizon=horizon, initial_demand=1, seed=seed + g, tie_break=tie_break,
                   omega_a=weights[g % 4], omega_b=weights[(g // 4) % 4])
        for g in range(len(games))
    ]

    def build(game):
        return [_seat(spec, seat, q) for seat, spec in enumerate(game)]

    pairs = [tuple(held for held, _ in build(game)) for game in games]
    logs = run_games(configs, pairs, [RngPlan(config.seed) for config in configs])
    for config, game, log in zip(configs, games, logs):
        (seat_a, replay_a), (seat_b, replay_b) = build(game)
        assert log == run_game(config, seat_a, seat_b)
        replay = reference_game(config, (replay_a, replay_b), RngPlan(config.seed))
        assert log.demands.tolist() == [list(pair) for pair in replay]


def _prior(k, q):
    """Starting counts ``k``: uniform, or one of two fixed random tables."""
    shape = (q - 1,) * 3
    return np.ones(shape) if k == 0 else np.random.default_rng(k).integers(1, 4, shape).astype(float)


BELIEF_SEATS = (("learner", 0), ("learner", 1), ("learner", 2), ("rule", 1.0), ("fixed-uniform", None))
# Every batch holds these games: equal beliefs at two weights on seat A, two
# rule-based opponents that make equal beliefs part, self-play between equal
# and between unequal beliefs, and a learner on seat B; Hypothesis adds more.
BELIEF_GAMES = (
    (("learner", 0), ("rule", 1.0), 0.0, 0.5),
    (("learner", 0), ("rule", 1.0), 1.0, 0.5),
    (("learner", 0), ("rule", 1.0), 1.0, 0.5),
    (("learner", 1), ("learner", 1), 0.5, 0.5),
    (("learner", 1), ("learner", 2), 0.5, 0.5),
    (("fixed-uniform", None), ("learner", 0), 0.5, 0.0),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((3, 5, 10)),
    st.integers(1, 8),
    st.integers(1, 3),
    st.sampled_from(TIE_BREAKS),
    st.lists(
        st.tuples(*(st.sampled_from(BELIEF_SEATS),) * 2, *(st.sampled_from((0.0, 0.5, 1.0)),) * 2), max_size=4
    ),
    st.randoms(use_true_random=False),
    st.integers(0, 2**16),
)
def test_learners_sharing_a_belief_play_each_game_as_it_is_played_alone(
    q, rounds, horizon, tie_break, extra, order, seed
):
    # learners of equal weight and equal counts share one run row until what
    # they play or observe parts them, under random ties too, where at q=3
    # and 5 a uniform prior ties and row-mates draw apart: their demands and
    # the learners they hand back equal each game played alone, bit for bit,
    # on either seat and tie rule
    games = list(BELIEF_GAMES) + extra
    order.shuffle(games)
    configs = [
        GameConfig(q=q, rounds=rounds, horizon=horizon, initial_demand=1, seed=seed + g, tie_break=tie_break,
                   omega_a=wa, omega_b=wb)
        for g, (_, _, wa, wb) in enumerate(games)
    ]

    def build(game):
        seats = []
        for kind, arg in game[:2]:
            if kind == "learner":
                seats.append(DirichletLearner(_prior(arg, q), q))
            else:
                seats.append(HeuristicModel(arg, q) if kind == "rule" else uniform_table(q))
        return tuple(seats)

    pairs = [build(game) for game in games]
    logs = run_games(configs, pairs, [RngPlan(config.seed) for config in configs])
    for config, game, pair, log in zip(configs, games, pairs, logs):
        alone = build(game)
        assert log == run_game(config, *alone)
        for held, fresh in zip(pair, alone):
            if isinstance(held, DirichletLearner):
                assert held.counts.tobytes() == fresh.counts.tobytes()
                assert held.estimate.tobytes() == fresh.estimate.tobytes()


@pytest.mark.parametrize(("tie_break", "items"), (("smallest", 1), ("random", 1)))
def test_a_symmetric_self_play_game_solves_one_item_per_round(tie_break, items, monkeypatch):
    # two learners of one weight and one belief share a row all game: under
    # random ties too, as no state they play ties, so neither draws apart
    sizes = []
    real = engine.backward_induction_batch

    def counting(by_demand, gains, *args, **kwargs):
        sizes.append(len(gains))
        return real(by_demand, gains, *args, **kwargs)

    monkeypatch.setattr(engine, "backward_induction_batch", counting)
    config = GameConfig(rounds=12, tie_break=tie_break)
    log = run_game(config, *_learning_pair(config))
    assert sizes == [items] * (config.rounds - 1)
    assert np.array_equal(log.demands[:, 0], log.demands[:, 1])  # one row plays both seats


def test_row_mates_that_draw_apart_split_on_their_own_demands(monkeypatch):
    # at q=3 a uniform prior ties every column, so eight learners of one
    # weight and belief share one row until round 3, played at (2, 2), a
    # state none of them has seen: there they draw apart, while their fixed
    # opponent, which ties nowhere, plays them all the same demand, so only
    # their own demands part them
    sizes = []
    real = engine.backward_induction_batch

    def counting(by_demand, gains, *args, **kwargs):
        sizes.append(len(gains))
        return real(by_demand, gains, *args, **kwargs)

    monkeypatch.setattr(engine, "backward_induction_batch", counting)
    opponent = random_model(np.random.default_rng(0), 3)
    configs = [
        GameConfig(q=3, rounds=6, initial_demand=1, omega_a=0.5, omega_b=0.3, seed=s, tie_break="random")
        for s in range(8)
    ]
    pairs = [(DirichletLearner.uniform(3), opponent) for _ in configs]
    logs = run_games(configs, pairs, [RngPlan(config.seed) for config in configs])
    assert sizes == [1, 1, 1, 2, 2, 2]  # the opponent's rule, then the learners' row, split in two after round 3
    assert {log.demands[2, 0] for log in logs} == {1, 2} and len({log.demands[2, 1] for log in logs}) == 1
    monkeypatch.undo()
    for config, (learner, _), log in zip(configs, pairs, logs):
        alone = DirichletLearner.uniform(3)
        assert log == run_game(config, alone, opponent)
        assert learner.counts.tobytes() == alone.counts.tobytes()
        assert learner.estimate.tobytes() == alone.estimate.tobytes()


@pytest.mark.parametrize(
    ("scenario", "tie_break"), ((2, "smallest"), (5, "random")), ids=["learner-vs-rule", "pretrained-random-ties"]
)
def test_each_run_row_s_column_holds_the_bits_of_its_state_s_normalised_counts(scenario, tie_break, monkeypatch):
    # after every round's update, every state of every live row reads, through
    # the row's map, the bits of its counts normalised, and each column counts
    # the states that share it; scenario 2's rows split on the rule-based
    # draws, and scenario 5's learners start from warm-up counts
    live = []
    real = engine._observe

    def checking(counts, columns, column_of, members, states, observed, used):
        used = real(counts, columns, column_of, members, states, observed, used)
        rows = len(states)
        want = counts[:rows] / counts[:rows].sum(axis=-1, keepdims=True)
        got = np.take_along_axis(columns[:rows], column_of[:rows, None, :], axis=2)
        assert got.tobytes() == np.ascontiguousarray(want.transpose(0, 2, 1)).tobytes()
        for row in range(rows):
            assert np.array_equal(members[row], np.bincount(column_of[row], minlength=columns.shape[-1]))
        assert used == np.count_nonzero(members, axis=1).max() and used <= columns.shape[-1]
        live.append(rows)
        return used

    monkeypatch.setattr(engine, "_observe", checking)
    base = GameConfig(rounds=30, tie_break=tie_break)
    run_test(benchmark_spec(scenario, replications=3, grid=(0.3, 0.7), base=base))
    assert live[0] == 2 and max(live) > 2  # one row per weight at first, then the rows split


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((3, 5, 10)),
    st.integers(1, 12),
    st.integers(1, 4),
    st.integers(1, 9),
    st.sampled_from(TIE_BREAKS),
    st.tuples(st.sampled_from(SEATS), st.sampled_from(SEATS)),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.integers(0, 2**16),
)
def test_swapping_the_seats_swaps_the_demand_columns(q, rounds, horizon, opening, tie_break, game, weights, seed):
    # the game is seat-symmetric: X against Y plays Y against X with the two
    # weights and the two streams exchanged, demand columns swapped; a run
    # derives its streams from the plan's seed and key, so the mirrored game
    # is the scalar replay on a plan whose two streams are swapped
    config = GameConfig(q=q, rounds=rounds, horizon=horizon, initial_demand=1 + opening % (q - 1),
                        omega_a=weights[0], omega_b=weights[1], seed=seed, tie_break=tie_break)
    mirror = replace(config, omega_a=weights[1], omega_b=weights[0])
    swapped = RngPlan(seed)
    swapped.agent_a, swapped.agent_b = swapped.agent_b, swapped.agent_a
    log = run_game(config, _seat(game[0], 0, q)[0], _seat(game[1], 1, q)[0], RngPlan(seed))
    mirrored = reference_game(mirror, (_seat(game[1], 0, q)[1], _seat(game[0], 1, q)[1]), swapped)
    assert log.demands.tolist() == [[b, a] for a, b in mirrored]


def test_lockstep_games_may_differ_only_in_their_weights():
    configs = [
        GameConfig(rounds=12, omega_a=wa, omega_b=wb, seed=s, tie_break="random")
        for wa, wb, s in ((0.0, 1.0, 1), (0.7, 0.2, 2))
    ]
    pairs = [_uniform_pair(config) for config in configs]
    logs = run_games(configs, pairs, [RngPlan(c.seed) for c in configs])
    assert logs == [run_game(c, *_uniform_pair(c)) for c in configs]
    base = GameConfig(rounds=12)
    for other in (
        replace(base, rounds=11), replace(base, q=11), replace(base, initial_demand=4),
        replace(base, horizon=3), replace(base, tie_break="random"),
    ):
        with pytest.raises(ValueError, match="must share q, rounds, initial_demand, horizon and tie_break"):
            run_games([base, other], [_uniform_pair(c) for c in (base, other)], [RngPlan(0), RngPlan(1)])
    with pytest.raises(ValueError, match="one config and plan per game"):
        run_games(configs, pairs, [RngPlan(0)])
    with pytest.raises(ValueError, match="share one key length"):  # a run's plans are one key table
        run_games(configs, pairs, [RngPlan(0), RngPlan(0, (1,))])
    plan = RngPlan(0)  # a plan is a value: each game derives its own streams from it
    assert run_games(configs, pairs, [plan, plan]) == [run_game(c, *_uniform_pair(c), RngPlan(0)) for c in configs]


def test_reused_agents_play_a_second_game_as_fresh_agents_would():
    # q=3 under a uniform model ties every column, so each solve draws every
    # demand of the rule; the second game must solve again, from its own streams
    for tie_break in TIE_BREAKS:
        first, second = (
            GameConfig(q=3, initial_demand=1, rounds=12, seed=seed, tie_break=tie_break) for seed in (1, 2)
        )
        pair = _uniform_pair(first)
        for config in (first, second):
            assert run_game(config, *pair) == run_game(config, *(table.copy() for table in pair))


def test_per_round_conservation():
    config = GameConfig(seed=5)
    log = run_game(config, *_heuristic_pair(sigma_a=2.0))
    columns = round_columns(config, log.demands)
    assert np.all(columns["profit_a"] + columns["profit_b"] + columns["unclaimed"] == config.q)
    failed = columns["compatible"] == 0
    assert failed.any()
    assert np.all(columns["profit_a"][failed] == 0) and np.all(columns["profit_b"][failed] == 0)
    assert np.all(columns["unclaimed"][failed] == config.q)


def test_every_round_is_observed_at_its_own_state():
    # 60 rounds feed exactly 60 observations, the opening one at (3, 3)
    config = GameConfig()
    learner = DirichletLearner.uniform(10)
    log = run_game(config, learner, HeuristicModel(sigma=1.0, q=10))
    assert learner.counts.sum() == 729.0 + config.rounds
    assert learner.counts[2, 2, log.demands[0, 1] - 1] >= 2.0


def _replay_observations(learner, seat, logs):
    """Feed ``learner`` one scalar update per round of each game log, for the learner on ``seat``."""
    for demands in logs:
        for t, now in enumerate(demands.tolist()):
            state = demands[max(t - 1, 0)].tolist()
            learner.update(state[seat], state[1 - seat], now[1 - seat])
    return learner


@pytest.mark.parametrize("warmup_rounds", (0, 7))
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_each_learner_gets_back_a_scalar_replay_of_its_games(warmup_rounds, tie_break):
    # the run updates stacked copies of the learners and copies them back: each
    # learner then holds one scalar update per round of its warm-up game and
    # its game, in counts and estimate, whatever else shares the run
    q = 6
    configs = [
        GameConfig(q=q, rounds=9, initial_demand=2, omega_a=wa, omega_b=wb, seed=s, tie_break=tie_break)
        for wa, wb, s in ((0.2, 0.9, 1), (0.5, 0.5, 2), (1.0, 0.0, 3), (0.7, 0.3, 4))
    ]

    def pairs():
        rule = HeuristicModel(1.5, q)
        return [
            (DirichletLearner.uniform(q), rule),
            (rule, DirichletLearner.uniform(q)),
            (DirichletLearner.uniform(q), DirichletLearner.uniform(q)),
            (uniform_table(q), DirichletLearner.uniform(q)),
        ]

    played = pairs()
    logs = run_games(configs, played, [RngPlan(c.seed) for c in configs], warmup_rounds)
    warm_ups = [[] for _ in configs]
    if warmup_rounds:  # the warm-up games, played again from fresh seats on the same streams
        warm_configs = [replace(c, rounds=warmup_rounds) for c in configs]
        warm_logs = run_games(warm_configs, pairs(), [RngPlan(c.seed).pretrain_plan() for c in configs])
        warm_ups = [[log.demands] for log in warm_logs]
    checked = 0
    for pair, log, warm_up in zip(played, logs, warm_ups):
        for seat, held in enumerate(pair):
            if isinstance(held, DirichletLearner):
                replay = _replay_observations(DirichletLearner.uniform(q), seat, warm_up + [log.demands])
                assert held.counts.tobytes() == replay.counts.tobytes()
                assert held.estimate.tobytes() == replay.estimate.tobytes()
                checked += 1
    assert checked == 5


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_a_learner_reused_for_a_second_run_plays_it_as_a_fresh_copy_would(tie_break):
    # nothing of the first run's arrays survives into the second but what the
    # learner itself holds
    first, second = (GameConfig(rounds=25, seed=seed, tie_break=tie_break) for seed in (1, 2))
    rule = HeuristicModel(1.0, 10)
    learner = DirichletLearner.uniform(10)
    run_game(first, learner, rule)
    copy = DirichletLearner(learner.counts, 10)
    assert run_game(second, rule, learner) == run_game(second, rule, copy)
    assert learner.counts.tobytes() == copy.counts.tobytes()
    assert learner.estimate.tobytes() == copy.estimate.tobytes()


def _hashed_keys(monkeypatch):
    """Record, per ``engine._streams`` call, the key rows it hashes."""
    hashed, real = [], engine._streams

    def recording(children):
        hashed.append(np.asarray(children[2]).tolist())
        return real(children)

    monkeypatch.setattr(engine, "_streams", recording)
    return hashed


def test_a_plan_builds_a_seat_stream_only_when_it_is_read(monkeypatch):
    # under smallest ties a fixed planner draws nothing, so a run derives only
    # the rule-based seat's stream, key () + (1,), and reads none of the plan's
    # own; a plan builds each of its streams when a caller first reads it
    hashed = _hashed_keys(monkeypatch)
    config = GameConfig(rounds=12, seed=11)
    plan = RngPlan(11)
    run_game(config, uniform_table(10), HeuristicModel(1.0, 10), plan)
    assert hashed == [[[1]]]
    hashed.clear()
    assert plan.agent_b is plan.agent_b and hashed == [[[1]]]  # built once, then held
    eager = RngPlan(11)
    assert eager.agent_a is not eager.agent_b
    assert plan.agent_a.random(8).tolist() == eager.agent_a.random(8).tolist()
    assert plan.agent_b.random(8).tolist() == eager.agent_b.random(8).tolist()  # the run drew none of it


def test_a_plan_plays_the_same_game_each_time_it_is_used():
    # a run derives its streams afresh from a plan's seed and key, so one plan
    # object replays its game, alone or in a batch
    config = GameConfig(rounds=12, seed=3)
    plan = RngPlan(3)
    first, again = (run_game(config, uniform_table(10), HeuristicModel(1.0, 10), plan) for _ in range(2))
    assert first.demands[:, 1].tolist() == [3, 4, 5, 5, 6, 6, 5, 4, 4, 4, 3, 3]
    assert again == first
    plans = [plan, RngPlan(4)]
    pair = (uniform_table(10), HeuristicModel(1.0, 10))
    batches = [run_games([config, replace(config, seed=4)], [pair] * 2, plans) for _ in range(2)]
    assert batches[0] == batches[1] and batches[0][0] == first


def test_agent_streams_are_isolated():
    plan = RngPlan(42)
    reference = RngPlan(42)
    plan.agent_a.random(1000)  # heavy use of one stream
    assert np.array_equal(plan.agent_b.random(16), reference.agent_b.random(16))


def test_changing_one_weight_leaves_the_other_seat_draws_alone():
    # the fixed uniform planner demands 5 at every weight, so the heuristic
    # opponent sees identical states and must produce identical demands
    logs = []
    for omega_a in (0.2, 0.9):
        config = GameConfig(omega_a=omega_a, seed=3)
        logs.append(run_game(config, uniform_table(10), HeuristicModel(sigma=1.0, q=10)))
    assert np.array_equal(logs[0].demands[:, 1], logs[1].demands[:, 1])


_KEYS = st.lists(st.integers(0, 2**32 - 1), max_size=4).map(tuple)


def _assert_same_stream(stream, expected):
    assert stream.random(59).tobytes() == expected.random(59).tobytes()
    assert stream.bit_generator.state == expected.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**200), _KEYS)
@example(2**200, (2**32 - 1, 0, 2**32 - 1))
def test_a_keyed_plan_draws_the_streams_of_its_seed_sequence(seed, key):
    # child i of a plan is SeedSequence(seed, spawn_key=key + (i,)), built only when read
    plan = RngPlan(seed, key)
    warm = plan.pretrain_plan()
    streams = (plan.agent_a, plan.agent_b, warm.agent_a, warm.agent_b)
    for stream, spawn_key in zip(streams, (key + (0,), key + (1,), key + (2, 0), key + (2, 1))):
        _assert_same_stream(stream, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def _reference(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# plans of one key length, 0 to 4 parts, as one run takes them
_RUN_PLANS = st.integers(0, 4).flatmap(
    lambda parts: st.lists(
        st.tuples(st.integers(0, 2**200), st.tuples(*(st.integers(0, 2**32 - 1),) * parts)), min_size=1, max_size=8
    )
)


@settings(max_examples=60, deadline=None)
@given(_RUN_PLANS, st.data())
@example([(2**200, (2**32 - 1, 0, 5)), (2**40 + 3, (1, 2, 3))], None)
@example([(0, ()), (0, ()), (5, ())], None)  # equal plans derive equal, separate streams
# seeds of four words and of five: the key's hash positions start at 16 and at 20
@example([(2**128 - 1, (7, 0, 0, 0)), (2**128, (0, 0, 0, 0))], None)
def test_a_run_derives_every_seat_stream_as_its_seed_sequence_does(plans, data):
    # a run tabulates its plans once, over mixed seeds of one key length, and
    # derives any of its seats' streams, main or warm-up, in one hash; each
    # equals the SeedSequence child it names, and a plan read on its own
    # takes the one-plan case of the same hash
    games = len(plans)
    seats = list(range(2 * games))
    if data is not None:
        seats = data.draw(st.lists(st.sampled_from(seats), min_size=1, unique=True))
    table = engine._KeyedPlans.of([RngPlan(seed, key) for seed, key in plans])
    for derived, warm in ((table, ()), (table.pretrain_plan(), (2,))):
        streams = derived.seat_streams(np.array(seats))
        assert len({id(stream) for stream in streams}) == len(seats)
        for i, stream in zip(seats, streams):
            seed, key = plans[i % games]
            _assert_same_stream(stream, _reference(seed, (*key, *warm, i // games)))
    for seed, key in plans:
        _assert_same_stream(RngPlan(seed, key).agent_b, _reference(seed, (*key, 1)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**200),
    st.sets(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
    st.data(),
)
@example(2**200, {(0, 0), (2**32 - 1, 29)}, None)
# seeds of four words and of five: the key's hash positions start at 16 and at 20
@example(2**128 - 1, {(120, 29), (7, 0)}, None)
@example(2**128, {(0, 0)}, None)
def test_a_sweep_s_key_array_draws_the_streams_of_each_game_s_plan(seed, keys, data):
    # a sweep's chunk hands its run one table of its seed and (cell, rep)
    # keys, building no plan: seat i draws as seat i // games of
    # RngPlan(seed, keys[i % games]) would, and its warm-up seat as that
    # plan's pretrain_plan(), bits and final state alike
    keys = sorted(keys)
    games = len(keys)
    seats = list(range(2 * games))
    if data is not None:
        seats = data.draw(st.lists(st.sampled_from(seats), min_size=1, unique=True))
    plans = _sweep_table(seed, keys)
    for derived, warm in ((plans, False), (plans.pretrain_plan(), True)):
        streams = derived.seat_streams(np.array(seats))
        for i, stream in zip(seats, streams):
            plan = RngPlan(seed, keys[i % games])
            plan = plan.pretrain_plan() if warm else plan
            _assert_same_stream(stream, getattr(plan, ("agent_a", "agent_b")[i // games]))


def _sweep_table(seed, keys):
    """The key table a sweep's chunk of games keyed ``keys`` hands its run."""
    tables = []

    def capture(configs, pairs, plans, *args):
        tables.append(plans)
        return np.ones((len(pairs), 1, 2), dtype=np.int64)

    spec = benchmark_spec(1, base=GameConfig(rounds=1, seed=seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "play_games", capture)
        experiments._play_chunk(spec, [(spec.base, None, tuple(key)) for key in keys])
    return tables[0]


def test_a_key_array_run_plays_each_game_as_it_plays_alone():
    # each game of a sweep's table plays as it does alone on the plan its key
    # names: on equal keys, equal but separate streams; keys that differ in one
    # part, or hold the same parts in another order, are distinct
    config = GameConfig(rounds=4)
    pair = _heuristic_pair()
    for keys in ([[0, 1], [0, 1]], [[3, 5], [0, 1], [2, 2], [3, 5]], [[0, 1], [1, 0], [0, 2], [2**32 - 1, 1]]):
        games = len(keys)
        demands = engine.play_games([config] * games, [pair] * games, _sweep_table(9, keys))
        alone = [run_game(config, *pair, RngPlan(9, key)).demands for key in keys]
        assert demands.tolist() == [game.tolist() for game in alone]


@pytest.mark.parametrize(
    ("seed", "key"),
    [
        (-1, ()),
        (1.5, ()),
        (True, ()),
        ("1", ()),
        (1, (-1,)),
        (1, (0, 2.0)),
        # the streams hash an int seed and one 32-bit word per key part, nothing else
        (np.random.SeedSequence(7), ()),
        (np.random.SeedSequence(7, pool_size=8), ()),
        (0, (2**32,)),
        (0, (1, 2**64)),
        (0, (np.uint64(2**32),)),
    ],
)
def test_a_bad_seed_or_key_is_refused_when_the_plan_is_made(monkeypatch, seed, key):
    built = []
    monkeypatch.setattr(engine, "_streams", built.append)
    with pytest.raises(ValueError, match="must be a non-negative int"):
        RngPlan(seed, key).agent_a
    assert not built


def test_warmup_play_is_disjoint_and_reproducible():
    plan = RngPlan(1)
    warmup = plan.pretrain_plan()
    again = RngPlan(1).pretrain_plan()
    assert warmup.agent_a.random() == again.agent_a.random()
    assert RngPlan(1).agent_a.random() != RngPlan(1).pretrain_plan().agent_a.random()


@pytest.mark.parametrize("warmup_rounds", (-1, 2.5, True, "3", None))
def test_a_bad_warmup_length_is_refused_before_round_1(warmup_rounds):
    # -1 used to die inside numpy on a negative dimension and 2.5 on a float index
    config = GameConfig(rounds=5)
    pair = _learning_pair(config)
    with pytest.raises(ValueError, match=f"warmup_rounds must be a non-negative int, got {warmup_rounds!r}"):
        run_games([config], [pair], [RngPlan(0)], warmup_rounds)
    assert [learner.counts.sum() for learner in pair] == [729.0, 729.0]  # nothing was observed


def _learning_pair(config):
    return DirichletLearner.uniform(config.q), DirichletLearner.uniform(config.q)


@pytest.mark.parametrize("n_rounds", (-1, 2.5, True, "3", None))
def test_a_bad_pretrain_length_is_refused_before_round_1(n_rounds):
    # 2.5 and True used to die inside numpy with a TypeError
    config = GameConfig(rounds=5)
    pair = _learning_pair(config)
    with pytest.raises(ValueError, match=f"n_rounds must be a non-negative int, got {n_rounds!r}"):
        pretrain(config, *pair, n_rounds=n_rounds)
    assert [learner.counts.sum() for learner in pair] == [729.0, 729.0]  # nothing was observed


def test_pretrain_returns_warmed_up_beliefs():
    config = GameConfig()
    learner_a, learner_b = pretrain(config, *_learning_pair(config), n_rounds=30)
    assert learner_a.counts.sum() == 729.0 + 30
    assert learner_b.counts.sum() == 729.0 + 30
    again_a, again_b = pretrain(config, *_learning_pair(config), n_rounds=30)
    np.testing.assert_array_equal(learner_a.counts, again_a.counts)
    np.testing.assert_array_equal(learner_b.counts, again_b.counts)


def test_pretrain_zero_rounds_is_a_no_op():
    config = GameConfig()
    agent_a, agent_b = _learning_pair(config)
    learner_a, learner_b = pretrain(config, agent_a, agent_b, n_rounds=0)
    assert learner_a is agent_a
    assert learner_a.counts.sum() == 729.0


def test_pretrain_requires_learning_agents():
    config = GameConfig()
    agent_a, _ = _learning_pair(config)
    with pytest.raises(ValueError, match="DirichletLearner on both seats"):
        pretrain(config, agent_a, HeuristicModel(sigma=1.0, q=10), n_rounds=30)


def test_success_rate_edges():
    config = GameConfig(rounds=2)
    all_good = GameLog(config, np.full((2, 2), 5))
    assert all_good.success_rate_pct == 100.0
    all_bad = GameLog(config, np.full((2, 2), 9))
    assert all_bad.success_rate_pct == 0.0


def test_rule_based_game_memory_does_not_grow_as_q_cubed():
    # a game visits at most `rounds` states, so no (q-1)^3 table is needed to sample
    config = GameConfig(q=200, initial_demand=50, seed=9)
    tracemalloc.start()
    try:
        log = run_game(config, *_heuristic_pair(sigma_a=4.0, q=200))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log.demands) == 60
    assert peak < 16 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"


def _rule_based_run(q, monkeypatch):
    """Traced peak of 200 lockstep games between two rule-based models at ``q``,
    and the run memo of each model."""
    memos = []

    class Recorded(opponent.RuleRows):
        def __init__(self, model):
            super().__init__(model)
            memos.append(self)

    monkeypatch.setattr(engine, "RuleRows", Recorded)
    pair = (HeuristicModel(1.0, q), HeuristicModel(2.5, q))
    configs = [GameConfig(q=q, initial_demand=q // 3, seed=9) for _ in range(200)]
    tracemalloc.start()
    try:
        demands = engine.play_games(configs, [pair] * 200, [RngPlan(9, (g,)) for g in range(200)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for seat, memo in enumerate(memos):  # one column of sums per state the model's seat drew at
        visited = set(zip(demands[:, :-1, seat].ravel().tolist(), demands[:, :-1, 1 - seat].ravel().tolist()))
        assert memo.sums.shape == (q - 2, len(visited))
    return peak, memos


def test_a_rule_based_run_holds_no_more_than_its_visited_rows(monkeypatch):
    # what a 200-game run at q=60 holds beyond the same run at q=3 (the same
    # demands, streams and uniforms) is its rows, at most twice over while a
    # round adds some, their slot maps and one round's gathered rows; one
    # (q-1)^3 table alone is larger
    q = 60
    floor, _ = _rule_based_run(3, monkeypatch)
    peak, memos = _rule_based_run(q, monkeypatch)
    rows = sum(memo.sums.nbytes for memo in memos)
    bound = 2 * rows + sum(memo.slot.nbytes for memo in memos) + 200 * (q - 2) * 8
    over = (peak - floor) / 2**20
    assert peak - floor <= bound < (q - 1) ** 3 * 8, f"{over:.2f} MiB over q=3, bound {bound / 2**20:.2f}"


def test_a_run_builds_each_visited_state_s_row_once(monkeypatch):
    # a state's rule-based row is built only the first time one of its
    # model's seats draws there in a run, and a new run builds it anew
    built = []
    real_rows = opponent._rule_rows

    def counted(model, own, opp):
        built.extend((model, o, p) for o, p in zip(np.ravel(own).tolist(), np.ravel(opp).tolist()))
        return real_rows(model, own, opp)

    monkeypatch.setattr(opponent, "_rule_rows", counted)
    q = 6
    narrow, wide, table = HeuristicModel(1.0, q), HeuristicModel(2.5, q), uniform_table(q)
    pairs = [(narrow, wide), (wide, narrow), (narrow, table), (table, wide), (narrow, narrow)] * 4
    configs = [GameConfig(q=q, rounds=30, initial_demand=2, seed=s) for s in range(len(pairs))]
    for _ in range(2):
        built.clear()
        demands = engine.play_games(configs, pairs, [RngPlan(config.seed) for config in configs])
        visited = {
            (model, own, opp)
            for game, pair in zip(demands, pairs)
            for seat, model in enumerate(pair)
            if isinstance(model, HeuristicModel)
            for own, opp in zip(game[:-1, seat].tolist(), game[:-1, 1 - seat].tolist())
        }
        assert len(built) == len(set(built)) == len(visited)
        assert set(built) == visited


def test_a_run_checks_each_distinct_table_object_once(monkeypatch):
    # 200 games over three table objects, two of them equal: each object is
    # validated once, in order of first use, and equal tables still play alike
    checked = []
    real = engine._validate_model

    def counted(model, q):
        checked.append(id(model))
        return real(model, q)

    monkeypatch.setattr(engine, "_validate_model", counted)
    rule, shaped = HeuristicModel(1.0, 10), heuristic_table(HeuristicModel(3.0, 10))
    flat, copy = uniform_table(10), uniform_table(10).copy()
    pairs = [((shaped, rule), (rule, flat), (copy, shaped), (flat, copy))[g % 4] for g in range(200)]
    configs = [GameConfig(rounds=4, omega_a=g % 3 / 2, omega_b=g % 5 / 4) for g in range(200)]
    demands = engine.play_games(configs, pairs, [RngPlan(7, (g,)) for g in range(200)])
    assert checked == [id(shaped), id(flat), id(copy)]
    assert np.array_equal(demands[3::4], engine.play_games(configs[3::4], [(flat, flat)] * 50, [RngPlan(7, (g,)) for g in range(3, 200, 4)]))


def test_equal_rule_based_models_on_both_seats_share_one_memo(monkeypatch):
    # samplers are keyed by value: two equal models, one per seat, draw
    # through one RuleRows, and play as one model object on both seats would
    memos = []

    class Recorded(opponent.RuleRows):
        def __init__(self, model):
            super().__init__(model)
            memos.append(self)

    monkeypatch.setattr(engine, "RuleRows", Recorded)
    configs = [GameConfig(rounds=12, seed=s) for s in range(6)]
    one = HeuristicModel(2.0, 10)
    apart = engine.play_games(configs, [(one, HeuristicModel(2.0, 10))] * 6, [RngPlan(c.seed) for c in configs])
    assert len(memos) == 1
    visited = set(zip(apart[:, :-1].ravel().tolist(), apart[:, :-1, ::-1].ravel().tolist()))
    assert memos[0].sums.shape[1] == len(visited)
    assert np.array_equal(apart, engine.play_games(configs, [(one, one)] * 6, [RngPlan(c.seed) for c in configs]))


def test_a_one_round_game_of_rule_based_seats_plays_its_opening_pair():
    config = GameConfig(rounds=1, initial_demand=4)
    assert run_game(config, *_heuristic_pair()).demands.tolist() == [[4, 4]]
    plans = [RngPlan(1), RngPlan(2)]
    assert engine.play_games([config] * 2, [_heuristic_pair()] * 2, plans).tolist() == [[[4, 4]]] * 2


# --- CSV ---


def test_round_csv_round_trip(tmp_path):
    config = GameConfig(rounds=12, seed=9)
    log = run_game(config, *_heuristic_pair())
    path = tmp_path / "rounds.csv"
    write_round_csv(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,demand_a,demand_b,compatible,profit_a,profit_b,reward_a,reward_b,unclaimed"
    assert len(lines) == 13
    rows = csv_rows(path)
    columns = round_columns(config, log.demands)
    for name in ROUND_FIELDS:
        parse = float if name.startswith("reward") else int
        assert [parse(row[name]) for row in rows] == columns[name].tolist(), name
    assert [int(row["round"]) for row in rows] == list(range(1, 13))
    assert [[int(row["demand_a"]), int(row["demand_b"])] for row in rows] == log.demands.tolist()


def test_summary_csv_round_trip(tmp_path):
    config = GameConfig(omega_a=0.3, omega_b=0.8, seed=12)
    log = run_game(config, *_uniform_pair(config))
    path = tmp_path / "summary.csv"
    write_game_summary_csv(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "omega_a,omega_b,seed,cum_profit_a,cum_profit_b,total,success_rate_pct"
    assert lines[1] == "0.30,0.80,12,298.00,298.00,596.00,100.00"
    (summary,) = csv_rows(path)
    assert int(summary["seed"]) == 12
    assert float(summary["total"]) == 596.0


def _round_log_failing_at_row_2():
    return SimpleNamespace(config=GameConfig(), demands=np.array([[3, 3], [None, 3]], dtype=object))


def _learner_failing_at_row_4():
    counts = np.ones((2, 2, 2), dtype=object)
    counts[1, 1, 1] = None
    return SimpleNamespace(q=3, counts=counts)


# Each writer gets an input that breaks after its header (and some rows) went out.
FAILING_WRITES = {
    "write_round_csv": lambda path: write_round_csv(_round_log_failing_at_row_2(), path),
    "write_game_summary_csv": lambda path: write_game_summary_csv(
        SimpleNamespace(config=GameConfig(), cum_profit_a=None, cum_profit_b=0), path
    ),
    "write_cells_csv": lambda path: write_cells_csv(SimpleNamespace(cells=[None]), path),
    "write_summary_csv": lambda path: write_summary_csv(SimpleNamespace(summary={}), path),
    "save_learner": lambda path: save_learner(_learner_failing_at_row_4(), path, Role.A),
}


@pytest.mark.parametrize("writer", sorted(FAILING_WRITES))
def test_failed_write_leaves_no_partial_file(tmp_path, writer):
    target = tmp_path / "out.txt"
    with pytest.raises((AttributeError, KeyError, TypeError)):
        FAILING_WRITES[writer](target)
    assert list(tmp_path.iterdir()) == []

    target.write_text("previous contents\n")
    with pytest.raises((AttributeError, KeyError, TypeError)):
        FAILING_WRITES[writer](target)
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "previous contents\n"
