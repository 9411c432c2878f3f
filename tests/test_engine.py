"""Game loop, named random streams, warm-up play, and CSV round trips."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
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
from ndglab import engine
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
    monkeypatch.setattr(engine, "heuristic_sample", no_round_is_played)
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
# seats, and learners; Hypothesis adds more and shuffles them.
CORE_GAMES = (
    (("fixed-heuristic", 3.0), ("rule", 1.0)),
    (("fixed-heuristic", 3.0), ("rule", 2.5)),
    (("rule", 1.0), ("fixed-uniform", None)),
    (("rule", 2.5), ("fixed-uniform", None)),
    (("learner", None), ("rule", 1.0)),
    (("learner", None), ("learner", None)),
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
    st.sampled_from((3, 5, 10)),
    st.integers(1, 8),
    st.integers(1, 4),
    st.sampled_from(TIE_BREAKS),
    st.lists(st.tuples(st.sampled_from(SEATS), st.sampled_from(SEATS)), max_size=4),
    st.randoms(use_true_random=False),
    st.integers(0, 2**16),
)
def test_mixed_lockstep_games_equal_each_game_played_alone(q, rounds, horizon, tie_break, extra, order, seed):
    # rule-based seats grouped by model, block-drawn uniforms, planners of every
    # kind on either seat: each game equals itself alone and a scalar replay
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
    # they observe parts them: their demands and the learners they hand back
    # equal each game played alone, bit for bit, on either seat and tie rule
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


@pytest.mark.parametrize(("tie_break", "items"), (("smallest", 1), ("random", 2)))
def test_a_symmetric_self_play_game_solves_one_item_per_round(tie_break, items, monkeypatch):
    # two learners of one weight and one belief share a row all game; under
    # random ties each draws its own ties, so each keeps its own item
    sizes = []
    real = engine.backward_induction_batch

    def counting(by_demand, gains, *args, **kwargs):
        sizes.append(len(gains))
        return real(by_demand, gains, *args, **kwargs)

    monkeypatch.setattr(engine, "backward_induction_batch", counting)
    config = GameConfig(rounds=12, tie_break=tie_break)
    log = run_game(config, *_learning_pair(config))
    assert sizes == [items] * (config.rounds - 1)
    if tie_break == "smallest":  # one row plays both seats
        assert np.array_equal(log.demands[:, 0], log.demands[:, 1])


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
    # weights and the two streams exchanged, demand columns swapped
    config = GameConfig(q=q, rounds=rounds, horizon=horizon, initial_demand=1 + opening % (q - 1),
                        omega_a=weights[0], omega_b=weights[1], seed=seed, tie_break=tie_break)
    mirror = replace(config, omega_a=weights[1], omega_b=weights[0])
    swapped = RngPlan(seed)
    swapped.agent_a, swapped.agent_b = swapped.agent_b, swapped.agent_a
    log = run_game(config, _seat(game[0], 0, q)[0], _seat(game[1], 1, q)[0], RngPlan(seed))
    mirrored = run_game(mirror, _seat(game[1], 0, q)[0], _seat(game[0], 1, q)[0], swapped)
    assert log.demands.tolist() == mirrored.demands[:, ::-1].tolist()


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
    plan = RngPlan(0)  # two games on one plan would share their seats' streams
    with pytest.raises(ValueError, match="RngPlan of its own"):
        run_games(configs, pairs, [plan, plan])


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


def test_a_plan_builds_a_seat_stream_only_when_it_is_read():
    # under smallest ties a fixed planner draws nothing, so its stream is never
    # built; a stream first read late draws what one built with the plan draws
    config = GameConfig(rounds=12, seed=11)
    plan = RngPlan(11)
    run_game(config, uniform_table(10), HeuristicModel(1.0, 10), plan)
    assert "agent_a" not in vars(plan) and "agent_b" in vars(plan)
    eager = RngPlan(11)
    assert eager.agent_a is not eager.agent_b  # both streams built before any draw
    eager.agent_b.random(config.rounds - 1)  # the rule-based seat's draws: one block of rounds - 1
    assert plan.agent_a.random(8).tolist() == eager.agent_a.random(8).tolist()
    assert plan.agent_b.random(8).tolist() == eager.agent_b.random(8).tolist()


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


def test_plan_accepts_seed_sequences():
    seq = np.random.SeedSequence(7)
    plan1, plan2 = RngPlan(seq), RngPlan(seq)
    assert plan1.agent_a.random() == plan2.agent_a.random()


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
