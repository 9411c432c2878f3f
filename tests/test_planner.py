"""Finite-horizon lookahead solver, and planners played under their game's config."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndglab import (
    DirichletLearner,
    GameConfig,
    HeuristicModel,
    RngPlan,
    backward_induction,
    brute_force_value,
    reward_matrix,
    run_game,
    uniform_table,
)
from ndglab import engine
from ndglab.core import TIE_BREAKS
from ndglab.engine import run_games
from ndglab.planner import backward_induction_batch, solver_inputs

from oracles import (
    exhaustive_policy_max,
    one_step_action_values,
    random_model,
    stage_loop_backward_induction,
    table_prob,
    tree_value,
)


def test_uniform_model_profit_only_values():
    # the context-free model makes the value state independent: 25/9 per stage
    values, actions = backward_induction(uniform_table(10), 0.0, 1, 10)
    np.testing.assert_allclose(values[1], 25 / 9, atol=1e-12, rtol=0)
    values, actions = backward_induction(uniform_table(10), 0.0, 10, 10)
    np.testing.assert_allclose(values[10], 250 / 9, atol=1e-12, rtol=0)
    assert np.all(actions == 5)


def test_uniform_model_midpoint_demand_for_every_weight():
    for omega in (i / 10 for i in range(11)):
        _, actions = backward_induction(uniform_table(10), omega, 10, 10)
        assert np.all(actions == 5), f"omega={omega}"


def test_one_step_values_match_scalar_oracle():
    rng = np.random.default_rng(5)
    for q in (4, 10):
        model = random_model(rng, q)
        prob = table_prob(model)
        for omega in (0.0, 0.3, 1.0):
            solved, actions = backward_induction(model, omega, 1, q)
            for own in range(1, q):
                for opp in range(1, q):
                    values = one_step_action_values(prob, omega, q, own, opp)
                    assert solved[1, own - 1, opp - 1] == pytest.approx(
                        max(values), abs=1e-12
                    )
                    best = values.index(max(values)) + 1
                    assert actions[own - 1, opp - 1] == best


def test_multi_stage_values_match_tree_oracle():
    rng = np.random.default_rng(6)
    for q in (3, 5):
        for _ in range(3):
            model = random_model(rng, q)
            prob = table_prob(model)
            for omega in (0.0, 0.5, 1.0):
                for h in (1, 2, 3):
                    values, _ = backward_induction(model, omega, h, q)
                    for own in range(1, q):
                        for opp in range(1, q):
                            want = tree_value(prob, omega, h, q, own, opp)
                            assert values[h, own - 1, opp - 1] == pytest.approx(
                                want, abs=1e-9
                            )
                            assert brute_force_value(
                                model, omega, h, q, (own, opp)
                            ) == pytest.approx(want, abs=1e-9)


def test_values_match_literal_policy_enumeration():
    # every deterministic stage policy spelled out, q=3 keeps that finite
    rng = np.random.default_rng(9)
    model = random_model(rng, 3)
    prob = table_prob(model)
    for omega in (0.0, 0.7):
        for h in (1, 2, 3):
            values, _ = backward_induction(model, omega, h, 3)
            for own in (1, 2):
                for opp in (1, 2):
                    assert values[h, own - 1, opp - 1] == pytest.approx(
                        exhaustive_policy_max(prob, omega, h, 3, own, opp), abs=1e-12
                    )


def _two_point_model():
    # opponent plays 4 or 6 with equal odds whatever happened before
    row = np.zeros(9)
    row[3] = row[5] = 0.5
    return np.tile(row, (9, 9, 1))


def test_exact_ties_resolve_to_the_smallest_demand():
    # against {4, 6} at full weight, demands 4, 5, 6 all score -1
    values, actions = backward_induction(_two_point_model(), 1.0, 1, 10)
    np.testing.assert_allclose(values[1], -1.0, atol=1e-12, rtol=0)
    assert np.all(actions == 4)


def test_random_tie_breaking_draws_among_exact_ties():
    rng = np.random.default_rng(21)
    seen = set()
    for _ in range(30):
        _, actions = backward_induction(_two_point_model(), 1.0, 1, 10, tie_break="random", rng=rng)
        seen.update(np.unique(actions).tolist())
    assert seen == {4, 5, 6}


def _assert_same_solve(model, omega, h, q, tie_break="smallest", seed=None):
    rng = None if seed is None else np.random.default_rng(seed)
    got_values, got_actions = backward_induction(model, omega, h, q, tie_break=tie_break, rng=rng)
    rng = None if seed is None else np.random.default_rng(seed)
    values, actions = stage_loop_backward_induction(model, omega, h, q, tie_break, rng)
    assert np.array_equal(got_values, values)
    assert np.array_equal(got_actions, actions)


def test_solver_matches_stage_loop_bit_for_bit():
    rng = np.random.default_rng(33)
    for q in (3, 5, 10):
        for _ in range(20):
            model = random_model(rng, q)
            omega = float(rng.choice([0.0, 0.5, 1.0, rng.random()]))
            h = int(rng.integers(1, 11))
            _assert_same_solve(model, omega, h, q)
            _assert_same_solve(model.transpose(1, 0, 2), omega, h, q)  # seat B's view


def test_solver_matches_stage_loop_on_ties():
    for omega in (i / 10 for i in range(11)):
        for h in (1, 10):
            _assert_same_solve(uniform_table(10), omega, h, 10)
            _assert_same_solve(uniform_table(10), omega, h, 10, "random", seed=7)
    for seed in range(5):
        _assert_same_solve(_two_point_model(), 1.0, 1, 10, "random", seed=seed)
        _assert_same_solve(_two_point_model().transpose(1, 0, 2), 1.0, 3, 10, "random", seed=seed)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((3, 4, 5, 10)),
    st.integers(1, 10),
    st.lists(
        st.tuples(
            st.sampled_from(("random", "uniform")),
            st.sampled_from((0.0, 0.5, 1.0, 0.3)),
            st.sampled_from(TIE_BREAKS),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 2**32 - 1),
)
def test_batched_solve_equals_scalar_solves_bit_for_bit(q, h, items, seed):
    # uniform models at odd q tie in many columns, at q=3 in every column
    rng = np.random.default_rng(seed)
    models = [random_model(rng, q) if kind == "random" else uniform_table(q) for kind, *_ in items]
    omegas = [omega for _, omega, _, _ in items]

    def streams():
        return [np.random.default_rng(s) if tie == "random" else None for _, _, tie, s in items]

    n = q - 1
    inputs = solver_inputs(models, omegas, q)
    rngs, lean_rngs = streams(), streams()
    values = np.zeros((len(items), h + 1, n * n))
    actions = backward_induction_batch(*inputs, h, rngs=rngs, values=values)
    # without a values buffer the loop keeps two rolling stages and must solve the same
    assert np.array_equal(backward_induction_batch(*inputs, h, rngs=lean_rngs), actions)
    values = values.reshape(len(items), h + 1, n, n)
    for i, (_, omega, tie, tie_seed) in enumerate(items):
        tie_rng = np.random.default_rng(tie_seed) if tie == "random" else None
        want_values, want_actions = backward_induction(models[i], omega, h, q, tie_break=tie, rng=tie_rng)
        assert values[i].tobytes() == want_values.tobytes()
        assert np.array_equal(actions[i], want_actions)
        if tie == "random":  # both batches drew exactly what the solo solve drew from an equal stream
            assert rngs[i].random() == lean_rngs[i].random() == tie_rng.random()
        oracle_rng = np.random.default_rng(tie_seed) if tie == "random" else None
        oracle_values, oracle_actions = stage_loop_backward_induction(models[i], omega, h, q, tie, oracle_rng)
        assert values[i].tobytes() == oracle_values.tobytes()
        assert np.array_equal(actions[i], oracle_actions)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.integers(1, 10),
    st.lists(
        st.tuples(
            st.sampled_from(("random", "uniform")),
            st.sampled_from((0.0, 0.5, 1.0, 0.3)),
            st.sampled_from(TIE_BREAKS),
            st.integers(0, 3),
            st.integers(0, 35),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 2**32 - 1),
)
def test_a_solve_read_at_one_state_per_item_equals_the_full_solve_there(q, h, items, seed):
    # uniform models at odd q tie in many columns, at q=3 in every column; an
    # item that draws its ties draws them over every column, read or not
    rng = np.random.default_rng(seed)
    models = [random_model(rng, q) if kind == "random" else uniform_table(q) for kind, *_ in items]
    inputs = solver_inputs(models, [omega for _, omega, *_ in items], q)
    states = np.array([state % (q - 1) ** 2 for *_, state in items])

    def streams():
        return [np.random.default_rng(s) if tie == "random" else None for _, _, tie, s, _ in items]

    full_rngs, read_rngs = streams(), streams()
    full = backward_induction_batch(*inputs, h, rngs=full_rngs)
    read = backward_induction_batch(*inputs, h, rngs=read_rngs, states=states)
    assert read.tobytes() == full.reshape(len(items), -1)[np.arange(len(items)), states].tobytes()
    for full_rng, read_rng in zip(full_rngs, read_rngs):
        if full_rng is not None:
            assert read_rng.bit_generator.state == full_rng.bit_generator.state


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=6))
def test_agents_on_equal_seeds_draw_equal_ties_in_one_batch(seeds):
    # q=3 under a uniform model ties every column, so every column draws
    table = uniform_table(3)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    batch = backward_induction_batch(*solver_inputs([table] * len(seeds), [0.5] * len(seeds), 3), 2, rngs=rngs)
    for seed, rng, rule in zip(seeds, rngs, batch):
        alone_rng = np.random.default_rng(seed)
        _, alone = backward_induction(table, 0.5, 2, 3, tie_break="random", rng=alone_rng)
        assert np.array_equal(rule, alone)
        assert rng.random() == alone_rng.random()  # each drew from its own stream only


def _count_items(monkeypatch) -> list[int]:
    """Record the item count of each batch the engine solves, in the returned list."""
    sizes = []
    real = engine.backward_induction_batch

    def counting(by_demand, gains, *args, **kwargs):
        sizes.append(len(gains))
        return real(by_demand, gains, *args, **kwargs)

    monkeypatch.setattr(engine, "backward_induction_batch", counting)
    return sizes


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("copies", [False, True], ids=["one-object", "bit-equal-copies"])
def test_fixed_planners_share_one_item_per_table_content_and_weight(copies, tie_break, monkeypatch):
    # six planners on both seats of three games hold a uniform table at two
    # weights, as one object or as distinct bit-equal copies: under smallest
    # ties they are solved as one item per weight; under random ties each
    # planner draws its own ties, so is its own item
    sizes = _count_items(monkeypatch)
    table = uniform_table(10)
    configs = [
        GameConfig(rounds=8, omega_a=wa, omega_b=wb, seed=s, tie_break=tie_break)
        for wa, wb, s in ((0.2, 0.2, 1), (0.7, 0.2, 2), (0.2, 0.7, 3))
    ]
    pairs = [(table.copy(), table.copy()) if copies else (table, table) for _ in configs]
    logs = run_games(configs, pairs, [RngPlan(c.seed) for c in configs])
    assert sizes == [2 if tie_break == "smallest" else 6]
    monkeypatch.undo()
    for config, log in zip(configs, logs):
        assert log == run_game(config, table.copy(), table.copy())


@pytest.mark.parametrize("seat", [0, 1])
def test_a_table_given_as_a_view_plays_as_its_contiguous_copy(seat, monkeypatch):
    # a transposed table is a valid, non-contiguous view; it plays bit-equal
    # to its contiguous copy, and in one run the two share one item
    sizes = _count_items(monkeypatch)
    view = random_model(np.random.default_rng(21), 10).transpose(1, 0, 2)
    assert not view.flags.c_contiguous
    copy = np.ascontiguousarray(view)
    opponent = HeuristicModel(sigma=4.0, q=10)
    config = GameConfig(rounds=40, omega_a=0.6, omega_b=0.6, seed=9)

    def seated(table):
        return (table, opponent) if seat == 0 else (opponent, table)

    alone = run_game(config, *seated(view))
    assert alone == run_game(config, *seated(copy))
    sizes.clear()
    together = run_games([config] * 2, [seated(view), seated(copy)], [RngPlan(config.seed), RngPlan(config.seed)])
    assert together == [alone, alone]
    assert sizes == [1]


def test_random_tie_breaking_needs_rng():
    with pytest.raises(ValueError, match="rng"):
        backward_induction(uniform_table(10), 0.5, 1, 10, tie_break="random")


def test_model_validation(monkeypatch):
    # the solver and a fixed-table seat refuse the same tables: the batch
    # trusts a seat's table, so the seat check before round 1 is the only gate
    def no_round_is_played(*args, **kwargs):
        raise AssertionError("a round was played")

    monkeypatch.setattr(engine, "backward_induction_batch", no_round_is_played)
    monkeypatch.setattr(engine, "heuristic_sample", no_round_is_played)
    config = GameConfig(rounds=5)
    opponent = HeuristicModel(1.0, 10)

    def refused(model, match):
        with pytest.raises(ValueError, match=match):
            backward_induction(model, 0.5, 1, 10)
        for pair in ((model, opponent), (opponent, model)):
            with pytest.raises(ValueError, match=match):
                run_game(config, *pair)
            with pytest.raises(ValueError, match=match):  # also before a warm-up game
                run_games([config], [pair], [RngPlan(0)], warmup_rounds=3)

    refused(np.ones((9, 9)), "shape")
    refused(uniform_table(9), "shape")
    u = 1 / 9
    for first_two in ((np.nan, u), (np.inf, u), (-0.1, 2 * u + 0.1), (u + 0.5, u), (u + 2e-5, u)):
        bad = uniform_table(10).copy()
        bad[0, 0, :2] = first_two
        refused(bad, "distribution")
    monkeypatch.undo()
    near = uniform_table(10).copy()
    near[0, 0, 0] += 5e-6  # inside the tolerance of 1e-9 + 1e-5
    backward_induction(near, 0.5, 1, 10)
    assert run_game(config, near, opponent).demands.shape == (5, 2)
    with pytest.raises(ValueError, match="horizon"):
        backward_induction(uniform_table(10), 0.5, 0, 10)
    by_demand, gains = solver_inputs([uniform_table(10)] * 2, [0.2, 0.7], 10)
    with pytest.raises(ValueError, match="one .* model per reward matrix"):  # two weights would share one model
        backward_induction_batch(by_demand[:1], gains, 1)
    with pytest.raises(ValueError, match="tie_break"):
        backward_induction(uniform_table(10), 0.5, 1, 10, tie_break="largest")


# --- planners in a game ---


def _assert_plays_its_own_view(seat, table):
    # a long game against a wide rule-based opponent visits many states; each
    # round's demand must be the rule of the seat's table, solved under the
    # config's weight and horizon, at the previous pair read from its own
    # side, as (own_prev, opp_prev); two configs solve two different rules
    opponent = HeuristicModel(sigma=4.0, q=10)
    rules = []
    for omega, horizon in ((0.4, 1), (0.9, 3)):
        config = GameConfig(rounds=200, horizon=horizon, omega_a=omega, omega_b=omega, seed=5)
        log = run_game(config, *((table, opponent) if seat == 0 else (opponent, table)))
        _, actions = backward_induction(table, (config.omega_a, config.omega_b)[seat], config.horizon, 10)
        prev, now = log.demands[:-1], log.demands[1:]
        assert np.array_equal(now[:, seat], actions[prev[:, seat] - 1, prev[:, 1 - seat] - 1])
        assert len({tuple(pair) for pair in prev.tolist()}) > 20
        rules.append(actions)
    assert not np.array_equal(*rules)


def test_agent_seat_b_transposes_the_context():
    # seat B reads the (prev_a, prev_b) context as (prev_b, prev_a)
    _assert_plays_its_own_view(1, random_model(np.random.default_rng(17), 10))


def test_agent_seat_a_uses_the_context_as_is():
    _assert_plays_its_own_view(0, random_model(np.random.default_rng(18), 10))


def test_a_game_solves_a_fixed_planner_once_and_a_learner_every_later_round(monkeypatch):
    # the fixed planner weighs 0.2, the learner 0.7: each batch's reward matrices
    # name its items; round 2 solves the fixed planners, then the learners; a
    # learner's batch reads only the state it plays, seen from its own seat
    batches, read = [], []
    real = engine.backward_induction_batch

    def counting(by_demand, gains, *args, states=None, **kwargs):
        batches.append([w for g in gains for w in (0.2, 0.7) if np.array_equal(g, reward_matrix(w, 10))])
        read.append(None if states is None else states.tolist())
        return real(by_demand, gains, *args, states=states, **kwargs)

    monkeypatch.setattr(engine, "backward_induction_batch", counting)
    config = GameConfig(rounds=6, omega_a=0.2, omega_b=0.7)
    fixed, learner = uniform_table(config.q), DirichletLearner.uniform(config.q)
    for _ in range(2):  # seats reused for a second game are solved as fresh ones
        batches.clear()
        read.clear()
        log = run_game(config, fixed, learner)
        assert batches == [[0.2]] + [[0.7]] * (config.rounds - 1)
        played = [[(own - 1) * 9 + opp - 1] for opp, own in log.demands[:-1].tolist()]
        assert read == [None] + played
    batches.clear()
    run_game(GameConfig(rounds=1), fixed, HeuristicModel(1.0, 10))
    assert batches == []  # the opening round is forced: nothing to solve


def test_same_round_demands_are_identical_under_random_ties():
    # every state ties 4, 5 and 6, drawn once per solve: a fixed planner is
    # solved once per game, so within a game one state always gets one demand
    table, opponent = _two_point_model(), HeuristicModel(sigma=2.0, q=10)
    for seed in range(5):
        config = GameConfig(rounds=60, horizon=1, omega_a=1.0, seed=seed, tie_break="random")
        demands = run_game(config, table, opponent).demands
        chosen = {}
        for prev, demand in zip(demands[:-1].tolist(), demands[1:, 0].tolist()):
            assert chosen.setdefault(tuple(prev), demand) == demand
        assert len(chosen) < len(demands) - 1  # some state came back
        assert set(chosen.values()) == {4, 5, 6}


def test_flooded_opponent_pushes_full_weight_demand_to_one():
    # opponent demands 9 no matter what: at full weight only a=1 closes the gap
    row = np.zeros(9)
    row[8] = 1.0
    model = np.tile(row, (9, 9, 1))
    _, rule = backward_induction(model, 1.0, 10, 10)
    assert np.all(rule == 1)
