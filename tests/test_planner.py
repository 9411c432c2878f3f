"""Finite-horizon lookahead solver and the agent wrapped around it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndglab import (
    DirichletLearner,
    GameConfig,
    HeuristicModel,
    MdpAgent,
    backward_induction,
    brute_force_value,
    run_game,
    uniform_table,
)
from ndglab import planner as planner_module
from ndglab.planner import TIE_BREAKS, backward_induction_batch, solve_rules

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
    rngs = [np.random.default_rng(s) if tie == "random" else None for _, _, tie, s in items]
    values, actions = backward_induction_batch(models, omegas, h, q, rngs=rngs)
    assert values.shape == (len(items), h + 1, q - 1, q - 1)
    for i, (_, omega, tie, tie_seed) in enumerate(items):
        tie_rng = np.random.default_rng(tie_seed) if tie == "random" else None
        want_values, want_actions = backward_induction(models[i], omega, h, q, tie_break=tie, rng=tie_rng)
        assert values[i].tobytes() == want_values.tobytes()
        assert np.array_equal(actions[i], want_actions)
        if tie == "random":  # the batch drew exactly what the solo solve drew from an equal stream
            assert rngs[i].random() == tie_rng.random()
        oracle_rng = np.random.default_rng(tie_seed) if tie == "random" else None
        oracle_values, oracle_actions = stage_loop_backward_induction(models[i], omega, h, q, tie, oracle_rng)
        assert values[i].tobytes() == oracle_values.tobytes()
        assert np.array_equal(actions[i], oracle_actions)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=6))
def test_agents_on_equal_seeds_draw_equal_ties_in_one_batch(seeds):
    # q=3 under a uniform model ties every column, so every column draws
    def agent(seed):
        planner = MdpAgent(0.5, 2, 3, model=uniform_table(3), tie_break="random")
        planner.rng = np.random.default_rng(seed)
        return planner

    batch = [agent(seed) for seed in seeds]
    solve_rules(batch)
    for seed, planner in zip(seeds, batch):
        alone = agent(seed)
        solve_rules([alone])
        assert np.array_equal(planner.rule, alone.rule)
        assert planner.rng.random() == alone.rng.random()  # each drew from its own stream only
    assert len({id(planner.rule) for planner in batch}) == len(batch)  # random ties never share


def test_a_batch_shares_one_solve_per_fixed_table_seat_and_weight():
    # six planners that could sit on either seat hold one table at two weights: two items
    table = uniform_table(10)
    agents = [MdpAgent(omega, 4, 10, model=table) for _ in range(2) for omega in (0.2, 0.2, 0.7)]
    learners = [MdpAgent(0.2, 4, 10, learner=DirichletLearner.uniform(10)) for _ in range(2)]
    solve_rules(agents + learners)
    rules = [agent.rule for agent in agents + learners]
    assert all(rule is rules[0] for rule in rules[:2] + rules[3:5])
    assert rules[2] is rules[5]
    assert len({id(rule) for rule in rules}) == 4
    for agent, rule in zip(agents + learners, rules):
        assert np.array_equal(rule, backward_induction(agent.table, agent.omega, 4, 10)[1])


def test_random_tie_breaking_needs_rng():
    with pytest.raises(ValueError, match="rng"):
        backward_induction(uniform_table(10), 0.5, 1, 10, tie_break="random")
    with pytest.raises(ValueError, match="rng"):
        solve_rules([MdpAgent(0.5, 1, 10, model=uniform_table(10), tie_break="random")])


def test_model_validation():
    # the solver and a fixed-model agent refuse the same tables: the batch
    # trusts an agent's table, so its construction is the only gate
    def refused(model, match):
        with pytest.raises(ValueError, match=match):
            backward_induction(model, 0.5, 1, 10)
        with pytest.raises(ValueError, match=match):
            MdpAgent(0.5, 1, 10, model=model)

    refused(np.ones((9, 9)), "shape")
    refused(uniform_table(9), "shape")
    u = 1 / 9
    for first_two in ((np.nan, u), (np.inf, u), (-0.1, 2 * u + 0.1), (u + 0.5, u), (u + 2e-5, u)):
        bad = uniform_table(10).copy()
        bad[0, 0, :2] = first_two
        refused(bad, "distribution")
    near = uniform_table(10).copy()
    near[0, 0, 0] += 5e-6  # inside the tolerance of 1e-9 + 1e-5
    backward_induction(near, 0.5, 1, 10)
    assert MdpAgent(0.5, 1, 10, model=near).table is near
    with pytest.raises(ValueError, match="horizon"):
        backward_induction(uniform_table(10), 0.5, 0, 10)
    with pytest.raises(ValueError, match="longer"):  # two weights would share the one model
        backward_induction_batch([uniform_table(10)], [0.2, 0.7], 1, 10)
    with pytest.raises(ValueError, match="tie_break"):
        backward_induction(uniform_table(10), 0.5, 1, 10, tie_break="largest")


# --- agent ---


def test_agent_needs_exactly_one_model_source():
    with pytest.raises(ValueError, match="exactly one"):
        MdpAgent(0.5, 10, 10)
    with pytest.raises(ValueError, match="exactly one"):
        MdpAgent(0.5, 10, 10, model=uniform_table(10), learner=DirichletLearner.uniform(10))
    assert not MdpAgent(0.5, 10, 10, model=uniform_table(10)).learning
    assert MdpAgent(0.5, 10, 10, learner=DirichletLearner.uniform(10)).learning


def _assert_plays_its_own_view(seat, table):
    # a long game against a wide rule-based opponent visits many states; each
    # round's demand must be the rule of the agent's own table at the previous
    # pair read from its own side, as (own_prev, opp_prev)
    config = GameConfig(rounds=200, omega_a=0.4, omega_b=0.4, seed=5)
    agent, opponent = MdpAgent(0.4, 3, 10, model=table), HeuristicModel(sigma=4.0, q=10)
    log = run_game(config, *((agent, opponent) if seat == 0 else (opponent, agent)))
    _, actions = backward_induction(table, 0.4, 3, 10)
    assert np.array_equal(agent.rule, actions)  # solved on the table as held, at every state
    prev, now = log.demands[:-1], log.demands[1:]
    assert np.array_equal(now[:, seat], actions[prev[:, seat] - 1, prev[:, 1 - seat] - 1])
    assert len({tuple(pair) for pair in prev.tolist()}) > 20


def test_agent_seat_b_transposes_the_context():
    # seat B reads the (prev_a, prev_b) context as (prev_b, prev_a)
    _assert_plays_its_own_view(1, random_model(np.random.default_rng(17), 10))


def test_agent_seat_a_uses_the_context_as_is():
    _assert_plays_its_own_view(0, random_model(np.random.default_rng(18), 10))


def test_a_game_solves_a_fixed_planner_once_and_a_learner_every_later_round(monkeypatch):
    # the fixed planner weighs 0.2, the learner 0.7: each batch's weights name its items
    batches = []
    real = planner_module.backward_induction_batch

    def counting(models, omegas, *args, **kwargs):
        batches.append(sorted(omegas))
        return real(models, omegas, *args, **kwargs)

    monkeypatch.setattr(planner_module, "backward_induction_batch", counting)
    config = GameConfig(rounds=6, omega_a=0.2, omega_b=0.7)
    fixed = MdpAgent(0.2, config.horizon, config.q, model=uniform_table(config.q))
    learner = MdpAgent(0.7, config.horizon, config.q, learner=DirichletLearner.uniform(config.q))
    for _ in range(2):  # agents reused for a second game are solved as fresh ones
        batches.clear()
        run_game(config, fixed, learner)
        assert batches == [[0.2, 0.7]] + [[0.7]] * (config.rounds - 2)
    batches.clear()
    run_game(GameConfig(rounds=1), fixed, HeuristicModel(1.0, 10))
    assert batches == []  # the opening round is forced: nothing to solve


def test_same_round_demands_are_identical_under_random_ties():
    # every state ties 4, 5 and 6, drawn once per solve: a fixed planner is
    # solved once per game, so within a game one state always gets one demand
    agent = MdpAgent(1.0, 1, 10, model=_two_point_model(), tie_break="random")
    opponent = HeuristicModel(sigma=2.0, q=10)
    for seed in range(5):
        demands = run_game(GameConfig(rounds=60, seed=seed), agent, opponent).demands
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
    agent = MdpAgent(1.0, 10, 10, model=model)
    solve_rules([agent])
    assert np.all(agent.rule == 1)


def test_agent_validation():
    with pytest.raises(ValueError, match="omega"):
        MdpAgent(1.5, 10, 10, model=uniform_table(10))
    with pytest.raises(ValueError, match="horizon"):
        MdpAgent(0.5, 0, 10, model=uniform_table(10))
    with pytest.raises(ValueError, match="tie_break"):
        MdpAgent(0.5, 10, 10, model=uniform_table(10), tie_break="greedy")
    with pytest.raises(ValueError, match="q=6"):
        MdpAgent(0.5, 10, 10, learner=DirichletLearner.uniform(6))
