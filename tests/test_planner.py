"""Finite-horizon lookahead solver, and planners played under their game's config."""

import os
import platform
import subprocess
import sys
from pathlib import Path

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
    benchmark_spec,
    brute_force_value,
    reward_matrix,
    run_game,
    run_test,
    uniform_table,
)
from ndglab import engine, planner
from ndglab.core import TIE_BREAKS
from ndglab.engine import run_games
from ndglab.planner import backward_induction_batch, solver_inputs, with_picks

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
    st.sampled_from(TIE_BREAKS),
    st.lists(
        st.tuples(st.sampled_from(("random", "uniform")), st.sampled_from((0.0, 0.5, 1.0, 0.3))),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_batched_solve_equals_scalar_solves_bit_for_bit(q, h, tie_break, items, planners, seed):
    # uniform models at odd q tie in many columns, at q=3 in every column;
    # planners share items and seeds in any order, and each draws its ties
    # over its item's tied columns from its own stream alone
    rng = np.random.default_rng(seed)
    models = [random_model(rng, q) if kind == "random" else uniform_table(q) for kind, _ in items]
    omegas = [omega for _, omega in items]
    rows = np.array([item % len(items) for item, _ in planners])

    def streams():
        return [np.random.default_rng(s) for _, s in planners] if tie_break == "random" else None

    n = q - 1
    inputs = solver_inputs(models, omegas, q)
    rngs, lean_rngs = streams(), streams()
    values = np.zeros((len(items), h + 1, n * n))
    actions, picks = backward_induction_batch(*inputs, h, rngs=rngs, rows=rows, values=values)
    # without a values buffer the loop keeps two rolling stages and must solve the same
    lean_actions, lean_picks = backward_induction_batch(*inputs, h, rngs=lean_rngs, rows=rows)
    assert np.array_equal(lean_actions, actions) and np.array_equal(lean_picks, picks)
    values = values.reshape(len(items), h + 1, n, n)
    for p, (i, (_, tie_seed)) in enumerate(zip(rows, planners)):
        tie_rng = np.random.default_rng(tie_seed) if tie_break == "random" else None
        want_values, want_actions = backward_induction(models[i], omegas[i], h, q, tie_break=tie_break, rng=tie_rng)
        assert values[i].tobytes() == want_values.tobytes()
        assert np.array_equal(with_picks(actions[rows], picks)[p], want_actions)
        if tie_break == "random":  # both batches drew exactly what the solo solve drew from an equal stream
            assert rngs[p].random() == lean_rngs[p].random() == tie_rng.random()
        oracle_rng = np.random.default_rng(tie_seed) if tie_break == "random" else None
        oracle_values, oracle_actions = stage_loop_backward_induction(models[i], omegas[i], h, q, tie_break, oracle_rng)
        assert values[i].tobytes() == oracle_values.tobytes()
        assert np.array_equal(want_actions, oracle_actions)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 101), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_a_product_written_action_major_has_the_bits_of_the_contiguous_one(q, items, seed):
    # the solver keeps its Q-values action-major and lets matmul write through
    # their (B, action, state) view; each stage's values and actions rest on
    # that view holding the bits of a contiguous product
    n = q - 1
    items = max(1, min(items, 2_000_000 // n**3))
    rng = np.random.default_rng(seed)
    landing, by_demand = rng.random((items, n, n)) - 0.5, rng.random((items, n, n * n))
    by_action = np.empty((n, items, n * n))
    np.matmul(landing, by_demand, out=by_action.transpose(1, 0, 2))
    assert by_action.transpose(1, 0, 2).tobytes() == np.matmul(landing, by_demand).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 101), st.integers(1, 60), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
def test_one_integers_call_draws_the_bits_of_one_choice_per_tied_column(q, columns, density, seed):
    # a planner draws all its tied columns with one integers(0, sizes) call;
    # that must pick, and leave its stream, as one choice per column in turn
    rng = np.random.default_rng(seed)
    tied = rng.random((q - 1, columns)) < density
    tied[rng.integers(0, q - 1, columns), np.arange(columns)] = True  # every column has a maximizer
    tied = tied[:, tied.sum(axis=0) > 1]
    one, per_column = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    draws = one.integers(0, tied.sum(axis=0))
    picks = [np.flatnonzero(column)[k] for column, k in zip(tied.T, draws.tolist())]
    assert picks == [per_column.choice(np.flatnonzero(column)) for column in tied.T]
    assert one.bit_generator.state == per_column.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.integers(1, 10),
    st.sampled_from(TIE_BREAKS),
    st.lists(
        st.tuples(st.sampled_from(("random", "uniform")), st.sampled_from((0.0, 0.5, 1.0, 0.3)), st.integers(0, 35)),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_a_solve_read_at_one_state_per_item_equals_the_full_solve_there(q, h, tie_break, items, planners, seed):
    # uniform models at odd q tie in many columns, at q=3 in every column; a
    # planner that draws its ties draws them over every column, read or not
    rng = np.random.default_rng(seed)
    models = [random_model(rng, q) if kind == "random" else uniform_table(q) for kind, *_ in items]
    inputs = solver_inputs(models, [omega for _, omega, _ in items], q)
    states = np.array([state % (q - 1) ** 2 for *_, state in items])
    rows = np.array([item % len(items) for item, _ in planners])

    def streams():
        return [np.random.default_rng(s) for _, s in planners] if tie_break == "random" else None

    full_rngs, read_rngs = streams(), streams()
    actions, picks = backward_induction_batch(*inputs, h, rngs=full_rngs, rows=rows)
    full = with_picks(actions[rows], picks)
    actions, picks = backward_induction_batch(*inputs, h, rngs=read_rngs, rows=rows, states=states)
    read = with_picks(actions[rows], picks)
    assert read.tobytes() == full.reshape(len(rows), -1)[np.arange(len(rows)), states[rows]].tobytes()
    for full_rng, read_rng in zip(full_rngs or (), read_rngs or ()):
        assert read_rng.bit_generator.state == full_rng.bit_generator.state


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=6))
def test_agents_on_equal_seeds_draw_equal_ties_in_one_batch(seeds):
    # q=3 under a uniform model ties every column, so every column draws; all
    # planners play the one item, each drawing from its own stream
    table = uniform_table(3)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = np.zeros(len(seeds), dtype=np.intp)
    actions, picks = backward_induction_batch(*solver_inputs([table], [0.5], 3), 2, rngs=rngs, rows=rows)
    assert (actions < 0).all()  # every column is tied
    for seed, rng, rule in zip(seeds, rngs, with_picks(actions[rows], picks)):
        alone_rng = np.random.default_rng(seed)
        _, alone = backward_induction(table, 0.5, 2, 3, tie_break="random", rng=alone_rng)
        assert np.array_equal(rule, alone)
        assert rng.random() == alone_rng.random()  # each drew from its own stream only


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 10),
    st.sampled_from(TIE_BREAKS),
    st.sampled_from((0.0, 0.2, 1.0)),
    st.lists(st.integers(0, 39), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_a_contiguous_stack_solves_with_the_bits_of_the_transposed_one(items, h, tie_break, flat_share, planners, seed):
    # at q=10, the q of the golden digests, the solver's C-contiguous stack
    # gives the bits of the stack of transposed tables it replaced: values,
    # actions, picks and streams.  A share of rows is uniform or the
    # two-point row on {4, 6}, whose demands 4, 5, 6 tie, so random ties draw
    q, n = 10, 9
    rng = np.random.default_rng(seed)
    tables = rng.dirichlet(np.ones(n), size=(items, n, n))
    flat = rng.random((items, n, n)) < flat_share
    tables[flat] = np.where(rng.random((flat.sum(), 1)) < 0.5, 1.0 / n, _two_point_model()[0, 0])
    omegas = rng.choice([0.0, 0.5, 1.0, *rng.random(3)], size=items)
    columns, column_of, gains = solver_inputs(tables, omegas, q)
    transposed = np.ascontiguousarray(columns.transpose(0, 2, 1)).transpose(0, 2, 1)
    assert columns.flags.c_contiguous and not transposed.flags.c_contiguous
    assert columns.tobytes() == np.ascontiguousarray(transposed).tobytes()
    rows = np.array([p % items for p in planners])
    solves = []
    for stack in (columns, transposed):
        rngs = [np.random.default_rng(seed + p) for p in range(len(rows))] if tie_break == "random" else None
        values = np.zeros((items, h + 1, n * n))
        actions, picks = backward_induction_batch(stack, column_of, gains, h, rngs=rngs, rows=rows, values=values)
        states = [stream.bit_generator.state for stream in rngs or ()]
        solves.append((actions.tobytes(), None if picks is None else picks.tobytes(), values.tobytes(), states))
    assert solves[0] == solves[1]


def _repeating_table(rng, q, kind, visited):
    """A table whose rows repeat: ``uniform_table(q)``, or the flat prior, or
    the two-point row on {4, 6} (clipped to the grid) at every state, with
    ``visited`` random states given a random row of their own."""
    n = q - 1
    if kind == "uniform":
        return uniform_table(q)
    table = np.full((n * n, n), 1.0 / n)
    if kind == "two-point":
        table[:] = 0.0
        table[:, min(3, n - 1)] += 0.5
        table[:, min(5, n - 1)] += 0.5
    table[rng.choice(n * n, min(visited, n * n), replace=False)] = rng.dirichlet(np.ones(n), min(visited, n * n))
    return table.reshape(n, n, n)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((3, 4, 5, 10, 16)),
    st.integers(1, 10),
    st.sampled_from(TIE_BREAKS),
    st.lists(
        st.tuples(
            st.sampled_from(("prior", "two-point", "uniform")), st.integers(0, 20), st.sampled_from((0.0, 0.5, 1.0, 0.3))
        ),
        min_size=1,
        max_size=40,
    ),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 3)), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_a_solve_over_shared_columns_equals_the_stage_loop_bit_for_bit(q, h, tie_break, items, planners, seed):
    # flat-prior states share one column and ties are common: every stage's
    # values, each planner's actions and picks, and its stream's final state
    # equal the per-state oracle's, and a solve read at one state per item
    # equals the full rule there
    rng = np.random.default_rng(seed)
    tables = [_repeating_table(rng, q, kind, visited) for kind, visited, _ in items]
    omegas = [omega for *_, omega in items]
    rows = np.array([item % len(items) for item, _ in planners])
    n = q - 1
    states = rng.integers(0, n * n, len(items))

    def streams():
        return [np.random.default_rng(s) for _, s in planners] if tie_break == "random" else None

    inputs = solver_inputs(tables, omegas, q)
    full_rngs, read_rngs = streams(), streams()
    values = np.zeros((len(items), h + 1, n * n))
    actions, picks = backward_induction_batch(*inputs, h, rngs=full_rngs, rows=rows, values=values)
    full = with_picks(actions[rows], picks)
    actions, picks = backward_induction_batch(*inputs, h, rngs=read_rngs, rows=rows, states=states)
    read = with_picks(actions[rows], picks)
    assert read.tobytes() == full.reshape(len(rows), -1)[np.arange(len(rows)), states[rows]].tobytes()
    for p, (i, (_, tie_seed)) in enumerate(zip(rows, planners)):
        oracle_rng = np.random.default_rng(tie_seed) if tie_break == "random" else None
        oracle_values, oracle_actions = stage_loop_backward_induction(tables[i], omegas[i], h, q, tie_break, oracle_rng)
        assert values[i].tobytes() == oracle_values.reshape(h + 1, n * n).tobytes()
        assert np.array_equal(full[p], oracle_actions)
        if tie_break == "random":
            final = oracle_rng.bit_generator.state
            assert full_rngs[p].bit_generator.state == read_rngs[p].bit_generator.state == final


def test_solver_inputs_stack_the_models_c_contiguous():
    # every flat-prior state shares column 0, every other state has a column
    # of its own in state order, and each state's column holds its row's bits
    rng = np.random.default_rng(4)
    prior = uniform_table(10).copy()
    visited = rng.choice(81, 12, replace=False)
    prior.reshape(81, 9)[visited] = rng.dirichlet(np.ones(9), 12)
    tables = [random_model(rng, 10), random_model(rng, 10).transpose(1, 0, 2), uniform_table(10), prior]
    columns, column_of, gains = solver_inputs(tables, [0.2, 0.5, 0.9, 0.4], 10)
    assert columns.flags.c_contiguous and columns.shape == (4, 9, 88) and column_of.shape == (4, 81)
    for item, column, table in zip(columns, column_of, tables):
        assert item[:, column].tobytes() == np.ascontiguousarray(table.reshape(81, 9).T).tobytes()
    assert (column_of[:2] == np.arange(81)).all() and (column_of[2] == 0).all()
    assert np.array_equal(np.flatnonzero(column_of[3]), np.sort(visited))
    assert np.array_equal(column_of[3][np.sort(visited)], np.arange(1, 13))
    assert (columns[2:, :, 13:] == 1 / 9).all()  # unused columns hold the flat row
    assert np.array_equal(gains, np.stack([reward_matrix(w, 10) for w in (0.2, 0.5, 0.9, 0.4)]))
    # a batch is as wide as its widest item plus its spare room, in whole blocks of 8
    assert solver_inputs([uniform_table(10)] * 3, [0.5] * 3, 10)[0].shape == (3, 9, 8)
    assert solver_inputs([prior, uniform_table(10)], [0.5] * 2, 10)[0].shape == (2, 9, 16)
    assert solver_inputs([prior], [0.5], 10, spare=3)[0].shape == (1, 9, 16)
    assert solver_inputs([prior], [0.5], 10, spare=4)[0].shape == (1, 9, 24)
    assert solver_inputs([prior], [0.5], 10, spare=500)[0].shape == (1, 9, 88)
    assert solver_inputs([uniform_table(2)], [0.5], 2)[0].shape == (1, 1, 8)


def test_solver_inputs_stack_a_shared_table_object_as_its_copies():
    # items sharing one table object stack as copies of it would; tables made
    # one at a time and dropped can take a dropped table's id, and each is
    # still read as itself
    rng = np.random.default_rng(6)
    prior = uniform_table(6).copy()
    prior.reshape(25, 5)[[3, 17]] = rng.dirichlet(np.ones(5), 2)
    tables = [random_model(rng, 6), prior, uniform_table(6)]
    omegas = [0.1, 0.3, 0.5, 0.7, 0.9, 0.2, 0.4, 0.6, 0.8]
    shared = solver_inputs([t for t in tables for _ in range(3)], omegas, 6)
    copies = solver_inputs([t.copy() for t in tables for _ in range(3)], omegas, 6)
    fresh = solver_inputs((t.copy() for t in tables * 3), omegas, 6)
    listed = solver_inputs(tables * 3, omegas, 6)
    for got, want in ((shared, copies), (fresh, listed)):
        assert [(a.shape, a.tobytes()) for a in got] == [(b.shape, b.tobytes()) for b in want]


_ALONE_AND_BESIDE = """
import ndglab
import numpy as np
from ndglab.planner import backward_induction_batch, solver_inputs

for q in (29, 31, 60):
    flat, shaped = ndglab.uniform_table(q), ndglab.heuristic_table(ndglab.HeuristicModel(3.0, q))
    stages = []
    for tables in ([flat], [flat, shaped]):
        values = np.zeros((len(tables), 11, (q - 1) ** 2))
        backward_induction_batch(*solver_inputs(tables, [0.5] * len(tables), q), 10, values=values)
        stages.append(values[0].tobytes())
    print(q, stages[0] == stages[1])
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="OPENBLAS_CORETYPE names x86 kernels")
def test_an_item_solves_to_the_same_bits_beside_a_much_wider_one_under_prescott():
    # a flat item is 8 columns wide alone and (q - 1)**2 rounded up to 8
    # beside a rule-based table; OpenBLAS's threaded dgemm splits a product's
    # columns between threads, and under Prescott its first 8 columns then
    # change with the width at these q; ndglab loads numpy with one thread
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(OPENBLAS_CORETYPE="Prescott", PYTHONPATH=str(Path(planner.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _ALONE_AND_BESIDE], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["29", "True", "31", "True", "60", "True"]


def test_every_solve_reads_a_c_contiguous_model_stack(monkeypatch):
    stacks = []  # each solved batch's item count, width, and whether each column row is contiguous
    real = planner.backward_induction_batch

    def recording(columns, column_of, gains, *args, **kwargs):
        stacks.append((len(gains), columns.shape[-1], columns.strides[-1] == columns.itemsize))
        return real(columns, column_of, gains, *args, **kwargs)

    monkeypatch.setattr(engine, "backward_induction_batch", recording)
    monkeypatch.setattr(planner, "backward_induction_batch", recording)
    # a scenario-2 sweep: its learners share a row per weight until the rule-based draws part them
    run_test(benchmark_spec(2, replications=3, grid=(0.3, 0.7), base=GameConfig(rounds=30)))
    sizes = [size for size, *_ in stacks]
    assert sizes[0] == 2 and max(sizes) > 2  # the learner rows split
    # a learner starts at the flat prior and fills one new column a round at most, in blocks of 8
    widths = [width for _, width, _ in stacks]
    assert widths == sorted(widths) and widths[0] == 8 and widths[-1] > 8
    assert all(width < 1 + t + 8 for t, width in enumerate(widths, 1))
    run_game(GameConfig(rounds=3), random_model(np.random.default_rng(5), 10), HeuristicModel(1.0, 10))
    backward_induction(random_model(np.random.default_rng(6), 10), 0.4, 3, 10)
    backward_induction(uniform_table(10), 0.4, 3, 10)
    assert [width for _, width, _ in stacks[-3:]] == [88, 88, 8]
    assert all(contiguous for *_, contiguous in stacks)


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
    # weights, as one object or as distinct bit-equal copies: under either
    # tie rule they are solved as one item per weight; at q=9 every column
    # ties, and under random ties each planner draws them all from its own
    # stream, so every game still equals the game played alone
    sizes = _count_items(monkeypatch)
    table = uniform_table(9)
    configs = [
        GameConfig(q=9, rounds=8, omega_a=wa, omega_b=wb, seed=s, tie_break=tie_break)
        for wa, wb, s in ((0.2, 0.2, 1), (0.7, 0.2, 2), (0.2, 0.7, 3))
    ]
    pairs = [(table.copy(), table.copy()) if copies else (table, table) for _ in configs]
    logs = run_games(configs, pairs, [RngPlan(c.seed) for c in configs])
    assert sizes == [2]
    monkeypatch.undo()
    for config, log in zip(configs, logs):
        assert log == run_game(config, table.copy(), table.copy())
    if tie_break == "random":  # the games drew apart
        assert len({log.demands.tobytes() for log in logs}) > 1


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
    monkeypatch.setattr(engine, "RuleRows", no_round_is_played)
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
    columns, column_of, gains = solver_inputs([uniform_table(10)] * 2, [0.2, 0.7], 10)
    # two weights would share one model
    with pytest.raises(ValueError, match="one .* column stack .* per reward matrix"):
        backward_induction_batch(columns[:1], column_of[:1], gains, 1)
    with pytest.raises(ValueError, match="C % 8 == 0"):  # a narrower block can round differently
        backward_induction_batch(columns[..., :2], column_of, gains, 1)
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

    def counting(columns, column_of, gains, *args, states=None, **kwargs):
        batches.append([w for g in gains for w in (0.2, 0.7) if np.array_equal(g, reward_matrix(w, 10))])
        read.append(None if states is None else states.tolist())
        return real(columns, column_of, gains, *args, states=states, **kwargs)

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
