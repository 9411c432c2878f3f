"""Rule-based opponent model and the Dirichlet belief over its demands."""

import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ndglab import (
    DirichletLearner,
    HeuristicModel,
    Role,
    heuristic_sample,
    heuristic_table,
    load_learner,
    save_learner,
    uniform_table,
)
from ndglab.opponent import RuleRows
from oracles import gaussian_row, reference_heuristic_distribution, reference_heuristic_sample

demands = st.integers(1, 9)


def rule_row(own, opp, sigma=1.0, q=10):
    """The rule-based row after the modelled player demanded ``own`` against ``opp``.

    The table is its holder's view, so the holder's own demand ``opp`` comes first.
    """
    return heuristic_table(HeuristicModel(sigma=sigma, q=q))[opp - 1, own - 1]


def assert_centred_on(row, mu, sigma=1.0, q=10):
    np.testing.assert_allclose(row, gaussian_row(mu, sigma, q), atol=1e-12, rtol=0)


def leftover_share(own, opp, q=10):
    return own + own / (own + opp) * (q - own - opp)


# --- mean adjustment rule ---


def test_mean_reaches_for_leftover():
    # compatible round: move toward the own share of what was left over
    assert_centred_on(rule_row(3, 3), 5.0)


def test_mean_backs_off_after_joint_overshoot():
    assert_centred_on(rule_row(6, 6), 5.0)


def test_mean_holds_when_modest_but_blocked():
    assert_centred_on(rule_row(3, 8), 3.0)
    assert_centred_on(rule_row(5, 6), 5.0)


def test_hold_condition_boundaries():
    assert_centred_on(rule_row(5, 6), 5.0)  # half of q still counts as modest
    assert_centred_on(rule_row(6, 5), leftover_share(6, 5))
    assert_centred_on(rule_row(5, 5), leftover_share(5, 5))  # exact split is a success
    assert_centred_on(rule_row(3, 7), leftover_share(3, 7))
    assert_centred_on(rule_row(3, 8), 3.0)


@given(demands, demands)
def test_hold_rule_iff(own, opp):
    expected = 2 * own <= 10 and own + opp > 10
    if expected:
        assert_centred_on(rule_row(own, opp), float(own))
    else:
        assert_centred_on(rule_row(own, opp), leftover_share(own, opp))


@given(demands, demands)
def test_proportional_means_allocate_everything(own, opp):
    # both seats' proportional targets always split q exactly
    assume(not (2 * own <= 10 and own + opp > 10) and not (2 * opp <= 10 and own + opp > 10))
    mu = leftover_share(own, opp)
    table = heuristic_table(HeuristicModel(sigma=1.0, q=10))
    assert_centred_on(table[opp - 1, own - 1], mu)  # the player who demanded own
    assert_centred_on(table[own - 1, opp - 1], 10.0 - mu)  # the player who demanded opp


# --- discretized Gaussian ---


def test_distribution_rows_are_normalized_and_positive():
    for sigma in (0.5, 1.0, 3.0):
        table = heuristic_table(HeuristicModel(sigma=sigma, q=10))
        assert table.shape == (9, 9, 9)
        assert np.all(table > 0)
        np.testing.assert_allclose(table.sum(axis=-1), 1.0, atol=1e-12, rtol=0)


def test_distribution_matches_direct_summation():
    model = HeuristicModel(sigma=1.0, q=10)
    probs = heuristic_table(model)[5, 5]
    np.testing.assert_allclose(probs, gaussian_row(5.0, 1.0, 10), atol=1e-12, rtol=0)
    assert probs[4] == pytest.approx(0.3990, abs=5e-4)


def test_distribution_depends_on_seat():
    table = heuristic_table(HeuristicModel(sigma=1.0, q=10))
    # demands 3 and 8: the opponent that held 8 of an 11 overshoot scales
    # back, whichever seat it sits in; the one that held 3 holds
    np.testing.assert_allclose(
        table[2, 7],
        gaussian_row(8 + 8 / 11 * (10 - 11), 1.0, 10),
        atol=1e-12,
        rtol=0,
    )
    np.testing.assert_allclose(table[7, 2], gaussian_row(3.0, 1.0, 10), atol=1e-12, rtol=0)


def test_nearly_zero_spread_degenerates_to_the_mean():
    model = HeuristicModel(sigma=1e-6, q=10)
    probs = heuristic_table(model)[2, 2]
    assert probs[4] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100)
@given(st.integers(2, 20), st.floats(1e-3, 100.0))
def test_table_matches_per_state_reference_bit_for_bit(q, sigma):
    # the holder's view: the modelled opponent's own previous demand is the second axis
    model = HeuristicModel(sigma=sigma, q=q)
    rows = [
        reference_heuristic_distribution(model, opp_prev, own_prev)
        for own_prev in range(1, q)
        for opp_prev in range(1, q)
    ]
    assert heuristic_table(model).tobytes() == np.stack(rows).tobytes()


def test_model_rejects_bad_sigma():
    for sigma in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            HeuristicModel(sigma=sigma, q=10)


def test_sampler_matches_distribution():
    # spot check of the inverse-CDF sampler against exact frequencies at state (6, 6)
    model = HeuristicModel(sigma=1.0, q=10)
    n = 1_000_000
    draws = heuristic_sample(model, 6, 6, np.random.default_rng(7).random(n))
    l1 = np.abs(np.bincount(draws, minlength=10)[1:] / n - heuristic_table(model)[5, 5]).sum()
    assert l1 < 0.01


def test_sampler_stays_in_range():
    model = HeuristicModel(sigma=3.0, q=10)
    draws = heuristic_sample(model, 9, 9, np.random.default_rng(0).random(2000))
    assert draws.shape == (2000,)
    assert draws.min() >= 1 and draws.max() <= 9


def test_sampler_picks_the_first_demand_whose_running_sum_exceeds_the_uniform():
    # a vanishing spread puts all mass on the mean 5: running sums 0, 0, 0, 0, 1, ..
    model = HeuristicModel(sigma=1e-6, q=10)
    assert heuristic_sample(model, 3, 3, np.array([0.0, 0.5, 1 - 2**-53])).tolist() == [5, 5, 5]


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-3, 100.0),
    st.integers(0, 2**32),
    st.lists(st.tuples(st.integers(1, 19), st.integers(1, 19)), min_size=1, max_size=20),
)
def test_sampler_matches_reference_under_equal_seeds(sigma, seed, states):
    # k draws in one call equal k scalar reference draws on an equal stream, at every q
    for q in range(2, 21):
        model = HeuristicModel(sigma=sigma, q=q)
        own, opp = (np.array(states).T - 1) % (q - 1) + 1  # wrapped into 1..q-1
        draws = heuristic_sample(model, own, opp, np.random.default_rng(seed).random(len(states)))
        slow = np.random.default_rng(seed)
        want = [reference_heuristic_sample(model, o, p, slow) for o, p in zip(own.tolist(), opp.tolist())]
        assert draws.tolist() == want


@pytest.mark.parametrize(
    ("own", "opp", "u"),
    [
        ([[3, 7, 9], [1, 5, 5]], [[4, 4, 2], [9, 5, 6]], 0.6),  # array states, one uniform
        (7, 2, [0.0, 0.2, 0.5, 0.9, 1 - 2**-53]),  # one state, array uniforms
        ([2, 8, 5], 6, [[0.1, 0.7, 0.4], [0.95, 0.05, 0.5]]),  # states broadcast against more uniforms
    ],
)
def test_sampler_broadcasts_states_and_uniforms(own, opp, u):
    # each draw equals one reference draw at its broadcast state and uniform
    model = HeuristicModel(sigma=1.5, q=10)
    draws = heuristic_sample(model, own, opp, u)
    own, opp, u = np.broadcast_arrays(own, opp, u)
    assert draws.shape == u.shape
    for o, p, x, drawn in zip(own.ravel().tolist(), opp.ravel().tolist(), u.ravel().tolist(), draws.ravel().tolist()):
        assert drawn == reference_heuristic_sample(model, o, p, SimpleNamespace(random=lambda x=x: x))


def test_sampler_rejects_out_of_range_states():
    # refused before the slot map is read, where own_prev 0 would read the row of demand q-1
    model = HeuristicModel(sigma=1.0, q=10)
    u = np.random.default_rng(0).random(2)
    for bad in (0, 10, -1, 2.5, float("nan")):
        for name, own, opp in (("own_prev", bad, 5), ("opp_prev", 5, bad)):
            for prev in ((own, opp), ([5, own], [5, opp])):  # alone, and behind an in-range state
                with pytest.raises(ValueError, match=rf"^{name} must lie in 1\.\.9, got {bad}$"):
                    heuristic_sample(model, *prev, u)


def test_sampler_rejects_uniforms_outside_the_unit_interval_and_non_numbers():
    # refused where they enter, as a bad state is: a uniform of 1 or more would
    # draw past the last demand's running sum, and NaN below every sum
    model = HeuristicModel(sigma=1.0, q=10)
    for bad, shown in ((1.5, "1.5"), (1.0, "1.0"), (-0.25, "-0.25"), (float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf")):
        for u in (bad, [0.5, bad]):  # alone, and behind a good uniform
            with pytest.raises(ValueError, match=rf"^u must lie in \[0, 1\), got {shown}$"):
                heuristic_sample(model, 3, 4, u)
    for bad, dtype in (("x", "<U1"), ([0.5, None], "object"), (True, "bool"), (0.5 + 0j, "complex128")):
        with pytest.raises(ValueError, match=rf"^u must be real numbers in \[0, 1\), got dtype {dtype}$"):
            heuristic_sample(model, 3, 4, bad)
    with pytest.raises(ValueError, match=r"^own_prev must be real numbers in 1\.\.9, got dtype <U1$"):
        heuristic_sample(model, "3", 4, 0.5)
    assert heuristic_sample(model, 3, 4, [0, 0.5]).shape == (2,)  # an int 0 is a uniform


def test_sampler_draws_nothing_from_empty_states_or_uniforms():
    model = HeuristicModel(sigma=1.0, q=10)
    for own, opp, u in (([], [], []), (3, 4, []), ([], [], 0.5), (np.empty((0, 2), dtype=int), 3, 0.5)):
        draws = heuristic_sample(model, own, opp, u)
        assert draws.size == 0 and draws.shape == np.broadcast_shapes(np.shape(own), np.shape(opp), np.shape(u))
    memo = RuleRows(model)
    assert memo.draw(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)).shape == (0,)
    assert memo.sums.shape == (8, 0)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 20),
    st.sampled_from((0.3, 1.0, 2.5)),
    st.lists(st.lists(st.tuples(st.integers(1, 19), st.integers(1, 19)), max_size=12), min_size=1, max_size=6),
    st.integers(0, 2**32),
)
def test_a_memo_holds_one_row_per_distinct_state_it_has_drawn_at(q, sigma, calls, seed):
    # repeats within a call and across calls: every state gets one column of
    # sums, built once, and every draw equals a reference draw on an equal stream
    model = HeuristicModel(sigma=sigma, q=q)
    memo, seen, built = RuleRows(model), [], []
    rng, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for states in calls:
        own, opp = (np.array(states, dtype=np.intp).reshape(-1, 2).T - 1) % (q - 1) + 1
        before = memo.sums
        draws = memo.draw(own, opp, rng.random(len(own)))
        want = [reference_heuristic_sample(model, o, p, slow) for o, p in zip(own.tolist(), opp.tolist())]
        assert draws.tolist() == want
        seen = list(dict.fromkeys(seen + list(zip(own.tolist(), opp.tolist()))))
        assert memo.sums.shape == (q - 2, len(seen)) and memo.sums.flags.c_contiguous
        assert memo.sums[:, : before.shape[1]].tobytes() == before.tobytes()  # columns are added, never rebuilt
    for own, opp in seen:
        want = np.cumsum(reference_heuristic_distribution(model, own, opp))[:-1]
        assert memo.sums[:, memo.slot[(own - 1) * (q - 1) + opp - 1]].tobytes() == want.tobytes()
    assert sorted(np.flatnonzero(memo.slot >= 0).tolist()) == sorted((o - 1) * (q - 1) + p - 1 for o, p in seen)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 20),
    st.sampled_from((0.3, 1.0, 2.5)),
    st.lists(st.lists(st.tuples(st.integers(1, 19), st.integers(1, 19)), max_size=12), min_size=1, max_size=6),
    st.integers(0, 2**32),
)
@example(q=2, sigma=1.0, calls=[[(1, 1)], []], seed=0)
def test_a_memo_built_whole_draws_the_demands_of_one_built_state_by_state(q, sigma, calls, seed):
    # a memo told of at least a table's worth of draws builds every state's
    # column up front, in state order, with the bits of the columns a lazy
    # memo builds one state at a time; both draw the same demands
    model = HeuristicModel(sigma=sigma, q=q)
    n = q - 1
    whole, lazy = RuleRows(model, max(n - 1, 1) * n * n), RuleRows(model, max(n - 1, 1) * n * n - 1)
    assert whole.sums.shape == (q - 2, n * n) and whole.sums.flags.c_contiguous
    assert whole.slot.tolist() == list(range(n * n))
    assert lazy.sums.shape == (q - 2, 0)
    rng = np.random.default_rng(seed)
    for states in calls:
        own, opp = (np.array(states, dtype=np.intp).reshape(-1, 2).T - 1) % n + 1
        u = rng.random(len(own))
        assert whole.draw(own, opp, u).tobytes() == lazy.draw(own, opp, u).tobytes()
    assert whole.sums.shape[1] == n * n  # no draw builds another column
    for state, column in enumerate(lazy.slot.tolist()):
        if column >= 0:
            assert lazy.sums[:, column].tobytes() == whole.sums[:, state].tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), hnp.mutually_broadcastable_shapes(num_shapes=3, max_dims=3, max_side=4), st.integers(0, 2**32))
def test_heuristic_sample_draws_the_same_demands_from_aligned_and_broadcast_inputs(q, shapes, seed):
    # a run hands a memo states and uniforms of one shape; heuristic_sample
    # broadcasts any other shapes first, to the same demands
    rng = np.random.default_rng(seed)
    own, opp = (rng.integers(1, q, shape) for shape in shapes.input_shapes[:2])
    u = rng.random(shapes.input_shapes[2])
    aligned = [np.array(x) for x in np.broadcast_arrays(own, opp, u)]
    model = HeuristicModel(sigma=1.0, q=q)
    memo = RuleRows(model)
    want = memo.draw(*aligned)
    assert want.shape == shapes.result_shape and want.dtype == np.intp
    assert memo.draw(*aligned).tobytes() == want.tobytes()  # columns built by the first call, read back
    draws = heuristic_sample(model, own, opp, u)
    assert draws.shape == want.shape and draws.dtype == want.dtype
    assert draws.tobytes() == want.tobytes()


def test_uniform_shapes():
    np.testing.assert_array_equal(uniform_table(10), np.full((9, 9, 9), 1 / 9))


def test_uniform_table_is_built_once_and_read_only():
    table = uniform_table(10)
    assert uniform_table(10) is table  # planners holding it share one solve item
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 0.0


# --- Dirichlet learner ---


def test_uniform_learner_start():
    learner = DirichletLearner.uniform(10)
    assert learner.counts.sum() == 729.0
    np.testing.assert_array_equal(learner.estimate[3, 3], np.full(9, 1 / 9))


def test_the_estimate_follows_the_counts():
    # a learner holds only its counts: its estimate is read from them, never stored beside them
    learner = DirichletLearner.uniform(10)
    learner.counts[0, 0, 0] += 5
    np.testing.assert_array_equal(learner.estimate[0, 0], np.array([6.0, 1, 1, 1, 1, 1, 1, 1, 1]) / 14)
    np.testing.assert_array_equal(learner.estimate[0, 1], np.full(9, 1 / 9))


def test_update_moves_one_count():
    learner = DirichletLearner.uniform(10)
    learner.update(6, 6, 5)
    row = learner.estimate[5, 5]
    assert row[4] == pytest.approx(0.2)
    assert row.sum() == pytest.approx(1.0)
    # other contexts untouched
    np.testing.assert_array_equal(learner.estimate[0, 0], np.full(9, 1 / 9))


@pytest.mark.parametrize("bad", [True, 2.0, 2.5, "2", None, np.float64(3.0)])
@pytest.mark.parametrize("position", range(3))
def test_update_refuses_a_demand_that_is_not_an_int(bad, position):
    # a bool, a float, even a whole one, or a string is refused where it
    # enters, with the ValueError of an out-of-range int, and records nothing
    learner = DirichletLearner.uniform(10)
    args = [3, 4, 5]
    args[position] = bad
    name = ("own_prev", "opp_prev", "observed")[position]
    with pytest.raises(ValueError, match=f"{name} must lie in 1..9, got {re.escape(repr(bad))}"):
        learner.update(*args)
    assert (learner.counts == 1.0).all()
    learner.update(np.int64(3), np.int32(4), np.int16(5))  # numpy's ints are ints
    assert learner.counts[2, 3, 4] == 2.0


@settings(max_examples=30)
@given(st.lists(st.tuples(demands, demands, demands), min_size=1, max_size=40))
def test_update_order_is_exchangeable(observations):
    forward = DirichletLearner.uniform(10)
    backward = DirichletLearner.uniform(10)
    for pa, pb, d in observations:
        forward.update(pa, pb, d)
    for pa, pb, d in reversed(observations):
        backward.update(pa, pb, d)
    np.testing.assert_array_equal(forward.counts, backward.counts)


def test_estimate_rows_are_normalized():
    learner = DirichletLearner.uniform(10)
    rng = np.random.default_rng(3)
    for _ in range(500):
        learner.update(rng.integers(1, 10), rng.integers(1, 10), rng.integers(1, 10))
    np.testing.assert_allclose(learner.estimate.sum(axis=-1), 1.0, atol=1e-12, rtol=0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 60),
    st.sampled_from(("uniform", "random", "loaded-B")),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
)
@example(60, "loaded-B", 300, 0)
def test_estimate_has_the_bits_of_the_normalized_counts(q, start, n_updates, seed):
    # a run refreshes its estimate one touched row at a time (engine._observe); each
    # row normalized alone must have the bits of the learner's whole estimate
    rng = np.random.default_rng(seed)
    n = q - 1
    if start == "uniform":
        learner = DirichletLearner.uniform(q)
    else:
        learner = DirichletLearner(rng.uniform(0.1, 5.0, size=(n, n, n)), q)
    if start == "loaded-B":
        with tempfile.TemporaryDirectory() as tmp:
            save_learner(learner, Path(tmp) / "learner.txt", Role.A)
            learner = load_learner(Path(tmp) / "learner.txt", Role.B)
    contexts = rng.integers(1, q, size=(3, 2))  # few contexts, so rows take repeated updates
    for i, observed in zip(rng.integers(0, 3, size=n_updates), rng.integers(1, q, size=n_updates)):
        learner.update(int(contexts[i, 0]), int(contexts[i, 1]), int(observed))
    rows = [row / row.sum() for row in learner.counts.reshape(-1, n)]
    assert learner.estimate.tobytes() == np.array(rows).tobytes()


def test_a_learner_keeps_its_own_copy_of_the_counts():
    # updates never write into the caller's array, so a shared read-only table can seed a learner
    counts = np.ones((9, 9, 9))
    learner = DirichletLearner(counts, 10)
    learner.update(2, 3, 4)
    assert counts.sum() == 729.0 and learner.counts.sum() == 730.0
    shared = heuristic_table(HeuristicModel(sigma=1.0, q=10))
    seeded = DirichletLearner(shared, 10)
    seeded.update(2, 3, 4)
    assert seeded.counts[1, 2, 3] == shared[1, 2, 3] + 1.0


def test_estimate_converges_on_synthetic_data():
    target = np.array([0.05, 0.1, 0.1, 0.15, 0.3, 0.15, 0.1, 0.03, 0.02])
    rng = np.random.default_rng(11)
    learner = DirichletLearner.uniform(10)
    for d in rng.choice(9, size=10_000, p=target) + 1:
        learner.update(2, 9, int(d))
    assert np.abs(learner.estimate[1, 8] - target).sum() < 0.05


def test_counts_validation():
    with pytest.raises(ValueError, match="shape"):
        DirichletLearner(np.ones((9, 9)), 10)
    with pytest.raises(ValueError, match="positive"):
        DirichletLearner(np.zeros((9, 9, 9)), 10)
    counts = np.ones((9, 9, 9))
    counts[4, 4, 4] = np.inf
    with pytest.raises(ValueError, match="finite"):
        DirichletLearner(counts, 10)


# --- priors ---


def test_uniform_prior():
    np.testing.assert_array_equal(DirichletLearner.uniform(10).counts, np.ones((9, 9, 9)))


def test_heuristic_table_is_built_once_and_read_only():
    model = HeuristicModel(sigma=2.5, q=10)
    table = heuristic_table(model)
    assert heuristic_table(HeuristicModel(sigma=2.5, q=10)) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 1.0


# --- persistence ---


def test_save_load_round_trip(tmp_path):
    # a file lists (prev_a, prev_b) contexts: seat A's own view, seat B's swapped
    rng = np.random.default_rng(4)
    learner = DirichletLearner(rng.uniform(0.1, 5.0, size=(9, 9, 9)), 10)
    learner.update(2, 7, 4)
    path = tmp_path / "learner.txt"
    for seat, row in ((Role.A, learner.counts[1, 6]), (Role.B, learner.counts[6, 1])):
        save_learner(learner, path, seat)
        line = path.read_text().splitlines()[(2 - 1) * 9 + (7 - 1)].split()
        assert line[:2] == ["2", "7"] and [float(v) for v in line[2:]] == row.tolist()
        loaded = load_learner(path, seat)
        assert loaded.q == 10
        np.testing.assert_array_equal(loaded.counts, learner.counts)
    np.testing.assert_array_equal(load_learner(path, Role.A).counts, learner.counts.transpose(1, 0, 2))


def test_learner_files_refuse_a_seat_that_is_not_a_role(tmp_path):
    learner = DirichletLearner.uniform(4)
    path = tmp_path / "learner.txt"
    with pytest.raises(ValueError, match="seat must be a Role, got 'B'"):
        save_learner(learner, path, "B")
    assert not path.exists()
    save_learner(learner, path, Role.B)
    with pytest.raises(ValueError, match="seat must be a Role, got 'B'"):
        load_learner(path, "B")


def test_load_infers_q(tmp_path):
    learner = DirichletLearner.uniform(6)
    path = tmp_path / "learner.txt"
    save_learner(learner, path, Role.A)
    assert load_learner(path, Role.B).q == 6


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1 0.5 0.5\n")
    with pytest.raises(ValueError, match="rows"):
        load_learner(path, Role.A)
    path.write_text("")
    with pytest.raises(ValueError, match="no learner rows"):
        load_learner(path, Role.A)
    # q = 3 has contexts (1, 1), (1, 2), (2, 1), (2, 2), one row each
    path.write_text("1 1 1.0 1.0\n1 1 1.0 1.0\n2 1 1.0 1.0\n2 2 1.0 1.0\n")
    with pytest.raises(ValueError, match=r"\(1, 1\) listed twice"):
        load_learner(path, Role.A)
    path.write_text("1 1 1.0 1.0\n1 2 inf 1.0\n2 1 1.0 1.0\n2 2 1.0 1.0\n")
    with pytest.raises(ValueError, match="finite"):
        load_learner(path, Role.A)
    path.write_text("1 2 1.0 1.0\n\n1 1 x 1.0\n2 1 1.0 1.0\n2 2 1.0 1.0\n")
    with pytest.raises(ValueError, match=r"bad\.txt:3: .*'x'"):
        load_learner(path, Role.A)


_Q_ENTRIES = {
    "HeuristicModel": lambda q: HeuristicModel(1.0, q=q),
    "uniform_table": uniform_table,
    "DirichletLearner": lambda q: DirichletLearner(np.ones((9,) * 3), q),
    "DirichletLearner.uniform": DirichletLearner.uniform,
}


@pytest.mark.parametrize("q", (10.0, True, "10", 1), ids=repr)
@pytest.mark.parametrize("entry", tuple(_Q_ENTRIES))
def test_every_entry_point_refuses_a_q_that_is_not_an_int_of_at_least_2(entry, q):
    # 10.0 used to be accepted by the model and the learner, and to die inside
    # numpy in the uniform table and the uniform learner
    uniform_table(10)  # a cached table for q=10 must not answer for 10.0 or True
    with pytest.raises(ValueError, match=f"q must be an int of at least 2, got {q!r}"):
        _Q_ENTRIES[entry](q)


def test_numpy_int_q_is_taken():
    q = np.int64(10)
    assert uniform_table(q).shape == (9, 9, 9)
    assert DirichletLearner.uniform(q).q == 10
    assert HeuristicModel(1.0, q=q) == HeuristicModel(1.0, q=10)
