"""Game arithmetic: compatibility, profit, reward, and round bookkeeping."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ndglab import (
    GameConfig,
    GameLog,
    chi,
    reward,
    reward_matrix,
    round_columns,
)
from ndglab.core import game_scores

demands = st.integers(1, 9)
weights = st.floats(0.0, 1.0, allow_nan=False)


def test_compatibility_boundary():
    assert chi(3, 7, 10) == 1  # exact split counts
    assert chi(4, 7, 10) == 0
    assert chi(1, 1, 10) == 1
    assert chi(9, 1, 10) == 1
    assert chi(9, 9, 10) == 0


@given(demands, demands)
def test_chi_symmetric(a, b):
    assert chi(a, b, 10) == chi(b, a, 10)


def test_demand_range_enforced():
    with pytest.raises(ValueError, match="a must lie in 1..9"):
        chi(0, 5, 10)
    with pytest.raises(ValueError, match="b must lie in 1..9"):
        chi(5, 10, 10)


@pytest.mark.parametrize("bad", [True, 2.0, np.float64(2.0), 2.5])
def test_reward_refuses_a_demand_that_is_not_an_int(bad):
    # a bool or a float, even a whole one, gets the ValueError of an
    # out-of-range demand; numpy's ints are ints
    for args, name in (((bad, 3), "a"), ((3, bad), "b")):
        with pytest.raises(ValueError, match=f"{name} must lie in 1..9, got {re.escape(repr(bad))}"):
            reward(*args, 0.5, 10)
    assert reward(np.int64(5), np.int32(5), 0.5, 10) == 2.5


def _round(a, b, config):
    """The columns of one round, as Python scalars."""
    return {name: column.item() for name, column in round_columns(config, [[a, b]]).items()}


def test_profit_values():
    config = GameConfig()
    assert _round(5, 5, config)["profit_a"] == 5
    assert _round(6, 5, config)["profit_a"] == 0
    assert _round(9, 1, config)["profit_a"] == 9


def test_reward_examples():
    assert reward(5, 5, 0.5, 10) == 2.5
    assert reward(6, 6, 0.5, 10) == -1.0
    assert reward(3, 3, 0.5, 10) == -0.5
    assert reward(9, 1, 0.0, 10) == 9.0
    assert reward(5, 5, 1.0, 10) == 0.0
    assert reward(3, 3, 1.0, 10) == -4.0


@given(demands, demands)
def test_zero_weight_reward_is_profit(a, b):
    assert reward(a, b, 0.0, 10) == a * chi(a, b, 10)


@given(demands, demands)
def test_full_weight_reward_penalizes_gap_only(a, b):
    assert reward(a, b, 1.0, 10) == -abs(10 - (a + b))


@given(demands, demands, weights)
def test_compatible_branch_identity(a, b, omega):
    if a + b <= 10:
        assert abs(reward(a, b, omega, 10) - (a - omega * (10 - b))) <= 1e-12


def test_reward_bounds_enumerated():
    # closed forms: best is the largest feasible share of the compatible
    # branch, worst is the full-weight penalty of the widest overshoot
    for q in range(3, 13):
        for omega in (i / 10 for i in range(11)):
            values = [reward(a, b, omega, q) for a in range(1, q) for b in range(1, q)]
            assert max(values) == pytest.approx((q - 1) * (1.0 - omega), abs=1e-12)
            assert min(values) == pytest.approx(-omega * (q - 2), abs=1e-12)
            assert max(values) <= q - 1


def test_reward_matrix_matches_scalar():
    rng = np.random.default_rng(17)
    for q in range(2, 18):
        for omega in (0.0, 0.3, 1.0, *rng.random(8)):
            m = reward_matrix(float(omega), q)
            assert m.shape == (q - 1, q - 1)
            scalar = [[reward(a, b, float(omega), q) for b in range(1, q)] for a in range(1, q)]
            assert m.tobytes() == np.array(scalar).tobytes()
    with pytest.raises(ValueError, match="omega"):
        reward_matrix(1.5, 10)


def test_reward_matrix_is_built_once_and_read_only():
    m = reward_matrix(0.3, 10)
    assert reward_matrix(0.3, 10) is m
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 0.0


def test_reward_rejects_bad_weight():
    with pytest.raises(ValueError, match="omega"):
        reward(3, 3, 1.5, 10)


def test_config_validation_names_fields():
    with pytest.raises(ValueError, match="q"):
        GameConfig(q=1)
    with pytest.raises(ValueError, match="rounds"):
        GameConfig(rounds=0)
    with pytest.raises(ValueError, match="horizon"):
        GameConfig(horizon=0)
    with pytest.raises(ValueError, match="initial_demand"):
        GameConfig(initial_demand=10)
    with pytest.raises(ValueError, match="omega_a"):
        GameConfig(omega_a=-0.1)
    with pytest.raises(ValueError, match="omega_b"):
        GameConfig(omega_b=1.1)
    with pytest.raises(ValueError, match="seed"):
        GameConfig(seed=-1)
    with pytest.raises(ValueError, match="tie_break"):
        GameConfig(tie_break="greedy")


@pytest.mark.parametrize("field", ["omega_a", "omega_b"])
@pytest.mark.parametrize("value", ["0.5", None, True, False, np.bool_(True), 0.5j, float("nan")], ids=repr)
def test_config_refuses_a_weight_that_is_not_a_real_number(field, value):
    # "0.5" and None died with a TypeError; True and False played as 1.0 and 0.0
    with pytest.raises(ValueError, match=f"{field} must lie in \\[0, 1\\], got {re.escape(repr(value))}"):
        GameConfig(**{field: value})


def test_config_takes_real_weights_of_any_type():
    config = GameConfig(omega_a=np.float32(0.5), omega_b=1)
    assert (config.omega_a, config.omega_b) == (0.5, 1)


@pytest.mark.parametrize("field", ["q", "rounds", "horizon", "initial_demand", "seed"])
@pytest.mark.parametrize("value", [3.5, 3.0, True, "3"])
def test_config_refuses_a_count_that_is_not_an_int(field, value):
    # a float once truncated (initial_demand=3.5 opened at 3, seed=1.5 played
    # seed 1) or died inside numpy; a bool is not a count either
    with pytest.raises(ValueError, match=f"{field} must be .*int.*, got {re.escape(repr(value))}"):
        GameConfig(**{field: value})


def test_config_takes_numpy_ints():
    config = GameConfig(
        q=np.int64(10), rounds=np.int32(5), horizon=np.int64(2), initial_demand=np.int8(3), seed=np.uint16(4)
    )
    assert config == GameConfig(q=10, rounds=5, horizon=2, initial_demand=3, seed=4)


def test_config_refuses_q_whose_learner_table_exceeds_the_limit():
    GameConfig(q=513, initial_demand=1)  # 512**3 float64 counts: exactly 1 GiB
    for q in (514, 1000):
        with pytest.raises(ValueError, match=rf"q={q} would need .* GiB"):
            GameConfig(q=q)


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        GameConfig().q = 11


def test_round_record_compatible():
    rec = _round(3, 3, GameConfig())
    assert (rec["profit_a"], rec["profit_b"], rec["unclaimed"]) == (3, 3, 4)
    assert rec["compatible"] == 1
    assert rec["reward_a"] == reward(3, 3, 0.5, 10)


def test_round_record_incompatible_forfeits_everything():
    rec = _round(7, 7, GameConfig())
    assert (rec["profit_a"], rec["profit_b"], rec["unclaimed"]) == (0, 0, 10)
    assert rec["compatible"] == 0


def test_round_record_rewards_use_each_seat_weight():
    config = GameConfig(omega_a=0.2, omega_b=0.9)
    rec = _round(4, 5, config)
    assert rec["reward_a"] == reward(4, 5, 0.2, 10)
    assert rec["reward_b"] == reward(5, 4, 0.9, 10)


@given(st.integers(2, 30), st.data(), weights, weights)
def test_round_record_rewards_are_the_scalar_rewards_bit_for_bit(q, data, omega_a, omega_b):
    pair = st.tuples(st.integers(1, q - 1), st.integers(1, q - 1))
    demands = data.draw(st.lists(pair, min_size=1, max_size=20))
    config = GameConfig(q=q, initial_demand=1, omega_a=omega_a, omega_b=omega_b)
    columns = round_columns(config, np.array(demands))
    for (a, b), reward_a, reward_b in zip(demands, columns["reward_a"].tolist(), columns["reward_b"].tolist()):
        assert reward_a.hex() == reward(a, b, omega_a, q).hex()
        assert reward_b.hex() == reward(b, a, omega_b, q).hex()


def test_game_log_totals():
    config = GameConfig(rounds=3)
    log = GameLog(config, np.array([[3, 3], [7, 7], [6, 4]]))
    columns = round_columns(config, log.demands)
    assert columns["round"].tolist() == [1, 2, 3]
    assert columns["profit_a"].tolist() == [3, 0, 6]
    assert columns["profit_b"].tolist() == [3, 0, 4]
    assert columns["compatible"].tolist() == [1, 0, 1]
    assert columns["unclaimed"].tolist() == [4, 10, 0]
    assert log.cum_profit_a == 9
    assert log.cum_profit_b == 7
    assert log.success_rate_pct == pytest.approx(100.0 * 2 / 3)


@given(st.integers(2, 40), st.data())
def test_game_log_scores_from_demands_match_its_records(q, data):
    rounds = data.draw(st.integers(1, 30))
    pair = st.tuples(st.integers(1, q - 1), st.integers(1, q - 1))
    demands = data.draw(st.lists(pair, min_size=rounds, max_size=rounds))
    log = GameLog(GameConfig(q=q, rounds=rounds, initial_demand=1), np.array(demands))
    columns = {name: column.tolist() for name, column in round_columns(log.config, log.demands).items()}
    assert list(zip(columns["demand_a"], columns["demand_b"])) == demands
    assert columns["round"] == list(range(1, rounds + 1))
    assert type(log.cum_profit_a) is int and log.cum_profit_a == sum(columns["profit_a"])
    assert type(log.cum_profit_b) is int and log.cum_profit_b == sum(columns["profit_b"])
    compatible = sum(columns["compatible"])
    assert log.success_rate_pct.hex() == (100.0 * compatible / rounds).hex()
    for a, b, c, profit_a, profit_b, unclaimed in zip(
        *(columns[name] for name in ("demand_a", "demand_b", "compatible", "profit_a", "profit_b", "unclaimed"))
    ):
        assert c == (1 if a + b <= q else 0) == chi(a, b, q)
        assert (profit_a, profit_b, unclaimed) == ((a, b, q - a - b) if c else (0, 0, q))


def test_game_log_length_checked():
    config = GameConfig(rounds=2)
    with pytest.raises(ValueError, match="2 rounds"):
        GameLog(config, np.array([[3, 3]]))
    for out_of_range in (0, 10):
        with pytest.raises(ValueError, match="1..9"):
            GameLog(config, np.array([[3, 3], [3, out_of_range]]))


@given(st.sampled_from(((), (0,), (3,), (2, 4))), st.integers(1, 7), st.sampled_from((2, 3, 10, 61)), st.data())
def test_game_scores_equal_each_game_scored_round_by_round(lead, rounds, q, data):
    # the columns scored at once, for any leading shape of games, against a
    # scalar loop over each game's rounds: same shapes, dtypes and bits
    size = int(np.prod(lead, dtype=int)) * rounds * 2
    cells = data.draw(st.lists(st.integers(1, q - 1), min_size=size, max_size=size))
    demands = np.array(cells, dtype=np.int64).reshape(*lead, rounds, 2)
    profits, success = game_scores(demands, q)
    assert profits.shape == (*lead, 2) and profits.dtype == np.int64
    assert np.shape(success) == lead and np.asarray(success).dtype == np.float64
    for game in np.ndindex(*lead):
        paid, fits = [0, 0], 0
        for a, b in demands[game].tolist():
            if a + b <= q:
                paid, fits = [paid[0] + a, paid[1] + b], fits + 1
        assert profits[game].tolist() == paid
        assert np.asarray(success)[game].tobytes() == np.float64(100.0 * fits / rounds).tobytes()
