"""Benchmark scenarios, grid sweeps, and their CSV outputs."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndglab import (
    AgentSpec,
    CellResult,
    GameConfig,
    HeuristicAgent,
    MdpAgent,
    RngPlan,
    Role,
    aggregate,
    benchmark_spec,
    experiments,
    pretrain,
    run_game,
    run_test,
)
from ndglab.experiments import _cell_seed_seqs, build_agent, run_cell

from oracles import csv_rows

SMALL = (0.0, 1.0)


def test_scenario_shapes():
    one_sided = benchmark_spec(1)
    assert one_sided.omega_grid_b is None
    assert len(one_sided.cells()) == 11
    assert {wb for _, wb in one_sided.cells()} == {one_sided.base.omega_b}
    grid = benchmark_spec(3)
    assert len(grid.cells()) == 121
    assert grid.cells()[0] == (0.0, 0.0)
    assert grid.cells()[1] == (0.0, 0.1)  # row-major: the B weight varies fastest
    assert grid.cells()[-1] == (1.0, 1.0)


def test_scenario_compositions():
    s1, s2, s3, s4, s5 = (benchmark_spec(k) for k in range(1, 6))
    assert (s1.agent_a.kind, s1.agent_a.fixed_model, s1.agent_a.sigma) == ("mdp", "heuristic", 3.0)
    assert (s1.agent_b.kind, s1.agent_b.sigma) == ("heuristic", 1.0)
    assert s2.agent_a.learning and s2.agent_a.prior == "uniform"
    assert s2.agent_b == s1.agent_b
    assert s3.agent_a == s3.agent_b == AgentSpec("mdp", fixed_model="uniform")
    assert s4.agent_a.learning and s4.agent_a.prior == "uniform"
    assert s5.agent_a.prior == "pretrained" and s5.pretrain_rounds == 30
    with pytest.raises(ValueError, match="1..5"):
        benchmark_spec(6)


def test_spec_validation():
    with pytest.raises(ValueError, match="pretrain_rounds > 0"):
        dataclasses.replace(benchmark_spec(5), pretrain_rounds=0).validate()
    with pytest.raises(ValueError, match="replications"):
        benchmark_spec(1, replications=0).validate()
    with pytest.raises(ValueError, match="omega_grid_a"):
        benchmark_spec(1, grid=(0.5, 1.5)).validate()


def test_agent_spec_validation():
    with pytest.raises(ValueError, match="sigma"):
        AgentSpec("heuristic")
    for sigma in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite positive sigma"):
            AgentSpec("heuristic", sigma=sigma)
        with pytest.raises(ValueError, match="finite positive sigma"):
            AgentSpec("mdp", learning=True, prior="heuristic", sigma=sigma)
        with pytest.raises(ValueError, match="finite positive sigma"):
            AgentSpec("mdp", fixed_model="heuristic", sigma=sigma)
    with pytest.raises(ValueError, match="neither learn"):
        AgentSpec("heuristic", learning=True, sigma=1.0)
    with pytest.raises(ValueError, match="prior"):
        AgentSpec("mdp", learning=True)
    with pytest.raises(ValueError, match="model"):
        AgentSpec("mdp")
    with pytest.raises(ValueError, match="kind"):
        AgentSpec("tit-for-tat")


def test_build_agent_kinds():
    config = GameConfig()
    rule = build_agent(AgentSpec("heuristic", sigma=1.0), Role.B, 0.5, config, "smallest")
    assert isinstance(rule, HeuristicAgent)
    fixed = build_agent(AgentSpec("mdp", fixed_model="uniform"), Role.A, 0.5, config, "smallest")
    assert isinstance(fixed, MdpAgent) and not fixed.learning
    learner = build_agent(
        AgentSpec("mdp", learning=True, prior="heuristic", sigma=3.0), Role.A, 0.5, config, "smallest"
    )
    assert learner.learning and learner.learner.counts.sum() == pytest.approx(729.0)


def test_cell_is_deterministic_and_rep_stable():
    spec = benchmark_spec(1, replications=3)
    seqs = _cell_seed_seqs(spec.base.seed, 0, 3)
    first = run_cell(spec, 0.0, 0.5, seqs)
    again = run_cell(spec, 0.0, 0.5, seqs)
    assert first == again
    # each replication is seeded on its own: a shorter run is a prefix
    short = run_cell(spec, 0.0, 0.5, seqs[:1])
    assert short.success_rate_pct == first.success_rate_pct[:1]


def _play(spec, omega_a, omega_b, seed):
    config = dataclasses.replace(spec.base, omega_a=omega_a, omega_b=omega_b)
    plan = RngPlan(seed)
    agent_a = build_agent(spec.agent_a, Role.A, omega_a, config, spec.tie_break)
    agent_b = build_agent(spec.agent_b, Role.B, omega_b, config, spec.tie_break)
    if spec.pretrain_rounds:
        pretrain(config, agent_a, agent_b, spec.pretrain_rounds, plan)
    return run_game(config, agent_a, agent_b, plan)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from((3, 4, 5)),
    st.sampled_from((0.0, 0.3, 0.7, 1.0)),
    st.sampled_from((0.0, 0.3, 0.7, 1.0)),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_planner_pairs_under_smallest_ties_replay_under_any_seed(test_id, wa, wb, seed, other):
    # run_cell plays such a cell once and repeats its metrics
    spec = benchmark_spec(test_id, base=GameConfig(rounds=30))
    assert _play(spec, wa, wb, seed) == _play(spec, wa, wb, other)


@pytest.mark.parametrize(
    ("test_id", "tie_break", "games"),
    [(1, "smallest", 3), (2, "smallest", 3), (3, "smallest", 1), (4, "smallest", 1), (5, "smallest", 1)]
    + [(k, "random", 3) for k in range(1, 6)],
)
def test_run_cell_plays_a_deterministic_cell_once(test_id, tie_break, games, monkeypatch):
    calls = []

    def counting_run_game(*args, **kwargs):
        calls.append(args)
        return run_game(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_game", counting_run_game)
    spec = benchmark_spec(test_id, replications=3, base=GameConfig(rounds=8), tie_break=tie_break)
    cell = run_cell(spec, 0.3, 0.7, _cell_seed_seqs(spec.base.seed, 4, 3))
    assert len(calls) == games
    assert len(cell.total) == 3
    if games == 1:
        assert len(set(cell.total)) == 1


def test_fixed_uniform_cell_is_exact():
    spec = benchmark_spec(3, replications=2)
    cell = run_cell(spec, 0.0, 1.0, _cell_seed_seqs(0, 10, 2))
    assert cell.profit_a == (298.0, 298.0)
    assert cell.profit_b == (298.0, 298.0)
    assert cell.total == (596.0, 596.0)
    assert cell.success_rate_pct == (100.0, 100.0)


def _toy_cell(omega_a, profit_a, profit_b):
    total = tuple(x + y for x, y in zip(profit_a, profit_b))
    return CellResult(
        omega_a=omega_a,
        omega_b=0.5,
        profit_a=profit_a,
        profit_b=profit_b,
        total=total,
        success_rate_pct=(100.0,) * len(profit_a),
    )


def test_aggregate_treats_metrics_independently():
    cells = [_toy_cell(0.0, (10.0, 20.0), (30.0, 30.0)), _toy_cell(1.0, (25.0, 25.0), (5.0, 15.0))]
    summary = aggregate(cells)
    assert summary["min"]["profit_a"] == 15.0  # from the first cell
    assert summary["min"]["profit_b"] == 10.0  # from the second cell
    assert summary["min"]["total"] == 35.0
    assert summary["mean"]["profit_a"] == 20.0
    assert summary["max"]["total"] == 45.0
    with pytest.raises(ValueError, match="no cells"):
        aggregate([])


def test_run_test_writes_and_protects_outputs(tmp_path):
    spec = benchmark_spec(3, replications=1, grid=SMALL)
    result = run_test(spec, out_dir=tmp_path)
    rows = csv_rows(tmp_path / "test3_cells.csv")
    assert len(rows) == 4
    assert all(float(row["profit_a_mean"]) == 298.0 for row in rows)
    summary = {row.pop("statistic"): row for row in csv_rows(tmp_path / "test3_summary.csv")}
    assert float(summary["mean"]["total"]) == 596.0
    assert summary["min"] == summary["max"]
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        run_test(spec, out_dir=tmp_path)
    run_test(spec, out_dir=tmp_path, force=True)
    # fixed two-decimal formatting in the summary rows
    lines = (tmp_path / "test3_summary.csv").read_text().splitlines()
    assert lines[1] == "min,298.00,298.00,596.00,100.00"
    assert result.summary["mean"]["success_rate_pct"] == 100.0


def test_existing_outputs_are_refused_before_any_cell_runs(tmp_path, monkeypatch):
    (tmp_path / "test3_cells.csv").write_text("old\n")
    calls = []
    monkeypatch.delenv("NDG_THREADS", raising=False)
    monkeypatch.setattr(experiments, "run_cell", lambda *args: calls.append(args))
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        run_test(benchmark_spec(3, replications=1, grid=SMALL), out_dir=tmp_path)
    assert calls == []
    assert (tmp_path / "test3_cells.csv").read_text() == "old\n"


def test_parallel_cells_match_serial(tmp_path, monkeypatch):
    spec = benchmark_spec(4, replications=1, grid=SMALL)
    serial = run_test(spec, out_dir=tmp_path / "serial")
    monkeypatch.setenv("NDG_THREADS", "2")
    parallel = run_test(spec, out_dir=tmp_path / "parallel")
    assert serial.cells == parallel.cells
    assert (tmp_path / "serial" / "test4_cells.csv").read_bytes() == (
        tmp_path / "parallel" / "test4_cells.csv"
    ).read_bytes()
