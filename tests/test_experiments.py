"""Benchmark scenarios, grid sweeps, and their CSV outputs."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndglab import (
    AgentSpec,
    CellResult,
    DirichletLearner,
    GameConfig,
    HeuristicModel,
    RngPlan,
    aggregate,
    benchmark_spec,
    experiments,
    heuristic_table,
    pretrain,
    run_game,
    run_test,
    uniform_table,
)
from ndglab import engine
from ndglab.core import TIE_BREAKS
from ndglab.experiments import ExperimentSpec, build_agent

import memory_sweeps
from oracles import count_played_games, csv_rows

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
    assert (s1.agent_a.kind, s1.agent_a.sigma) == ("mdp-heuristic", 3.0)
    assert (s1.agent_b.kind, s1.agent_b.sigma) == ("heuristic", 1.0)
    assert s2.agent_a.learning and s2.agent_a.kind == "mdp-learning"
    assert s2.agent_b == s1.agent_b
    assert s3.agent_a == s3.agent_b == AgentSpec("mdp-uniform")
    assert s4.agent_a.learning and s4.agent_a.kind == "mdp-learning"
    assert s5.agent_a.kind == s5.agent_b.kind == "mdp-pretrained" and s5.warms_up
    assert experiments.WARMUP_ROUNDS == 30
    with pytest.raises(ValueError, match="1..5"):
        benchmark_spec(6)


def test_spec_validation():
    with pytest.raises(ValueError, match="replications"):
        benchmark_spec(1, replications=0)
    with pytest.raises(ValueError, match="omega_grid_a"):
        benchmark_spec(1, grid=(0.5, 1.5))
    with pytest.raises(ValueError, match="replications"):
        dataclasses.replace(benchmark_spec(1), replications=0)  # replace re-checks
    for replications in (True, 2.5, 3.0, "3"):  # True once ran 1 replication, 2.5 died in _plan
        with pytest.raises(ValueError, match=f"replications must be an int of at least 1, got {replications!r}"):
            benchmark_spec(1, replications=replications)


def test_agent_spec_validation():
    assert AgentSpec("heuristic") == AgentSpec("heuristic", 1.0)
    assert AgentSpec("mdp-heuristic").sigma == 3.0
    assert AgentSpec("mdp-heuristic", 0.5).sigma == 0.5
    for sigma in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite positive sigma"):
            AgentSpec("heuristic", sigma=sigma)
        with pytest.raises(ValueError, match="finite positive sigma"):
            AgentSpec("mdp-heuristic", sigma=sigma)
    for kind in ("mdp-uniform", "mdp-learning", "mdp-pretrained"):
        assert AgentSpec(kind).sigma is None
        for sigma in (1.0, -5.0, float("nan")):
            with pytest.raises(ValueError, match="takes no sigma"):
                AgentSpec(kind, sigma=sigma)
    for kind in ("tit-for-tat", "mdp", "pretrained"):
        with pytest.raises(ValueError, match="kind"):
            AgentSpec(kind)
    assert {f.name for f in dataclasses.fields(AgentSpec)} == {"kind", "sigma"}


def test_build_agent_kinds():
    q = GameConfig().q
    assert build_agent(AgentSpec("heuristic"), q) == HeuristicModel(sigma=1.0, q=q)
    for kind in ("mdp-learning", "mdp-pretrained"):
        # a fresh uniform prior per seat; mdp-pretrained is warmed up by the sweep
        learner = build_agent(AgentSpec(kind), q)
        assert isinstance(learner, DirichletLearner) and learner is not build_agent(AgentSpec(kind), q)
        assert np.array_equal(learner.counts, DirichletLearner.uniform(q).counts)
    # a fixed-model planner is the shared table it plans against, in the holder's view on either seat
    assert build_agent(AgentSpec("mdp-heuristic"), q) is heuristic_table(HeuristicModel(3.0, q))
    assert build_agent(AgentSpec("mdp-uniform"), q) is uniform_table(q)


def test_cell_is_deterministic_and_rep_stable():
    spec = benchmark_spec(1, replications=3, grid=(0.0,))
    first = run_test(spec).cells[0]
    again = run_test(spec).cells[0]
    assert first == again
    # each replication is seeded on its own: a shorter run is a prefix
    short = run_test(dataclasses.replace(spec, replications=1)).cells[0]
    assert short.success_rate_pct == first.success_rate_pct[:1]


def _play(spec, omega_a, omega_b, seed):
    """One game of ``spec`` on fresh agents; ``seed`` is a seed or the RngPlan to play on."""
    config = dataclasses.replace(spec.base, omega_a=omega_a, omega_b=omega_b)
    plan = seed if isinstance(seed, RngPlan) else RngPlan(seed)
    agent_a = build_agent(spec.agent_a, config.q)
    agent_b = build_agent(spec.agent_b, config.q)
    if spec.warms_up:
        pretrain(config, agent_a, agent_b, experiments.WARMUP_ROUNDS, plan)
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


_KINDS = tuple(experiments.AGENT_KINDS)
_SEATS = [  # every pairing a spec accepts: mdp-pretrained only beside another learner
    (AgentSpec(a), AgentSpec(b))
    for a in _KINDS
    for b in _KINDS
    if "mdp-pretrained" not in (a, b) or {a, b} <= {"mdp-learning", "mdp-pretrained"}
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SEATS),
    st.sampled_from(TIE_BREAKS),
    st.sampled_from((0.0, 0.3, 1.0)),
    st.sampled_from((0.0, 0.7, 1.0)),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_a_deterministic_spec_replays_its_game_under_any_seed(seats, tie_break, wa, wb, seed, other):
    spec = ExperimentSpec(5, *seats, (wa,), (wb,), 1, GameConfig(rounds=20, tie_break=tie_break))
    assert spec.deterministic == (tie_break == "smallest" and AgentSpec("heuristic") not in seats)
    plans = [RngPlan(seed), RngPlan(other)]
    logs = [_play(spec, wa, wb, plan) for plan in plans]
    for plan, fresh in zip(plans, (RngPlan(seed), RngPlan(other))):
        # a seat drew iff its stream no longer starts where a fresh copy's does
        drew = (plan.agent_a.random() != fresh.agent_a.random(), plan.agent_b.random() != fresh.agent_b.random())
        for seat, seat_drew in zip(seats, drew):
            if seat.kind == "heuristic":
                assert seat_drew  # a rule-based seat always draws
            elif spec.deterministic:
                assert not seat_drew
    if spec.deterministic:
        assert np.array_equal(logs[0].demands, logs[1].demands)


@pytest.mark.parametrize(
    ("test_id", "tie_break", "games"),
    [(1, "smallest", 3), (2, "smallest", 3), (3, "smallest", 1), (4, "smallest", 1), (5, "smallest", 1)]
    + [(k, "random", 3) for k in range(1, 6)],
)
def test_run_cell_plays_a_deterministic_cell_once(test_id, tie_break, games, monkeypatch):
    played = count_played_games(monkeypatch)
    monkeypatch.delenv("NDG_THREADS", raising=False)
    spec = benchmark_spec(
        test_id, replications=3, base=GameConfig(rounds=8, omega_b=0.7, tie_break=tie_break), grid=(0.3,)
    )
    if spec.omega_grid_b is not None:
        spec = dataclasses.replace(spec, omega_grid_b=(0.7,))
    (cell,) = run_test(spec).cells
    assert (cell.omega_a, cell.omega_b) == (0.3, 0.7)
    assert played == [games]
    assert len(cell.total) == 3
    if games == 1:
        assert len(set(cell.total)) == 1


def test_fixed_uniform_cell_is_exact():
    spec = benchmark_spec(3, replications=2, grid=(0.0, 1.0))
    cell = run_test(spec).cells[1]
    assert (cell.omega_a, cell.omega_b) == (0.0, 1.0)
    assert cell.profit_a == (298.0, 298.0)
    assert cell.profit_b == (298.0, 298.0)
    assert cell.total == (596.0, 596.0)
    assert cell.success_rate_pct == (100.0, 100.0)


def _unreused_cells(spec):
    """Every cell of ``spec`` played on its own: one game per replication, nothing reused."""
    cells = []
    for i, (wa, wb) in enumerate(spec.cells()):
        games = []
        for rep in range(spec.replications):
            log = _play(spec, wa, wb, np.random.SeedSequence(entropy=spec.base.seed, spawn_key=(i, rep)))
            a, b = log.cum_profit_a, log.cum_profit_b
            games.append((float(a), float(b), float(a + b), log.success_rate_pct))
        cells.append(CellResult(wa, wb, *zip(*games)))
    return tuple(cells)


_GRID = st.lists(st.sampled_from((0.0, 0.2, 0.5, 0.7, 1.0)), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((3, 4, 5)),
    st.sampled_from(TIE_BREAKS),
    _GRID,
    st.one_of(st.none(), _GRID),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from(((10, 3), (7, 1))),
)
# at q=7 from a 1/1 opening, cells (0.0, 0.2) and (0.2, 0.0) pay the seats unequally
@example(3, "smallest", [0.0, 0.2], None, 1, 0, (7, 1))
def test_reused_cells_equal_cells_played_on_their_own(test_id, tie_break, grid_a, grid_b, reps, seed, opening):
    q, initial_demand = opening
    base = GameConfig(q=q, rounds=12, initial_demand=initial_demand, seed=seed, tie_break=tie_break)
    spec = benchmark_spec(test_id, replications=reps, base=base, grid=tuple(grid_a))
    if grid_b is not None:  # an unequal B grid
        spec = dataclasses.replace(spec, omega_grid_b=tuple(grid_b))
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("NDG_THREADS", raising=False)
        played = count_played_games(patch)
        cells = run_test(spec).cells
    assert cells == _unreused_cells(spec)
    if tie_break == "random":  # random ties never reuse a game
        assert sum(played) == len(cells) * reps
    else:
        weights = {(wa, wb) for wa, wb in spec.cells()}
        assert sum(played) == len({tuple(sorted(w)) for w in weights})


@pytest.mark.parametrize(
    ("test_id", "grid", "tie_break", "replications", "played"),
    [
        (4, (0.0, 0.5, 1.0), "smallest", 3, [6]),
        (4, None, "smallest", 30, [66]),
        (4, (0.0, 0.5, 1.0), "random", 3, [27]),
    ],
)
def test_a_sweep_plays_its_distinct_games_in_one_lockstep(test_id, grid, tie_break, replications, played, monkeypatch):
    monkeypatch.delenv("NDG_THREADS", raising=False)
    counts = count_played_games(monkeypatch)
    run_test(benchmark_spec(test_id, replications=replications, grid=grid, base=GameConfig(tie_break=tie_break)))
    assert counts == played


def test_the_selfplay_learning_sweep_solves_each_distinct_belief_once_per_round(monkeypatch):
    # the selfplay-learning benchmark workload at benchmark seed 0: six played
    # games, twelve learners, 59 solved rounds; one item per learner would be 708
    monkeypatch.delenv("NDG_THREADS", raising=False)
    sizes = []
    real = engine.backward_induction_batch

    def counting(by_demand, gains, *args, **kwargs):
        sizes.append(len(gains))
        return real(by_demand, gains, *args, **kwargs)

    monkeypatch.setattr(engine, "backward_induction_batch", counting)
    run_test(benchmark_spec(4, replications=3, grid=(0.65, 0.7, 1.0), base=GameConfig(seed=1062076350)))
    assert len(sizes) == 59 and sum(sizes) == 351


def test_repeated_random_grid_values_keep_their_own_seeds():
    spec = benchmark_spec(4, replications=1, base=GameConfig(rounds=12, tie_break="random"), grid=(0.5, 0.5))
    cells = run_test(spec).cells
    assert {(c.omega_a, c.omega_b) for c in cells} == {(0.5, 0.5)}
    assert cells == _unreused_cells(spec)
    assert len({(c.profit_a, c.profit_b) for c in cells}) > 1  # reusing one game would be wrong


def test_a_sweep_builds_only_the_streams_its_seats_draw_from(monkeypatch):
    # a rule-based seat always draws, a planner only under random ties; no
    # other seat's stream is built
    built = []
    real = experiments.run_games

    def recording(configs, pairs, plans, *args):
        plans = list(plans)
        logs = real(configs, pairs, plans, *args)
        built.extend([name for name in ("agent_a", "agent_b") if name in vars(plan)] for plan in plans)
        return logs

    monkeypatch.setattr(experiments, "run_games", recording)
    monkeypatch.delenv("NDG_THREADS", raising=False)
    for test_id, tie_break, streams in (
        (1, "smallest", ["agent_b"]),
        (4, "smallest", []),
        (3, "random", ["agent_a", "agent_b"]),
    ):
        built.clear()
        base = GameConfig(rounds=5, tie_break=tie_break)
        run_test(benchmark_spec(test_id, replications=2, base=base, grid=(0.0, 1.0)))
        assert built and all(names == streams for names in built), (test_id, tie_break, built)


@pytest.mark.parametrize(
    ("name", "test_id", "tie_break", "q", "grid"), [pytest.param(*sweep, id=sweep[0]) for sweep in memory_sweeps.SWEEPS]
)
def test_sweep_memory_stays_within_the_chunk_bound(name, test_id, tie_break, q, grid, monkeypatch):
    monkeypatch.delenv("NDG_THREADS", raising=False)
    spec = benchmark_spec(test_id, replications=30, base=GameConfig(q=q, rounds=4, tie_break=tie_break), grid=grid)
    tracemalloc.start()
    try:
        cells = run_test(spec).cells
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cells) == len(spec.cells()) and all(len(cell.total) == 30 for cell in cells)
    assert peak < memory_sweeps.BOUND_MIB * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"
    bound = memory_sweeps.CASE_BOUND_MIB.get(name, memory_sweeps.BOUND_MIB)
    assert peak < bound * 2**20, f"peak traced memory {peak / 2**20:.2f} MiB, over this case's {bound} MiB"


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
    monkeypatch.delenv("NDG_THREADS", raising=False)
    played = count_played_games(monkeypatch)
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        run_test(benchmark_spec(3, replications=1, grid=SMALL), out_dir=tmp_path)
    assert played == []
    assert (tmp_path / "test3_cells.csv").read_text() == "old\n"


def test_one_sided_warm_up_is_refused_before_any_cell_runs(tmp_path, monkeypatch):
    monkeypatch.delenv("NDG_THREADS", raising=False)
    played = count_played_games(monkeypatch)
    pretrained = AgentSpec("mdp-pretrained")
    for kind in ("heuristic", "mdp-heuristic", "mdp-uniform"):
        for seats in ((pretrained, AgentSpec(kind)), (AgentSpec(kind), pretrained)):
            with pytest.raises(ValueError, match="mdp-pretrained needs"):
                run_test(ExperimentSpec(5, *seats, SMALL, SMALL, 1, GameConfig()), out_dir=tmp_path)
            with pytest.raises(ValueError, match="mdp-pretrained needs"):
                dataclasses.replace(benchmark_spec(5), agent_b=seats[1], agent_a=seats[0])
    assert played == []
    assert list(tmp_path.iterdir()) == []
    mixed = ExperimentSpec(5, pretrained, AgentSpec("mdp-learning"), SMALL, SMALL, 1, GameConfig())
    assert mixed.warms_up


def test_parallel_cells_match_serial(tmp_path, monkeypatch):
    cases = (
        (4, "smallest", 1, (0.0, 0.5, 1.0)),  # mirrored cells reused
        (4, "smallest", 1, SMALL),
        (2, "random", 3, SMALL),
        (5, "random", 3, SMALL),  # 12 games: 3 workers split them 4, 4, 4 across cells
        (5, "random", 2, SMALL),  # 8 games: 3 workers split them 2, 3, 3 across cells
    )
    for test_id, tie_break, replications, grid in cases:
        spec = benchmark_spec(test_id, replications=replications, grid=grid, base=GameConfig(tie_break=tie_break))
        monkeypatch.delenv("NDG_THREADS", raising=False)
        case = f"{test_id}{tie_break}{replications}x{len(grid)}"
        serial_dir = tmp_path / f"serial{case}"
        serial = run_test(spec, out_dir=serial_dir)
        for threads in ("2", "3"):
            monkeypatch.setenv("NDG_THREADS", threads)
            parallel_dir = tmp_path / f"parallel{case}-{threads}"
            parallel = run_test(spec, out_dir=parallel_dir)
            assert serial.cells == parallel.cells
            for name in (f"test{test_id}_cells.csv", f"test{test_id}_summary.csv"):
                assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()


def test_thread_count_splits_the_games_but_the_pool_is_capped_at_the_cpu_count(tmp_path, monkeypatch):
    # a fake pool records its size and plays the parts serially: no process starts
    sizes, parts = [], []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            parts.append([len(games) for _, games in tasks])
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    spec = benchmark_spec(2, replications=3, grid=SMALL, base=GameConfig(tie_break="random"))  # 6 games
    monkeypatch.delenv("NDG_THREADS", raising=False)
    run_test(spec, out_dir=tmp_path / "serial")
    assert sizes == []
    for threads, cpus, size, split in (("500", 2, 2, [1] * 6), ("3", 8, 3, [2, 2, 2]), ("4", 1, None, None)):
        monkeypatch.setenv("NDG_THREADS", threads)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        sizes.clear()
        parts.clear()
        out = tmp_path / threads
        run_test(spec, out_dir=out)
        assert sizes == ([size] if size else [])  # one CPU plays every part in this process
        assert parts == ([split] if split else [])
        for name in ("test2_cells.csv", "test2_summary.csv"):
            assert (out / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
