"""Benchmark scenarios, grid sweeps, and their CSV outputs."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndglab import (
    AgentSpec,
    CellResult,
    DirichletLearner,
    GameConfig,
    GameLog,
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
    # "0.5" and None died with a TypeError; True played as 1.0
    for w in ("0.5", None, True, np.bool_(False), float("nan")):
        with pytest.raises(ValueError, match=rf"omega_grid_a values must lie in \[0, 1\], got {re.escape(repr(w))}"):
            benchmark_spec(1, grid=(w,))
        with pytest.raises(ValueError, match=rf"omega_grid_b values must lie in \[0, 1\], got {re.escape(repr(w))}"):
            dataclasses.replace(benchmark_spec(3), omega_grid_b=(0.5, w))
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


class _Drawn:
    """A run's stream that adds its seat's index to ``drew`` when it is drawn from."""

    def __init__(self, stream, seat, drew):
        self.stream, self.seat, self.drew = stream, seat, drew

    def __getattr__(self, name):
        self.drew.add(self.seat)
        return getattr(self.stream, name)


def _played_drawing(play, patch):
    """``play()``, and the indices of the seats whose run streams it drew from:
    each stream ``engine._streams`` derives is wrapped, and a key's last part
    is its seat's index."""
    drew, real = set(), engine._streams

    def wrapping(children):
        seats = np.asarray(children[2])[:, -1].tolist()
        return [_Drawn(stream, seat, drew) for stream, seat in zip(real(children), seats)]

    patch.setattr(engine, "_streams", wrapping)
    return play(), drew


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
    logs = []
    for plan in (RngPlan(seed), RngPlan(other)):
        with pytest.MonkeyPatch.context() as patch:
            log, drew = _played_drawing(lambda: _play(spec, wa, wb, plan), patch)
        logs.append(log)
        for index, seat in enumerate(seats):
            if seat.kind == "heuristic":
                assert index in drew  # a rule-based seat always draws
            elif spec.deterministic:
                assert index not in drew
    if spec.deterministic:
        assert np.array_equal(logs[0].demands, logs[1].demands)


@pytest.mark.parametrize(
    ("test_id", "tie_break", "games"),
    [(1, "smallest", 3), (2, "smallest", 3), (3, "smallest", 1), (4, "smallest", 1), (5, "smallest", 1)]
    + [(k, "random", 3) for k in range(1, 6)],
)
def test_run_cell_plays_a_deterministic_cell_once(test_id, tie_break, games, monkeypatch):
    played = count_played_games(monkeypatch)
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
            log = _play(spec, wa, wb, RngPlan(spec.base.seed, (i, rep)))
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
    counts = count_played_games(monkeypatch)
    run_test(benchmark_spec(test_id, replications=replications, grid=grid, base=GameConfig(tie_break=tie_break)))
    assert counts == played


def test_the_selfplay_learning_sweep_solves_each_distinct_belief_once_per_round(monkeypatch):
    # the selfplay-learning benchmark workload at benchmark seed 0: six played
    # games, twelve learners, 59 solved rounds; one item per learner would be 708
    sizes = []
    real = engine.backward_induction_batch

    def counting(by_demand, gains, *args, **kwargs):
        sizes.append(len(gains))
        return real(by_demand, gains, *args, **kwargs)

    monkeypatch.setattr(engine, "backward_induction_batch", counting)
    run_test(benchmark_spec(4, replications=3, grid=(0.65, 0.7, 1.0), base=GameConfig(seed=1062076350)))
    assert len(sizes) == 59 and sum(sizes) == 351


def test_a_random_tie_selfplay_sweep_solves_each_distinct_belief_once_per_round(monkeypatch):
    # the same sweep under random ties plays every replication: 27 games, 54
    # learners, 59 solved rounds; one item per learner would be 3186.  Equal
    # beliefs share a row until their own draws or their opponents' part them
    sizes = []
    real = engine.backward_induction_batch

    def counting(by_demand, gains, *args, **kwargs):
        sizes.append(len(gains))
        return real(by_demand, gains, *args, **kwargs)

    monkeypatch.setattr(engine, "backward_induction_batch", counting)
    base = GameConfig(seed=1062076350, tie_break="random")
    spec = benchmark_spec(4, replications=3, grid=(0.65, 0.7, 1.0), base=base)
    cells = run_test(spec).cells
    assert len(sizes) == 59 and sum(sizes) == 409
    monkeypatch.undo()
    assert cells == _unreused_cells(spec)


def test_repeated_random_grid_values_keep_their_own_seeds():
    spec = benchmark_spec(4, replications=1, base=GameConfig(rounds=12, tie_break="random"), grid=(0.5, 0.5))
    cells = run_test(spec).cells
    assert {(c.omega_a, c.omega_b) for c in cells} == {(0.5, 0.5)}
    assert cells == _unreused_cells(spec)
    assert len({(c.profit_a, c.profit_b) for c in cells}) > 1  # reusing one game would be wrong


def test_a_sweep_builds_only_the_streams_its_seats_draw_from(monkeypatch):
    # a rule-based seat always draws, a planner only under random ties; a
    # run hashes, in one call on the sweep's own key table, one row per game
    # for each seat name that draws and none for any other, and makes no call
    # when nothing draws
    runs = []  # per run: its games, and per _streams call its rows per seat name
    real, real_streams = experiments.play_games, engine._streams

    def recording(configs, pairs, plans, *args):
        assert isinstance(plans, engine._KeyedPlans)
        runs.append((len(plans), []))
        return real(configs, pairs, plans, *args)

    def counting(children):
        index = np.asarray(children[2])[:, -1]
        runs[-1][1].append({name: int((index == i).sum()) for i, name in enumerate(("agent_a", "agent_b"))})
        return real_streams(children)

    monkeypatch.setattr(experiments, "play_games", recording)
    monkeypatch.setattr(engine, "_streams", counting)
    for test_id, tie_break, streams in (
        (1, "smallest", ["agent_b"]),
        (4, "smallest", []),
        (3, "random", ["agent_a", "agent_b"]),
    ):
        runs.clear()
        base = GameConfig(rounds=5, tie_break=tie_break)
        run_test(benchmark_spec(test_id, replications=2, base=base, grid=(0.0, 1.0)))
        assert runs, (test_id, tie_break)
        for games, calls in runs:
            rows = {name: games if name in streams else 0 for name in ("agent_a", "agent_b")}
            assert calls == ([rows] if streams else []), (test_id, tie_break, runs)


def test_a_part_derives_each_game_s_plan_as_the_plan_of_its_cell_and_replication(monkeypatch):
    # the part keys each game by its cell and replication, and its chunk's
    # run draws each game's streams as the plan of that key would
    chunks, runs = [], []
    real = experiments._play_chunk
    monkeypatch.setattr(experiments, "_play_chunk", lambda spec, chunk: chunks.extend(chunk) or real(spec, chunk))
    monkeypatch.setattr(
        experiments, "play_games", lambda configs, pairs, plans, *args: runs.append(plans) or np.ones((len(pairs), 1, 2))
    )
    spec = benchmark_spec(2, replications=3, base=GameConfig(seed=2**70 + 5), grid=(0.0, 1.0))
    games, _ = experiments._plan(spec, spec.cells())
    experiments._play_part(spec, games)
    assert len(chunks) == len(games) == 6
    (plans,) = runs
    for (cell_index, _, rep), (_, _, key), row in zip(games, chunks, range(len(games))):
        assert key == (cell_index, rep)
        fresh = RngPlan(spec.base.seed, (cell_index, rep))
        for derived, alone in ((plans, fresh), (plans.pretrain_plan(), fresh.pretrain_plan())):
            for seat, name in enumerate(("agent_a", "agent_b")):
                (stream,) = derived.seat_streams(np.array([seat * len(games) + row]))
                assert stream.random(59).tobytes() == getattr(alone, name).random(59).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.sampled_from((2, 3, 10, 61)), st.data())
def test_a_chunk_scores_every_game_as_its_game_log_does(games, rounds, q, data):
    # the sweep scores a chunk's (games, rounds, 2) demands in one pass
    demands = np.array(
        data.draw(st.lists(st.integers(1, q - 1), min_size=games * rounds * 2, max_size=games * rounds * 2))
    ).reshape(games, rounds, 2)
    config = GameConfig(q=q, rounds=rounds, initial_demand=1)
    spec = benchmark_spec(1, base=config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "play_games", lambda *chunk: demands)
        scores = experiments._play_chunk(spec, [(config, None, None)] * games)
    logs = [GameLog(config, game) for game in demands]
    expected = [(float(log.cum_profit_a), float(log.cum_profit_b), float(log.cum_profit_a + log.cum_profit_b),
                 log.success_rate_pct) for log in logs]
    assert scores.dtype == np.float64 and scores.shape == (games, 4)
    assert scores.tolist() == list(map(list, expected))


def test_a_chunk_refuses_a_demand_out_of_range(monkeypatch):
    config = GameConfig(rounds=2)
    demands = np.array([[[3, 3], [4, 5]], [[3, 3], [10, 1]]])
    monkeypatch.setattr(experiments, "play_games", lambda *chunk: demands)
    with pytest.raises(ValueError, match="demands must lie in 1..9"):
        experiments._play_chunk(benchmark_spec(1, base=config), [(config, None, None)] * 2)


@pytest.mark.parametrize("seats", _SEATS, ids=lambda seats: "-".join(seat.kind for seat in seats))
def test_a_part_builds_each_stateless_seat_once_and_each_learner_per_game(seats, monkeypatch):
    # a rule-based model or a fixed table holds no state, so one object sits in
    # every game of a part, across chunks; a learner is fresh for each game
    pairs = []
    real = experiments.play_games

    def recording(configs, chunk_pairs, plans, *args):
        pairs.extend(chunk_pairs)
        return real(configs, chunk_pairs, plans, *args)

    monkeypatch.setattr(experiments, "play_games", recording)
    monkeypatch.setattr(experiments, "CHUNK_BYTES", 1)  # every game a chunk of its own
    base = GameConfig(rounds=3, tie_break="random")  # so that every game is played
    run_test(ExperimentSpec(1, *seats, (0.0, 1.0), None, 2, base))
    assert len(pairs) == 4
    for seat, agent in enumerate(seats):
        held = [pair[seat] for pair in pairs]
        if agent.learning:
            assert len(set(map(id, held))) == 4
            assert all(isinstance(learner, DirichletLearner) for learner in held)
        else:
            assert all(one is held[0] for one in held)
            assert type(held[0]) is type(build_agent(agent, base.q))


@pytest.mark.parametrize("test_id", (1, 2, 3))
def test_a_game_over_the_chunk_bound_is_a_chunk_by_itself(test_id, monkeypatch):
    # with the bound below one game's items, every game is its own chunk,
    # also where a cell's games bring no item the chunk does not hold
    sizes = []
    real = experiments._play_chunk
    monkeypatch.setattr(experiments, "_play_chunk", lambda spec, chunk: sizes.append(len(chunk)) or real(spec, chunk))
    monkeypatch.setattr(experiments, "CHUNK_BYTES", 9**3 * 8 - 1)
    spec = benchmark_spec(test_id, replications=3, base=GameConfig(rounds=3, tie_break="random"), grid=(0.0, 1.0))
    cells = run_test(spec).cells
    assert sizes == [1] * len(experiments._plan(spec, spec.cells())[0])
    monkeypatch.setattr(experiments, "CHUNK_BYTES", 4 * 2**20)
    assert run_test(spec).cells == cells


_DRAW_FREE = """
import contextlib, io, sys
from ndglab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print(code, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize(("test_id", "draws"), [(3, False), (4, False), (5, False), (1, True)])
def test_a_sweep_that_draws_nothing_never_loads_numpy_random(test_id, draws, tmp_path):
    # keyed plans build no SeedSequence until a stream is read, so a
    # deterministic sweep does not import numpy.random at all
    argv = ["test", "--id", str(test_id), "--grid", "0.65,0.7,1.0", "--replications", "3"]
    argv += ["--seed", "1062076350", "--tie-break", "smallest", "--out", str(tmp_path)]
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _DRAW_FREE, "--", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", str(draws)]


_IMPORTS_NOTHING = """
import contextlib, io, json, sys
import ndglab.cli, numpy.random
before = set(sys.modules)
for test_id in range(1, 6):
    argv = ["test", "--id", str(test_id), "--grid", "0.25,0.75", "--replications", "2", "--tie-break", "smallest"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert ndglab.cli.main(argv + ["--out", f"{sys.argv[2]}/{test_id}"]) == 0
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_a_sweep_imports_nothing(tmp_path):
    # with ndglab.cli and numpy.random loaded, as a bench worker has them, no
    # sweep loads a module: a plain np.unique, for one, loads numpy.ma, about
    # 21 ms in a fresh process
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", _IMPORTS_NOTHING, "--", str(tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize(
    ("name", "test_id", "tie_break", "q", "grid"), [pytest.param(*sweep, id=sweep[0]) for sweep in memory_sweeps.SWEEPS]
)
def test_sweep_memory_stays_within_the_chunk_bound(name, test_id, tie_break, q, grid):
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


@pytest.mark.parametrize("reps", (1, 7, 8, 9, 30, 129))
def test_aggregate_and_the_cells_csv_equal_per_cell_1d_statistics_bit_for_bit(reps, tmp_path):
    # both reduce a (cells, metrics, reps) table along its contiguous last
    # axis, which must give the bits of numpy's 1-D statistics of each cell;
    # pairwise summation makes a sum's bits depend on how it is taken from 8 entries on
    rng = np.random.default_rng(reps)
    weights = [(i / 10, j / 10) for i in range(11) for j in range(11)]
    cells = tuple(
        CellResult(wa, wb, *(tuple((rng.random(reps) * 10.0 ** rng.integers(-3, 4)).tolist()) for _ in range(4)))
        for wa, wb in weights
    )
    means = {m: np.array([np.mean(np.array(getattr(c, m))) for c in cells]) for m in experiments.METRICS}
    expected = {stat: {m: float(getattr(np, stat)(v)) for m, v in means.items()} for stat in ("min", "mean", "max")}
    summary = aggregate(cells)
    assert summary == expected
    for stat in expected:
        assert [np.float64(v).tobytes() for v in summary[stat].values()] == [
            np.float64(v).tobytes() for v in expected[stat].values()
        ]
    path = tmp_path / "cells.csv"
    experiments.write_cells_csv(experiments.SweepSummary(None, cells, summary), path)
    rows = [[float(x) for x in row.values()] for row in csv_rows(path)]
    for c, row in zip(cells, rows, strict=True):
        values = [c.omega_a, c.omega_b]
        for m in experiments.METRICS:
            v = np.array(getattr(c, m))
            values += [float(np.mean(v)), float(np.min(v)), float(np.max(v))]
        assert [np.float64(x).tobytes() for x in row] == [np.float64(x).tobytes() for x in values]


@pytest.mark.parametrize("test_id", (1, 2, 5))
@pytest.mark.parametrize("seed", (0, 2**64 + 7, 2**200))
def test_a_sweep_under_random_ties_plays_each_game_on_the_streams_of_its_plan(test_id, seed):
    # every seat draws, on streams a chunk derives from its key array; each
    # cell equals its games played one by one on RngPlan(seed, (cell, rep)),
    # the warm-up games of scenario 5 on its pretrain_plan()
    base = GameConfig(rounds=6, seed=seed, tie_break="random")
    spec = benchmark_spec(test_id, replications=2, base=base, grid=(0.0, 0.7))
    assert run_test(spec).cells == _unreused_cells(spec)


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
    played = count_played_games(monkeypatch)
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        run_test(benchmark_spec(3, replications=1, grid=SMALL), out_dir=tmp_path)
    assert played == []
    assert (tmp_path / "test3_cells.csv").read_text() == "old\n"


def test_one_sided_warm_up_is_refused_before_any_cell_runs(tmp_path, monkeypatch):
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
