"""Command line interface: subcommands, config handling, and exit codes."""

import argparse
import importlib.util
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ndglab import DirichletLearner, GameConfig, RngPlan, Role, load_learner, save_learner
from ndglab.cli import EXIT_CONFIG, EXIT_OK, main

from oracles import count_played_games, csv_rows, reference_game


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == EXIT_CONFIG
    assert main(["juggle"]) == EXIT_CONFIG
    capsys.readouterr()


_TOP_USAGE = "usage: ndglab [-h] {run,test,sweep,pretrain,validate} ..."
_TEST_USAGE = "usage: ndglab test [-h] [--config CONFIG] [--q Q] [--rounds ROUNDS]"


@pytest.mark.parametrize(
    ("argv", "usage", "error"),
    [
        ([], _TOP_USAGE, "ndglab: error: the following arguments are required: command"),
        (["bogus"], _TOP_USAGE, "ndglab: error: argument command: invalid choice: 'bogus'"),
        (["test", "--bogus"], _TEST_USAGE, "ndglab test: error: the following arguments are required: --id"),
        (["test"], _TEST_USAGE, "ndglab test: error: the following arguments are required: --id"),
    ],
)
def test_a_usage_error_exits_2_with_its_command_s_usage(argv, usage, error, capsys, monkeypatch):
    # the parser holds only the named command's arguments; errors read as
    # when it held every command's
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err[0] == usage
    assert err[-1].startswith(error)


def test_only_the_named_command_gets_its_arguments(capsys, monkeypatch):
    # 20 add_argument calls for `test` (each parser's -h included), not 74
    calls = []
    real_add = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return real_add(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert main(["test", "--id", "1", "--help"]) == EXIT_OK
    assert "--replications" in capsys.readouterr().out
    others = ("ndglab", "ndglab run", "ndglab sweep", "ndglab pretrain", "ndglab validate")
    assert Counter(calls) == {"ndglab test": 15, **dict.fromkeys(others, 1)}


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "run" in capsys.readouterr().out


@pytest.mark.parametrize("command", [None, "run", "test", "sweep", "pretrain", "validate"])
def test_help_text_matches_its_snapshot(command, capsys, monkeypatch):
    # argparse wraps to COLUMNS; regenerate a snapshot only for a deliberate CLI change
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == EXIT_OK
    snapshot = Path(__file__).parent / "data" / f"help_{command or 'ndglab'}.txt"
    assert capsys.readouterr().out.encode() == snapshot.read_bytes()


def test_run_writes_game_files(tmp_path, capsys):
    out = tmp_path / "game"
    assert main(["run", "--rounds", "5", "--out", str(out)]) == EXIT_OK
    assert "profits:" in capsys.readouterr().out
    assert len(csv_rows(out / "game_rounds.csv")) == 5
    (summary,) = csv_rows(out / "game_summary.csv")
    assert int(summary["seed"]) == 0


def test_run_refuses_to_overwrite(tmp_path, capsys):
    out = tmp_path / "game"
    assert main(["run", "--rounds", "3", "--out", str(out)]) == EXIT_OK
    assert main(["run", "--rounds", "3", "--out", str(out)]) == EXIT_CONFIG
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(["run", "--rounds", "3", "--out", str(out), "--force"]) == EXIT_OK


def test_identical_invocations_are_byte_identical(tmp_path):
    args = ["run", "--agent-b", "heuristic", "--seed", "9", "--rounds", "40"]
    assert main(args + ["--out", str(tmp_path / "x")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "y")]) == EXIT_OK
    for name in ("game_rounds.csv", "game_summary.csv"):
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()


def test_run_heuristic_opponent_with_custom_spread(tmp_path):
    out = tmp_path / "game"
    args = [
        "run", "--agent-a", "mdp-heuristic", "--agent-b", "heuristic",
        "--sigma-a", "3.0", "--sigma-b", "1.0", "--seed", "7", "--out", str(out),
    ]
    assert main(args) == EXIT_OK
    assert len(csv_rows(out / "game_rounds.csv")) == 60


def test_test_subcommand_runs_a_scenario(tmp_path, capsys):
    out = tmp_path / "t3"
    args = ["test", "--id", "3", "--replications", "1", "--grid", "0.0,1.0", "--out", str(out)]
    assert main(args) == EXIT_OK
    assert "scenario 3: 4 cells" in capsys.readouterr().out
    assert len(csv_rows(out / "test3_cells.csv")) == 4
    summary = {row["statistic"]: row for row in csv_rows(out / "test3_summary.csv")}
    assert float(summary["max"]["total"]) == 596.0


def test_test_subcommand_protects_outputs(tmp_path, capsys):
    out = tmp_path / "t3"
    args = ["test", "--id", "3", "--replications", "1", "--grid", "0.0", "--out", str(out)]
    assert main(args) == EXIT_OK
    assert main(args) == EXIT_CONFIG
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(args + ["--force"]) == EXIT_OK


def test_unknown_scenario_id(tmp_path, capsys):
    args = ["test", "--id", "9", "--replications", "1", "--out", str(tmp_path / "t")]
    assert main(args) == EXIT_CONFIG
    assert "1..5" in capsys.readouterr().err


def test_sweep_requires_a_grid(tmp_path, capsys):
    assert main(["sweep", "--id", "1", "--out", str(tmp_path)]) == EXIT_CONFIG
    capsys.readouterr()
    args = [
        "sweep", "--id", "1", "--grid", "3", "--replications", "1",
        "--out", str(tmp_path / "s"),
    ]
    assert main(args) == EXIT_OK
    rows = csv_rows(tmp_path / "s" / "test1_cells.csv")
    assert [float(row["omega_a"]) for row in rows] == [0.0, 0.5, 1.0]


def test_grid_point_count_spans_unit_interval(tmp_path):
    out = tmp_path / "t1"
    args = ["test", "--id", "1", "--replications", "1", "--grid", "11", "--out", str(out)]
    assert main(args) == EXIT_OK
    rows = csv_rows(out / "test1_cells.csv")
    assert len(rows) == 11
    assert float(rows[0]["omega_a"]) == 0.0 and float(rows[-1]["omega_a"]) == 1.0


def test_grid_values_validated(tmp_path, capsys):
    args = ["test", "--id", "1", "--grid", "0.5,1.5", "--out", str(tmp_path / "t")]
    assert main(args) == EXIT_CONFIG
    assert "grid values" in capsys.readouterr().err


def test_bad_game_parameter(tmp_path, capsys):
    assert main(["run", "--initial-demand", "0", "--out", str(tmp_path / "g")]) == EXIT_CONFIG
    assert "initial_demand" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "game.cfg"
    cfg.write_text("omega_a = 0.3  # planner weight\nrounds = 5\n")
    out = tmp_path / "game"
    args = ["run", "--config", str(cfg), "--omega-a", "0.7", "--out", str(out)]
    assert main(args) == EXIT_OK
    (summary,) = csv_rows(out / "game_summary.csv")
    assert float(summary["omega_a"]) == 0.7  # the flag wins
    assert len(csv_rows(out / "game_rounds.csv")) == 5


def test_json_config(tmp_path):
    cfg = tmp_path / "game.json"
    cfg.write_text(json.dumps({"q": 8, "rounds": 4, "initial_demand": 2, "seed": 3}))
    out = tmp_path / "game"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    records = csv_rows(out / "game_rounds.csv")
    assert len(records) == 4
    assert int(records[0]["demand_a"]) == 2


def test_json_config_integer_keys_take_only_whole_numbers(tmp_path, capsys):
    cfg = tmp_path / "game.json"
    # JSON reads 1e400 as inf, whose int() overflows: refused like "q = inf" in a key-value file
    raws = [json.dumps(raw) for raw in ({"q": 10.7}, {"rounds": True}, {"seed": False})]
    for text in raws + ['{"q": 1e400}', '{"seed": -1e400}']:
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "g")]) == EXIT_CONFIG
        assert f"bad value for {next(iter(json.loads(text)))!r}" in capsys.readouterr().err
    kv = tmp_path / "game.cfg"
    kv.write_text("q = inf\n")
    assert main(["run", "--config", str(kv), "--out", str(tmp_path / "g")]) == EXIT_CONFIG
    assert "bad value for 'q'" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()
    cfg.write_text(json.dumps({"rounds": 4.0}))  # a whole number written as a float is fine
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "g")]) == EXIT_OK


def test_json_config_rejects_null_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "game.json"
    cfg.write_text(json.dumps({"rounds": 3, "out": None}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "bad value for 'out'" in capsys.readouterr().err
    assert not (tmp_path / "None").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["two", "0", "8"])
def test_a_stray_thread_count_variable_neither_steers_nor_refuses_a_sweep(tmp_path, monkeypatch, threads):
    # NDG_THREADS once split a sweep over worker processes; every sweep now
    # plays in one process, whatever the variable holds
    args = ["test", "--id", "2", "--replications", "2", "--grid", "0.0,1.0", "--tie-break", "random"]

    def sweep(name):
        played = count_played_games(monkeypatch)
        assert main(args + ["--out", str(tmp_path / name)]) == EXIT_OK
        assert played == [4]  # one lockstep run of every game, in this process
        return [(tmp_path / name / f"test2_{kind}.csv").read_bytes() for kind in ("cells", "summary")]

    monkeypatch.delenv("NDG_THREADS", raising=False)
    unset = sweep("unset")
    monkeypatch.setenv("NDG_THREADS", threads)
    assert sweep("set") == unset


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "game.cfg"
    cfg.write_text("qq = 10\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "g")]) == EXIT_CONFIG
    assert "'qq'" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    args = ["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "g")]
    assert main(args) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_pretrain_writes_loadable_learners(tmp_path, capsys):
    out = tmp_path / "warm"
    assert main(["pretrain", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    learner = load_learner(out / "learner_a.txt", Role.A)
    assert learner.counts.sum() == 729.0 + 30
    assert load_learner(out / "learner_b.txt", Role.B).counts.sum() == 729.0 + 30
    # the saved state can seed a learning agent in a later run
    game_out = tmp_path / "game"
    args = [
        "run", "--agent-a", "mdp-learning", "--prior-a", str(out / "learner_a.txt"),
        "--agent-b", "heuristic", "--out", str(game_out),
    ]
    assert main(args) == EXIT_OK


def test_pretrain_files_list_each_seats_counts_in_seat_order(tmp_path, capsys):
    # every file row is `prev_a prev_b` and the counts of the other seat's next
    # demand, rebuilt here from a scalar replay of the warm-up game; the
    # weights make seat B's counts differ from their swap, so a file written
    # in seat B's own view would show
    out = tmp_path / "warm"
    flags = ["--omega-a", "0.1", "--omega-b", "0.9", "--tie-break", "random", "--pretrain-rounds", "200", "--seed", "5"]
    assert main(["pretrain", *flags, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    config = GameConfig(rounds=200, omega_a=0.1, omega_b=0.9, seed=5, tie_break="random")
    played = reference_game(config, (None, None), RngPlan(5).pretrain_plan())
    expected = {"a": np.ones((9, 9, 9)), "b": np.ones((9, 9, 9))}
    for (prev_a, prev_b), (demand_a, demand_b) in zip(played[:1] + played[:-1], played):
        expected["a"][prev_a - 1, prev_b - 1, demand_b - 1] += 1.0
        expected["b"][prev_a - 1, prev_b - 1, demand_a - 1] += 1.0
    assert not np.array_equal(expected["b"], expected["b"].transpose(1, 0, 2))
    contexts = [[prev_a, prev_b] for prev_a in range(1, 10) for prev_b in range(1, 10)]
    for seat in "ab":
        rows = [line.split() for line in (out / f"learner_{seat}.txt").read_text().splitlines()]
        assert [[int(cell) for cell in row[:2]] for row in rows] == contexts
        assert [[float(cell) for cell in row[2:]] for row in rows] == expected[seat].reshape(81, 9).tolist()


def test_failed_pretrain_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["pretrain", "--pretrain-rounds", "-1", "--out", str(out)]) == EXIT_CONFIG
    assert "got -1" in capsys.readouterr().err
    assert not out.exists()


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tie_break": 3}))
    out = tmp_path / "h"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "tie_break" in capsys.readouterr().err
    assert not out.exists()


def test_config_tie_break_is_checked_without_a_planner(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tie_break": 3}))
    out = tmp_path / "h"
    args = ["run", "--agent-a", "heuristic", "--agent-b", "heuristic", "--config", str(cfg)]
    assert main([*args, "--out", str(out)]) == EXIT_CONFIG
    assert "tie_break" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_a_q_too_large_for_memory(tmp_path, capsys):
    out = tmp_path / "big"
    # one forced round between rule-based agents allocates nothing q-sized even unbounded
    args = ["run", "--q", "1000", "--rounds", "1", "--agent-a", "heuristic", "--agent-b", "heuristic"]
    assert main([*args, "--out", str(out)]) == EXIT_CONFIG
    assert "q=1000" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_a_non_finite_sigma(tmp_path, capsys):
    cases = (
        ["--agent-a", "heuristic", "--agent-b", "heuristic", "--sigma-b", "nan"],
        ["--agent-a", "heuristic", "--agent-b", "heuristic", "--sigma-b", "inf"],
        ["--agent-a", "mdp-heuristic", "--sigma-a", "nan"],
    )
    for i, flags in enumerate(cases):
        out = tmp_path / f"g{i}"
        assert main(["run", *flags, "--out", str(out)]) == EXIT_CONFIG, flags
        assert "sigma" in capsys.readouterr().err
        assert not out.exists()


def test_run_refuses_a_sigma_for_an_agent_without_a_rule_based_model(tmp_path, capsys):
    cases = (
        ["--agent-a", "mdp-uniform", "--sigma-a", "nan"],
        ["--agent-a", "mdp-learning", "--sigma-a", "-5"],
        ["--agent-b", "mdp-uniform", "--sigma-b", "2"],
    )
    for i, flags in enumerate(cases):
        out = tmp_path / f"g{i}"
        assert main(["run", *flags, "--out", str(out)]) == EXIT_CONFIG, flags
        assert "sigma" in capsys.readouterr().err
        assert not out.exists()


def test_prior_needs_learning_agent(tmp_path, capsys):
    args = ["run", "--prior-a", "whatever.txt", "--out", str(tmp_path / "g")]
    assert main(args) == EXIT_CONFIG
    assert "mdp-learning" in capsys.readouterr().err


def test_a_loaded_prior_is_the_only_prior_built(tmp_path, capsys, monkeypatch):
    path = tmp_path / "learner.txt"
    save_learner(DirichletLearner(np.full((9, 9, 9), 2.0), 10), path, Role.A)
    built = []
    real = DirichletLearner.uniform.__func__

    def counting(cls, q):
        built.append(q)
        return real(cls, q)

    monkeypatch.setattr(DirichletLearner, "uniform", classmethod(counting))
    args = ["run", "--agent-a", "mdp-learning", "--prior-a", str(path), "--agent-b", "heuristic", "--rounds", "5"]
    assert main([*args, "--out", str(tmp_path / "g")]) == EXIT_OK
    assert built == []
    # a prior on the wrong kind is refused before the other seat's learner is built
    args = ["run", "--agent-a", "mdp-learning", "--prior-b", str(path), "--agent-b", "mdp-uniform"]
    assert main([*args, "--out", str(tmp_path / "h")]) == EXIT_CONFIG
    assert "--prior-b needs an mdp-learning agent" in capsys.readouterr().err
    assert built == []
    assert main(["run", "--agent-a", "mdp-learning", "--rounds", "5", "--out", str(tmp_path / "i")]) == EXIT_OK
    assert built == [10]  # the count sees a seat built without a loaded prior


def test_validate_passes(capsys):
    assert main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def _script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_tables_refuses_bad_input_before_any_sweep(tmp_path, capsys):
    script = _script("reproduce_tables")
    cases = (
        (["--tests", "1,6", "--single-run"], "1..5"),
        (["--tests", "6", "--single-run"], "1..5"),
        (["--replications", "0"], "replications"),
        (["--tests", "", "--single-run"], "at least one"),
        (["--tests", " , ", "--single-run"], "at least one"),
    )
    for flags, reason in cases:
        assert script.main([*flags, "--out", str(tmp_path)]) == EXIT_CONFIG, flags
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err
    assert not (tmp_path / "test1").exists()
    assert list(tmp_path.iterdir()) == []


def test_reproduce_tables_refuses_every_output_and_repeated_id_before_any_sweep(
    tmp_path, capsys, monkeypatch
):
    script = _script("reproduce_tables")
    sweeps = []
    real_run_test = script.run_test

    def counting_run_test(spec, *args, **kwargs):
        sweeps.append(spec.test_id)
        return real_run_test(spec, *args, **kwargs)

    monkeypatch.setattr(script, "run_test", counting_run_test)
    (tmp_path / "test3").mkdir()
    (tmp_path / "test3" / "test3_cells.csv").write_text("old\n")
    for tests, reason in (("1,3", "refusing to overwrite"), ("1,1", "must not repeat")):
        assert script.main(["--tests", tests, "--single-run", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert reason in capsys.readouterr().err
    assert sweeps == []
    assert [p.name for p in tmp_path.iterdir()] == ["test3"]
    assert (tmp_path / "test3" / "test3_cells.csv").read_text() == "old\n"
    assert script.main(["--tests", "1,3", "--single-run", "--force", "--out", str(tmp_path)]) == EXIT_OK
    assert sweeps == [1, 3]


def test_belief_convergence_refuses_bad_input_before_any_game(capsys, monkeypatch):
    script = _script("belief_convergence")
    games = []
    real_run_game = script.run_game

    def counting_run_game(config, *args):
        games.append(config.rounds)
        return real_run_game(config, *args)

    monkeypatch.setattr(script, "run_game", counting_run_game)
    cases = (
        (["--checkpoints", "60,x"], "whole numbers"),
        (["--checkpoints", "0"], "rounds"),
        (["--checkpoints", ","], "at least one"),
        (["--omega", "2"], "omega"),
        (["--sigma", "nan"], "sigma"),
        (["--seed", "-1"], "seed"),
    )
    for flags, reason in cases:
        assert script.main(flags) == EXIT_CONFIG, flags
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and reason in captured.err, flags
        assert captured.out == ""
    assert games == []
    assert script.main(["--checkpoints", "5,10"]) == EXIT_OK
    assert games == [5, 10] and len(capsys.readouterr().out.splitlines()) == 3


def test_the_bench_layer_timings_run_on_this_tree(monkeypatch):
    # scripts/bench_pairs.py times these in each side's interpreter; one quick
    # pass keeps the code from rotting between full bench runs.  On this tree
    # both stream layers derive their streams from a run's key table: the
    # list layer from the table of 200 plans, seat A of each, and the keyed
    # layer from a sweep's table, seat B
    from ndglab import engine

    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds perfbench/ and tests/
    derived, real = [], engine._KeyedPlans.seat_streams

    def recording(table, seats):
        derived.append((len(table), seats.tolist()))
        return real(table, seats)

    monkeypatch.setattr(engine._KeyedPlans, "seat_streams", recording)
    timings = _script("bench_pairs").layer_timings(repeat=1, number=1)
    assert derived[:2] == [(200, list(range(200))), (200, list(range(200, 400)))]
    assert list(timings) == [
        "sample_200_one_shot",
        "sample_200_warm_memo",
        "streams_200",
        "streams_200_run",
        "streams_200_keyed",
        "parser_test",
        "lean_solve_b12",
        "lean_solve_b36",
        "lean_solve_b36_learner",
        "lean_solve_b242",
        "lean_solve_q20_b36",
        "game_scores_200x60",
        "play_setup_200",
        "rule_draw_200",
        "tabulate_121x30",
    ]
    assert all(isinstance(us, float) and us > 0 for us in timings.values()), timings


def test_the_bench_keeps_every_scenario_pass_beside_its_median(monkeypatch):
    # a reader of BENCH_<n>.json can tell a slowdown from spread; the median
    # keeps its key, so older files stay comparable
    monkeypatch.setattr(sys, "path", list(sys.path))
    fields = _script("bench_pairs").spread({"parent": [0.5, 0.4, 0.7, 0.45, 0.6], "change": [0.3] * 5})
    assert fields == {
        "parent_median_total": 0.5,
        "parent_iqr_total": 0.15,
        "parent_totals": [0.5, 0.4, 0.7, 0.45, 0.6],
        "change_median_total": 0.3,
        "change_iqr_total": 0.0,
        "change_totals": [0.3] * 5,
    }


def test_the_bench_keeps_every_layer_timing_beside_its_median(monkeypatch):
    # each interpreter's timing and the spread sit beside the median, under the
    # median's old key; a layer one tree lacks reads None
    monkeypatch.setattr(sys, "path", list(sys.path))
    runs = [{"solve": us, "absent": None} for us in (410.0, 400.0, 700.0, 405.0, 420.0)]
    fields = _script("bench_pairs").layer_spread({"parent": runs, "change": [{"solve": 300.0, "absent": 2.5}] * 5})
    assert fields == {
        "parent": {"solve": 410.0, "absent": None},
        "parent_iqr": {"solve": 15.0, "absent": None},
        "parent_runs": {"solve": [410.0, 400.0, 700.0, 405.0, 420.0], "absent": [None] * 5},
        "change": {"solve": 300.0, "absent": 2.5},
        "change_iqr": {"solve": 0.0, "absent": 0.0},
        "change_runs": {"solve": [300.0] * 5, "absent": [2.5] * 5},
    }


def test_the_bench_picks_its_warm_workload_apart_from_its_claim(monkeypatch):
    # --warm names the workload of the warm in-process sweeps; by default the
    # claimed one, else learner-vs-rule, and it never writes a claim itself
    monkeypatch.setattr(sys, "path", list(sys.path))
    parse = _script("bench_pairs").parse_args
    base = ["--parent", "HEAD", "--number", "1"]
    for flags, warm, claim in (
        ([], "learner-vs-rule", None),
        (["--claim", "planner-vs-rule"], "planner-vs-rule", "planner-vs-rule"),
        (["--warm", "planner-vs-rule"], "planner-vs-rule", None),
        (["--claim", "planner-vs-rule", "--warm", "selfplay-learning"], "selfplay-learning", "planner-vs-rule"),
    ):
        args = parse(base + flags)
        assert (args.warm, args.claim) == (warm, claim), flags


def test_the_bench_times_a_fresh_import_of_each_side(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = _script("bench_pairs")
    times = script.import_times({"change": script.ROOT}, pairs=2)
    assert list(times) == ["change", "bare"]
    for side in times.values():
        assert len(side["runs_ms"]) == 2 and all(ms > 0 for ms in side["runs_ms"])
        assert side["median_ms"] == round(sum(side["runs_ms"]) / 2, 1)
    json.dumps(times)  # written to BENCH_<n>.json as it is


def test_the_bench_records_numpy_s_blas_build(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = _script("bench_pairs")
    blas = script.blas_build()
    assert isinstance(blas["name"], str) and blas["name"]
    json.dumps(blas)  # written to BENCH_<n>.json as it is
    # and the set-up regime each side ran in: ndglab loads numpy with one
    # thread unless the caller sets a count
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    assert script.setup_regime(script.ROOT) == {"visible_cpus": len(os.sched_getaffinity(0)), "threads_after_import": 1}
