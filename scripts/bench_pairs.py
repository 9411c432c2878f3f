#!/usr/bin/env python3
"""Compare a parent commit with the working tree and write ``BENCH_<number>.json``.

    python3 scripts/bench_pairs.py --parent HEAD --number N --claim selfplay-learning [--warm learner-vs-rule]

The parent side is a clean copy of ``--parent`` made with ``git archive``
in a temporary directory; the change side is the working tree itself.
Every figure comes from a fresh interpreter that imports ``ndglab`` from
its own side's ``src``:

- a fresh ``import ndglab.cli``, timed first, from an idle start
  (:func:`import_times`), in alternating pairs of processes;
- ``perfbench/run.py --trace 0`` on each workload of ``BENCHMARK.json``, for
  its ``run_seconds``, in 10 pairs: pair ``i`` uses benchmark seed ``i`` on
  both sides, and odd pairs run the parent first, even pairs the change.
  Per ``end_to_end`` metric: each side's quartiles, the change's median
  relative to the parent's, the pairs the change won, and the parent's
  interquartile range.
- the Tier-1 suite: tests, passes and wall time, and the acceptance
  figures T1..T5 of ``test_03``, which fails by design;
- the traced peaks of the sweeps in ``tests/memory_sweeps.py``, whose bound
  the ``tracemalloc`` tests assert;
- the five default scenarios at 30 replications, every pass's total and
  their median and interquartile range over five passes;
- the five scenarios under random ties at 10 replications
  (``--tie-break random --replications 10``), every pass per scenario, each
  scenario's median and the totals' median and interquartile range over
  five passes per side; passes alternate which side runs first;
- warm in-process sweeps of the ``--warm`` workload (by default the
  ``--claim`` workload, else ``learner-vs-rule``): pairs of processes, in
  alternating order, that each time several sweeps after one untimed sweep;
- the layers of :func:`layer_timings`, timed with ``timeit`` in fresh
  interpreters, pairs of one per side in alternating order; each
  interpreter's timing of each layer, and their median and interquartile
  range per side (:func:`layer_spread`);
- numpy's BLAS build, each side's set-up regime (:func:`setup_regime`) and
  its import times, under ``environment``.

A full run takes about 45 minutes on two cores.  Run it on
an otherwise idle machine: both sides share it, one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
import memory_sweeps  # noqa: E402  (data only)
from workloads import WORKLOADS  # noqa: E402  (reads the workload table only)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
PAIRS, WARM_PAIRS, WARM_SWEEPS, SCENARIO_PASSES, LAYER_PAIRS, IMPORT_PAIRS = 10, 8, 8, 5, 5, 15
RANDOM_TIE_ARGS = ["--tie-break", "random", "--replications", "10"]

# Runs in a fresh interpreter of one side, which imports that side's ndglab.
PROBE = r"""
import contextlib, io, json, shutil, statistics, sys, tempfile, time, tracemalloc
from ndglab import GameConfig, benchmark_spec, run_test
from ndglab.cli import main

job = json.loads(sys.argv[1])

def sweep(argv):
    out = tempfile.mkdtemp()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            if main(argv + ["--out", out]) != 0:
                raise SystemExit(f"ndglab {' '.join(argv)} failed")
        return time.perf_counter() - start
    finally:
        shutil.rmtree(out, ignore_errors=True)

if job["kind"] == "warm":
    sweep(job["argv"])
    result = statistics.median(sweep(job["argv"]) for _ in range(job["sweeps"]))
elif job["kind"] == "layers":
    sys.path.insert(0, job["scripts"])
    from bench_pairs import layer_timings
    result = layer_timings(job["repeat"])
elif job["kind"] == "scenarios":
    result = [sweep(["test", "--id", str(k), *job["extra"]]) for k in range(1, 6)]
else:
    result = []
    for _, test_id, tie_break, q, grid in job["sweeps"]:
        base = GameConfig(q=q, rounds=4, tie_break=tie_break)
        tracemalloc.start()
        try:
            run_test(benchmark_spec(test_id, replications=30, base=base, grid=grid and tuple(grid)))
            result.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
print(json.dumps(result))
"""


def layer_timings(repeat: int = 7, number: int | None = None) -> dict:
    """Microseconds per call of each layer, the least of ``repeat`` timings, in this interpreter.

    Times whichever ``ndglab`` this interpreter imports, so a side's probe
    times its own tree; a layer that tree lacks reads None.  ``number``
    calls make one timing, by default as many as ``timeit`` picks to fill
    0.2 s.  The layers:

    - ``sample_200_one_shot``: one round of rule-based draws for 200 seats
      through ``heuristic_sample``, at 17 states near the even split;
    - ``sample_200_warm_memo``: the same round through a ``RuleRows`` that
      has already drawn at those states;
    - ``streams_200``: 200 ``RngPlan`` seat streams, each built alone when
      first read, the one-plan path, and drawing 59 uniforms;
    - ``streams_200_run``: the same streams, built together through the path
      a run takes on a list of plans: the plans tabulated by
      ``engine._KeyedPlans.of``, then ``seat_streams`` (on an older tree,
      ``engine._fill_streams``);
    - ``streams_200_keyed``: the streams of seat B of 200 games keyed
      ``(0, k)``, built together from the key table a sweep's chunk builds
      (``engine._KeyedPlans(seeds, heads, keys).seat_streams``; on an older
      tree, ``engine._seat_streams``), each drawing 59 uniforms;
    - ``parser_test``: the argument parser of ``ndglab test``;
    - ``lean_solve_b<B>``: one ``backward_induction_batch`` of B items at
      q=10 and h=10, keeping two stages, every state's row its own;
      ``lean_solve_b36_learner`` the same for 36 learners, each a flat
      prior plus 12 visited states; ``lean_solve_q20_b36`` the all-distinct
      case at q=20 and B=36.  ``*inputs`` runs on either tree, whichever
      inputs its ``solver_inputs`` stacks;
    - ``game_scores_200x60``: ``core.game_scores`` on a ``(200, 60, 2)`` chunk;
    - ``play_setup_200``: ``engine.play_games`` for 200 games of 2 rounds,
      a planner holding one ``heuristic_table`` at 4 weights against one
      rule-based model, on fresh plans: a run's setup and one round;
    - ``rule_draw_200``: a fresh ``RuleRows`` drawing 59 rounds of 200
      seats, at states near the even split: a run's rule-based draws;
    - ``tabulate_121x30``: ``run_test`` of scenario 3 on the default grid at
      30 replications under random ties, 3,630 games, with ``_plan`` and
      ``_play_part`` replaced by their precomputed results, then
      ``write_cells_csv``: a sweep's results from its games' metrics to the
      cells, the summary and the cells CSV.
    """
    import inspect

    import numpy as np

    from ndglab import cli, core, engine, experiments, opponent, planner

    rng = np.random.default_rng(0)
    q, model = 10, opponent.HeuristicModel(1.0, 10)
    own, opp = rng.integers(3, 8, (2, 17))[:, rng.integers(0, 17, 200)]
    u = rng.random(200)
    memo = opponent.RuleRows(model) if hasattr(opponent, "RuleRows") else None
    if memo is not None:
        memo.draw(own, opp, u)
    takes_argv = bool(inspect.signature(cli._build_parser).parameters)
    keyed = getattr(engine, "_KeyedPlans", None)
    tabled = keyed is not None and hasattr(keyed, "seat_streams")  # else an older tree's names, or none
    fill_streams = getattr(engine, "_fill_streams", None)

    def run_streams():
        plans = [engine.RngPlan(0, (0, k)) for k in range(200)]
        if tabled:
            return [stream.random(59) for stream in keyed.of(plans).seat_streams(np.arange(200))]
        fill_streams([(plan, "agent_a") for plan in plans])
        return [plan.agent_a.random(59) for plan in plans]

    def keyed_streams():
        if tabled:
            streams = keyed([0], np.zeros(200, dtype=np.intp), keys).seat_streams(np.arange(200, 400))
        else:
            streams = engine._seat_streams(keyed(0, keys), np.arange(200, 400), 200)
        return [stream.random(59) for stream in streams]

    keys = np.column_stack((np.zeros(200, dtype=np.int64), np.arange(200)))
    layers = {
        "sample_200_one_shot": lambda: opponent.heuristic_sample(model, own, opp, u),
        "sample_200_warm_memo": memo and (lambda: memo.draw(own, opp, u)),
        "streams_200": lambda: [engine.RngPlan(0, (0, k)).agent_a.random(59) for k in range(200)],
        "streams_200_run": run_streams if tabled or fill_streams else None,
        "streams_200_keyed": keyed_streams if keyed is not None else None,
        "parser_test": lambda: cli._build_parser(["test"]) if takes_argv else cli._build_parser(),
    }
    learners = np.full((36, (q - 1) ** 2, q - 1), 1.0 / (q - 1))
    for table in learners:
        table[rng.choice((q - 1) ** 2, 12, replace=False)] = rng.dirichlet(np.ones(q - 1), 12)
    for name, solve_q, count in (
        ("b12", q, 12),
        ("b36", q, 36),
        ("b36_learner", q, 36),
        ("b242", q, 242),
        ("q20_b36", 20, 36),
    ):
        if name.endswith("learner"):
            tables = learners.reshape(count, q - 1, q - 1, q - 1)
        else:
            tables = rng.dirichlet(np.ones(solve_q - 1), size=(count, solve_q - 1, solve_q - 1))
        inputs = planner.solver_inputs(tables, rng.random(count), solve_q)
        layers[f"lean_solve_{name}"] = lambda inputs=inputs: planner.backward_induction_batch(*inputs, 10)
    chunk = rng.integers(1, q, (200, 60, 2))
    layers["game_scores_200x60"] = lambda: core.game_scores(chunk, q)
    configs = [core.GameConfig(rounds=2, omega_a=g % 4 / 4) for g in range(200)]
    pairs = [(opponent.heuristic_table(opponent.HeuristicModel(3.0, q)), model)] * 200
    layers["play_setup_200"] = lambda: engine.play_games(configs, pairs, [engine.RngPlan(0, (g,)) for g in range(200)])
    rounds_own, rounds_opp = rng.integers(3, 8, (2, 59, 200))
    rounds_u = rng.random((59, 200))

    def rule_draws():
        memo = opponent.RuleRows(model)
        return [memo.draw(own, opp, u) for own, opp, u in zip(rounds_own, rounds_opp, rounds_u)]

    layers["rule_draw_200"] = rule_draws
    spec = experiments.benchmark_spec(3, base=core.GameConfig(tie_break="random"))
    planned = experiments._plan(spec, spec.cells())
    metrics = np.column_stack((rng.integers(0, 300, (len(planned[0]), 3)), rng.integers(0, 61, len(planned[0]))))
    metrics = metrics * [1.0, 1.0, 1.0, 100 / 60]
    if "ndarray" not in str(inspect.signature(experiments._play_part).return_annotation):
        metrics = list(map(tuple, metrics.tolist()))  # a tree whose sweep holds a tuple per game
    out = Path(tempfile.mkdtemp()) / "cells.csv"

    def tabulate():
        real = experiments._plan, experiments._play_part
        experiments._plan, experiments._play_part = (lambda *args: planned), (lambda *args: metrics)
        try:
            experiments.write_cells_csv(experiments.run_test(spec), out)
        finally:
            experiments._plan, experiments._play_part = real

    layers["tabulate_121x30"] = tabulate
    timings = {}
    for name, call in layers.items():
        if call is None:
            timings[name] = None
            continue
        timer = timeit.Timer(call)
        calls = number or timer.autorange()[0]
        timings[name] = round(min(timer.repeat(repeat, calls)) / calls * 1e6, 2)
    shutil.rmtree(out.parent, ignore_errors=True)
    return timings


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--number", required=True, type=int, help="number in the output name BENCH_<number>.json")
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    parser.add_argument("--claim", choices=names, help="workload whose games_per_s the change claims")
    parser.add_argument(
        "--warm", choices=names, help="workload of the warm in-process sweeps (default: --claim, else learner-vs-rule)"
    )
    args = parser.parse_args(argv)
    args.warm = args.warm or args.claim or "learner-vs-rule"
    return args


def run(cmd, tree: Path, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=timeout)


def probe(tree: Path, job: dict):
    proc = run([sys.executable, "-c", PROBE, json.dumps(job)], tree, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"probe {job['kind']} failed in {tree}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def perfbench_run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = run(cmd, tree, timeout=seconds * 4 + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench/run.py failed in {tree}:\n{proc.stderr[-4000:]}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def spread(passes) -> dict:
    """Every pass's total, rounded, with their median and interquartile range, per side."""
    fields = {}
    for side, totals in passes.items():
        stats = quartiles(totals)
        fields[f"{side}_median_total"] = round(stats["median"], 2)
        fields[f"{side}_iqr_total"] = round(stats["q3"] - stats["q1"], 3)
        fields[f"{side}_totals"] = [round(total, 3) for total in totals]
    return fields


def layer_spread(layer_runs) -> dict:
    """Per side, each layer's median over the interpreters, its interquartile
    range and every interpreter's timing; a layer a side lacks reads None."""
    fields = {}
    for side, runs in layer_runs.items():
        timings = {name: [run[name] for run in runs] for name in runs[0]}
        stats = {name: None if None in values else quartiles(values) for name, values in timings.items()}
        fields[side] = {name: s and s["median"] for name, s in stats.items()}
        fields[f"{side}_iqr"] = {name: s and round(s["q3"] - s["q1"], 2) for name, s in stats.items()}
        fields[f"{side}_runs"] = timings
    return fields


def blas_build() -> dict:
    """numpy's BLAS build, as ``numpy.show_config`` reports it."""
    import numpy

    return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]


def setup_regime(tree: Path) -> dict:
    """Which set-up regime a side ran in: the CPUs this process may run on,
    and the threads of a fresh interpreter of that side once ``import
    ndglab.cli`` has returned.  More than one thread there is a BLAS pool,
    whose start-up costs ``setup_s`` tens of milliseconds (Linux only)."""
    proc = run([sys.executable, "-c", "import os, ndglab.cli; print(len(os.listdir('/proc/self/task')))"], tree, 120)
    if proc.returncode != 0:
        raise SystemExit(f"import ndglab.cli failed in {tree}:\n{proc.stderr[-4000:]}")
    return {"visible_cpus": len(os.sched_getaffinity(0)), "threads_after_import": int(proc.stdout)}


def import_times(trees: dict, pairs: int = IMPORT_PAIRS) -> dict:
    """Wall milliseconds of fresh processes that run ``import ndglab.cli``, per
    side, in ``pairs`` alternating pairs, beside a bare interpreter's
    (``python -c pass``): each side's median and every run.  Timed from the
    start of each process to its exit, so it holds what a user's first
    command pays before its sweep."""
    def timed(cmd, tree: Path) -> float:
        start = time.perf_counter()
        proc = run([sys.executable, "-c", cmd], tree, 120)
        if proc.returncode != 0:
            raise SystemExit(f"{cmd} failed in {tree}:\n{proc.stderr[-4000:]}")
        return round((time.perf_counter() - start) * 1e3, 1)

    runs = {side: [] for side in (*trees, "bare")}
    for pair in range(pairs):
        for side in list(trees) if pair % 2 == 0 else list(trees)[::-1]:
            runs[side].append(timed("import ndglab.cli", trees[side]))
        runs["bare"].append(timed("pass", next(iter(trees.values()))))
    return {side: {"median_ms": round(statistics.median(times), 1), "runs_ms": times} for side, times in runs.items()}


def summarize(runs) -> dict:
    metrics = {}
    for metric in BENCHMARK["end_to_end"]:
        name, better = metric["name"], metric["better"]
        sides = {side: [r[side][name] for r in runs] for side in SIDES}
        stats = {side: quartiles(values) for side, values in sides.items()}
        sign = 1 if better == "higher" else -1
        metrics[name] = {
            "unit": metric["unit"],
            "better": better,
            **stats,
            "change_vs_parent": stats["change"]["median"] / stats["parent"]["median"] - 1,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"])),
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return metrics


def bench_workload(trees: dict, workload: str, env: dict) -> dict:
    runs, correct = [], True
    for pair in range(1, PAIRS + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        record = {"pair": pair, "seed": pair, "first": order[0]}
        for side in order:
            result, env[side] = perfbench_run(trees[side], workload, pair, BENCHMARK["run_seconds"])
            correct &= result["correct"] and result["failed"] == 0
            record[side] = {m["name"]: result["metrics"][m["name"]]["value"] for m in BENCHMARK["end_to_end"]}
        runs.append(record)
        print(f"{workload} pair {pair}: " + ", ".join(
            f"{side} {record[side]['games_per_s']:.1f}" for side in SIDES) + " games/s", file=sys.stderr)
    return {"pairs": PAIRS, "all_correct": correct, "metrics": summarize(runs), "runs": runs}


def tier1(tree: Path) -> dict:
    start = time.monotonic()
    proc = run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
               tree, timeout=3600)
    wall = time.monotonic() - start
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)\b", proc.stdout.splitlines()[-1])}
    figures = re.search(r"T1=\S+ T2=\S+ T3=\S+ T4=\S+ T5=[\d.]+", proc.stdout)
    return {
        "tests": sum(counts.values()),
        "passed": counts.get("passed", 0),
        "wall_s": round(wall, 1),
        "acceptance_3": figures.group(0) if figures else None,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        parent = work / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        trees = {"parent": parent, "change": ROOT}
        imports = import_times(trees)  # first, from an idle start, before any other load
        regimes = {side: setup_regime(tree) for side, tree in trees.items()}

        suites = {side: tier1(tree) for side, tree in trees.items()}
        figures = {side: suite.pop("acceptance_3") for side, suite in suites.items()}
        print(f"tier-1: {suites}", file=sys.stderr)
        peaks = {side: probe(tree, {"kind": "memory", "sweeps": memory_sweeps.SWEEPS}) for side, tree in trees.items()}
        job = {"kind": "layers", "scripts": str(ROOT / "scripts"), "repeat": 7}
        layer_runs = {side: [] for side in SIDES}
        for pair in range(LAYER_PAIRS):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                layer_runs[side].append(probe(trees[side], job))
        scenarios = {side: [] for side in SIDES}
        random_ties = {side: [] for side in SIDES}
        for scenario_pass in range(SCENARIO_PASSES):
            for side in SIDES if scenario_pass % 2 == 0 else SIDES[::-1]:
                scenarios[side].append(sum(probe(trees[side], {"kind": "scenarios", "extra": []})))
                random_ties[side].append(probe(trees[side], {"kind": "scenarios", "extra": RANDOM_TIE_ARGS}))
        warm = {side: [] for side in SIDES}
        warm_argv = WORKLOADS[args.warm].argv(0)
        for pair in range(WARM_PAIRS):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                warm[side].append(probe(trees[side], {"kind": "warm", "argv": warm_argv, "sweeps": WARM_SWEEPS}))

        env = {}
        workloads = {w["name"]: bench_workload(trees, w["name"], env) for w in BENCHMARK["workloads"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unchanged = "unchanged" if figures["parent"] == figures["change"] else f"parent {figures['parent']}"
    result = {
        "description": (
            f"End-to-end medians of perfbench/run.py --trace 0, parent commit {args.parent} against the working "
            "tree, the parent on a clean git-archive copy; pair i uses benchmark seed i and alternates which "
            "side runs first."
        ),
        "environment": {
            "cpus": os.cpu_count(),
            "python": env["change"]["python"],
            "numpy": env["change"]["numpy"],
            "seconds_per_run": BENCHMARK["run_seconds"],
            "blas": blas_build(),
            "setup_regime": regimes,
            "import_ndglab_cli": {
                "description": (
                    f"wall ms of a fresh process running import ndglab.cli, {IMPORT_PAIRS} alternating pairs "
                    "timed first, from an idle start; bare is python -c pass"
                ),
                **imports,
            },
        },
        "claim": {"workload": args.claim, "metric": "games_per_s", "better": "higher"} if args.claim else None,
        "workloads": workloads,
        "tier1": {
            **suites,
            "failing_by_design": f"test_03 ({figures['change']}, {unchanged})",
        },
        "traced_peak_mib": {
            "case": [name for name, *_ in memory_sweeps.SWEEPS],
            **{side: [round(peak, 2) for peak in peaks[side]] for side in SIDES},
            "bound": memory_sweeps.BOUND_MIB,
        },
        "five_scenarios_30_reps_s": {**spread(scenarios), "passes": SCENARIO_PASSES},
        "five_scenarios_random_ties_10_reps_s": {
            "args": RANDOM_TIE_ARGS,
            **{
                f"{side}_median_per_scenario": [round(statistics.median(runs), 3) for runs in zip(*random_ties[side])]
                for side in SIDES
            },
            **spread({side: list(map(sum, runs)) for side, runs in random_ties.items()}),
            **{
                f"{side}_passes": [[round(s, 3) for s in runs] for runs in random_ties[side]]
                for side in SIDES
            },
            "passes": SCENARIO_PASSES,
        },
        "layers": {
            "description": (
                f"microseconds per call: the least of 7 timeit repeats in a fresh interpreter, median of "
                f"{LAYER_PAIRS} interpreters per side, run in alternating pairs; <side>_iqr the interquartile "
                "range and <side>_runs every interpreter's timing"
            ),
            **layer_spread(layer_runs),
        },
        "warm_in_process": {
            "workload": args.warm,
            "pairs": WARM_PAIRS,
            "sweeps_per_process": WARM_SWEEPS,
            **{f"{side}_median_s": round(statistics.median(warm[side]), 4) for side in SIDES},
            "speedup_per_pair": [round(p / c, 3) for p, c in zip(warm["parent"], warm["change"])],
        },
    }
    out = ROOT / f"BENCH_{args.number}.json"
    tmp = out.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(result, indent=2) + "\n")
    os.replace(tmp, out)
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
