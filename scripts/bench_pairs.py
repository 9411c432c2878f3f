#!/usr/bin/env python3
"""Compare a parent commit with the working tree and write ``BENCH_<number>.json``.

    python3 scripts/bench_pairs.py --parent HEAD --number N --claim selfplay-learning

The parent side is a clean copy of ``--parent`` made with ``git archive``
in a temporary directory; the change side is the working tree itself.
Every figure comes from a fresh interpreter that imports ``ndglab`` from
its own side's ``src``, with ``NDG_THREADS=1``:

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
- the five default scenarios at 30 replications, median of three passes;
- warm in-process sweeps of the ``--claim`` workload (``learner-vs-rule``
  when no claim is given): pairs of processes, in alternating order, that
  each time several sweeps after one untimed sweep.

A full run takes about 35 minutes on two cores.  Run it on
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
import memory_sweeps  # noqa: E402  (data only)
from workloads import WORKLOADS  # noqa: E402  (reads the workload table only)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
PAIRS, WARM_PAIRS, WARM_SWEEPS, SCENARIO_PASSES = 10, 8, 8, 3

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
elif job["kind"] == "scenarios":
    result = sum(sweep(["test", "--id", str(k)]) for k in range(1, 6))
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


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--number", required=True, type=int, help="number in the output name BENCH_<number>.json")
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    parser.add_argument("--claim", choices=names, help="workload whose games_per_s the change claims")
    return parser.parse_args(argv)


def run(cmd, tree: Path, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, NDG_THREADS="1", PYTHONPATH=str(tree / "src"))
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

        suites = {side: tier1(tree) for side, tree in trees.items()}
        figures = {side: suite.pop("acceptance_3") for side, suite in suites.items()}
        print(f"tier-1: {suites}", file=sys.stderr)
        peaks = {side: probe(tree, {"kind": "memory", "sweeps": memory_sweeps.SWEEPS}) for side, tree in trees.items()}
        scenarios = {side: [] for side in SIDES}
        for _ in range(SCENARIO_PASSES):
            for side in SIDES:
                scenarios[side].append(probe(trees[side], {"kind": "scenarios"}))
        warm = {side: [] for side in SIDES}
        warm_workload = args.claim or "learner-vs-rule"
        warm_argv = WORKLOADS[warm_workload].argv(0)
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
        "five_scenarios_30_reps_s": {
            **{f"{side}_median_total": round(statistics.median(scenarios[side]), 2) for side in SIDES},
            "passes": SCENARIO_PASSES,
        },
        "warm_in_process": {
            "workload": warm_workload,
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
