"""ndglab benchmark: time one workload through ``ndglab.cli.main``.

    python3 perfbench/run.py --workload selfplay-learning --seed 0 --seconds 15 --trace 0

Each pass starts a fresh interpreter (``worker.py``) that imports
``ndglab.cli`` and calls ``main(["test", ...])`` once, serially
(``NDG_THREADS=1``), writing into a fresh directory under
``.perfbench_work/``.  Passes repeat until ``--seconds`` have gone by; every
figure reported is a median over passes.  ``games_per_s`` is divided by, and
``setup_s`` multiplied by, the machine speed the pass measured around its
sweep (see ``worker.calibrate``).  Before the timed passes the
untimed golden command set runs once, which also fills the bytecode cache.

Every pass's CSV files are compared with ``golden.json``.  ``attempted``
counts the cells of all timed sweeps plus the files and exit codes of the
untimed check, ``failed`` those that differ, and ``correct`` is false when any differ (or
when traced passes disagree on a call count).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones; the spans of the last traced pass are written to
``.perfbench_work/spans-<workload>.csv``.  The last line of standard output
is the JSON result.  Exit code 2 means nothing could be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from harness import WORK, BenchError, git_commit, load_golden, require_program, run_worker
from harness import source_digest, wrong_cells, wrong_files
from spans import OPPONENT_SPANS
from workloads import BANK_SIZE, WORKLOADS, untimed_commands

E2E_UNITS = {"games_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PLAIN, MIN_TRACED = 3, 2


def layer_unit(name: str) -> str:
    """Unit from the metric's last name part: ``calls``, ``*_frac``, ``*_s`` or ``<unit>_p<n>``."""
    suffix = name.rsplit(".", 1)[1]
    if suffix == "calls":
        return "count"
    if suffix.endswith("frac"):
        return "ratio"
    if "_p" in suffix:
        return suffix.split("_p")[0]
    return "s"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Time one ndglab workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(args, tmp: Path) -> dict:
    golden = load_golden()
    workload = WORKLOADS[args.workload]
    argv = workload.argv(args.seed)
    expected = golden["timed"][workload.name][str(args.seed % BANK_SIZE)]
    if expected["argv"] != argv:
        raise BenchError("golden.json was recorded for other workload arguments")

    commands = untimed_commands()
    if golden["untimed"]["commands"] != [[sub, a] for sub, a in commands]:
        raise BenchError("golden.json was recorded for other untimed commands")
    report, _ = run_worker(commands, tmp / "untimed")
    attempted, bad = wrong_files(report, golden["untimed"]["files"])
    failed = len(bad)
    for name in bad:
        print(f"untimed golden check: {name} differs")
    env = {"python": report["python"], "numpy": report["numpy"]}

    plain, traced, setups, problems = [], [], [], []
    deadline = time.monotonic() + args.seconds
    i = 0
    while (
        time.monotonic() < deadline
        or len(plain) < MIN_PLAIN
        or (args.trace and len(traced) < MIN_TRACED)
    ):
        trace = bool(args.trace) and i % 2 == 1
        workdir = tmp / f"pass{i}"
        spans = WORK / f"spans-{workload.name}.csv" if trace else None
        report, setup = run_worker([("sweep", argv)], workdir, trace=trace, spans=spans)
        shutil.rmtree(workdir, ignore_errors=True)
        cells, wrong = wrong_cells(report, "sweep", expected)
        attempted += cells
        failed += wrong
        setups.append(setup * report["speed"])
        wall = report["results"][0]["wall_s"]
        gps = workload.games() / wall / report["speed"]
        (traced if trace else plain).append({"gps": gps, "report": report})
        print(
            f"pass {i} {'traced' if trace else 'plain '} wall {wall:.4f} s  "
            f"raw games/s {workload.games() / wall:.3f}  speed {report['speed']:.3f}  games/s {gps:.3f}  "
            f"raw setup {setup:.4f} s  setup {setups[-1]:.4f} s  wrong cells {wrong}/{cells}"
        )
        i += 1

    env.update(nproc=os.cpu_count(), commit=git_commit(), src_sha256=source_digest(),
               passes_plain=len(plain), passes_traced=len(traced), games_per_pass=workload.games(),
               argv=argv)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"wrong_frac {failed / attempted:.6f} ({failed} of {attempted} cells, files and exit codes)")

    if not args.trace:
        metrics = {
            "games_per_s": statistics.median(p["gps"] for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["report"]["maxrss_mb"] for p in plain),
        }
        units = E2E_UNITS
    else:
        layers = [p["report"]["layers"] for p in traced]
        metrics = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if name.endswith(".calls") or name == "experiments.distinct_game_frac":
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between traced passes: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_frac"] = 1.0 - statistics.median(p["gps"] for p in traced) / statistics.median(
            p["gps"] for p in plain
        )
        units = {name: layer_unit(name) for name in metrics}
        print_self_times(traced[-1]["report"]["self_times"], metrics["cli.main.wall_s"])
    for line in problems:
        print(line)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def print_self_times(table: dict, wall: float) -> None:
    """Self time of every traced function in the last traced pass, largest first."""
    print(f"{'span':34} {'calls':>8} {'self s':>10} {'share':>7}")
    for name, (calls, self_s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        flag = "  (opponent.self_s)" if name in OPPONENT_SPANS else ""
        print(f"{name:34} {calls:8d} {self_s:10.4f} {self_s / wall:7.1%}{flag}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_program()
        WORK.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=WORK))
        try:
            result = measure(args, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
