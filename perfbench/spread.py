"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...] [--trace 0|1] [--out FILE]

For every workload, runs ``run.py`` once per seed (0, 1, ...) and prints,
per metric, the median, the quartiles and the spread (the distance between
the quartiles as a share of the median, as ``statistics.quantiles(n=4)``
gives them).  Spreads above a third of a metric's bound in BENCHMARK.json
are flagged.  ``--out`` also writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    runs = {}
    ok = True
    for workload in args.workload or names:
        results = []
        for seed in range(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            results.append(result)
            values = "  ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items() if k in bounds)
            print(f"  seed {seed}: correct {result['correct']}  {values}", flush=True)
        runs[workload] = results
        print(f"{workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(metric)
            flag = "  > bound/3" if bound is not None and metric != "setup_s" and spread > bound / 3 else ""
            print(f"  {metric:42} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
