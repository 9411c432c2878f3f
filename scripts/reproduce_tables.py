#!/usr/bin/env python3
"""Run the five benchmark scenarios and print their summary tables.

Each scenario writes ``test<k>_cells.csv`` and ``test<k>_summary.csv`` under
its own subdirectory of ``--out``.  The full run at 30 replications takes
a few seconds; ``--single-run`` drops to one replication for a quick look.
"""

import argparse
import sys
import time
from pathlib import Path

from ndglab import GameConfig, benchmark_spec, run_test
from ndglab.core import TIE_BREAKS, refuse_overwrite
from ndglab.experiments import METRICS, output_paths


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", default="1,2,3,4,5", help="comma list of scenario ids")
    parser.add_argument("--replications", type=int, default=30, help="replications per grid cell")
    parser.add_argument("--single-run", action="store_true", help="force one replication per cell")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--tie-break", choices=TIE_BREAKS, default="smallest")
    parser.add_argument("--out", default="out", help="output root, one subdirectory per scenario")
    parser.add_argument("--force", action="store_true", help="overwrite existing CSV files")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    reps = 1 if args.single_run else args.replications
    try:
        ids = [int(part) for part in args.tests.split(",") if part.strip()]
        if not ids:
            raise ValueError("--tests needs at least one scenario id")
        repeated = sorted({k for k in ids if ids.count(k) > 1})
        if repeated:
            raise ValueError(f"scenario ids must not repeat, got {repeated[0]} more than once")
        base = GameConfig(seed=args.seed, tie_break=args.tie_break)
        # every spec is built and checked, and every output refused, before the first sweep runs
        specs = [benchmark_spec(k, replications=reps, base=base) for k in ids]
        out_dirs = [Path(args.out) / f"test{spec.test_id}" for spec in specs]
        for spec, out_dir in zip(specs, out_dirs):
            refuse_overwrite(output_paths(spec, out_dir), args.force)
        for spec, out_dir in zip(specs, out_dirs):
            start = time.perf_counter()
            result = run_test(spec, out_dir=out_dir, force=args.force)
            elapsed = time.perf_counter() - start
            print(f"scenario {spec.test_id}: {len(result.cells)} cells x {reps} replication(s), {elapsed:.1f}s")
            print(f"  {'statistic':<10}" + "".join(f"{m:>18}" for m in METRICS))
            for stat in ("min", "mean", "max"):
                row = "".join(f"{result.summary[stat][m]:>18.2f}" for m in METRICS)
                print(f"  {stat:<10}{row}")
            print(f"  wrote {out_dir}/test{spec.test_id}_cells.csv and test{spec.test_id}_summary.csv")
    except (ValueError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
