"""Record or check the golden output digests in ``golden.json``.

    python3 perfbench/golden.py check    # compare everything with golden.json
    python3 perfbench/golden.py record   # rewrite golden.json from this checkout

The file holds two parts.  ``timed``: for every workload and every input
slot, the ``ndglab test`` arguments, the sha256 of the cells and summary
CSV files and of every cells row.  ``untimed``: the sha256 of every file
written by the untimed command set of ``workloads.untimed_commands``.
Record only from a commit whose outputs are known good; every later run is
compared with it.  Exit code: 0 all equal, 1 a difference, 2 cannot run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from harness import GOLDEN, WORK, BenchError, load_golden, require_program, run_worker, sweep_files
from harness import wrong_cells, wrong_files
from workloads import BANK_SIZE, WORKLOADS, untimed_commands


def slot_commands(workload) -> list[tuple[str, list[str]]]:
    return [(f"slot{slot}", workload.argv(slot)) for slot in range(BANK_SIZE)]


def collect(tmp) -> dict:
    golden = {"bank_size": BANK_SIZE, "timed": {}, "untimed": {}}
    for name, workload in WORKLOADS.items():
        commands = slot_commands(workload)
        report, _ = run_worker(commands, tmp / name)
        require_success(report)
        entries = {}
        for slot, (sub, argv) in enumerate(commands):
            files, rows = sweep_files(report, sub)
            entries[str(slot)] = {"argv": argv, "files": files, "rows": rows}
        golden["timed"][name] = entries
        print(f"{name}: {BANK_SIZE} slots", file=sys.stderr)
    commands = untimed_commands()
    report, _ = run_worker(commands, tmp / "untimed")
    require_success(report)
    golden["untimed"] = {"commands": [[sub, argv] for sub, argv in commands], "files": report["files"]}
    return golden


def require_success(report: dict) -> None:
    failed = [r["sub"] for r in report["results"] if r["rc"] != 0]
    if failed:
        raise BenchError(f"commands failed while recording: {failed}")


def check(tmp) -> int:
    golden = load_golden()
    problems = []
    for name, workload in WORKLOADS.items():
        entries = golden["timed"][name]
        commands = slot_commands(workload)
        report, _ = run_worker(commands, tmp / name)
        for slot, (sub, argv) in enumerate(commands):
            expected = entries[str(slot)]
            if expected["argv"] != argv:
                problems.append(f"{name} slot {slot}: recorded for other arguments")
                continue
            cells, wrong = wrong_cells(report, sub, expected)
            if wrong:
                problems.append(f"{name} slot {slot}: {wrong}/{cells} cells differ")
    commands = untimed_commands()
    if golden["untimed"]["commands"] != [[sub, argv] for sub, argv in commands]:
        problems.append("untimed: recorded for other commands")
    else:
        report, _ = run_worker(commands, tmp / "untimed")
        _, bad = wrong_files(report, golden["untimed"]["files"])
        problems += [f"untimed: {name} differs" for name in bad]
    for line in problems:
        print(line)
    print("golden check:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("check", "record"))
    args = parser.parse_args(argv)
    try:
        require_program()
        WORK.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="golden-", dir=WORK)
        try:
            if args.mode == "check":
                return check(Path(tmp))
            GOLDEN.write_text(json.dumps(collect(Path(tmp)), indent=1, sort_keys=True) + "\n")
            print(f"wrote {GOLDEN.name}")
            return 0
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
