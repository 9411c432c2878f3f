"""Shared plumbing: start worker passes and compare outputs with golden.json."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src" / "ndglab"
WORK = ROOT / ".perfbench_work"  # temporary outputs and span files; git-ignored
GOLDEN = BENCH_DIR / "golden.json"
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot measure: missing program, bad golden data, crashed worker."""


def require_program() -> None:
    if not (SRC / "cli.py").is_file():
        raise BenchError(f"no ndglab sources under {SRC.relative_to(ROOT)}; run from a full checkout")


def run_worker(commands, workdir: Path, *, trace: bool = False, spans: Path | None = None):
    """Run ``commands`` in a fresh interpreter; return ``(report, setup_s)``.

    ``setup_s`` runs from just before the process is started until
    ``import ndglab.cli`` has returned in it.  ``NDG_THREADS`` is forced to 1,
    so sweeps stay serial whatever the caller's environment says.
    """
    job = {
        "commands": [[sub, list(argv)] for sub, argv in commands],
        "workdir": str(workdir),
        "trace": trace,
        "spans": str(spans) if spans else None,
    }
    env = dict(os.environ, NDG_THREADS="1")
    env.pop("PYTHONPATH", None)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker ran longer than {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(lines[-1])
    return report, report["ready"] - start


def load_golden() -> dict:
    if not GOLDEN.is_file():
        raise BenchError(f"missing {GOLDEN.relative_to(ROOT)}")
    return json.loads(GOLDEN.read_text())


def sweep_files(report: dict, sub: str) -> tuple[dict, list]:
    """Digests of one ``test`` command's outputs, keyed by bare file name."""
    prefix = sub + "/"
    files = {k[len(prefix):]: v for k, v in report["files"].items() if k.startswith(prefix)}
    rows = next((v for k, v in report["rows"].items() if k.startswith(prefix)), [])
    return files, rows


def wrong_cells(report: dict, sub: str, expected: dict) -> tuple[int, int]:
    """``(cells, wrong cells)`` of one timed sweep against its golden entry.

    A cell is wrong when its row differs from the recorded row.  A failed
    command counts every cell as wrong; a digest mismatch that no row
    explains (a header, or the summary file) counts as one wrong cell.
    """
    cells = len(expected["rows"])
    rc = next(r["rc"] for r in report["results"] if r["sub"] == sub)
    if rc != 0:
        return cells, cells
    files, rows = sweep_files(report, sub)
    wrong = sum(a != b for a, b in zip(rows, expected["rows"])) + abs(len(rows) - cells)
    if files != expected["files"]:
        wrong = max(wrong, 1)
    return cells, min(wrong, cells)


def wrong_files(report: dict, expected: dict) -> tuple[int, list[str]]:
    """``(items checked, items that differ)`` for the untimed golden check.

    The items are every file expected or written, and every command's exit code.
    """
    names = sorted(set(expected) | set(report["files"]))
    bad = [name for name in names if report["files"].get(name) != expected.get(name)]
    bad += [f"{r['sub']} (exit code {r['rc']})" for r in report["results"] if r["rc"] != 0]
    return len(names) + len(report["results"]), bad


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout's own ``.git``, read directly; ``unknown`` without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
