"""One benchmark pass in a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOB_JSON``, where the job names the
``ndglab`` commands to run, the directory their outputs go to, and whether
to trace.  The last line of standard output is a JSON report: when
``import ndglab.cli`` returned (``time.monotonic``, so the parent can
measure set-up from before it started this process), each command's exit
code and wall time, the sha256 of every output file and of every data row
of each ``*_cells.csv``, the peak resident memory, the machine's speed
and, when traced, the per-layer numbers.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import ndglab.cli  # noqa: E402  (set-up ends when this import returns)

READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

from spans import Recorder, layer_metrics, self_time_table  # noqa: E402


CALIBRATION_REF_S = 0.13  # calibration time that defines speed 1.0


def calibrate() -> float:
    """Seconds taken by a fixed loop of the same kind of work as a sweep.

    Small matrix products and the short vector operations of a demand draw,
    driven from Python.  A shared virtual machine can change speed by a
    factor of 3 within seconds (seen on a 2-vCPU Xeon VM); a loop like this
    one, run in the same process right before and after a sweep, slows down
    and speeds up with it.
    """
    rng = numpy.random.default_rng(0)
    model, gains = rng.random((81, 9)), rng.random((9, 9))
    support = numpy.arange(1, 10)
    start = time.perf_counter()
    for _ in range(5000):
        float((model @ gains).max())
        weights = numpy.exp(-((support - 3.3) ** 2) / 2.0)
        int(numpy.searchsorted(numpy.cumsum(weights / weights.sum()), 0.5))
    return time.perf_counter() - start


def file_digests(root: Path) -> tuple[dict, dict]:
    files, rows = {}, {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        files[rel] = hashlib.sha256(data).hexdigest()
        if rel.endswith("_cells.csv"):
            lines = data.decode().splitlines()[1:]
            rows[rel] = [hashlib.sha256(line.encode()).hexdigest() for line in lines]
    return files, rows


def main(job: dict) -> dict:
    workdir = Path(job["workdir"])
    recorder = Recorder() if job["trace"] else None
    entry = ndglab.cli.main
    if recorder is not None:
        recorder.install()
        entry = recorder.wrap("cli.main", entry)
    results = []
    calib_before = calibrate()
    for sub, argv in job["commands"]:
        argv = [a.replace("{pretrain}", str(workdir / "pretrain")) for a in argv]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = entry(argv + ["--out", str(workdir / sub)])
        except Exception:  # a crash counts as a failed command, never as a crashed benchmark
            traceback.print_exc()
            rc = -1
        results.append({"sub": sub, "rc": rc, "wall_s": time.perf_counter() - start})
    calib_s = (calib_before + calibrate()) / 2
    files, rows = file_digests(workdir)
    report = {
        "ready": READY,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "results": results,
        "files": files,
        "rows": rows,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed": CALIBRATION_REF_S / calib_s,
        "layers": None,
    }
    if recorder is not None:
        report["layers"] = layer_metrics(recorder)
        report["self_times"] = self_time_table(recorder)
        if job.get("spans"):
            recorder.write_csv(job["spans"])
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
