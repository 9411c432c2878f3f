"""Package tooling: the public names each module declares, the names it imports,
and the README's API example."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ndglab

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_in_each_all_resolves():
    # a deletion that leaves its name in an __all__ breaks `import *` only
    modules = [ndglab] + [
        importlib.import_module(f"ndglab.{info.name}") for info in pkgutil.iter_modules(ndglab.__path__)
    ]
    assert "ndglab.planner" in {module.__name__ for module in modules}
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def _unused_imports(path):
    """Names a file imports but never reads: no load of the name, no string equal to it."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a re-export is named in __all__, a forward reference in a quoted annotation
    used |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_does_not_use():
    # no linter is installed; a leftover import outlives the code that needed it
    files = sorted(path for part in ("src", "scripts", "tests") for path in (ROOT / part).rglob("*.py"))
    assert ROOT / "src" / "ndglab" / "planner.py" in files
    unused = {str(path.relative_to(ROOT)): names for path in files if (names := _unused_imports(path))}
    assert not unused, f"unused imports: {unused}"


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# this process's threads, and whether it sees the variable ndglab sets while numpy loads
THREADS = "import os; print(len(os.listdir('/proc/self/task')), 'OPENBLAS_NUM_THREADS' in os.environ)"
needs_proc = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _fresh(code, **env):
    """What ``code`` prints, split, in a fresh interpreter that imports this
    tree's ndglab, with no BLAS thread count set beyond ``env``."""
    env = {**{k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}, "PYTHONPATH": str(ROOT / "src"), **env}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_importing_the_cli_loads_no_process_pool():
    # every sweep plays in the calling process, so a fresh `import ndglab.cli`
    # loads neither package a process pool comes from
    code = "import sys, ndglab.cli; print(*[m for m in ('concurrent', 'multiprocessing') if m in sys.modules])"
    assert _fresh(code) == []


def test_importing_the_cli_loads_no_json():
    # only a JSON config file needs json, and neither numpy nor site loads it
    assert _fresh("import sys, ndglab.cli; print('json' in sys.modules)") == ["False"]


@needs_proc
def test_ndglab_loads_numpy_with_one_blas_thread_and_leaves_the_environment_as_it_was():
    assert _fresh("import ndglab.cli; " + THREADS) == ["1", "False"]


@needs_proc
@pytest.mark.skipif(CPUS < 2, reason="one visible CPU")
def test_a_caller_s_blas_thread_count_is_kept():
    assert _fresh("import ndglab.cli; " + THREADS, OPENBLAS_NUM_THREADS="2") == ["2", "True"]


@needs_proc
def test_a_numpy_loaded_before_ndglab_keeps_its_threads():
    code = "import os, numpy; made = len(os.listdir('/proc/self/task')); import ndglab.cli; print(made); " + THREADS
    made, threads, variable = _fresh(code)
    assert threads == made and variable == "False"
    if CPUS >= 2:  # numpy's own pool has a thread per visible CPU
        assert int(made) >= 2


def test_the_readme_api_example_runs():
    # the inline run_game example of the README's Python API section, as written
    section = (ROOT / "README.md").read_text().split("## Python API", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"`(run_game\([^`]*\))`", section)
    namespace = {}
    exec("from ndglab import *", namespace)
    log = eval(example, namespace)
    assert isinstance(log, ndglab.GameLog) and log.demands.shape == (log.config.rounds, 2)
