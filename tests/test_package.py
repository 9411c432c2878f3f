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


def test_importing_the_cli_loads_no_process_pool():
    # every sweep plays in the calling process, so a fresh `import ndglab.cli`
    # loads neither package a process pool comes from
    code = "import sys, ndglab.cli; print(*[m for m in ('concurrent', 'multiprocessing') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_the_readme_api_example_runs():
    # the inline run_game example of the README's Python API section, as written
    section = (ROOT / "README.md").read_text().split("## Python API", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"`(run_game\([^`]*\))`", section)
    namespace = {}
    exec("from ndglab import *", namespace)
    log = eval(example, namespace)
    assert isinstance(log, ndglab.GameLog) and log.demands.shape == (log.config.rounds, 2)
