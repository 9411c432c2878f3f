"""Package tooling: the public names each module declares."""

import importlib
import pkgutil

import ndglab


def test_every_name_in_each_all_resolves():
    # a deletion that leaves its name in an __all__ breaks `import *` only
    modules = [ndglab] + [
        importlib.import_module(f"ndglab.{info.name}") for info in pkgutil.iter_modules(ndglab.__path__)
    ]
    assert "ndglab.planner" in {module.__name__ for module in modules}
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
