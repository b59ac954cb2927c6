"""Every package name the benchmark imports still exists.

perfbench/make_refs.py and the other benchmark scripts import solvers and
helpers from bnbroadcast, mostly inside functions, so renaming or removing
one of them shows only when that script runs.  This reads their import
statements with `ast`, without running them, and resolves each name.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def package_imports():
    """(file, module, name) for every `from bnbroadcast... import name` and
    (file, module, None) for every `import bnbroadcast...` under perfbench/."""
    found = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        where = str(path.relative_to(PERFBENCH.parent))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module.split(".")[0] == "bnbroadcast":
                    found += [(where, module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(where, a.name, None) for a in node.names
                          if a.name.split(".")[0] == "bnbroadcast"]
    return found


def test_the_benchmark_imports_the_package():
    # make_refs.py alone imports several solvers; an empty list would mean
    # the scan itself broke
    assert len(package_imports()) >= 5


@pytest.mark.parametrize("where, module, name", package_imports())
def test_imported_name_resolves(where, module, name):
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return
    # `from bnbroadcast import cli` names a submodule
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        pytest.fail(f"{where}: `from {module} import {name}` no longer resolves")
