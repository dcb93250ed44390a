"""The benchmark's import surface: every name perfbench takes from specdet exists."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def specdet_imports():
    """(file name, module, name) of each `from specdet... import name` in perfbench."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module == "specdet" or node.module.startswith("specdet.")):
                out += [(path.name, node.module, alias.name) for alias in node.names]
    return out


def resolves(module: str, name: str) -> bool:
    """Whether `from module import name` succeeds: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_perfbench_imports_resolve():
    imports = specdet_imports()
    assert imports, "perfbench imports nothing from specdet"
    missing = [f"{file}: from {module} import {name}" for file, module, name in imports
               if not resolves(module, name)]
    assert missing == []
