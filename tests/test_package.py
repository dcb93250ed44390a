"""The package's exports: `__all__` lists exactly the public names `__init__` imports."""

import ast
from pathlib import Path

import specdet


def imported_public_names():
    """Names of `from .module import name` in specdet/__init__.py, without private ones."""
    tree = ast.parse(Path(specdet.__file__).read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not alias.name.startswith("_")}


def test_star_import_succeeds():
    # a name in __all__ that the package lacks raises AttributeError here
    exec("from specdet import *", {})


def test_all_equals_the_imported_names():
    assert len(specdet.__all__) == len(set(specdet.__all__))
    assert set(specdet.__all__) == imported_public_names()
