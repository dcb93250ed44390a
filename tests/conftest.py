"""Fixtures shared by the test modules."""

import importlib.util
import sys

import pytest


@pytest.fixture
def load_module(monkeypatch):
    """A loader of a module by path, without touching sys.path.

    `load_module(name, path)` runs the file at `path` as the module `name`,
    listed in sys.modules for the test only; dataclasses look their module
    up there.
    """
    def load(name, path):
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module
    return load
