"""The line tracer in tools/: which statements it reports as never run."""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

from specdet import linop

TOOL = Path(__file__).resolve().parent.parent / "tools" / "uncovered.py"

SOURCE = '''"""Module docstring."""

import os


@staticmethod
def f(x):
    """Function docstring."""
    if x:
        return (1 +
                2)
    raise ValueError(
        "no")


class A:
    """Class docstring."""

    y = 1
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("uncovered", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_statements_none_of_whose_lines_ran():
    # the decorator line stands for the def, the second line for the return;
    # docstrings are never reported
    hits = {3, 6, 9, 11}
    assert load_tool().unrun_statements(SOURCE, hits) == [
        (12, "raise ValueError("), (16, "class A:"), (19, "y = 1")]


def test_everything_but_docstrings_reported_without_hits():
    lines = [line for line, _ in load_tool().unrun_statements(SOURCE, set())]
    assert lines == [3, 7, 9, 10, 12, 16, 19]


def test_tracer_records_lines_of_the_package_only():
    tool = load_tool()
    assert Path(linop.__file__).resolve().parent == tool._PACKAGE
    hits = {}
    previous = sys.gettrace()
    sys.settrace(tool._trace_package(hits))
    try:
        linop.row_blocks(3)
        json.dumps([1])
    finally:
        sys.settrace(previous)
    source, first = inspect.getsourcelines(linop.row_blocks)
    body = next(first + i for i, line in enumerate(source) if "return" in line)
    assert list(hits) == [linop.__file__] and body in hits[linop.__file__]
