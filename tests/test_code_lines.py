"""The code-line counter in tools/: docstrings, comments and blank lines are not code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves its line code

    # an indented comment line


class A:
    """Class docstring."""

    x = """a string that is not a docstring
    counts line by line"""

    def f(self):
        """Function docstring,

        over three lines."""
        return os.sep


async def g():
    \'\'\'Async function docstring.\'\'\'
    pass
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, class, the two lines of x, def f, return, async def, pass
    assert load_tool().code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nX = 1\n')
    assert load_tool().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["1", "a"], ["8", "b"], ["9", "total"]]
