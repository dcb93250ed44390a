"""The code-line counter in tools/: docstrings, comments and blank lines are not code."""

from pathlib import Path

import pytest

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


@pytest.fixture
def tool(load_module):
    return load_module("code_lines", TOOL)


def test_counts_code_lines_only(tool):
    # import, class, the two lines of x, def f, return, async def, pass
    assert tool.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(tool, tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nX = 1\n')
    assert tool.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["1", "a"], ["8", "b"], ["9", "total"]]


def test_refuses_a_path_that_is_not_a_directory(tool, tmp_path, capsys):
    # neither a mistyped path nor a file may read as zero code lines
    (tmp_path / "a.py").write_text("X = 1\n")
    for path in (tmp_path / "missing", tmp_path / "a.py"):
        assert tool.main([str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {path} is not a directory\n"
