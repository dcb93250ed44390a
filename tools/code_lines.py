"""Count the code lines of each module of the specdet package.

A code line is a non-blank line that is neither a comment line nor part
of a module, class or function docstring; docstrings are found with the
ast module, so a string that is not a docstring still counts. Run from
the repository root:

    python3 tools/code_lines.py [directory]

It prints one `<lines>  <module>` row per module, sorted by name, and the
total; the directory defaults to src/specdet.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "specdet"


def _docstring_lines(tree: ast.Module) -> set:
    """Line numbers covered by the docstring of the module and of each class and function."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """Non-blank lines of `source` that are neither comments nor in a docstring."""
    skip = _docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))


def main(argv: list) -> int:
    directory = Path(argv[0]) if argv else _DEFAULT_DIR
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.stem}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
