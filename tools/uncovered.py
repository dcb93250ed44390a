"""Print the statements of the specdet package that the test suite never runs.

A dependency-free line tracer: it installs `sys.settrace` and
`threading.settrace`, records every line executed in a file under
src/specdet, and runs the test suite in this process with `pytest.main`.
It then prints each statement that never ran, docstrings excluded, as
`<module>:<line>  <source>`, sorted by module and line. Run from the
repository root:

    python3 tools/uncovered.py [pytest arguments]

The pytest arguments default to `-q`, the tier-1 suite. A statement counts
as run when any line it spans ran, so a compound statement whose body ran
is not reported, and a multi-line one is reported once, at its first line.
Code that the tests run in a subprocess is not traced.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

# the sibling script, also when this file is loaded by path rather than run
sys.path.insert(0, str(Path(__file__).resolve().parent))
from code_lines import _docstring_lines  # noqa: E402

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specdet"


def unrun_statements(source: str, hits: set) -> list:
    """(line, first source line) of each statement of `source` none of whose lines is in `hits`."""
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    lines = source.splitlines()
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        if hits.isdisjoint(range(first, node.end_lineno + 1)):
            out.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(out)


def _trace_package(hits: dict):
    """A trace function that adds each line run in a file under `_PACKAGE` to `hits`."""
    prefix = str(_PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    return global_


def main(argv: list) -> int:
    import pytest

    hits = {}
    tracer = _trace_package(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(_PACKAGE.glob("*.py")):
        for line, text in unrun_statements(path.read_text(), hits.get(str(path), set())):
            print(f"{path.name}:{line}  {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
