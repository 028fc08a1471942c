"""List the statements of the `catreg` package that a pytest run never executes.

    python tools/linetrace.py [PYTEST_ARGS ...]

Runs pytest in this process, on the repository's whole suite unless given
pytest's own arguments, under a `sys.settrace` hook that records the lines
run in frames whose code lives under `src/catreg`. Then it prints each
module's executable statements that never ran, as `module:line` and the
statement's first line of source. A statement is every one `ast` finds except
`def`, `class`, imports and constant expressions (docstrings among them),
which compile to no code that runs in place. It ran if any of its own lines
ran: those from its first line to its last, less the lines of the statements
nested in it. Standard library only; the exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys

import pytest

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> dict:
    """{first line: the lines it owns} for each executable statement of a module."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if (not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED)
                or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                own.difference_update(range(inner.lineno, inner.end_lineno + 1))
        out[node.lineno] = own
    return out


def record_lines(root: str, run, *args):
    """(run(*args), {file: set of lines run}) over the frames of files under root."""
    root = os.path.join(os.path.abspath(root), "")
    seen: dict = {}

    def local(frame, event, _arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(root):
            return None
        seen.setdefault(filename, set())
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        return run(*args), seen
    finally:
        sys.settrace(previous)


def never_ran(source: str, lines: set) -> list[int]:
    """The first lines of the statements of which no own line ran, in order."""
    return sorted(first for first, own in statements(source).items() if not own & lines)


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.join(here, "src", "catreg")
    status, seen = record_lines(package, pytest.main,
                                list(argv) if argv else ["-q", here])
    total = missed = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        total += len(statements(source))
        lines = source.splitlines()
        for first in never_ran(source, seen.get(path, set())):
            missed += 1
            print(f"{name}:{first}  {lines[first - 1].strip()}")
    print(f"{missed} of {total} statements in src/catreg never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
