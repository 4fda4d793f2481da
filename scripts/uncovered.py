#!/usr/bin/env python3
"""Print every statement of ``src/lise`` that a pytest run never executes.

    python3 scripts/uncovered.py [PYTEST_ARG ...]

Run from the root of a checkout.  Runs pytest in this process (by default
on ``tests`` with ``-q``) under ``sys.settrace``, recording the lines
executed in the files of ``src/lise``, then prints one ``path:line:
statement`` line per statement that never ran, and a total per file.  No
``coverage`` package is needed.

A statement counts as run when any line of its own text ran: its decorators
and its header, not the statements of its body, which count on their own.
A docstring is not a statement, and a statement whose header has no
bytecode (``try:``, ``global``) is not reported.  Only this process is
traced: a test that runs ``lise`` in a subprocess adds nothing.  The lines
are reported whatever the outcome of the tests; a test can fail only under
the tracer (a tracemalloc peak, a timing bound), and the script prints the
pytest exit code before the list.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lise")


def _code_lines(code) -> set[int]:
    """The lines that hold bytecode of ``code`` or of a code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(source: str, path: str):
    """``(line, header_lines)`` of every statement of ``source`` that has
    bytecode: its first line, and the lines of its own text, decorators
    included and nested statements excluded."""
    tree = ast.parse(source, path)
    with_code = _code_lines(compile(source, path, "exec"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        nested = [child.lineno for field in ("body", "orelse", "handlers", "finalbody", "cases")
                  for child in getattr(node, field, ()) if hasattr(child, "lineno")]
        end = min(nested) - 1 if nested else node.end_lineno
        header = set(range(start, max(start, end) + 1))
        if header & with_code:
            yield node.lineno, header


def main(argv: list[str]) -> int:
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PACKAGE):
            return None
        executed.setdefault(name, set())
        if event == "call":
            # the first line of a module, class or function body that runs
            executed[name].add(frame.f_lineno)
        return local

    # a fresh import, so that the module bodies run under the tracer
    for mod in [m for m in sys.modules if m == "lise" or m.startswith("lise.")]:
        del sys.modules[mod]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print(f"pytest exit code: {int(code)}")
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read()
        ran = executed.get(path, set())
        text = source.splitlines()
        missed = sorted(line for line, header in _statements(source, path) if not header & ran)
        rel = os.path.relpath(path, ROOT)
        for line in missed:
            print(f"{rel}:{line}: {text[line - 1].strip()}")
        total += len(missed)
    print(f"total: {total} statements never executed")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    sys.exit(main(sys.argv[1:]))
