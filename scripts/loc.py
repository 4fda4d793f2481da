#!/usr/bin/env python3
"""Count the code lines of Python sources: lines that hold a token other
than a comment, a docstring or layout.

    python3 scripts/loc.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them (default
``src/lise``).  Prints one ``count path`` line per file and a ``total``
line.  A docstring is a string expression that opens a module, class or
function body (``ast.get_docstring``'s rule); its lines do not count,
and neither do blank lines or comment-only lines.  Every line that a
multi-line token other than a docstring spans counts.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def _files(paths):
    for path in map(pathlib.Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/lise"])
    args = parser.parse_args(argv)
    total = 0
    for path in _files(args.paths):
        count = count_code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
