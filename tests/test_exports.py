"""The package exports no function or class that it never uses itself, and
its modules import no name from the package that they never read."""

import ast
from pathlib import Path

import lise

PACKAGE = Path(lise.__file__).resolve().parent
# kept for Monte-Carlo studies outside the package; the library never needs it
USED_ONLY_OUTSIDE = {"empirical_error_covariance"}


def _exported_definitions():
    """Functions and classes that ``lise/__init__.py`` re-exports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = {alias.asname or alias.name
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    return {name for name in names if callable(getattr(lise, name))}


def _names_read_by_package():
    """Every name the package's modules read, as a bare name or an attribute,
    outside the top-level definition of that same name.  ``__all__`` entries
    are strings and import statements bind names, so neither counts."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    read.add((node.id, own))
                elif isinstance(node, ast.Attribute):
                    read.add((node.attr, own))
    return {name for name, own in read if name != own}


def test_every_export_is_used_by_the_package():
    exported = _exported_definitions()
    read = _names_read_by_package()
    assert USED_ONLY_OUTSIDE <= exported
    assert not USED_ONLY_OUTSIDE & read, "now used by the package: drop the exception"
    assert sorted(exported - read - USED_ONLY_OUTSIDE) == []


def _unread_package_imports():
    """``(module, name)`` for every name a module binds with ``from .x import
    y`` and never reads.  ``__init__.py`` imports to re-export, so it is
    left out."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                unread.extend((path.name, alias.asname or alias.name)
                              for alias in node.names
                              if (alias.asname or alias.name) not in read)
    return unread


def test_every_package_import_is_read():
    assert _unread_package_imports() == []
