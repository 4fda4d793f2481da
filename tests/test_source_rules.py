"""Rules that the package's source keeps: the symmetric-PSD threshold
``Tolerance.zero_abs`` is read in one function only, and R's positive
definiteness is decided in one function only, so that neither rule can be
written out again, and drift, elsewhere; and no ``functools.lru_cache``
keeps results for the life of the process, so that what a model step builds
lives as long as its users; and no elementwise pass of the filter step pairs a
transposed view with a matrix, so that every pass runs on operands of one
layout."""

import ast
from pathlib import Path

import pytest

import lise

PACKAGE = Path(lise.__file__).resolve().parent


def _zero_abs_reads():
    """``(module, function)`` for every ``.zero_abs`` read and every
    ``"zero_abs"`` string in the package, ``function`` being the innermost
    enclosing function (``None`` at module or class level)."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Attribute) and node.attr == "zero_abs":
            found.add((module, function, "attribute"))
        if isinstance(node, ast.Constant) and node.value == "zero_abs":
            found.add((module, function, "string"))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    return found


def test_only_the_psd_rule_reads_zero_abs():
    # Tolerance's own check names its fields as strings
    assert _zero_abs_reads() == {("linalg.py", "_psd_eigh", "attribute"),
                                 ("linalg.py", "__post_init__", "string")}


def _lru_cache_uses():
    """``(module, line)`` for every ``lru_cache`` name or attribute and every
    import of it in the package."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if ((isinstance(node, ast.Attribute) and node.attr == "lru_cache")
                    or (isinstance(node, ast.Name) and node.id == "lru_cache")
                    or (isinstance(node, ast.alias) and node.name == "lru_cache")):
                found.add((path.name, getattr(node, "lineno", None)))
    return found


def test_no_lru_cache_in_the_package():
    assert _lru_cache_uses() == set()


def _functions(predicate):
    """``(module, function)`` for every function of the package with a node
    for which ``predicate`` holds, ``function`` being the innermost function
    that encloses the node."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if predicate(node):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    return found


def _named(*names):
    """A predicate: the node is a name, an attribute, an imported name or a
    definition called one of ``names``."""
    def predicate(node):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef))
                else None)
        return name in names
    return predicate


def test_one_function_decides_whether_r_is_positive_definite():
    # the decision compares rank_rel with eigenvalues: of the functions that
    # read rank_rel, only one computes an eigendecomposition
    reads_rank_rel = _functions(lambda node: isinstance(node, ast.Attribute)
                                and node.attr == "rank_rel")
    calls_eigh = _functions(_named("eigh", "_psd_eigh", "eigvalsh"))
    assert reads_rank_rel & calls_eigh == {("decomposition.py", "_noise_factor")}


def test_no_cholesky_and_no_second_admissibility_path():
    # R is factored once, by its eigendecomposition; validate and the truth
    # read the step contexts instead of judging Q and R on their own
    assert _functions(_named("cholesky")) == set()
    assert _functions(_named("_LastCall", "_cov_fault")) == set()


def _transposed_passes(path):
    """``(line, source)`` of every ``+ - * /`` (augmented assignments too)
    in the module at ``path`` that pairs a ``.T`` view with an operand that
    is not a number."""
    def number(node):
        return isinstance(node.operand if isinstance(node, ast.UnaryOp) else node,
                          ast.Constant)

    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.BinOp):
            pair = (node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            pair = (node.target, node.value)
        else:
            continue
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)) and any(
                isinstance(a, ast.Attribute) and a.attr == "T" and not number(b)
                for a, b in (pair, pair[::-1])):
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("module", ["filters.py", "linalg.py"])
def test_no_elementwise_pass_pairs_a_transposed_view_with_a_matrix(module):
    # numpy runs a pass over a C-ordered matrix and its F-ordered transpose
    # on its strided loop, at more than twice the cost of a same-layout pass
    # on 5 x 5 matrices (the layout rule of the filters' module docstring)
    assert _transposed_passes(PACKAGE / module) == []
