"""Checks on the package source as a whole."""

import ast
from pathlib import Path

import edpsolve


def test_package_has_no_assert_statements():
    # invariants that protect soundness raise real exceptions, which
    # `python -O` keeps; it strips every assert
    modules = sorted(Path(edpsolve.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
