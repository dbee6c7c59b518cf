"""Checks on the package source as a whole."""

import argparse
import ast
import re
from pathlib import Path

import edpsolve
from edpsolve.cli import build_parser


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


def test_readme_flag_table_lists_each_subcommands_long_options():
    # a flag added to or dropped from a subcommand must reach README's table
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = {
        command: {flag.split("/")[-1] for flag in re.findall(r"`([^`]+)`", flags)}
        for command, flags in re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.M)
    }
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        command: {opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")} - {"--help"}
        for command, sub in subparsers.choices.items()
    }
    assert table == parsed
