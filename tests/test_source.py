"""Source-level rules for the package."""

import ast
from pathlib import Path

import majlab


def test_no_assert_statements():
    # invariants raise InvariantViolationError: ``python -O`` strips asserts
    modules = sorted(Path(majlab.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in majlab: {found}"
