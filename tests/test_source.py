"""Source-level rules: checks that guard results are real raises, which
``python -O`` keeps, never ``assert`` statements, which it strips."""

import ast
from pathlib import Path

import cutoffmatch


def test_package_has_no_assert_statements():
    package = Path(cutoffmatch.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
