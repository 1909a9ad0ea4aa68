"""Source-level rules: checks that guard results are real raises, which
``python -O`` keeps, never ``assert`` statements, which it strips; and
only the model reads the private lookup tables of ``Instance``."""

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


PRIVATE_INSTANCE_FIELDS = {"_scores", "_applicant_rank", "_supervisors_of"}


def test_only_the_model_reads_private_instance_fields():
    package = Path(cutoffmatch.__file__).parent
    modules = sorted(path for path in package.rglob("*.py") if path.name != "model.py")
    assert modules
    found = [
        f"{path.name}:{node.lineno}: {node.attr}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_INSTANCE_FIELDS
    ]
    assert found == []
