"""Source-level rules: checks that guard results are real raises, which
``python -O`` keeps, never ``assert`` statements, which it strips; only
the model reads the private lookup tables of ``Instance``; and the
leximin allocation loop solves no LP, so that `verify_leximin`, which
does, checks it by an independent method."""

import ast
from pathlib import Path

import cutoffmatch
from cutoffmatch import egalitarian, lp


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


LP_NAMES = {"solve_lp", "_minimax_lp", "_feasibility_lp", "LinearProgram"}


def test_leximin_allocation_references_no_lp():
    tree = ast.parse(Path(egalitarian.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    # the allocation and every module function it reaches
    todo, reached, names = ["egalitarian_allocation"], set(), set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        todo.extend(n for n in names & functions.keys() if n not in reached)
    assert reached > {"egalitarian_allocation"}
    assert names & LP_NAMES == set()
    # the verifier still solves LPs, and the benchmark rebinds this name
    assert egalitarian.solve_lp is lp.solve_lp
