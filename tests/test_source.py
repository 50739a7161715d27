"""Properties of the package source itself."""

import ast
import inspect
import pathlib

from gral import gradedstruct

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gral"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so checks must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []


def _raises_not_implemented(node) -> bool:
    body = [stmt for stmt in node.body
            if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))]
    return len(body) == 1 and isinstance(body[0], ast.Raise) and \
        "NotImplementedError" in ast.unparse(body[0])


def test_graded_oracles_implement_the_abstract_methods():
    # the base oracle supplies defaults for the rest; an oracle that misses
    # one of these would only fail when a check first calls it
    base = gradedstruct.GradedRingOracle
    tree = ast.parse(inspect.getsource(base))
    abstract = {node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and _raises_not_implemented(node)}
    assert abstract == {"ring", "spanning", "exact_at", "coords"}
    oracles = [cls for _, cls in inspect.getmembers(gradedstruct, inspect.isclass)
               if issubclass(cls, base) and cls is not base]
    assert len(oracles) == 5
    missing = [(cls.__name__, name) for cls in oracles for name in sorted(abstract)
               if getattr(cls, name) is getattr(base, name)]
    assert missing == []
