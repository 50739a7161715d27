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


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_internal_failures_are_not_refusals():
    # every `except GralError` treats its catch as a refusal or a usage
    # error; a failed self-check must pass through all of them
    classes = {node.name: [ast.unparse(b) for b in node.bases]
               for node in _parse(SRC / "errors.py").body if isinstance(node, ast.ClassDef)}

    def ancestors(name):
        for base in classes.get(name, ()):
            yield base
            yield from ancestors(base)
    assert "GralError" in set(ancestors("SearchCapExceeded"))
    assert "GralError" not in set(ancestors("InternalVerificationFailure"))


BROAD_CATCHES = {"KeyError", "TypeError", "AttributeError", "Exception", "BaseException"}


def _caught(handler) -> set:
    if handler.type is None:
        return {"bare"}
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {ast.unparse(node) for node in nodes}


def test_broad_excepts_only_at_the_cli_boundary():
    # a broad catch hides bugs as refusals; the one exception is the last
    # clause of cli.main, which reports any other failure as exit 3
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(_parse(path))
                  if isinstance(node, ast.ExceptHandler)
                  and _caught(node) & (BROAD_CATCHES | {"bare"})]
    main = next(node for node in _parse(SRC / "cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    boundary = [node for node in main.body if isinstance(node, ast.Try)][-1].handlers[-1]
    assert _caught(boundary) == {"Exception"}
    assert found == [f"cli.py:{boundary.lineno}"]


def _calls(node, name, scope=()):
    """The dotted enclosing class/function names of each call of name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and ast.unparse(child.func) == name:
            yield ".".join(scope)
        inner = scope + (child.name,) if isinstance(
            child, (ast.ClassDef, ast.FunctionDef)) else scope
        yield from _calls(child, name, inner)


def test_block_structures_are_built_only_by_the_spec():
    # AlgebraSpec.blocks keeps one structure per level; building one
    # anywhere else rebuilds its labels and index on every call
    found = [f"{path.name}:{scope}" for path in sorted(SRC.glob("*.py"))
             for scope in _calls(_parse(path), "BlockStructure")]
    assert found == ["pathalg.py:AlgebraSpec.blocks"]


def test_rings_are_split_only_by_ring_parts():
    # ring_parts is the one product/CRT split: a split anywhere else would
    # join its parts without the check that each answer projects back
    found = [f"{path.name}:{scope}" for path in sorted(SRC.glob("*.py"))
             for scope in _calls(_parse(path), "_crt")]
    assert found == ["coeffring.py:ring_parts"]


def test_spans_in_gradedstruct_are_built_only_by_combination_solver():
    # combination_solver is the one bounded search: a span built anywhere
    # else in gradedstruct would answer without the check on the elements
    tree = _parse(SRC / "gradedstruct.py")
    found = {name: [scope.split(".")[0] for scope in _calls(tree, name)]
             for name in ("SpanSolver", "AdditiveSpan")}
    assert found == {"SpanSolver": ["combination_solver"],
                     "AdditiveSpan": ["combination_solver"]}


def test_cap_refusals_are_built_in_one_guard():
    # within_cap is the one up-front cap check; only the vnr search, which
    # counts its states as it goes, raises on its own
    found = [f"{path.name}:{scope}" for path in sorted(SRC.glob("*.py"))
             for scope in _calls(_parse(path), "SearchCapExceeded")]
    assert found == ["coeffring.py:within_cap", "coeffring.py:is_vnr"]


def test_search_cap_is_read_only_by_the_two_guards():
    # linear algebra never asks for the cap: every capped search goes
    # through within_cap or is the vnr search
    found = [f"{path.name}:{scope}" for path in sorted(SRC.glob("*.py"))
             for scope in _calls(_parse(path), "search_cap")]
    assert found == ["coeffring.py:within_cap", "coeffring.py:is_vnr"]


def test_normal_forms_are_computed_only_in_pathalg():
    # _reduce is the one relation-(v) rule and has one rewrite order; a
    # reduction elsewhere, or an order knob, would be a second product path
    found = {path.name for path in sorted(SRC.glob("*.py"))
             for _ in _calls(_parse(path), "_reduce")}
    assert found == {"pathalg.py"}
    knobs = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(_parse(path))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             and "chooser" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}]
    assert knobs == []


def test_gradedstruct_transports_no_unit_through_psi():
    # classify's local units come from x x* x = x in the algebra itself:
    # gradedstruct needs neither the Cohn-to-Leavitt maps nor the
    # constructive units of regularity
    tree = _parse(SRC / "gradedstruct.py")
    used = {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    banned = {"cohn_isomorphism", "hom_apply", "hom_apply_all", "local_unit_left"}
    assert used & banned == set()
    assert "local_unit_left" in {node.name for node in _parse(SRC / "regularity.py").body
                                 if isinstance(node, ast.FunctionDef)}


def test_gradedstruct_imports_nothing_from_regularity():
    # classify's units come from the oracle's graded witness, not from unit
    # records: gradedstruct needs no import from regularity, and the unit
    # pair record is gone from the package
    imports = [ast.unparse(node) for node in ast.walk(_parse(SRC / "gradedstruct.py"))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [line for line in imports if "regularity" in line] == []
    defined = [f"{path.name}:{node.name}" for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(_parse(path))
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))
               and node.name == "LocalUnitPair"]
    assert defined == []
