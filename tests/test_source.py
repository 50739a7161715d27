"""Properties of the package source itself."""

import ast
import collections
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import reference
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
    assert len(oracles) == 4
    oracles.append(reference.PolynomialOracle)  # R[x], kept with the tests
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


def test_scalar_witnesses_have_one_closed_form():
    # _unit_witness is the one closed form of a scalar's witness over a Z/q
    # that ring_parts leaves whole: the 1x1 blocks and vnr_witness read it,
    # and is_vnr reads vnr_witness; a third reader would be a route that no
    # differential test compares with the solver or with enumeration
    found = sorted(f"{path.name}:{scope}" for path in sorted(SRC.glob("*.py"))
                   for scope in _calls(_parse(path), "_unit_witness"))
    assert found == ["coeffring.py:_matrix_witness_dispatch", "coeffring.py:vnr_witness"]


def test_ring_questions_are_answered_by_parts():
    # each question about the coefficient ring reaches ring_parts, itself or
    # through a coeffring function it calls, so a split ring is answered
    # from its parts and never enumerated as a whole
    tree = _parse(SRC / "coeffring.py")
    calls = {node.name: {_called_name(call) for call in ast.walk(node)
                         if isinstance(call, ast.Call)}
             for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reaches(name, seen=()):
        return "ring_parts" in calls[name] or any(
            reaches(callee, seen + (name,)) for callee in calls[name]
            if callee in calls and callee not in seen + (name,))
    questions = ("is_vnr", "vnr_witness", "jacobson_radical", "is_semiprime_ring")
    assert [name for name in questions if not reaches(name)] == []


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


def test_path_algebra_witnesses_search_no_span():
    # a path-algebra witness or its absence comes from the block groups or
    # the constructive route, each exact: the bounded span search lives in
    # tests/reference.py, regularity imports nothing from gradedstruct, and
    # solve_combination serves only the classify rows over other oracles
    tree = _parse(SRC / "regularity.py")
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [line for line in imports if "gradedstruct" in line] == []
    assert "solve_combination" not in _names(tree)
    found = sorted(f"{path.name}:{scope}" for path in sorted(SRC.glob("*.py"))
                   for scope in _calls(_parse(path), "solve_combination"))
    assert found == ["gradedstruct.py:GradedRingOracle.epsilon", "gradedstruct.py:_missing_unit"]
    assert "graded_witness_oracle" not in {name.split(".")[-1] for path in SRC.glob("*.py")
                                           for name in _definitions(_parse(path))}


def test_gradedstruct_imports_nothing_from_regularity():
    # classify's units come from the oracle's epsilons, not from unit
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


def _called_name(call) -> str:
    """f of a call f(...) or obj.f(...)."""
    return call.func.attr if isinstance(call.func, ast.Attribute) else ast.unparse(call.func)


def test_graph_facts_list_no_paths():
    # acyclicity, the longest path and exactness are read from path counts;
    # a path listing or a walk along out-edges grows with the number of
    # paths, which doubles with each link of a chain of parallel edges
    facts = {"longest_path_length", "all_paths_within"}
    found = {node.name: sorted(_called_name(call) for call in ast.walk(node)
                               if isinstance(call, ast.Call)
                               and _called_name(call) in {"paths", "out_edges", "extend"})
             for path in (SRC / "graphs.py", pathlib.Path(reference.__file__))
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.FunctionDef) and node.name in facts}
    assert found == {name: [] for name in facts}


def test_solve_layer_answers_in_one_shape():
    # every solve answers {var: element} over its nonzero unknowns only: no
    # class in coeffring keeps a second answer beside solve (a support
    # method or alias; AlgebraElement.support in pathalg is another method),
    # and no answer is filled out over every unknown
    tree = _parse(SRC / "coeffring.py")
    found = [f"{cls.name}:{node.lineno}" for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef) and node.name == "support"
             or isinstance(node, ast.Assign)
             and "support" in {ast.unparse(target) for target in node.targets}]
    assert found == []
    fills = [ast.unparse(call) for call in ast.walk(tree) if isinstance(call, ast.Call)
             and ast.unparse(call.func) == "dict.fromkeys"
             and "varlist" in ast.unparse(call.args[0])]
    assert fills == []


def _definitions(tree, scope=()):
    """The dotted name of each class and function, inside the classes and
    functions that enclose it."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
            yield ".".join(inner)
        yield from _definitions(child, inner)


def test_each_answer_has_one_construction():
    # the strong row reads eps_1 and eps_-1 from epsilon_element, and the
    # generalized inverse reads sparse_replay: a second construction of
    # either answer is gone for good
    defined = {f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
               for name in _definitions(_parse(path))}
    assert defined & {"gradedstruct.py:strong_factorization",
                      "gradedstruct.py:_strong_pairs",
                      "coeffring.py:_PrimePowerFactor.replay"} == set()
    assert {"gradedstruct.py:epsilon_element",
            "coeffring.py:_PrimePowerFactor.sparse_replay"} <= defined


def test_no_module_imports_dataclasses():
    # result records are NamedTuples: dataclasses generates their methods
    # at import and loads inspect with it, on every CLI start
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; before = set(sys.modules); import gral.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def _records():
    """Every NamedTuple class that a gral module defines."""
    for path in sorted(SRC.glob("*.py")):
        if path.stem.startswith("__"):  # the package itself; __main__ runs the CLI
            continue
        module = importlib.import_module(f"gral.{path.stem}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, tuple) \
                    and hasattr(cls, "_fields"):
                yield cls


def test_records_are_immutable_values():
    # each record has no instance dict, refuses assignment to a field or a
    # new attribute, and compares and hashes by value
    records = {cls.__name__: cls for cls in _records()}
    assert len([name for name in records if not name.startswith("_")]) == 16
    for cls in records.values():
        record = cls._make(range(len(cls._fields)))  # values, unchecked
        assert not hasattr(record, "__dict__"), cls.__name__
        for name in cls._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        same = cls._make(range(len(cls._fields)))
        assert record == same and hash(record) == hash(same)
        assert repr(record) == f"{cls.__name__}(" + ", ".join(
            f"{name}={i}" for i, name in enumerate(cls._fields)) + ")"


# Every top-level function and class of src/gral, and every method of a
# top-level class, that no name or attribute in src/gral refers to outside
# its own definition; each stays for the reason given.  Code that only
# tests use lives in tests/reference.py or in the test that uses it.
WRITER = "writes a certificate part that a check command will read back"
UNREFERENCED = {
    "cli.py:_Parser._print_message": "argparse's hook: the base class calls it",
    "coeffring.py:Ring.is_field": "perfbench/run.py's set-up calls it",
    "coeffring.py:kernel_generators": "perfbench/tracer.py wraps it by name",
    "cornerlaurent.py:corner_to_dict": WRITER,
    "cornerlaurent.py:csl_element_to_dict": WRITER,
    "pathalg.py:normal_form": "public API in gral.__all__",
    "pathalg.py:element_to_terms": WRITER,
}


def _names(node) -> collections.Counter:
    """How often each name and attribute occurs in node."""
    return collections.Counter(n.id if isinstance(n, ast.Name) else n.attr
                               for n in ast.walk(node)
                               if isinstance(n, (ast.Name, ast.Attribute)))


def test_unreferenced_definitions_are_listed_with_a_reason():
    trees = {path.name: _parse(path) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), collections.Counter())
    found = set()
    for file, tree in trees.items():
        for node in tree.body:
            defs = [(node.name, node)] if isinstance(node, (ast.ClassDef, ast.FunctionDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
            for dotted, definition in defs:
                name = dotted.split(".")[-1]
                if everywhere[name] == _names(definition)[name]:
                    found.add(f"{file}:{dotted}")
    assert found == set(UNREFERENCED)
