"""CLI behavior: exit codes, determinism, file formats."""

import json

import pytest

from conftest import table_z2xz2
from gral.cli import main
from gral.coeffring import ModularRing, ring_make, ring_spec
from gral.graphs import Graph, graph_from_dict
from gral.pathalg import AlgebraSpec, element_from_terms


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "z2": write(tmp_path / "z2.json", {"kind": "mod", "n": 2}),
        "z4": write(tmp_path / "z4.json", {"kind": "mod", "n": 4}),
        "z6": write(tmp_path / "z6.json", {"kind": "mod", "n": 6}),
        "a1": write(tmp_path / "a1.json", {"vertices": ["v"], "edges": []}),
        "vw": write(tmp_path / "vw.json", {
            "vertices": ["v", "w"],
            "edges": [{"name": "f", "src": "v", "dst": "w"}]}),
        "vw_cohn": write(tmp_path / "vw_cohn.json", {
            "vertices": ["v", "w"],
            "edges": [{"name": "f", "src": "v", "dst": "w"}],
            "x": []}),
        "efvw_cohn": write(tmp_path / "efvw_cohn.json", {
            "vertices": ["v", "w"],
            "edges": [{"name": "e", "src": "v", "dst": "w"},
                      {"name": "f", "src": "v", "dst": "w"}],
            "x": []}),
        "elt_2v": write(tmp_path / "elt_2v.json", [
            {"coeff": 2, "alpha": {"vertex": "v"}, "beta": {"vertex": "v"}}]),
        "elt_f": write(tmp_path / "elt_f.json", [
            {"coeff": 1, "alpha": ["f"], "beta": {"vertex": "w"}}]),
        "map": write(tmp_path / "map.json", {
            "vmap": {"v": "v"}, "emap": {}, "sourceX": [], "targetX": ["v"]}),
        "corner_z6": write(tmp_path / "corner_z6.json", {
            "ring": {"kind": "mod", "n": 6}, "e": 1,
            "alpha": {str(i): i for i in range(6)}}),
        "corner_z4": write(tmp_path / "corner_z4.json", {
            "ring": {"kind": "mod", "n": 4}, "e": 1,
            "alpha": {str(i): i for i in range(4)}}),
        "csl_2t": write(tmp_path / "csl_2t.json",
                        {"terms": [{"degree": 1, "coeff": 2}]}),
        "tmp": tmp_path,
    }


def test_check_ring_z4_exit1(files, capsys):
    code = main(["check-ring", files["z4"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "vnr=false counterexample=2" in out
    assert "radical={0,2}" in out


def test_check_ring_z6_exit0(files, capsys):
    code = main(["check-ring", files["z6"]])
    assert code == 0
    assert "vnr=true" in capsys.readouterr().out


def test_lpa_verdict_exit_codes(files, capsys):
    assert main(["lpa", "verdict", "--graph", files["a1"], "--ring", files["z6"],
                 "--samples", "5"]) == 0
    capsys.readouterr()
    assert main(["lpa", "verdict", "--graph", files["a1"], "--ring", files["z4"],
                 "--samples", "5"]) == 1
    out = capsys.readouterr().out
    assert "counterexample-found" in out


def test_lpa_witness_absence(files, capsys):
    code = main(["lpa", "witness", "--graph", files["a1"], "--ring", files["z4"],
                 "--element", files["elt_2v"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "absence=exact" in out


def test_lpa_witness_found(files, capsys):
    code = main(["lpa", "witness", "--graph", files["vw"], "--ring", files["z6"],
                 "--element", files["elt_f"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "witness=f*" in out and "verified=true" in out


def test_lpa_witness_constructive_non_square_blocks(tmp_path, capsys):
    # e + f on the two-loop rose decomposes into 1x2 blocks, which a table
    # ring solves as a linear system
    ring = table_z2xz2()
    graph = write(tmp_path / "rose2.json", {
        "vertices": ["v"],
        "edges": [{"name": "e", "src": "v", "dst": "v"},
                  {"name": "f", "src": "v", "dst": "v"}]})
    element = write(tmp_path / "e_plus_f.json", [
        {"coeff": ring.one, "alpha": [name], "beta": {"vertex": "v"}}
        for name in ("e", "f")])
    code = main(["lpa", "witness", "--graph", graph,
                 "--ring", write(tmp_path / "table.json", ring_spec(ring)),
                 "--element", element, "--method", "constructive"])
    out = capsys.readouterr().out
    assert code == 0
    assert "witness=f*" in out and "verified=true" in out


def test_lpa_classify_lines(files, capsys):
    code = main(["lpa", "classify", "--graph", files["vw"], "--ring", files["z2"],
                 "--degree-bound", "2", "--size-bound", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "property=strong" in out
    assert "summary property=symmetric" in out


COHN_EFVW_Z4_CLASSIFY = """\
oracle=C^[]_Z/4(Graph(['v', 'w'], [('e', 'v', 'w'), ('f', 'v', 'w')]))
property=strong degree=* verdict=fails witness=1 not reached in S_1 S_-1 no-sinks=no
property=epsilon-strong degree=-2 verdict=holds-exactly
property=epsilon-strong degree=-1 verdict=holds-exactly
property=epsilon-strong degree=0 verdict=holds-exactly
property=epsilon-strong degree=1 verdict=holds-exactly
property=epsilon-strong degree=2 verdict=holds-exactly
property=nearly-epsilon degree=-1 verdict=holds-exactly
property=nearly-epsilon degree=0 verdict=holds-exactly
property=nearly-epsilon degree=1 verdict=holds-exactly
property=symmetric degree=-2 verdict=holds-exactly
property=symmetric degree=-1 verdict=holds-exactly
property=symmetric degree=0 verdict=holds-exactly
property=symmetric degree=1 verdict=holds-exactly
property=symmetric degree=2 verdict=holds-exactly
summary property=strong verdict=fails witness=1 not reached in S_1 S_-1
summary property=epsilon-strong verdict=holds-exactly
summary property=nearly-epsilon verdict=holds-exactly
summary property=symmetric verdict=holds-exactly
epsilon degree=-2 element=0
epsilon degree=-1 element=w
epsilon degree=0 element=v + w
epsilon degree=1 element=ee* + ff*
epsilon degree=2 element=0
"""


def test_lpa_classify_cohn_epsilon_table_pinned(files, capsys):
    # the relative Cohn spec goes through the generic span solver, so this
    # pins the solver-dependent epsilon table byte for byte
    code = main(["lpa", "classify", "--graph", files["efvw_cohn"], "--ring", files["z4"],
                 "--degree-bound", "2", "--size-bound", "3"])
    assert code == 0
    assert capsys.readouterr().out == COHN_EFVW_Z4_CLASSIFY


def test_lpa_decompose(files, capsys):
    code = main(["lpa", "decompose", "--graph", files["vw"], "--ring", files["z6"],
                 "--element", files["elt_2v"], "--level", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "block=(1,w)" in out and "rank=2" in out


def test_graph_cover(files, capsys):
    code = main(["graph", "cover", "--graph", files["vw_cohn"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "v'" in out


def test_morphism_check(files, capsys):
    code = main(["morphism", "check", "--source", files["a1"],
                 "--target", files["vw"], "--map", files["map"],
                 "--ring", files["z2"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "valid=true" in out and "induced-hom=valid" in out


def test_corner_witness_all_and_exit(files, capsys):
    assert main(["corner", "witness", "--corner", files["corner_z6"],
                 "--degree-bound", "2"]) == 0
    capsys.readouterr()
    assert main(["corner", "witness", "--corner", files["corner_z4"],
                 "--element", files["csl_2t"]]) == 1
    assert "absence=exact" in capsys.readouterr().out


def test_examples_pass(files, capsys):
    code = main(["examples"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "failures=0" in out


def test_json_mode(files, capsys):
    code = main(["check-ring", files["z4"], "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["vnr"] is False and payload["counterexample"] == 2


def test_deterministic_output(files, capsys):
    args = ["lpa", "verdict", "--graph", files["vw"], "--ring", files["z6"],
            "--samples", "20", "--seed", "7"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_output_file(files, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code = main(["check-ring", files["z6"], "--output", str(out_path)])
    assert code == 0
    assert "vnr=true" in out_path.read_text()


def test_parse_error_exit2(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-ring", str(bad)]) == 2
    assert main(["check-ring", str(tmp_path / "missing.json")]) == 2


def _load_element(obj):
    return element_from_terms(AlgebraSpec.leavitt(Graph(["v", "w"], [("f", "v", "w")]),
                                                  ModularRing(2)), obj)


@pytest.mark.parametrize("kind, content, load", [
    ("ring", [1, 2], ring_make),
    ("element", {"alpha": 5}, _load_element),
    ("graph", {"vertices": "uv", "edges": []}, graph_from_dict),
    ("graph", [1, 2], graph_from_dict),
    ("graph", {"vertices": ["v"], "edges": ["e"]}, graph_from_dict),
    ("ring", {"kind": "product", "factors": 5}, ring_make),
    ("ring", {"kind": "mod", "n": [4]}, ring_make),
    ("ring", {"kind": "table", "size": 1, "add": 5, "mul": [[0]], "zero": 0, "one": 0},
     ring_make),
    ("element", [{"alpha": 5, "beta": {"vertex": "v"}, "coeff": 1}], _load_element),
    ("graph", {"vertices": ["v", "w"], "edges": [{"name": "f", "src": "v"}]},
     graph_from_dict),
], ids=["ring-not-an-object", "element-not-a-term-list", "vertices-a-string",
        "graph-not-an-object", "edge-not-an-object", "factors-not-a-list",
        "modulus-not-an-integer", "table-not-a-list", "path-not-a-list",
        "edge-without-dst"])
def test_malformed_input_exit2(files, tmp_path, capsys, kind, content, load):
    # the loader refuses the input, and the CLI says so on one error line
    with pytest.raises(ValueError):
        load(content)
    paths = {"graph": files["vw"], "ring": files["z2"], "element": files["elt_f"],
             kind: write(tmp_path / "bad.json", content)}
    code = main(["lpa", "witness", "--graph", paths["graph"], "--ring", paths["ring"],
                 "--element", paths["element"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_usage_error_exit2(capsys):
    assert main(["no-such-command"]) == 2
