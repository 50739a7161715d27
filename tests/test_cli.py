"""CLI behavior: exit codes, determinism, file formats."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import table_upper_z2, table_z2xz2
from gral import cli, coeffring, gradedstruct, morphisms, regularity
from gral.cli import main
from gral.coeffring import ModularRing, ring_make, ring_spec
from gral.cornerlaurent import corner_from_dict, csl_element_from_dict
from gral.errors import GralError, InternalVerificationFailure, RelationViolation
from gral.graphs import CohnPair, Graph, graph_from_dict, morphism_from_dict
from gral.pathalg import AlgebraElement, AlgebraSpec, element_from_terms


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


@pytest.mark.parametrize("command", [
    ["check-ring", "{ring}"],
    ["lpa", "witness", "--graph", "{a1}", "--ring", "{ring}", "--element", "{elt_2v}"],
], ids=["check-ring", "lpa-witness"])
def test_vnr_search_beyond_the_cap_exit2(files, capsys, monkeypatch, command):
    # Z/7 loads under a cap of 20 but its vnr search needs 28 steps; lpa
    # witness without --method runs that search to pick its method
    ring = write(files["tmp"] / "z7.json", {"kind": "mod", "n": 7})
    monkeypatch.setenv("GRAL_SEARCH_CAP", "20")
    assert main([arg.format(ring=ring, **files) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vnr search needs 21 states, cap is 20\n"


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


@pytest.mark.parametrize("command", [
    ["lpa", "verdict", "--graph", "{a1}", "--ring", "{z6}", "--size-bound", "-1"],
    ["lpa", "verdict", "--graph", "{a1}", "--ring", "{z6}", "--degree-bound", "-1"],
    ["lpa", "verdict", "--graph", "{a1}", "--ring", "{z6}", "--samples", "-1"],
    ["corner", "witness", "--corner", "{corner_z6}", "--degree-bound", "-2"],
], ids=["size-bound", "degree-bound", "samples", "corner-degree-bound"])
def test_negative_bounds_exit2(files, capsys, command):
    # refused before any file is read or any search starts
    assert main([arg.format(**files) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {command[-2]} must be nonnegative\n"


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
    # ring solves as a linear system in additive coordinates; e* and f* are
    # both witnesses, and elimination picks e*
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
    assert "witness=e*" in out and "verified=true" in out


def test_lpa_witness_rose3_block_inverse_pinned(files, capsys):
    # the Z/2 blocks' generalized inverses come from the span solver's
    # elimination, which takes, row by row, the least unused column as its
    # pivot; a full-pivoting elimination printed witness=ab(bb)* + cb(ab)*
    graph = write(files["tmp"] / "rose3.json", {
        "vertices": ["v"],
        "edges": [{"name": name, "src": "v", "dst": "v"} for name in "abc"]})
    element = write(files["tmp"] / "x.json", [
        {"coeff": 1, "alpha": list(alpha), "beta": list(beta)}
        for alpha, beta in (("ab", "cb"), ("bb", "aa"), ("bb", "ab"))])
    code = main(["lpa", "witness", "--graph", graph, "--ring", files["z2"],
                 "--element", element])
    assert code == 0
    assert capsys.readouterr().out == (
        "element=ab(cb)* + bb(aa)* + bb(ab)* degree=0 method=constructive "
        "witness=aa(bb)* + cb(ab)* bounds=- verified=true\n")


def test_lpa_witness_oracle_over_a_noncommutative_table_ring_pinned(files, capsys):
    # 3 = [[0, 1], [0, 1]] is idempotent; over upper-triangular matrices
    # x.b.x = x is solved in the additive span of the multiples r . f*,
    # which finds 3 * f*
    ring = write(files["tmp"] / "upper.json", ring_spec(table_upper_z2()))
    element = write(files["tmp"] / "elt_3f.json", [
        {"coeff": 3, "alpha": ["f"], "beta": {"vertex": "w"}}])
    assert main(["lpa", "witness", "--graph", files["vw"], "--ring", ring,
                 "--element", element, "--method", "oracle"]) == 0
    assert capsys.readouterr().out == \
        "element=t3*f degree=1 method=oracle witness=t3*f* bounds=size=3 verified=true\n"


def test_oracle_absence_over_a_large_modulus_exit1(files, capsys, monkeypatch):
    # 2f has no witness over Z/999996, as 4c = 2 has no solution; the linear
    # answer is exact over a commutative ring, and Z/n is one without a scan
    # of its pairs (about 5 * 10^11 here)
    def scan(ring):
        raise AssertionError(f"scanned the pairs of {ring.describe()}")
    monkeypatch.setattr(coeffring.Ring, "is_commutative", scan)
    ring = write(files["tmp"] / "z999996.json", {"kind": "mod", "n": 999996})
    element = write(files["tmp"] / "elt_2f.json", [
        {"coeff": 2, "alpha": ["f"], "beta": {"vertex": "w"}}])
    code = main(["lpa", "witness", "--graph", files["vw"], "--ring", ring,
                 "--element", element, "--method", "oracle"])
    out = capsys.readouterr().out
    assert code == 1
    assert "absence=exact" in out


def test_lpa_verdict_over_a_table_ring(tmp_path, capsys):
    # the default verdict on the two-loop rose over the vnr ring Z/2 x Z/2,
    # given by tables, solves every block in additive coordinates
    graph = write(tmp_path / "rose2.json", {
        "vertices": ["v"],
        "edges": [{"name": "e", "src": "v", "dst": "v"},
                  {"name": "f", "src": "v", "dst": "v"}]})
    ring = write(tmp_path / "table.json", ring_spec(table_z2xz2()))
    assert main(["lpa", "verdict", "--graph", graph, "--ring", ring]) == 0
    out = capsys.readouterr().out
    assert "method=constructive overall=verified-at-bounds" in out
    assert out.count("verified=true") == 628


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
    # the relative Cohn spec's epsilon table, one closed form per degree,
    # pinned byte for byte; the bounded search printed the same table
    code = main(["lpa", "classify", "--graph", files["efvw_cohn"], "--ring", files["z4"],
                 "--degree-bound", "2", "--size-bound", "3"])
    assert code == 0
    assert capsys.readouterr().out == COHN_EFVW_Z4_CLASSIFY


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_GRAPHS = {
    "span": {"vertices": ["v", "w"],
             "edges": [{"name": "e", "src": "v", "dst": "w"},
                       {"name": "f", "src": "w", "dst": "v"},
                       {"name": "g", "src": "v", "dst": "v"}]},
    "toeplitz": {"vertices": ["u", "w"],
                 "edges": [{"name": "e", "src": "u", "dst": "u"},
                           {"name": "f", "src": "u", "dst": "w"}]},
    "rose2": {"vertices": ["v"],
              "edges": [{"name": "e", "src": "v", "dst": "v"},
                        {"name": "f", "src": "v", "dst": "v"}]},
}


@pytest.mark.parametrize("graph, ring, size_bound", [
    ("span", "z2", 4), ("toeplitz", "z6", 3), ("rose2", "z4", 3)])
def test_lpa_classify_golden(files, capsys, graph, ring, size_bound):
    # the symmetric rows from graded witnesses and the strong row from the
    # factorization (span, rose2) or the sink (toeplitz) print what the
    # bounded search printed, byte for byte
    code = main(["lpa", "classify", "--graph", write(files["tmp"] / f"{graph}.json",
                                                     GOLDEN_GRAPHS[graph]),
                 "--ring", files[ring], "--degree-bound", "3",
                 "--size-bound", str(size_bound)])
    assert code == 0
    expected = GOLDEN / f"classify_{graph}_{ring}_3_{size_bound}.txt"
    assert capsys.readouterr().out == expected.read_text()


def _no_search(*args, **kwargs):
    raise AssertionError("a path algebra reached the bounded search")


@pytest.mark.parametrize("graph, ring, degree_bound, size_bound", [
    ("span", "z2", 3, 4), ("toeplitz", "z6", 3, 3), ("rose2", "z4", 3, 3),
    ("toeplitz", "table_z2xz2", 2, 2),
    ("efvwcohn", "z4", 2, 3), ("spancohn", "z6", 2, 2), ("rose2cohn", "table_upper_z2", 2, 2)])
def test_path_algebra_classify_runs_no_search(files, capsys, monkeypatch,
                                              graph, ring, degree_bound, size_bound):
    # every row of a Leavitt or relative Cohn spec, with or without sinks,
    # comes from a certificate: with the span search and the product lists
    # refused, classify prints the pinned report
    monkeypatch.setattr(gradedstruct, "combination_solver", _no_search)
    monkeypatch.setattr(gradedstruct.GradedRingOracle, "products", _no_search)
    graphs = {"efvwcohn": json.loads(Path(files["efvw_cohn"]).read_text()),
              "spancohn": dict(GOLDEN_GRAPHS["span"], x=[]),
              "rose2cohn": dict(GOLDEN_GRAPHS["rose2"], x=[]), **GOLDEN_GRAPHS}
    rings = {"table_z2xz2": table_z2xz2(), "table_upper_z2": table_upper_z2()}
    ring_file = write(files["tmp"] / f"{ring}.json", ring_spec(rings[ring])) \
        if ring in rings else files[ring]
    code = main(["lpa", "classify", "--graph", write(files["tmp"] / f"{graph}.json",
                                                     graphs[graph]),
                 "--ring", ring_file, "--degree-bound", str(degree_bound),
                 "--size-bound", str(size_bound)])
    assert code == 0
    expected = COHN_EFVW_Z4_CLASSIFY if graph == "efvwcohn" else \
        (GOLDEN / f"classify_{graph}_{ring}_{degree_bound}_{size_bound}.txt").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name, graph, ring, degree_bound", [
    ("toeplitz", GOLDEN_GRAPHS["toeplitz"], "z6", 2),          # constructive
    ("rose2cohn", dict(GOLDEN_GRAPHS["rose2"], x=[]), "z2", 2),  # through psi
    ("rose2", GOLDEN_GRAPHS["rose2"], "z4", 1)])               # oracle: Z/4 is not vnr
def test_lpa_verdict_golden(files, capsys, name, graph, ring, degree_bound):
    # every certificate line of a verdict, witness text included, byte for byte
    code = main(["lpa", "verdict", "--graph", write(files["tmp"] / f"{name}.json", graph),
                 "--ring", files[ring], "--degree-bound", str(degree_bound),
                 "--size-bound", "2"])
    assert code == 0
    expected = GOLDEN / f"verdict_{name}_{ring}_{degree_bound}_2.txt"
    assert capsys.readouterr().out == expected.read_text()


def test_lpa_witness_over_a_large_modulus_without_enumerating(files, capsys, monkeypatch):
    # decoding 2 and searching S_-1 never lists the million elements of Z/n
    monkeypatch.setattr(ModularRing, "elements", lambda self: pytest.fail("Z/n enumerated"))
    ring = write(files["tmp"] / "big.json", {"kind": "mod", "n": 999996})
    element = write(files["tmp"] / "2f.json", [
        {"coeff": 2, "alpha": ["f"], "beta": {"vertex": "w"}}])
    code = main(["lpa", "witness", "--graph", files["vw"], "--ring", ring,
                 "--element", element, "--method", "oracle"])
    assert code == 1
    assert "element=2*f degree=1 method=oracle absence=exact" in capsys.readouterr().out


def test_lpa_decompose(files, capsys):
    code = main(["lpa", "decompose", "--graph", files["vw"], "--ring", files["z6"],
                 "--element", files["elt_2v"], "--level", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "block=(1,w)" in out and "rank=2" in out


PRIMED_COHN = {"vertices": ["v", "v'"], "edges": [{"name": "f", "src": "v", "dst": "v'"}],
               "x": []}


def test_graph_cover(files, capsys):
    code = main(["graph", "cover", "--graph", files["vw_cohn"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "v'" in out


def test_graph_cover_takes_the_next_free_prime(files, capsys):
    graph = write(files["tmp"] / "primed.json", PRIMED_COHN)
    assert main(["graph", "cover", "--graph", graph]) == 0
    assert json.loads(capsys.readouterr().out)["vertices"] == ["v", "v'", "v''"]


def test_lpa_witness_cohn_spec_with_a_primed_name(files, capsys):
    # the duplicate of v is v'', since v' is taken
    element = write(files["tmp"] / "f.json", [
        {"coeff": 1, "alpha": ["f"], "beta": {"vertex": "v'"}}])
    code = main(["lpa", "witness", "--graph", write(files["tmp"] / "primed.json", PRIMED_COHN),
                 "--ring", files["z2"], "--element", element])
    out = capsys.readouterr().out
    assert code == 0
    assert "method=constructive witness=f*" in out and "verified=true" in out


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


VW = Graph(["v", "w"], [("f", "v", "w")])
CORNER_Z4 = {"ring": {"kind": "mod", "n": 4}, "e": 1, "alpha": {str(i): i for i in range(4)}}
MAP = {"vmap": {"v": "v"}, "emap": {}, "sourceX": [], "targetX": ["v"]}


def _load_element(obj):
    return element_from_terms(AlgebraSpec.leavitt(VW, ModularRing(2)), obj)


def _load_csl_element(obj):
    return csl_element_from_dict(corner_from_dict(CORNER_Z4), obj)


def _load_map(obj):
    return morphism_from_dict(obj, CohnPair(Graph(["v"], [])), CohnPair(VW))


def _argv(files, kind, path):
    """The command that reads an input of this kind from path, the other
    inputs being valid.  The oracle method keeps a fuzzed modulus from
    reaching is_vnr, whose search is quadratic in the ring's order."""
    if kind in ("corner", "csl"):
        paths = {"corner": files["corner_z4"], "csl": files["csl_2t"], kind: path}
        return ["corner", "witness", "--corner", paths["corner"], "--element", paths["csl"]]
    if kind == "map":
        return ["morphism", "check", "--source", files["a1"], "--target", files["vw"],
                "--map", path, "--ring", files["z2"]]
    paths = {"graph": files["vw"], "ring": files["z2"], "element": files["elt_f"], kind: path}
    return ["lpa", "witness", "--graph", paths["graph"], "--ring", paths["ring"],
            "--element", paths["element"], "--method", "oracle"]


@pytest.mark.parametrize("kind, content, load, error", [
    pytest.param("ring", [1, 2], ring_make, ValueError, id="ring-not-an-object"),
    pytest.param("element", {"alpha": 5}, _load_element, ValueError,
                 id="element-not-a-term-list"),
    pytest.param("graph", {"vertices": "uv", "edges": []}, graph_from_dict, ValueError,
                 id="vertices-a-string"),
    pytest.param("graph", [1, 2], graph_from_dict, ValueError, id="graph-not-an-object"),
    pytest.param("graph", {"vertices": ["v"], "edges": ["e"]}, graph_from_dict, ValueError,
                 id="edge-not-an-object"),
    pytest.param("ring", {"kind": "product", "factors": 5}, ring_make, ValueError,
                 id="factors-not-a-list"),
    pytest.param("ring", {"kind": "mod", "n": [4]}, ring_make, ValueError,
                 id="modulus-not-an-integer"),
    pytest.param("ring", {"kind": "table", "size": 1, "add": 5, "mul": [[0]], "zero": 0,
                          "one": 0}, ring_make, ValueError, id="table-not-a-list"),
    pytest.param("element", [{"alpha": 5, "beta": {"vertex": "v"}, "coeff": 1}],
                 _load_element, ValueError, id="path-not-a-list"),
    pytest.param("graph", {"vertices": ["v", "w"], "edges": [{"name": "f", "src": "v"}]},
                 graph_from_dict, ValueError, id="edge-without-dst"),
    pytest.param("corner", dict(CORNER_Z4, alpha=5), corner_from_dict, ValueError,
                 id="corner-alpha-not-an-object"),
    pytest.param("csl", {"terms": 5}, _load_csl_element, ValueError,
                 id="corner-terms-not-a-list"),
    pytest.param("csl", {"terms": [{"degree": "x", "coeff": 1}]}, _load_csl_element,
                 ValueError, id="corner-degree-not-an-integer"),
    pytest.param("csl", {"terms": [{"degree": True, "coeff": 1}]}, _load_csl_element,
                 ValueError, id="corner-degree-a-bool"),
    pytest.param("map", dict(MAP, vmap=5), _load_map, ValueError, id="vmap-not-an-object"),
    pytest.param("map", [1, 2], _load_map, ValueError, id="map-not-an-object"),
    pytest.param("element", [{"coeff": 1, "alpha": ["g"], "beta": {"vertex": "w"}}],
                 _load_element, GralError, id="unknown-edge"),
])
def test_malformed_input_exit2(files, tmp_path, capsys, kind, content, load, error):
    # the loader refuses the input, and the CLI says so on one error line
    with pytest.raises(error):
        load(content)
    code = main(_argv(files, kind, write(tmp_path / "bad.json", content)))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=5)

VALID_INPUTS = {
    "ring": {"kind": "mod", "n": 2},
    "table ring": ring_spec(table_z2xz2()),
    "graph": {"vertices": ["v", "w"], "edges": [{"name": "f", "src": "v", "dst": "w"}]},
    "element": [{"coeff": 1, "alpha": ["f"], "beta": {"vertex": "w"}}],
    "corner": CORNER_Z4,
    "csl": {"terms": [{"degree": 1, "coeff": 2}]},
    "map": MAP,
}


def _places(obj, path=()):
    """Paths to the document itself and to every field and list item in it."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


def _replace(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = _replace(obj[path[0]], path[1:], value)
    return out


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    return workdir, {key: write(workdir / f"{key}.json", obj) for key, obj in {
        "z2": {"kind": "mod", "n": 2}, "a1": {"vertices": ["v"], "edges": []},
        "vw": VALID_INPUTS["graph"], "elt_f": VALID_INPUTS["element"],
        "corner_z4": CORNER_Z4, "csl_2t": VALID_INPUTS["csl"]}.items()}


@pytest.mark.parametrize("name", sorted(VALID_INPUTS))
@given(data=st.data(), value=JSON_VALUES)
def test_any_single_field_exits_0_1_or_2(fuzz_files, name, data, value):
    workdir, files = fuzz_files
    doc = VALID_INPUTS[name]
    place = data.draw(st.sampled_from(list(_places(doc))))
    path = write(workdir / "fuzzed.json", _replace(doc, place, value))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(_argv(files, name.split()[-1], path))
    assert code in (0, 1, 2), err.getvalue()
    assert code != 2 or (err.getvalue().startswith("error: ")
                         and err.getvalue().count("\n") == 1)


def test_internal_failure_exits_3(files, capsys, monkeypatch):
    # a failed self-check is a bug: exit 3 with one line, never a verdict
    def planted(*args, **kwargs):
        raise InternalVerificationFailure("planted")
    monkeypatch.setattr(cli, "graded_witness_oracle", planted)
    code = main(["lpa", "witness", "--graph", files["vw"], "--ring", files["z6"],
                 "--element", files["elt_f"], "--method", "oracle"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: InternalVerificationFailure: planted\n"


@pytest.mark.parametrize("command", [
    ["lpa", "decompose", "--level", "2"],
    ["lpa", "witness", "--method", "constructive"],
], ids=["decompose", "witness"])
def test_block_structure_beyond_the_cap_exit2(files, capsys, monkeypatch, command):
    # rose3 at level 2 is one 9 x 9 block, dense rank 81; ab(ab)* needs it
    graph = write(files["tmp"] / "rose3.json", {
        "vertices": ["v"],
        "edges": [{"name": n, "src": "v", "dst": "v"} for n in "abc"]})
    element = write(files["tmp"] / "elt_abab.json", [
        {"coeff": 1, "alpha": ["a", "b"], "beta": ["a", "b"]}])
    args = command + ["--graph", graph, "--ring", files["z2"], "--element", element]
    monkeypatch.setenv("GRAL_SEARCH_CAP", "80")
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: block structure needs 81 states, cap is 80\n"
    monkeypatch.setenv("GRAL_SEARCH_CAP", "81")
    assert main(args) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("bounds, what, states", [
    (["--degree-bound", "1", "--size-bound", "3"], "reduced monomials", 225),
    (["--degree-bound", "3", "--size-bound", "1"], "epsilon paths", 15),
], ids=["reduced_monomials", "epsilon_paths"])
def test_classify_listings_beyond_the_cap_exit2(files, capsys, monkeypatch,
                                                bounds, what, states):
    # rose2 has 1 + 2 + 4 + 8 = 15 paths of length at most 3: 15^2 monomial
    # pairs at size bound 3 and 15 epsilon paths at degree bound 3, both
    # counted before any path is listed
    args = ["lpa", "classify", "--graph", write(files["tmp"] / "rose2.json",
                                                GOLDEN_GRAPHS["rose2"]),
            "--ring", files["z2"]] + bounds
    monkeypatch.setenv("GRAL_SEARCH_CAP", str(states - 1))
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} needs {states} states, cap is {states - 1}\n"
    monkeypatch.setenv("GRAL_SEARCH_CAP", str(states))
    assert main(args) == 0
    assert capsys.readouterr().err == ""


def _spoiled_matrix_witness_exits_3(files, capsys, monkeypatch, spoil):
    # the dispatch works on plain row tuples; spoil rewrites what it returns
    real = coeffring._matrix_witness_dispatch
    monkeypatch.setattr(coeffring, "_matrix_witness_dispatch",
                        lambda ring, rows: spoil(real(ring, rows), ring))
    code = main(["lpa", "witness", "--graph", files["vw"], "--ring", files["z6"],
                 "--element", files["elt_f"], "--method", "constructive"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("internal error: InternalVerificationFailure: ")
    assert captured.err.count("\n") == 1


def test_wrong_matrix_witness_exits_3(files, capsys, monkeypatch):
    # matrix_vnr_witness re-checks A.Y.A = A: a zero Y of the right shape
    _spoiled_matrix_witness_exits_3(files, capsys, monkeypatch, lambda y, ring: tuple(
        tuple(ring.zero for _ in row) for row in y))


def test_misshapen_matrix_witness_exits_3(files, capsys, monkeypatch):
    # the right values with one more column: A.Y.A still multiplies out to A
    # entry by entry, so only the re-check of Y's shape refuses it
    _spoiled_matrix_witness_exits_3(files, capsys, monkeypatch, lambda y, ring: tuple(
        row + (ring.zero,) for row in y))


def test_broken_epsilon_exits_3(files, capsys, monkeypatch):
    # the sum of p p* over the paths of length n is a unit on S_n and S_-n
    # of every finite graph's Leavitt algebra: a failure is a bug, not a
    # "fails" verdict
    real = gradedstruct.monomial_element

    def broken(spec, m):
        if m.alpha == m.beta and m.alpha.edges:
            return AlgebraElement.zero(spec)
        return real(spec, m)
    monkeypatch.setattr(gradedstruct, "monomial_element", broken)
    code = main(["lpa", "classify", "--graph", files["vw"], "--ring", files["z2"],
                 "--degree-bound", "1", "--size-bound", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == \
        "internal error: InternalVerificationFailure: epsilon_1 fails on f\n"


def _witness_vw_cohn(files, capsys):
    """lpa witness of f on the relative Cohn vw over Z/2: (exit code, stdout,
    stderr).  Its witness is psi of the Leavitt witness of phi(f), the route
    that still transports through the Cohn-to-Leavitt isomorphism."""
    code = main(["lpa", "witness", "--graph", files["vw_cohn"], "--ring", files["z2"],
                 "--element", files["elt_f"]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_broken_preimage_exits_3(files, capsys, monkeypatch):
    # psi inverts phi on generators, so a transported witness that fails on
    # x is a bug, not a missing witness: plant a psi that sends every
    # element to 0
    real = regularity.hom_apply

    def broken(h, y):
        return real(h, y) if h.target.is_leavitt else AlgebraElement.zero(h.target)
    monkeypatch.setattr(regularity, "hom_apply", broken)
    assert _witness_vw_cohn(files, capsys) == (3, "", (
        "internal error: InternalVerificationFailure: "
        "transported witness failed verification\n"))


def test_non_inverse_psi_exits_3(files, capsys, monkeypatch):
    # psi with v' -> 0 keeps every relation of L(E(X)) but is no inverse:
    # psi(phi(v)) = ff* != v in the Cohn algebra, a bug and never a refusal
    real = morphisms.cohn_inverse

    def planted(phi):
        psi = real(phi)
        vmap = dict(psi.vmap, **{"v'": AlgebraElement.zero(psi.target)})
        return morphisms.AlgebraHom.make(psi.source, psi.target, vmap, dict(psi.emap))
    monkeypatch.setattr(morphisms, "cohn_inverse", planted)
    spec = AlgebraSpec.cohn(Graph(["v", "w"], [("f", "v", "w")]), ModularRing(2), [])
    with pytest.raises(InternalVerificationFailure,
                       match=r"^psi\.phi is not the identity at generator v$"):
        morphisms.cohn_isomorphism(spec)
    assert _witness_vw_cohn(files, capsys) == (3, "", (
        "internal error: InternalVerificationFailure: "
        "psi.phi is not the identity at generator v\n"))


def _raise_internal(*args):
    raise InternalVerificationFailure("planted")


def _raise_relation(*args):
    raise RelationViolation("(ii)", "planted")


@pytest.mark.parametrize("owner, name, plant, message", [
    (regularity, "cohn_isomorphism", _raise_internal, "planted"),
    (morphisms, "cohn_to_leavitt", _raise_relation, "phi: relation (ii) violated: planted"),
], ids=["transported_witness", "phi_relation"])
def test_witness_reraises_internal_failures(files, capsys, monkeypatch,
                                            owner, name, plant, message):
    # a failed self-check on the way through phi is a bug, not a refusal:
    # lpa witness exits 3 with one line
    monkeypatch.setattr(owner, name, plant)
    assert _witness_vw_cohn(files, capsys) == (
        3, "", f"internal error: InternalVerificationFailure: {message}\n")


COHN_VERDICT_VW = """\
algebra=C^[]_Z/2(Graph(['v', 'w'], [('f', 'v', 'w')])) method=constructive overall=verified-at-bounds
element=f* degree=-1 method=constructive witness=f bounds=- verified=true
element=v degree=0 method=constructive witness=v bounds=- verified=true
element=w degree=0 method=constructive witness=w bounds=- verified=true
element=ff* degree=0 method=constructive witness=ff* bounds=- verified=true
element=f degree=1 method=constructive witness=f* bounds=- verified=true
element=v + w degree=0 method=constructive witness=v + w bounds=- verified=true
element=v + w degree=0 method=constructive witness=v + w bounds=- verified=true
"""


def test_cohn_witness_and_verdict_run_constructively(files, capsys):
    # a relative Cohn spec over a vnr ring takes psi of the Leavitt witness
    # of phi(x); both commands used to exit 2 without --method oracle
    witness = ["lpa", "witness", "--graph", files["vw_cohn"], "--ring", files["z2"],
               "--element", files["elt_f"]]
    assert main(witness) == 0
    assert capsys.readouterr().out == \
        "element=f degree=1 method=constructive witness=f* bounds=- verified=true\n"
    assert main(witness + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["method"], payload["witness"], payload["verified"]) == \
        ("constructive", "f*", True)
    verdict = ["lpa", "verdict", "--graph", files["vw_cohn"], "--ring", files["z2"],
               "--degree-bound", "1", "--size-bound", "1", "--samples", "2"]
    assert main(verdict) == 0
    assert capsys.readouterr().out == COHN_VERDICT_VW
    assert main(verdict + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["method"], payload["overall"]) == ("constructive", "verified-at-bounds")
    assert [c["witness"] for c in payload["certificates"]] == \
        ["f", "v", "w", "ff*", "f*", "v + w", "v + w"]
    assert all(c["verified"] for c in payload["certificates"])


def test_deeply_nested_file_exit2(files, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["check-ring", str(deep)]) == 2
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"


@pytest.mark.parametrize("command", [
    ["check-ring", "{z2}", "--seed", "1"],
    ["lpa", "witness", "--graph", "{vw}", "--ring", "{z2}", "--element", "{elt_f}",
     "--samples", "5"],
    ["lpa", "classify", "--graph", "{vw}", "--ring", "{z2}", "--method", "oracle"],
    ["lpa", "decompose", "--graph", "{vw}", "--ring", "{z2}", "--element", "{elt_f}",
     "--level", "1", "--size-bound", "2"],
    ["graph", "cover", "--graph", "{vw}", "--degree-bound", "2"],
    ["morphism", "check", "--source", "{a1}", "--target", "{vw}", "--map", "{map}",
     "--seed", "0"],
    ["corner", "witness", "--corner", "{corner_z6}", "--method", "oracle"],
    ["examples", "--samples", "5"],
], ids=["check-ring", "lpa-witness", "lpa-classify", "lpa-decompose", "graph-cover",
        "morphism-check", "corner-witness", "examples"])
def test_option_the_subcommand_does_not_read_exit2(files, capsys, command):
    # each subcommand takes only the options it reads; any other is a usage
    # error, never parsed and ignored
    assert main([arg.format(**files) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_usage_error_exit2(capsys):
    assert main(["no-such-command"]) == 2
