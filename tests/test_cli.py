"""CLI behavior: exit codes, determinism, file formats."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpus
from conftest import diamond_chain, table_m2_z2, table_mod, table_upper_z2, table_z2xz2
from gral import cli, coeffring, cornerlaurent, gradedstruct, morphisms, pathalg, regularity
from gral.cli import main
from gral.coeffring import ModularRing, ring_make, ring_spec
from gral.cornerlaurent import corner_from_dict, csl_element_from_dict
from gral.errors import GralError, InternalVerificationFailure, RelationViolation
from gral.graphs import CohnPair, Graph, graph_from_dict, morphism_from_dict
from gral.pathalg import (AlgebraElement, AlgebraSpec, element_from_terms, format_element,
                          word_element)
from reference import graded_witness_oracle


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
    # Z/7 given by tables loads under a cap of 20 but its vnr search needs
    # 28 steps (Z/7 itself is read in closed form); lpa witness runs that
    # search to pick its route
    ring = write(files["tmp"] / "z7.json", ring_spec(table_mod(7)))
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
                 "--element", element])
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
    # 3 = [[0, 1], [0, 1]] is idempotent; the upper-triangular matrices are
    # not vnr, so the one group [3] of 3f is solved in additive coordinates,
    # which finds 1: 3.1.3 = 3.  The reference oracle's search of the
    # additive span of the multiples r . f* finds 3 * f*
    ring = write(files["tmp"] / "upper.json", ring_spec(table_upper_z2()))
    element = write(files["tmp"] / "elt_3f.json", [
        {"coeff": 3, "alpha": ["f"], "beta": {"vertex": "w"}}])
    assert main(["lpa", "witness", "--graph", files["vw"], "--ring", ring,
                 "--element", element]) == 0
    assert capsys.readouterr().out == \
        "element=t3*f degree=1 method=blocks witness=t1*f* bounds=- verified=true\n"
    spec = AlgebraSpec.leavitt(VW, table_upper_z2())
    assert graded_witness_oracle(word_element(spec, ["f"], 3), 3).to_text(format_element) == \
        "element=t3*f degree=1 method=oracle witness=t3*f* bounds=size=3 verified=true"


def test_lpa_witness_over_a_large_prime_exit0(files, capsys):
    # Z/20011 has 20011^2 a.y.a pairs, past the search cap, but its scalars
    # are read in closed form: is_vnr picks the constructive route, and the
    # witness of 2*e + 5*fef* carries 2^-1 = 10006
    graph = write(files["tmp"] / "rose2.json", GOLDEN_GRAPHS["rose2"])
    ring = write(files["tmp"] / "z20011.json", {"kind": "mod", "n": 20011})
    element = write(files["tmp"] / "x.json", [
        {"coeff": 2, "alpha": ["e"], "beta": {"vertex": "v"}},
        {"coeff": 5, "alpha": ["f", "e"], "beta": ["f"]}])
    assert main(["lpa", "witness", "--graph", graph, "--ring", ring,
                 "--element", element]) == 0
    assert capsys.readouterr().out == (
        "element=2*e + 5*fef* degree=1 method=constructive witness=10006*e* "
        "bounds=- verified=true\n")


def test_check_ring_over_a_large_prime_exit0(files, capsys):
    # Z/1009 has 1009^2 radical and semiprime states, past the search cap;
    # the radical of Z/p^e is p.R and Z/p is semiprime, in closed form
    ring = write(files["tmp"] / "z1009.json", {"kind": "mod", "n": 1009})
    assert main(["check-ring", ring]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["ring=Z/1009 order=1009", "vnr=true"]
    assert lines[2].startswith("witnesses=0:0,1:1,2:505,3:673,") and lines[2].count(":") == 1009
    assert lines[3:] == ["radical={0}", "semiprime=true"]


def test_lpa_witness_over_a_vnr_composite_modulus_exit0(files, capsys):
    # Z/30030 = 2.3.5.7.11.13 is vnr because each of its parts is, with no
    # search of its 30030^2 a.y.a pairs; 2.7508.2 = 30032 = 2
    graph = write(files["tmp"] / "rose2.json", GOLDEN_GRAPHS["rose2"])
    ring = write(files["tmp"] / "z30030.json", {"kind": "mod", "n": 30030})
    element = write(files["tmp"] / "2e.json", [
        {"coeff": 2, "alpha": ["e"], "beta": {"vertex": "v"}}])
    assert main(["lpa", "witness", "--graph", graph, "--ring", ring,
                 "--element", element]) == 0
    assert capsys.readouterr().out == \
        "element=2*e degree=1 method=constructive witness=7508*e* bounds=- verified=true\n"


def test_check_ring_composite_modulus_by_parts_exit1(files, capsys, monkeypatch):
    # Z/999999 = 27.7.11.13.37 is answered from its parts: 3 has no witness
    # over Z/27, the radical is rad(n).R = 111111.R, and 333333 = 3^2.37037
    # squares to 0.  Every scan of a ring's pairs first asks for the search
    # cap, so any cap check but the one at load fails the run
    def scan(*args):
        raise AssertionError(f"a ring's pairs were scanned: {args}")
    monkeypatch.setattr(coeffring, "search_cap", scan)
    monkeypatch.setattr(coeffring, "within_cap",
                        lambda states, what: states if what == "ring enumeration"
                        else scan(states, what))
    ring = write(files["tmp"] / "z999999.json", {"kind": "mod", "n": 999999})
    assert main(["check-ring", ring]) == 1
    assert capsys.readouterr().out == (
        "ring=Z/999999 order=999999\nvnr=false counterexample=3\n"
        "radical={" + ",".join(str(111111 * k) for k in range(9)) + "}\n"
        "semiprime=false witness=333333\n")


def test_check_ring_crosschecks_the_witnesses_exit3(files, capsys, monkeypatch):
    # every element of Z/6 has a witness, so an is_vnr that says otherwise
    # is a bug, not a verdict
    monkeypatch.setattr(cli, "is_vnr", lambda ring: False)
    assert main(["check-ring", files["z6"]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: InternalVerificationFailure: "
                            "is_vnr and the witnesses of Z/6 disagree\n")


def test_oracle_absence_over_a_large_modulus_exit1(files, capsys, monkeypatch):
    # 2f has no witness over Z/999996, as 4c = 2 has no solution; its one
    # group [2] has no generalized inverse over the part Z/4, and Z/n is
    # not vnr by its prime powers, without a scan of its pairs (about
    # 5 * 10^11 here)
    def scan(ring):
        raise AssertionError(f"scanned the pairs of {ring.describe()}")
    monkeypatch.setattr(coeffring.Ring, "is_commutative", scan)
    ring = write(files["tmp"] / "z999996.json", {"kind": "mod", "n": 999996})
    element = write(files["tmp"] / "elt_2f.json", [
        {"coeff": 2, "alpha": ["f"], "beta": {"vertex": "w"}}])
    code = main(["lpa", "witness", "--graph", files["vw"], "--ring", ring,
                 "--element", element])
    out = capsys.readouterr().out
    assert code == 1
    assert out == ("element=2*f degree=1 method=blocks absence=exact searched=group (0,w) "
                   "rows [f] columns [w] matrix [2] has no generalized inverse bounds=- "
                   "verified=true\n")


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
    # the symmetric rows from the epsilons and the strong row from the
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


def _no_listing(*args, **kwargs):
    raise AssertionError("a path-algebra classify listed the bounded monomials")


@pytest.mark.parametrize("graph, ring, degree_bound, size_bound", [
    ("span", "z2", 3, 4), ("spancohn", "z6", 2, 2)])
def test_path_algebra_classify_lists_no_monomial(files, capsys, monkeypatch,
                                                 graph, ring, degree_bound, size_bound):
    # which degrees have a spanning monomial is read from path counts: with
    # the listing refused, a Leavitt and a relative Cohn classify print the
    # pinned report
    monkeypatch.setattr(pathalg, "reduced_monomials", _no_listing)
    monkeypatch.setattr(gradedstruct, "reduced_monomials", _no_listing)
    monkeypatch.setattr(gradedstruct.PathAlgebraOracle, "spanning", _no_listing)
    graphs = {"spancohn": dict(GOLDEN_GRAPHS["span"], x=[]), **GOLDEN_GRAPHS}
    code = main(["lpa", "classify", "--graph", write(files["tmp"] / f"{graph}.json",
                                                     graphs[graph]),
                 "--ring", files[ring], "--degree-bound", str(degree_bound),
                 "--size-bound", str(size_bound)])
    assert code == 0
    assert capsys.readouterr().out == \
        (GOLDEN / f"classify_{graph}_{ring}_{degree_bound}_{size_bound}.txt").read_text()


@pytest.mark.parametrize("name, graph, ring, degree_bound", [
    ("toeplitz", GOLDEN_GRAPHS["toeplitz"], "z6", 2),          # constructive
    ("rose2cohn", dict(GOLDEN_GRAPHS["rose2"], x=[]), "z2", 2),  # through psi
    ("rose2", GOLDEN_GRAPHS["rose2"], "z4", 1)])               # blocks: Z/4 is not vnr
def test_lpa_verdict_golden(files, capsys, name, graph, ring, degree_bound):
    # every certificate line of a verdict, witness text included, byte for
    # byte; over Z/4 every 2.m is an exact counterexample
    code = main(["lpa", "verdict", "--graph", write(files["tmp"] / f"{name}.json", graph),
                 "--ring", files[ring], "--degree-bound", str(degree_bound),
                 "--size-bound", "2"])
    assert code == (1 if ring == "z4" else 0)
    expected = GOLDEN / f"verdict_{name}_{ring}_{degree_bound}_2.txt"
    assert capsys.readouterr().out == expected.read_text()


def test_lpa_witness_over_a_large_modulus_without_enumerating(files, capsys, monkeypatch):
    # decoding 2, choosing the route and solving the group [2] never list
    # the million elements of Z/n
    monkeypatch.setattr(ModularRing, "elements", lambda self: pytest.fail("Z/n enumerated"))
    ring = write(files["tmp"] / "big.json", {"kind": "mod", "n": 999996})
    element = write(files["tmp"] / "2f.json", [
        {"coeff": 2, "alpha": ["f"], "beta": {"vertex": "w"}}])
    code = main(["lpa", "witness", "--graph", files["vw"], "--ring", ring,
                 "--element", element])
    assert code == 1
    assert "element=2*f degree=1 method=blocks absence=exact" in capsys.readouterr().out


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
    inputs being valid.  A fuzzed modulus picks the route by its prime
    powers, never by is_vnr's search, which is quadratic in the ring's
    order."""
    if kind in ("corner", "csl"):
        paths = {"corner": files["corner_z4"], "csl": files["csl_2t"], kind: path}
        return ["corner", "witness", "--corner", paths["corner"], "--element", paths["csl"]]
    if kind == "map":
        return ["morphism", "check", "--source", files["a1"], "--target", files["vw"],
                "--map", path, "--ring", files["z2"]]
    paths = {"graph": files["vw"], "ring": files["z2"], "element": files["elt_f"], kind: path}
    return ["lpa", "witness", "--graph", paths["graph"], "--ring", paths["ring"],
            "--element", paths["element"]]


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


def _mutations(doc):
    """doc with one field dropped, one value replaced by a value of the
    wrong JSON type, or one n or size set out of range, each in turn."""
    for place in _places(doc):
        for value in (True, "x", [1], None, {"a": {"b": 1}}):
            yield _replace(doc, place, value)
        target = doc
        for key in place:
            target = target[key]
        if isinstance(target, dict):
            for key in target:
                yield _replace(doc, place, {k: v for k, v in target.items() if k != key})
        if place and place[-1] in ("n", "size"):
            for value in (-1, 0, 10**30):
                yield _replace(doc, place, value)


MUTATED = {**{f"ring {name}": spec for name, (spec, *_) in corpus.RINGS.items()},
           **{f"ring {name}": spec for name, spec in {**corpus.TABLE_RINGS,
                                                     **corpus.LARGE_RINGS}.items()},
           "corner swap": corpus.CORNERS["corner-swap"]}


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_every_ring_and_corner_mutation_exit2(tmp_path, name):
    # each ring spec of the corpus, and its swap corner, loads; each mutation
    # of it is refused at load with one error line, never read as a verdict
    path = tmp_path / "mutated.json"
    command = (["check-ring", str(path)] if name.startswith("ring")
               else ["corner", "witness", "--corner", str(path)])
    breaches = []
    for mutated in [MUTATED[name], *_mutations(MUTATED[name])]:
        write(path, mutated)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command)
        if mutated is MUTATED[name]:
            assert code in (0, 1), err.getvalue()
        elif code != 2 or out.getvalue() or not err.getvalue().startswith("error: ") \
                or err.getvalue().count("\n") != 1:
            breaches.append((mutated, code, err.getvalue()))
    assert breaches == []


def test_internal_failure_exits_3(files, capsys, monkeypatch):
    # a failed self-check is a bug: exit 3 with one line, never a verdict
    def planted(*args, **kwargs):
        raise InternalVerificationFailure("planted")
    monkeypatch.setattr(cli, "graded_witness_constructive", planted)
    code = main(["lpa", "witness", "--graph", files["vw"], "--ring", files["z6"],
                 "--element", files["elt_f"]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: InternalVerificationFailure: planted\n"


class _MakeDropsATerm:
    """regularity's AlgebraElement.make, with the first of its terms lost."""

    @staticmethod
    def make(spec, terms):
        return AlgebraElement.make(spec, dict(list(terms.items())[1:]))


@pytest.mark.parametrize("owner, name, fake, command, message", [
    (regularity, "AlgebraElement", _MakeDropsATerm,
     ["lpa", "witness", "--graph", "{vw}", "--ring", "{z4}", "--element", "{elt}"],
     "block witness failed verification"),
    (cornerlaurent, "vnr_witness", lambda ring, a: ring.zero,
     ["corner", "witness", "--corner", "{corner_z4}", "--element", "{csl_2t}"],
     "corner witness failed verification"),
], ids=["block", "corner"])
def test_final_recheck_of_a_solved_witness_exits_3(files, capsys, monkeypatch,
                                                   owner, name, fake, command, message):
    # a witness spoiled after it is solved is caught by the final x.b.x = x
    # re-check: exit 3 with one line.  Over Z/4 the block witness of v + w
    # is v + w, which loses v or w; the corner witness of 2t gets 0
    files["elt"] = write(files["tmp"] / "elt_v_w.json", [
        {"coeff": 1, "alpha": {"vertex": v}, "beta": {"vertex": v}} for v in "vw"])
    monkeypatch.setattr(owner, name, fake)
    code = main([arg.format(**files) for arg in command])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"internal error: InternalVerificationFailure: {message}\n"


@pytest.mark.parametrize("command", [
    ["lpa", "decompose", "--level", "2"],
    ["lpa", "witness"],
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


def test_block_groups_beyond_the_cap_exit2(files, capsys, monkeypatch):
    # over Z/4, v + 2 aaa(aaa)* on rose3 expands v to the 27 paths of length
    # 3: one 27 x 27 group, counted from path counts before any term is listed
    graph = write(files["tmp"] / "rose3.json", {
        "vertices": ["v"],
        "edges": [{"name": n, "src": "v", "dst": "v"} for n in "abc"]})
    element = write(files["tmp"] / "elt_v_aaa.json", [
        {"coeff": 1, "alpha": {"vertex": "v"}, "beta": {"vertex": "v"}},
        {"coeff": 2, "alpha": ["a"] * 3, "beta": ["a"] * 3}])
    args = ["lpa", "witness", "--graph", graph, "--ring", files["z4"], "--element", element]
    monkeypatch.setenv("GRAL_SEARCH_CAP", "728")
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: group expansion needs 729 states, cap is 728\n"
    monkeypatch.setenv("GRAL_SEARCH_CAP", "729")
    assert main(args) == 0
    assert "method=blocks" in capsys.readouterr().out


def looped_chain(k):
    """diamond_chain(k) with a loop at vk, which so receives paths of every
    length: M_1 holds v1..vk and the 2^k paths from v0 to vk."""
    graph = diamond_chain(k)
    graph["edges"].append({"name": "c", "src": f"v{k}", "dst": f"v{k}"})
    return graph


@pytest.mark.parametrize("graph, bounds, what, states", [
    (GOLDEN_GRAPHS["rose2"], ["--degree-bound", "1", "--size-bound", "3"],
     "reduced monomials", 225),
    (GOLDEN_GRAPHS["rose2"], ["--degree-bound", "3", "--size-bound", "1"], "epsilon paths", 15),
    (looped_chain(5), ["--degree-bound", "1", "--size-bound", "1"], "epsilon walk", 68),
], ids=["reduced_monomials", "epsilon_paths", "epsilon_walk"])
def test_classify_listings_beyond_the_cap_exit2(files, capsys, monkeypatch,
                                                graph, bounds, what, states):
    # rose2 has 1 + 2 + 4 + 8 = 15 paths of length at most 3: 15^2 monomial
    # pairs at size bound 3 and 15 epsilon paths at degree bound 3; M_1 on
    # the looped 5-link chain holds 37 paths, and the walk for eps_-1
    # visits their prefixes: 1 + 2 + ... + 32 = 63 paths from v0 and each
    # other vertex once; all are counted before any path is listed
    args = ["lpa", "classify", "--graph", write(files["tmp"] / "graph.json", graph),
            "--ring", files["z2"]] + bounds
    monkeypatch.setenv("GRAL_SEARCH_CAP", str(states - 1))
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} needs {states} states, cap is {states - 1}\n"
    monkeypatch.setenv("GRAL_SEARCH_CAP", str(states))
    assert main(args) == 0
    assert capsys.readouterr().err == ""


def test_witness_exactness_on_a_long_chain_lists_no_long_path(files, capsys, monkeypatch):
    # 2 v0 has no witness over Z/4: its one group [2] is read at level 0,
    # and none of the 2^20 paths of the 20-link chain is listed
    real = Graph.paths

    def paths(graph, n, target=None):
        if n > 3:
            raise AssertionError(f"listed the paths of length {n}")
        return real(graph, n, target)
    monkeypatch.setattr(Graph, "paths", paths)
    element = write(files["tmp"] / "elt_2v0.json", [
        {"coeff": 2, "alpha": {"vertex": "v0"}, "beta": {"vertex": "v0"}}])
    assert main(["lpa", "witness", "--graph", write(files["tmp"] / "chain20.json",
                                                    diamond_chain(20)),
                 "--ring", files["z4"], "--element", element]) == 1
    assert capsys.readouterr().out == (
        "element=2*v0 degree=0 method=blocks absence=exact searched=group (0,v0) "
        "rows [v0] columns [v0] matrix [2] has no generalized inverse bounds=- "
        "verified=true\n")


M2_GRAPHS = {"rose2": GOLDEN_GRAPHS["rose2"],
             "vw2": {"vertices": ["v", "w"],
                     "edges": [{"name": n, "src": "v", "dst": "w"} for n in "ef"]}}


def test_negative_degree_witness_over_m2_z2_exit0(files, capsys):
    # over a non-commutative ring r.ab* -> r.ba* is no anti-homomorphism;
    # the constructive route takes the left unit of t1 e* + t2 f* directly
    ring = write(files["tmp"] / "m2.json", ring_spec(table_m2_z2()))
    element = write(files["tmp"] / "elt_m2.json", [
        {"coeff": 1, "alpha": {"vertex": "v"}, "beta": ["e"]},
        {"coeff": 2, "alpha": {"vertex": "v"}, "beta": ["f"]}])
    assert main(["lpa", "witness", "--graph", write(files["tmp"] / "rose2.json",
                                                    M2_GRAPHS["rose2"]),
                 "--ring", ring, "--element", element]) == 0
    assert capsys.readouterr().out == ("element=t1*e* + t2*f* degree=-1 method=constructive "
                                       "witness=t1*e bounds=- verified=true\n")


@pytest.mark.parametrize("graph, samples", [("rose2", 20), ("vw2", 30)])
def test_verdict_over_m2_z2_exit0(files, capsys, graph, samples):
    ring = write(files["tmp"] / "m2.json", ring_spec(table_m2_z2()))
    assert main(["lpa", "verdict", "--graph", write(files["tmp"] / f"{graph}.json",
                                                    M2_GRAPHS[graph]),
                 "--ring", ring, "--degree-bound", "1", "--size-bound", "1",
                 "--samples", str(samples)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert " method=constructive overall=verified-at-bounds" in lines[0]
    assert len(lines) > 1 and all("verified=true" in line for line in lines[1:])


def _spoiled_matrix_witness_exits_3(files, capsys, monkeypatch, spoil):
    # the dispatch works on plain row tuples; spoil rewrites what it returns
    real = coeffring._matrix_witness_dispatch
    monkeypatch.setattr(coeffring, "_matrix_witness_dispatch",
                        lambda ring, rows: spoil(real(ring, rows), ring))
    code = main(["lpa", "witness", "--graph", files["vw"], "--ring", files["z6"],
                 "--element", files["elt_f"]])
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
    spec = AlgebraSpec(Graph(["v", "w"], [("f", "v", "w")]), ModularRing(2), [])
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


class _WrongSpanSolver(coeffring.SpanSolver):
    """A SpanSolver whose every answer is {0: 1}."""

    def solve(self, *targets):
        return {0: 1}


def test_wrong_linear_combination_exits_3(files, capsys, monkeypatch):
    # over Z/6 a path algebra's coordinates are left-linear, so a linear
    # answer that fails its check is a bug, never a cue to search the
    # additive span: b = f* gives 2f.f*.2f = 4f, not 2f.  No command
    # searches a path algebra's span for a witness, so the reference
    # oracle asks combination_solver
    spans = []
    monkeypatch.setattr(gradedstruct, "SpanSolver", _WrongSpanSolver)
    monkeypatch.setattr(gradedstruct, "AdditiveSpan", lambda *args: spans.append(args))
    spec = AlgebraSpec.leavitt(Graph(["v", "w"], [("f", "v", "w")]), ModularRing(6))
    with pytest.raises(InternalVerificationFailure,
                       match="^linear combination fails its equations$"):
        graded_witness_oracle(word_element(spec, ["f"], 2), 2)
    assert spans == []


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
    # of phi(x), in both commands
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


ZERO_WITNESS = "element=0 degree=0 method={} witness=0 bounds=- verified=true\n"


@pytest.mark.parametrize("graph, ring, method", [
    ("vw", "z4", "blocks"), ("vw", "z6", "constructive"), ("vw_cohn", "z2", "constructive"),
], ids=["Z4-blocks", "Z6-constructive", "cohn-Z2-constructive"])
def test_zero_element_witness_exit0_on_every_route(files, capsys, graph, ring, method):
    # the zero element is its own witness, whichever route the ring picks
    zero = write(files["tmp"] / "zero.json", [])
    assert main(["lpa", "witness", "--graph", files[graph], "--ring", files[ring],
                 "--element", zero]) == 0
    assert capsys.readouterr().out == ZERO_WITNESS.format(method)


class BrokenStream:
    """A stream whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command, err", [
    (["lpa", "witness", "--graph", "{vw}", "--ring", "{z6}", "--element", "{elt_f}"], "error: "),
    (["check-ring", "{z4}"], "error: "),
    (["check-ring", "{tmp}/missing.json"], "error: "),
    (["--help"], "error: "),
    (["lpa", "--help"], "error: "),
    (["no-such-command"], "usage: "),
], ids=["witness-exit0", "check-ring-exit1", "missing-file-exit2", "help", "lpa-help",
        "usage-error"])
def test_unwritable_report_exits_2(files, monkeypatch, command, err):
    # a report that stdout cannot take is a failure to write, like an
    # unwritable --output, never a verdict; with stderr gone too, the
    # error line is dropped and the exit code still says so
    args = [arg.format(**files) for arg in command]
    stderr = io.StringIO()
    monkeypatch.setattr(sys, "stdout", BrokenStream())
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(args) == 2
    assert stderr.getvalue().startswith(err)
    monkeypatch.setattr(sys, "stderr", BrokenStream())
    assert main(args) == 2


def test_output_stream_closed_at_start(files, monkeypatch, capsys):
    # a stream whose fd was closed before the run is None: a report that
    # cannot go to stdout exits 2; a closed stderr only drops the error line
    zero = write(files["tmp"] / "zero.json", [])
    witness = ["lpa", "witness", "--graph", files["vw"], "--ring", files["z6"], "--element", zero]
    monkeypatch.setattr(sys, "stdout", None)
    assert main(witness) == 2
    assert capsys.readouterr().err.startswith("error: ")
    monkeypatch.undo()
    monkeypatch.setattr(sys, "stderr", None)
    assert main(witness) == 0
    assert main(["check-ring", str(files["tmp"] / "missing.json")]) == 2
    assert capsys.readouterr().out == ZERO_WITNESS.format("constructive")


def _run_gral(files, command, **streams):
    # python -m gral on the source tree, with PYTHONUNBUFFERED as the caller sets it
    src = Path(cli.__file__).resolve().parent.parent
    zero = write(files["tmp"] / "zero.json", [])
    command = {"report": ["lpa", "witness", "--graph", files["vw"], "--ring", files["z6"],
                          "--element", zero],
               "missing": ["check-ring", str(files["tmp"] / "missing.json")]}.get(
                   command[0], command)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    env.update(streams.pop("env", {}))
    return subprocess.run([sys.executable, "-m", "gral", *command], timeout=60, env=env,
                          **streams)


HELP_COMMANDS = [["--help"], ["lpa", "--help"]]


@pytest.mark.parametrize("command", [["report"], ["no-such-command"], *HELP_COMMANDS],
                         ids=["report", "usage-error", "help", "lpa-help"])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_output_pipe_exits_2(files, command, unbuffered):
    # stdout and stderr on a pipe whose read end is closed before the run;
    # buffered, a failed write must not fail again at exit (exit 120), and
    # unbuffered, help that argparse could not write must not exit 0
    read, write_end = os.pipe()
    os.close(read)
    try:
        proc = _run_gral(files, command, stdout=write_end, stderr=write_end,
                         env={"PYTHONUNBUFFERED": unbuffered} if unbuffered else {})
    finally:
        os.close(write_end)
    assert proc.returncode == 2


@pytest.mark.parametrize("command", HELP_COMMANDS, ids=["help", "lpa-help"])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_help_on_open_pipe_exits_0(files, command, unbuffered):
    proc = _run_gral(files, command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                     env={"PYTHONUNBUFFERED": unbuffered} if unbuffered else {})
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout.startswith(b"usage: gral ")


@pytest.mark.parametrize("closed, command, code, out", [
    ((2,), "report", 0, ZERO_WITNESS.format("constructive")),
    ((2,), "missing", 2, ""),
    ((1,), "report", 2, None),
    ((1, 2), "report", 2, None),
], ids=["stderr-report", "stderr-missing-file", "stdout-report", "both-report"])
def test_closed_output_fd_exits_by_report(files, closed, command, code, out):
    # fds closed before start (as by `2>&-`): the exit code still says
    # whether the report was written, and never falls to 1
    proc = _run_gral(files, [command], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                     preexec_fn=lambda: [os.close(fd) for fd in closed])
    assert proc.returncode == code
    if out is not None:
        assert proc.stdout.decode() == out
    if 2 in closed:
        assert proc.stderr == b""
    else:  # the report that stdout could not take is named on stderr
        assert proc.stderr.startswith(b"error: ")


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
    ["lpa", "witness", "--graph", "{vw}", "--ring", "{z4}", "--element", "{elt_f}",
     "--method", "oracle"],
    ["lpa", "witness", "--graph", "{vw}", "--ring", "{z4}", "--element", "{elt_f}",
     "--size-bound", "2"],
    ["lpa", "verdict", "--graph", "{vw}", "--ring", "{z4}", "--method", "constructive"],
], ids=["check-ring", "lpa-witness", "lpa-classify", "lpa-decompose", "graph-cover",
        "morphism-check", "corner-witness", "examples", "lpa-witness-method",
        "lpa-witness-size-bound", "lpa-verdict-method"])
def test_option_the_subcommand_does_not_read_exit2(files, capsys, command):
    # each subcommand takes only the options it reads; any other is a usage
    # error, never parsed and ignored
    assert main([arg.format(**files) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_usage_error_exit2(capsys):
    assert main(["no-such-command"]) == 2
