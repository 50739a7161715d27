"""Graphs, paths, covers and morphisms."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (SIX_GRAPHS, graph_a1, graph_loop, graph_null,
                      graph_rose2, graph_toeplitz, graph_vw, graph_vwu)
from gral.errors import GralError, XNotRegular
from gral.graphs import (CohnPair, Graph, GraphMorphism, Path, cohn_cover,
                         graph_from_dict, graph_to_dict, morphism_from_dict,
                         morphism_validate)
from reference import compose_morphisms, longest_path_length


def test_vertex_classify_examples():
    g = graph_a1()
    assert g.sinks == ("v",) and g.regular == ()
    g = graph_vw()
    assert g.sinks == ("w",) and g.regular == ("v",)
    g = graph_loop()
    assert g.sinks == () and g.regular == ("v",)


def test_paths_examples():
    loop = graph_loop()
    assert [p.edges for p in loop.paths(2, "v")] == [("e", "e")]
    rose = graph_rose2()
    assert [p.edges for p in rose.paths(2, "v")] == [
        ("e", "e"), ("e", "f"), ("f", "e"), ("f", "f")]
    assert graph_vw().paths(1, "v") == []


def test_path_repr_is_pinned():
    # linear systems order their rows by the repr of their keys; the order
    # changes no answer, but it is kept for the cost of elimination
    g = graph_vw()
    assert repr(g.vertex_path("v")) == "Path(src='v', dst='v', edges=())"
    assert repr(g.make_path(["f"])) == "Path(src='v', dst='w', edges=('f',))"


def test_path_repr_is_built_once():
    # the repr is kept after its first use and reads the field form before
    # and after; a pickle rebuilds the path without it
    for p in graph_rose2().paths(2) + [Path("v", "w", ("f",))]:
        form = f"Path(src={p.src!r}, dst={p.dst!r}, edges={p.edges!r})"
        first = repr(p)
        assert first == form and repr(p) is first and repr(p) == form
        assert repr(pickle.loads(pickle.dumps(p))) == form


def test_path_is_hashed_once_and_equals_only_paths():
    class Name(str):
        hashes = 0

        def __hash__(self):
            Name.hashes += 1
            return str.__hash__(self)

    p = Path(Name("v"), "w", ("f",))
    assert Name.hashes == 1
    q = Path("v", "w", ("f",))
    assert p == q and q == p and hash(p) == hash(q)
    assert {p: 1}[q] == 1 and hash(p) == hash(p)
    assert Name.hashes == 1
    assert p != ("v", "w", ("f",)) and ("v", "w", ("f",)) != p
    assert p != Path("v", "v", ("f",)) and p != Path("v", "w", ("g",))
    # a pickle carries the fields, never the hash of this process
    assert p.__reduce__() == (Path, ("v", "w", ("f",)))
    assert pickle.loads(pickle.dumps(q)) == q


def test_path_count_invariants():
    for make in SIX_GRAPHS.values():
        g = make()
        for n in range(4):
            total = len(g.paths(n))
            assert total == sum(len(g.paths(n, v)) for v in g.vertices)
        for v in g.vertices:
            p0 = g.paths(0, v)
            assert len(p0) == 1 and p0[0].src == v and p0[0].dst == v


def test_acyclic_paths_vanish():
    g = graph_vwu()
    assert longest_path_length(g) is not None
    for n in range(len(g.vertices) + 1, len(g.vertices) + 4):
        assert g.paths(n) == []


def test_cohn_cover_examples():
    cover = cohn_cover(graph_vw(), [])
    assert set(cover.vertices) == {"v", "w", "v'"}
    assert [e.name for e in cover.edges] == ["f"]

    cover = cohn_cover(graph_loop(), [])
    assert set(cover.vertices) == {"v", "v'"}
    assert {(e.name, e.src, e.dst) for e in cover.edges} == {
        ("e", "v", "v"), ("e'", "v", "v'")}

    g = graph_toeplitz()
    assert cohn_cover(g, g.regular) == g


def test_cohn_cover_rejects_sinks():
    with pytest.raises(XNotRegular):
        cohn_cover(graph_vw(), ["w"])


def test_primed_name_collision_takes_the_next_prime():
    # a taken primed name passes to the first free one, for vertices and
    # edges alike, in cohn_cover's order: the vertices, then the edges
    g = Graph(["v", "v'"], [("e", "v", "v"), ("e'", "v", "v'"), ("f", "v'", "v")])
    cover = cohn_cover(g, [])
    assert cover.vertices == ("v", "v'", "v''", "v'''")
    assert [(e.name, e.src, e.dst) for e in cover.edges[3:]] == [
        ("e''", "v", "v''"), ("e'''", "v", "v'''"), ("f'", "v'", "v''")]


def test_cohn_pair_rejects_nonregular():
    with pytest.raises(XNotRegular):
        CohnPair(graph_a1(), frozenset({"v"}))


def test_cohn_pair_reads_the_regular_vertices_by_default():
    # X omitted or None is Reg(E), positionally or by keyword; a given X is
    # kept as a frozenset and checked, and the record compares by value
    vwu = graph_vwu()
    reg = frozenset(vwu.regular)
    for pair in (CohnPair(vwu), CohnPair(vwu, None), CohnPair(graph=vwu, x=None)):
        assert pair.x == reg and pair == CohnPair(vwu, reg)
    assert CohnPair(vwu, ["v"]).x == frozenset({"v"})
    assert hash(CohnPair(vwu, ["v"])) == hash(CohnPair(vwu, {"v"}))
    assert repr(CohnPair(vwu, [])) == f"CohnPair(graph={vwu!r}, x=frozenset())"
    with pytest.raises(XNotRegular):
        CohnPair(graph=graph_vw(), x={"w"})


def test_graph_equality_and_hash_read_the_edge_fields():
    # edges compare and hash as their (name, src, dst) fields
    g = Graph(["v", "w"], [("e", "v", "w"), ("f", "w", "v")])
    assert hash(g) == hash((("v", "w"), (("e", "v", "w"), ("f", "w", "v"))))
    assert g == Graph(["v", "w"], list(g.edges)) and hash(g) == hash(Graph(["v", "w"], g.edges))
    assert g != Graph(["v", "w"], [("e", "v", "w"), ("f", "w", "w")])
    assert g != Graph(["w", "v"], [("e", "v", "w"), ("f", "w", "v")])
    assert repr(g.edges[0]) == "Edge(name='e', src='v', dst='w')"


def test_morphism_validate_inclusion():
    m = GraphMorphism.make(CohnPair(graph_a1(), frozenset()),
                           CohnPair(graph_vw(), frozenset({"v"})),
                           {"v": "v"}, {})
    assert morphism_validate(m).valid


def test_morphism_validate_noninjective():
    vw = graph_vw()
    m = GraphMorphism.make(CohnPair(vw, frozenset()), CohnPair(vw, frozenset()),
                           {"v": "v", "w": "v"}, {"f": "f"})
    verdict = morphism_validate(m)
    assert not verdict.valid and verdict.failed_condition == "a"


def test_morphism_validate_condition_b_and_c():
    vw, vwu = graph_vw(), graph_vwu()
    # v in Y but psi(v) outside X
    m = GraphMorphism.make(CohnPair(vw, frozenset({"v"})),
                           CohnPair(vwu, frozenset({"w"})),
                           {"v": "v", "w": "w"}, {"f": "f"})
    assert morphism_validate(m).failed_condition == "b"
    # out-edges not bijective: map loop vertex into the rose
    loop, rose = graph_loop(), graph_rose2()
    m2 = GraphMorphism.make(CohnPair(loop, frozenset({"v"})),
                            CohnPair(rose, frozenset({"v"})),
                            {"v": "v"}, {"e": "e"})
    assert morphism_validate(m2).failed_condition == "c"


def test_compose_morphisms():
    a1, vw, vwu = graph_a1(), graph_vw(), graph_vwu()
    m1 = GraphMorphism.make(CohnPair(a1, frozenset()),
                            CohnPair(vw, frozenset({"v"})), {"v": "v"}, {})
    m2 = GraphMorphism.make(CohnPair(vw, frozenset({"v"})),
                            CohnPair(vwu, frozenset({"v", "w"})),
                            {"v": "v", "w": "w"}, {"f": "f"})
    comp = compose_morphisms(m2, m1)
    assert comp.vertex_image("v") == "v"
    assert morphism_validate(comp).valid


def test_is_acyclic_examples():
    assert longest_path_length(graph_vw()) is not None
    assert longest_path_length(graph_loop()) is None
    two = Graph(["v", "w"], [("e", "v", "w"), ("f", "w", "v")])
    assert longest_path_length(two) is None
    assert longest_path_length(graph_null()) is not None


@st.composite
def graphs_up_to_five_vertices(draw):
    """Zero to five vertices and up to seven edges; half the draws put every
    edge from an earlier vertex to a later one, the rest allow loops and
    cycles."""
    vertices = [f"v{i}" for i in range(draw(st.integers(0, 5)))]
    forward = draw(st.booleans())
    pairs = [(a, b) for i, a in enumerate(vertices) for j, b in enumerate(vertices)
             if i < j or not forward]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=7)) if pairs else []
    return Graph(vertices, [(f"e{i}", a, b) for i, (a, b) in enumerate(edges)])


def brute_path_lengths(graph, max_len):
    """The length of every path with at most max_len edges, listed by
    extending each path along every edge out of its range."""
    level = [(0, v) for v in graph.vertices]
    lengths = [0] * len(level)
    for n in range(1, max_len + 1):
        level = [(n, e.dst) for _, v in level for e in graph.edges if e.src == v]
        lengths += [n] * len(level)
    return lengths


@given(graphs_up_to_five_vertices(), st.integers(0, 6))
def test_graph_facts_match_brute_force(graph, bound):
    # the reference: a vertex that reaches itself by one or more edges lies
    # on a cycle; an acyclic graph's paths have at most |V| - 1 edges
    reach = {v: {e.dst for e in graph.edges if e.src == v} for v in graph.vertices}
    for _ in graph.vertices:
        reach = {v: r.union(*(reach[w] for w in r)) for v, r in reach.items()}
    acyclic = not any(v in r for v, r in reach.items())
    longest = max(brute_path_lengths(graph, len(graph.vertices)), default=0) \
        if acyclic else None
    assert longest_path_length(graph) == longest
    assert graph.all_paths_within(bound) == (acyclic and longest <= bound)


def test_graph_json_roundtrip():
    obj = {"vertices": ["v", "w"],
           "edges": [{"name": "f", "src": "v", "dst": "w"}],
           "x": []}
    pair = graph_from_dict(obj)
    assert pair.x == frozenset()
    back = graph_to_dict(pair)
    assert back["x"] == []
    # omitted x means Leavitt
    pair2 = graph_from_dict({"vertices": ["v", "w"],
                             "edges": [{"name": "f", "src": "v", "dst": "w"}]})
    assert pair2.x == frozenset({"v"})
    assert "x" not in graph_to_dict(pair2)


def test_morphism_json():
    a1, vw = graph_a1(), graph_vw()
    m = morphism_from_dict(
        {"vmap": {"v": "v"}, "emap": {}, "sourceX": [], "targetX": ["v"]},
        CohnPair(a1, None), CohnPair(vw, None))
    assert morphism_validate(m).valid
    assert m.source.x == frozenset()


def test_duplicate_names_rejected():
    with pytest.raises(GralError):
        Graph(["v", "v"], [])
    with pytest.raises(GralError):
        Graph(["v"], [("v", "v", "v")])
    with pytest.raises(GralError):
        Graph(["v"], [("e", "v", "u")])
