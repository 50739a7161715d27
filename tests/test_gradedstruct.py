"""Grading classification, epsilon structure, radical and semiprimeness."""

import itertools
import json
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (SIX_GRAPHS, diamond_chain, graph_a1, graph_loop, graph_null,
                      graph_rose2, graph_span, graph_toeplitz, graph_vw,
                      graph_vwu, small_graphs, swap_algebra, table_upper_z2,
                      table_z2xz2)
from gral import gradedstruct, morphisms, regularity
from gral.cli import main
from gral.coeffring import ModularRing, is_vnr, ring_spec, within_cap
from gral.cornerlaurent import CslAlgebra, format_csl
from gral.errors import (GralError, InternalVerificationFailure,
                         NotDegreeOneGenerated)
from gral.graphs import CohnPair, Graph, graph_from_dict, graph_to_dict
from gral.gradedstruct import (CslOracle, GradedRingOracle,
                               MatrixGradingOracle, PathAlgebraOracle,
                               ReportRow, TrivialGradingOracle,
                               check_epsilon_strong,
                               check_nearly_epsilon, check_strong_Z,
                               check_symmetric, classify, epsilon_element,
                               is_semiprime_graded,
                               zero_multiplication_ring)
from gral.pathalg import (AlgebraElement, AlgebraSpec, format_element, identity_element,
                          monomial_element, reduced_monomials, word_element)
from gral.regularity import graded_vnr_verdict
from reference import (PolynomialOracle, epsilon_paths, homogeneous_local_units,
                       jacobson_radical_algebra, longest_path_length)


def leavitt(graph, n):
    return AlgebraSpec.leavitt(graph, ModularRing(n))


# -- symmetric ------------------------------------------------------------------


def test_symmetric_a1_z4_exact():
    verdict, _ = check_symmetric(PathAlgebraOracle(leavitt(graph_a1(), 4)), 3, 3)
    assert verdict.status == "holds-exactly"


def test_symmetric_polynomial_fails(z2):
    verdict, rows = check_symmetric(PolynomialOracle(z2), 3, 3)
    assert verdict.status == "fails"
    d2 = [r for r in rows if r.degree == "2"]
    assert d2 and d2[0].verdict.status == "fails"
    assert "x^2" in d2[0].verdict.witness


def test_symmetric_loop_at_bound(z2):
    verdict, _ = check_symmetric(PathAlgebraOracle(leavitt(graph_loop(), 2)), 3, 3)
    assert verdict.status == "holds-at-bound"


def _symmetric_span_builds(monkeypatch, algebra):
    """The verdict of check_symmetric on the corner ring, with the
    AdditiveSpans it builds."""
    spans = []
    real = gradedstruct.AdditiveSpan
    monkeypatch.setattr(gradedstruct, "AdditiveSpan",
                        lambda ring, columns: spans.append(columns) or real(ring, columns))
    verdict, rows = check_symmetric(CslOracle(algebra), 2, 2)
    return verdict, rows, spans


def test_symmetric_csl_closure_once_per_degree(monkeypatch):
    # the swap twists the coordinates, so some linear answers fail their
    # check: the AdditiveSpan of S_d S_-d S_d is then built once per degree
    # and shared by the later elements, never twice over the same products
    verdict, rows, spans = _symmetric_span_builds(monkeypatch, swap_algebra())
    assert verdict.status == "holds-exactly" and len(rows) == 5
    assert 1 <= len(spans) <= 5
    assert all(a != b for a, b in itertools.combinations(spans, 2))


def test_symmetric_csl_identity_corner_builds_no_closure(z4, monkeypatch):
    # without a twist every linear answer passes its check on the elements
    verdict, rows, spans = _symmetric_span_builds(
        monkeypatch, CslAlgebra(z4, 1, {i: i for i in range(4)}))
    assert verdict.status == "holds-exactly" and len(rows) == 5
    assert spans == []


# -- epsilon elements --------------------------------------------------------------


def test_epsilon_element_examples(z2):
    vw = leavitt(graph_vw(), 2)
    eps1 = epsilon_element(vw, 1)
    assert eps1 == word_element(vw, ["f", "f*"])  # ff*, i.e. v after reduction
    a1 = leavitt(graph_a1(), 2)
    assert epsilon_element(a1, 1).is_zero
    loop = leavitt(graph_loop(), 2)
    ee = word_element(loop, ["e", "e"])
    assert epsilon_element(loop, 2) == ee * ee.involution()


def test_epsilon_element_relations_all_graphs():
    for name, make in SIX_GRAPHS.items():
        spec = leavitt(make(), 6)
        for n in range(-3, 4):
            eps = epsilon_element(spec, n)
            for m in reduced_monomials(spec, degree=n, max_len=3):
                s = monomial_element(spec, m)
                assert eps * s == s, (name, n)
            for m in reduced_monomials(spec, degree=-n, max_len=3):
                s = monomial_element(spec, m)
                assert s * eps == s, (name, n)


def test_epsilon_element_negative_other_side(z2):
    # eps_-1 is in S_-1 S_1: f*f = w, a left unit on S_-1 (spanned by f*)
    # and a right unit on S_1 (spanned by f); eps_1 = ff* = v is neither
    spec = leavitt(graph_vw(), 2)
    assert format_element(epsilon_element(spec, -1)) == "w"
    assert epsilon_element(spec, -1) == word_element(spec, ["f*", "f"])
    assert format_element(epsilon_element(spec, 1)) == "v"


def test_classify_forms_each_epsilon_once(monkeypatch):
    # the strong row's eps_1 and eps_-1 are the epsilon rows' own: seven
    # degrees, seven epsilons, each still checked inside epsilon_element
    formed = []
    monkeypatch.setattr(gradedstruct, "epsilon_element",
                        lambda spec, n, real=epsilon_element: formed.append(n) or real(spec, n))
    report = classify(leavitt(graph_span(), 2), 3, 3)
    assert report.verdict("strong").status == "holds-exactly"
    assert sorted(formed) == list(range(-3, 4))


FUW = Graph(["u", "w"], [("f", "u", "w"), ("e", "w", "w")])


@pytest.mark.parametrize("x, eps", [([], "w + ff*"), (["u"], "u + w")])
def test_epsilon_element_reaches_past_a_source(x, eps):
    # on {f: u->w, e: w->w} the element f(eee)* of S_-2 starts at the source
    # u, so w is no left unit on S_-2 (w.f(eee)* = 0): the bounded search
    # took w for a unit while f(eee)* was past the size bound; the closed
    # form keeps the path f, whose range w receives paths of every length
    spec = AlgebraSpec(FUW, ModularRing(2), x)
    x = word_element(spec, ["f", "e*", "e*", "e*"])
    w = word_element(spec, ["w"])
    assert (w * x).is_zero and not x.is_zero
    for n in (1, 2, 3):
        assert format_element(epsilon_element(spec, -n)) == eps
    assert epsilon_element(spec, -2) * x == x


class _CountingGraph(Graph):
    """A graph that records every path extended along one of its edges."""

    def __init__(self, graph):
        super().__init__(graph.vertices, graph.edges)
        self.extended = 0

    def extend(self, p, e):
        self.extended += 1
        return super().extend(p, e)


@given(small_graphs(), st.integers(-3, 3))
def test_epsilon_walk_lists_the_reference_paths(graph, n):
    # the walk pruned to live pairs keeps what a walk along every out-edge
    # keeps: the paths of length n for n >= 0, and M_-n for n < 0
    table = gradedstruct._epsilon_table(graph, n)
    assert set(gradedstruct._epsilon_paths(graph, n, table)) == set(epsilon_paths(graph, n))


@given(small_graphs(), st.integers(-3, 3))
def test_epsilon_walk_is_counted_before_it_is_listed(graph, n):
    # the cap's count is the number of paths the walk visits: one per live
    # vertex and one per extension; each visit is a prefix of a kept path
    graph = _CountingGraph(graph)
    with mock.patch.object(gradedstruct, "within_cap", wraps=within_cap) as cap:
        table = gradedstruct._epsilon_table(graph, n)
    paths = gradedstruct._epsilon_paths(graph, n, table)
    cap.assert_called_once_with(len(table[2][0]) + graph.extended, "epsilon walk")
    assert graph.extended <= len(paths) * max(n, len(graph.vertices) - 1)


def test_epsilon_walk_is_output_sized():
    # M_1 on the 20-link chain of parallel edges is v1..v20, while a walk
    # along every out-edge visits the 2^21 - 1 paths from v0
    graph = _CountingGraph(graph_from_dict(diamond_chain(20)).graph)
    paths = gradedstruct._epsilon_paths(graph, -1, gradedstruct._epsilon_table(graph, -1))
    assert {q for q, _ in paths} == {graph.vertex_path(v) for v in graph.vertices[1:]}
    assert graph.extended <= len(paths) * len(graph.vertices)


# -- strong ---------------------------------------------------------------------


def test_strong_matches_no_sinks():
    expected = {"loop": True, "2cycle": True, "rose2": True,
                "A1": False, "vw": False, "toeplitz": False}
    for name, make in SIX_GRAPHS.items():
        verdict = check_strong_Z(PathAlgebraOracle(leavitt(make(), 2)), 3)
        assert verdict.strong == expected[name], name
        assert verdict.no_sinks == expected[name], name


def test_strong_laurent(z2):
    lau = CslAlgebra(z2, 1, {0: 0, 1: 1})
    assert check_strong_Z(CslOracle(lau), 3).strong


def test_strong_refuses_without_flag(z2):
    with pytest.raises(NotDegreeOneGenerated):
        check_strong_Z(TrivialGradingOracle(z2), 3)


def test_strong_matrix_oracle_not_strong(z2):
    verdict = check_strong_Z(MatrixGradingOracle(z2), 3)
    assert not verdict.strong


# -- rows read from certificates -------------------------------------------------


CERTIFIED_GRAPHS = {**SIX_GRAPHS, "vwu": graph_vwu, "span": graph_span}


class _GenericView:
    """A path algebra read through the bounded span search alone: a
    duck-typed view of the oracle, with its name, that is no
    PathAlgebraOracle (so no closed-form strong route) and whose epsilons
    come from the base class's bounded search, not from epsilon_element."""

    epsilon = GradedRingOracle.epsilon

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.degree_one_generated = inner.degree_one_generated
        self._epsilons = {}  # the search's own, not the inner closed forms

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _NoEpsilonView(_GenericView):
    """A _GenericView without epsilons: every nearly and symmetric row is
    decided element by element."""

    def epsilon(self, degree, size_bound):
        return None


def _search_only(spec):
    return _GenericView(PathAlgebraOracle(spec))


def _per_degree(report, spec):
    """The report's text with a Leavitt spec's epsilon rows +-n and table
    laid out per degree, as the span search prints them, eps_-n taken from
    epsilon_element; a relative Cohn report's text as it is."""
    if not spec.is_leavitt:
        return report.to_text()
    eps = {int(row.degree.lstrip("+-")): row.verdict for row in report.rows
           if row.property == "epsilon-strong"}
    top = max(eps)
    rows = [row for row in report.rows if row.property == "strong"] + \
        [ReportRow("epsilon-strong", str(d), eps[abs(d)]) for d in range(-top, top + 1)] + \
        [row for row in report.rows if row.property in ("nearly-epsilon", "symmetric")]
    table = tuple((d, format_element(epsilon_element(spec, d))) for d in range(-top, top + 1))
    assert table[top:] == report.eps_table
    return report._replace(rows=tuple(rows), eps_table=table).to_text()


def _rows(report, *props):
    return [row.to_text() for row in report.rows if row.property in props] + \
        [f"{name} {v}" for name, v in report.summary if name in props]


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("name", sorted(CERTIFIED_GRAPHS))
def test_certified_rows_match_the_span_search(name, n, bound):
    # the symmetric rows from the epsilons and the strong row from the
    # factorization are the rows the bounded span search gives, element by
    # element in the triple products
    spec = leavitt(CERTIFIED_GRAPHS[name](), n)
    certified = classify(spec, bound, bound)
    searched = classify(_NoEpsilonView(PathAlgebraOracle(spec)), bound, bound)
    assert _rows(certified, "strong", "symmetric") == _rows(searched, "strong", "symmetric")


@given(small_graphs(), st.data(), st.sampled_from([2, 4, 6]))
def test_strong_row_holds_iff_leavitt_without_sinks(graph, data, n):
    # 1 is in S_1 S_-1 and in S_-1 S_1 iff eps_1 = eps_-1 = 1, and by
    # Hazrat's criterion iff the spec is Leavitt and has no sinks: a
    # relative Cohn spec, X a proper subset of Reg(E), is never strong
    x = [v for v in sorted(graph.regular) if data.draw(st.booleans())]
    spec = AlgebraSpec(graph, ModularRing(n), x)
    strong = check_strong_Z(PathAlgebraOracle(spec), 1)
    one = identity_element(spec)
    epsilons = [epsilon_element(spec, d) == one for d in (1, -1)]
    assert strong.strong == (spec.is_leavitt and not graph.sinks) == all(epsilons)
    assert strong.no_sinks == (not graph.sinks)
    if not strong.strong:
        side = "S_1 S_-1" if not epsilons[0] else "S_-1 S_1"
        assert strong.verdict.witness.startswith(f"1 not reached in {side}")


@pytest.mark.parametrize("name, bound, side", [
    ("span", 0, "S_1 S_-1"), ("loop", 0, "S_1 S_-1"),
    ("source_loop", 1, "S_-1 S_1"), ("source_cycle3", 1, "S_-1 S_1")])
def test_strong_row_holds_exactly_below_the_old_bound(name, bound, side):
    # a graph without sinks is strongly graded; the bounded search could not
    # see it at size bound 0, nor at 1 when S_-1 S_1 needs paths out of a
    # source, and printed an at-bound failure instead
    graphs = {"span": graph_span(), "loop": graph_loop(),
              "source_loop": Graph(["s", "v"], [("x", "s", "v"), ("e", "v", "v")]),
              "source_cycle3": Graph(["s", "a", "b", "c"],
                                     [("x", "s", "a"), ("p", "a", "b"),
                                      ("q", "b", "c"), ("r", "c", "a")])}
    spec = leavitt(graphs[name], 2)
    strong = _rows(classify(spec, 3, bound), "strong")
    assert strong == ["property=strong degree=* verdict=holds-exactly witness=no-sinks=yes",
                      "strong holds-exactly"]
    assert _rows(classify(_search_only(spec), 3, bound), "strong") == [
        f"property=strong degree=* verdict=fails witness=1 not reached in {side} "
        "at-bound no-sinks=yes",
        f"strong fails (1 not reached in {side} at-bound)"]


@st.composite
def path_algebra_specs(draw, acyclic):
    """A Leavitt or relative Cohn spec: a graph on one to four vertices
    with up to five edges (each from a lower to a higher vertex when
    acyclic), a random X in Reg(E), over Z/2..Z/6."""
    vertices = ["u", "v", "w", "z"][:draw(st.integers(1, 4))]
    pairs = [(a, b) for i, a in enumerate(vertices) for j, b in enumerate(vertices)
             if i < j or not acyclic]
    ends = draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
    graph = Graph(vertices, [(name, a, b) for name, (a, b) in zip("abcde", ends)])
    x = [v for v in graph.regular if draw(st.booleans())]
    return AlgebraSpec(graph, ModularRing(draw(st.integers(2, 6))), x)


@given(path_algebra_specs(acyclic=True))
def test_closed_form_classify_matches_the_span_search_on_acyclic_graphs(spec):
    # at a bound covering the longest path every component is spanned, the
    # search's answers are exact, and an epsilon is unique in S_d S_-d: so
    # the certified report must be the search's, epsilon table included
    bound = longest_path_length(spec.graph)
    assert classify(_search_only(spec), bound, bound).to_text() == \
        _per_degree(classify(spec, bound, bound), spec)


@given(path_algebra_specs(acyclic=False))
def test_closed_form_epsilons_pass_the_bounded_unit_checks(spec):
    # the equations the bounded search asks of its epsilon, on every graph
    oracle = PathAlgebraOracle(spec)
    for d in range(-2, 3):
        eps = epsilon_element(spec, d)
        assert all(eps * s == s for s in oracle.spanning(d, 2)), d
        assert all(t * eps == t for t in oracle.spanning(-d, 2)), d


@given(path_algebra_specs(acyclic=False), st.integers(0, 3))
def test_has_spanning_answers_as_listing_does(spec, bound):
    # read from path counts, on graphs with sinks, sources and cycles and
    # any X: the bounded S_d has a reduced monomial iff a path of length
    # |d| <= bound exists, which listing the monomials confirms
    oracle = PathAlgebraOracle(spec)
    for d in range(-bound - 1, bound + 2):
        assert oracle.has_spanning(d, bound) == \
            bool(reduced_monomials(spec, degree=d, max_len=bound)), d


@pytest.mark.parametrize("ring", [table_z2xz2(), table_upper_z2()],
                         ids=["table_z2xz2", "table_upper_z2"])
def test_table_ring_classify_completes_from_certificates(ring):
    # the certified rows need no solve; the span search over a table ring
    # solves in additive coordinates, with no cap, and gives the same report
    spec = AlgebraSpec.leavitt(graph_rose2(), ring)
    certified = classify(spec, 2, 2)
    assert [(name, v.status) for name, v in certified.summary] == [
        ("strong", "holds-exactly"), ("epsilon-strong", "holds-at-bound"),
        ("nearly-epsilon", "holds-at-bound"), ("symmetric", "holds-at-bound")]
    assert classify(_search_only(spec), 2, 2).to_text() == _per_degree(certified, spec)


def test_table_ring_strong_row_fails_at_a_sink():
    # w.S_1 = 0 at the sink w, so 1 is not in S_1 S_-1 at any bound; over a
    # table ring the span search decides it by elimination, with no cap
    graph = Graph(["u", "v", "w"], [("a", "u", "v"), ("b", "u", "w"),
                                    ("c", "u", "u"), ("d", "u", "v")])
    report = classify(AlgebraSpec.leavitt(graph, table_z2xz2()), 2, 2)
    assert report.rows[0].to_text() == (
        "property=strong degree=* verdict=fails "
        "witness=1 not reached in S_1 S_-1 at-bound no-sinks=no")


# conjugation by [[1, 1], [0, 1]], the other automorphism of table_upper_z2
UPPER_CONJUGATION = {0: 0, 1: 3, 2: 2, 3: 1, 4: 6, 5: 5, 6: 4, 7: 7}


@pytest.mark.parametrize("alpha", [{x: x for x in range(8)}, UPPER_CONJUGATION],
                         ids=["identity", "conjugation"])
def test_upper_triangular_corner_classify_holds_exactly(alpha):
    # t^d t^-d = 1 = t5 at every degree, and over a finite ring 1 is the only
    # unit of S_d; the twist does not change that
    ring = table_upper_z2()
    report = classify(CslOracle(CslAlgebra(ring, ring.one, alpha)), 2, 2)
    assert {row.verdict.status for row in report.rows} == {"holds-exactly"}
    assert report.eps_table == tuple((d, "t5") for d in range(-2, 3))


def test_leavitt_classify_reads_certificates(monkeypatch):
    # no product list is formed and no unit is built by local_unit_left,
    # with or without a sink; once the epsilons are formed, the
    # nearly-epsilon and symmetric rows read them and multiply nothing
    lefts, products, muls = [], [], []
    real_left, real_products = regularity.local_unit_left, GradedRingOracle.products
    real_mul = AlgebraElement.__mul__
    monkeypatch.setattr(regularity, "local_unit_left",
                        lambda x: lefts.append(x) or real_left(x))
    monkeypatch.setattr(GradedRingOracle, "products",
                        lambda oracle, xs, ys: products.append(1) or real_products(oracle, xs, ys))
    monkeypatch.setattr(AlgebraElement, "__mul__",
                        lambda x, y: muls.append(1) or real_mul(x, y))
    for make in (graph_span, graph_toeplitz):
        oracle = PathAlgebraOracle(leavitt(make(), 2))
        assert classify(oracle, 3, 3).verdict("symmetric").holds
        muls.clear()
        assert check_nearly_epsilon(oracle, 3, 3)[0].holds
        assert check_symmetric(oracle, 3, 3)[0].holds
        assert muls == lefts == products == []


# -- epsilon strong -----------------------------------------------------------------


def test_epsilon_strong_matrix_table_z2(z2):
    mo = MatrixGradingOracle(z2)
    verdict, _, table = check_epsilon_strong(mo, 3, 3)
    assert verdict.status == "holds-exactly"
    got = dict(table)
    assert got[1] == mo.format(mo.unit(0, 0))
    assert got[-1] == mo.format(mo.unit(1, 1))
    assert got[0] == mo.format(mo.identity())
    for d in (-3, -2, 2, 3):
        assert got[d] == "0"


MATRIX_Z6_CLASSIFY = """\
oracle=M2(Z/6)-graded
property=strong degree=* verdict=fails witness=1 not reached in S_1 S_-1
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
epsilon degree=-1 element=[0,0;0,1]
epsilon degree=0 element=[1,0;0,1]
epsilon degree=1 element=[1,0;0,0]
epsilon degree=2 element=0"""


def test_classify_matrix_oracle_z6_pinned():
    # the generic per-degree solver's epsilon table, pinned byte for byte
    assert classify(MatrixGradingOracle(ModularRing(6)), 2, 2).to_text() == MATRIX_Z6_CLASSIFY


def test_matrix_oracle_component_products(z2):
    # S_1 S_-1 spans the upper-left corner, S_-1 S_1 the lower-right
    mo = MatrixGradingOracle(z2)
    up = mo.mul(mo.unit(0, 1), mo.unit(1, 0))
    down = mo.mul(mo.unit(1, 0), mo.unit(0, 1))
    assert up == mo.unit(0, 0)
    assert down == mo.unit(1, 1)


def test_epsilon_strong_leavitt_vw(z2):
    verdict, _, table = check_epsilon_strong(PathAlgebraOracle(leavitt(graph_vw(), 2)), 2, 2)
    assert verdict.holds
    assert dict(table)[1] == "v"  # ff* reduces to v


def test_epsilon_generic_solver_agrees_with_closed_form(z2):
    # dual route: the generic per-degree solver must find epsilons matching
    # the closed-form construction on a finite-dimensional instance
    spec = leavitt(graph_vw(), 2)
    oracle = PathAlgebraOracle(spec)
    verdict, _, table = check_epsilon_strong(_GenericView(oracle), 1, 1)
    assert verdict.holds
    got = dict(table)
    assert got[1] == format_element(epsilon_element(spec, 1))
    assert got[0] == format_element(epsilon_element(spec, 0))
    # the degree -1 entry is f*f = w, left-uniting S_-1 and right-uniting S_1
    assert got[-1] == format_element(epsilon_element(spec, -1)) == "w"


def test_epsilon_strong_fails_nonunital_fixture():
    oracle = TrivialGradingOracle(zero_multiplication_ring(2))
    verdict, _, _ = check_epsilon_strong(oracle, 1, 2)
    assert verdict.status == "fails"
    assert "degree 0" in verdict.witness


@pytest.mark.parametrize("oracle", [MatrixGradingOracle, PolynomialOracle])
def test_unital_oracles_refuse_a_ring_without_identity(oracle):
    # their spanning elements are built from the ring's one; the trivial
    # grading keeps accepting the ring (see test_epsilon_strong_fails_nonunital_fixture)
    with pytest.raises(GralError) as exc:
        oracle(zero_multiplication_ring(2))
    assert str(exc.value).endswith("needs a unital ring; table(2) has no identity")


# -- nearly epsilon strong -------------------------------------------------------------


def test_nearly_leavitt_any_ring():
    for n in (2, 4, 6):
        verdict, _ = check_nearly_epsilon(leavitt(graph_toeplitz(), n), 2, 2)
        assert verdict.holds


def test_nearly_from_witness_units(z2):
    lau = CslAlgebra(z2, 1, {0: 0, 1: 1})
    verdict, _ = check_nearly_epsilon(CslOracle(lau), 2, 2)
    assert verdict.holds


def test_nearly_polynomial_fails(z2):
    verdict, rows = check_nearly_epsilon(PolynomialOracle(z2), 2, 2)
    assert verdict.status == "fails"
    assert [r.to_text() for r in rows] == [
        "property=nearly-epsilon degree=0 verdict=holds-exactly",
        "property=nearly-epsilon degree=1 verdict=fails witness=no left unit for x",
        "property=nearly-epsilon degree=2 verdict=fails witness=no left unit for x^2"]


SWAP_CORNER_CLASSIFY = """\
oracle=Z/2 x Z/2[t+,t-;twisted]
property=strong degree=* verdict=holds-exactly
property=epsilon-strong degree=-2 verdict=holds-exactly
property=epsilon-strong degree=-1 verdict=holds-exactly
property=epsilon-strong degree=0 verdict=holds-exactly
property=epsilon-strong degree=1 verdict=holds-exactly
property=epsilon-strong degree=2 verdict=holds-exactly
property=nearly-epsilon degree=-2 verdict=holds-exactly
property=nearly-epsilon degree=-1 verdict=holds-exactly
property=nearly-epsilon degree=0 verdict=holds-exactly
property=nearly-epsilon degree=1 verdict=holds-exactly
property=nearly-epsilon degree=2 verdict=holds-exactly
property=symmetric degree=-2 verdict=holds-exactly
property=symmetric degree=-1 verdict=holds-exactly
property=symmetric degree=0 verdict=holds-exactly
property=symmetric degree=1 verdict=holds-exactly
property=symmetric degree=2 verdict=holds-exactly
summary property=strong verdict=holds-exactly
summary property=epsilon-strong verdict=holds-exactly
summary property=nearly-epsilon verdict=holds-exactly
summary property=symmetric verdict=holds-exactly
epsilon degree=-2 element=(1,1)
epsilon degree=-1 element=(1,1)
epsilon degree=0 element=(1,1)
epsilon degree=1 element=(1,1)
epsilon degree=2 element=(1,1)"""


def test_classify_swap_corner_pinned():
    assert classify(CslOracle(swap_algebra()), 2, 2).to_text() == SWAP_CORNER_CLASSIFY


def solve_epsilon(oracle, products, span_d, span_md):
    """A combination of the products that is a left unit on span_d and a
    right unit on span_md, as check_epsilon_strong asks for it."""
    mul = oracle.mul
    return gradedstruct.solve_combination(
        oracle, products, [(s, lambda u, s=s: mul(u, s)) for s in span_d] +
        [(t, lambda u, t=t: mul(t, u)) for t in span_md])


def test_solve_epsilon_units_checked_on_swap_algebra():
    # the twist keeps coordinates from being left-linear: the linear answer
    # for t- on the left (and t+ on the right) is 0, which is no unit, so
    # the search must go on to the additive closure and find a real one
    oracle = CslOracle(swap_algebra())
    for d in range(-2, 3):
        span_d, span_md = oracle.spanning(d, 2), oracle.spanning(-d, 2)
        left = oracle.products(span_d, span_md)
        right = oracle.products(span_md, span_d)
        for s in span_d:
            eps = solve_epsilon(oracle, left, [s], [])
            assert eps is not None and eps * s == s, (d, format_csl(s))
            eps = solve_epsilon(oracle, right, [], [s])
            assert eps is not None and s * eps == s, (d, format_csl(s))


def additive_closure(oracle, elements):
    """Every sum of the R-multiples r . x of the elements, by closure."""
    seeds = {oracle.scale(r, x) for x in elements for r in oracle.ring.elements()}
    closure = frontier = {oracle.scale(oracle.ring.zero, elements[0])}
    while frontier:
        frontier = {oracle.add(a, b) for a in frontier for b in seeds} - closure
        closure |= frontier
    return closure


@st.composite
def membership_questions(draw):
    """(oracle, elements, target): the trivial grading or M2 of a table
    ring, or the swap or identity corner with elements that are sums of
    one or two components of degrees -1 to 1; one to three elements and a
    target, any of them possibly zero."""
    kind = draw(st.sampled_from(["trivial", "m2", "swap", "identity"]))
    if kind in ("swap", "identity"):
        algebra = swap_algebra() if kind == "swap" else \
            CslAlgebra(ModularRing(4), 1, {i: i for i in range(4)})
        oracle = CslOracle(algebra)
        component = st.sampled_from([x for d in (-1, 0, 1)
                                     for x in algebra.component_elements(d)])
        element = st.builds(lambda x, y: x + y, component, component)
    else:
        ring = draw(st.sampled_from([table_z2xz2(), table_upper_z2()]))
        entry = st.sampled_from(ring.elements())
        if kind == "trivial":
            oracle, element = TrivialGradingOracle(ring), entry
        else:
            row = st.tuples(entry, entry)
            oracle, element = MatrixGradingOracle(ring), st.tuples(row, row)
    return oracle, draw(st.lists(element, min_size=1, max_size=3)), draw(element)


@given(membership_questions())
def test_span_solve_is_none_exactly_outside_the_closure(question):
    # membership goes through the same solver as the units: the answer is
    # the target itself, and None means it is no sum of R-multiples
    oracle, elements, target = question
    got = oracle.span_solve(target, elements)
    assert (got is None) == (target not in additive_closure(oracle, elements))
    assert got is None or got == target


def test_span_solve_searches_the_closure_after_an_empty_linear_answer():
    # r.x = r t+ + alpha^-1(r) t-, so the coordinates of x do not scale
    # with r: no r solves the linear system for (1,0) t+, yet (1,0).x is it
    algebra = swap_algebra()
    x = algebra.element({1: (1, 0), -1: (1, 0)})
    target = algebra.element({1: (1, 0)})
    assert CslOracle(algebra).span_solve(target, [x]) == target


@st.composite
def epsilon_questions(draw):
    """(oracle, products, span_d, span_md) over a table ring: the trivial
    grading or M2 of the ring, with one to three products and up to two
    elements on each side, any of them possibly zero."""
    ring = draw(st.sampled_from([table_z2xz2(), table_upper_z2()]))
    entry = st.sampled_from(ring.elements())
    if draw(st.booleans()):
        oracle, element = TrivialGradingOracle(ring), entry
    else:
        row = st.tuples(entry, entry)
        oracle, element = MatrixGradingOracle(ring), st.tuples(row, row)
    products = draw(st.lists(element, min_size=1, max_size=3, unique=True))
    return oracle, products, draw(st.lists(element, max_size=2)), \
        draw(st.lists(element, max_size=2))


@given(epsilon_questions())
def test_solve_epsilon_is_none_exactly_without_a_unit_in_the_closure(question):
    # the differential reference: the additive closure of the products'
    # R-multiples, searched for a unit element by element
    oracle, products, span_d, span_md = question

    def is_unit(eps):
        return all(oracle.mul(eps, s) == s for s in span_d) and \
            all(oracle.mul(t, eps) == t for t in span_md)
    eps = solve_epsilon(oracle, products, span_d, span_md)
    closure = additive_closure(oracle, products)
    assert (eps is None) == (not any(map(is_unit, closure)))
    assert eps is None or (is_unit(eps) and eps in closure)


def test_solve_epsilon_units_checked_over_noncommutative_ring():
    # over upper-triangular matrices the coordinates of t.(c.p) are not
    # c times those of t.p, so the linear answer can miss t.eps = t, and
    # its absence proves nothing: None must mean that no element of the
    # products' additive closure is a unit
    ring = table_upper_z2()
    oracle = TrivialGradingOracle(ring)
    nonzero = [x for x in ring.elements() if x != ring.zero]
    outcomes = set()
    for products in itertools.permutations(nonzero, 2):
        closure = additive_closure(oracle, products)
        for t in nonzero:
            for left, right, is_unit in (
                    ([t], [], lambda eps: ring.mul(eps, t) == t),
                    ([], [t], lambda eps: ring.mul(t, eps) == t)):
                eps = solve_epsilon(oracle, list(products), left, right)
                if eps is None:
                    assert not any(map(is_unit, closure)), (products, t, left)
                else:
                    assert is_unit(eps), (products, t, left)
                outcomes.add(eps is None)
    assert outcomes == {True, False}


def test_nearly_cohn_by_transport(z2):
    verdict, _ = check_nearly_epsilon(
        PathAlgebraOracle(AlgebraSpec(graph_vw(), z2, [])), 2, 2)
    assert verdict.holds


def test_nearly_cohn_cyclic(z4):
    verdict, _ = check_nearly_epsilon(
        PathAlgebraOracle(AlgebraSpec(graph_loop(), z4, [])), 2, 2)
    assert verdict.holds


def test_cohn_classify_builds_no_phi(z2, monkeypatch):
    # every unit of a relative Cohn classify comes from x x* x = x in the
    # Cohn algebra itself: neither phi nor psi is built or applied
    calls = []
    for owner in (morphisms, regularity):
        for name in ("cohn_isomorphism", "cohn_to_leavitt", "cohn_inverse",
                     "hom_apply", "hom_apply_all"):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, lambda *args, name=name: calls.append(name))
    for make in (graph_vw, graph_span, graph_toeplitz):
        report = classify(AlgebraSpec(make(), z2, []), 2, 2)
        assert report.verdict("nearly-epsilon").holds
        assert report.verdict("symmetric").holds
    assert calls == []


def test_nearly_products_formed_once_per_degree(monkeypatch):
    # without epsilons each element is decided by the bounded search, which
    # shares one S_d S_-d and one S_-d S_d list per degree
    spec = AlgebraSpec(graph_vw(), ModularRing(2), [])
    calls = []
    real = GradedRingOracle.products
    monkeypatch.setattr(GradedRingOracle, "products",
                        lambda oracle, xs, ys: calls.append(1) or real(oracle, xs, ys))
    verdict, rows = check_nearly_epsilon(_NoEpsilonView(PathAlgebraOracle(spec)), 2, 2)
    assert verdict.holds
    assert len(rows) == 3 and len(calls) == 2 * len(rows)


def _raise_internal(real):
    def planted(*args, **kwargs):
        raise InternalVerificationFailure("planted")
    return planted


def _short_epsilon_companion(real):
    # a path into v one edge shorter than asked for: the factor pair of
    # eps_-n gets degrees 1 - n and n - 1
    def path_into(graph, counts, v, length):
        p = real(graph, counts, v, length)
        return graph.make_path(p.edges[1:]) if length > 1 else graph.vertex_path(v)
    return path_into


class _FirstOutEdge:
    """A graph that shows only the first out-edge of each vertex."""

    def __init__(self, graph):
        self.graph = graph

    def __getattr__(self, name):
        return getattr(self.graph, name)

    def out_edges(self, v):
        return self.graph.out_edges(v)[:1]


def _first_out_edge_only(real):
    # the epsilon walk along the first out-edge of each path: the branches
    # under the others go missing, yet eps q = q holds on every kept q;
    # eps_1, formed first, keeps d but not b, both edges into w
    return lambda graph, n, table: real(_FirstOutEdge(graph), n, table)


# a source s with two out-edges into loops: M_1 expands s into a and b
SOURCE_TWO_LOOPS = Graph(["s", "v", "w"], [("a", "s", "v"), ("b", "s", "w"),
                                           ("c", "v", "v"), ("d", "w", "w")])


def _dropped_strong_pair(real):
    # the last factor pair of eps_-1 goes missing
    def pairs(spec, paths):
        out = real(spec, paths)
        return out[:-1] if out and out[0][0].degree() < 0 else out
    return pairs


def _swapped_strong_pair(real):
    # the factor pairs of eps_1 with their sides swapped
    def pairs(spec, paths):
        out = real(spec, paths)
        return [(b, a) for a, b in out] if out and out[0][0].degree() > 0 else out
    return pairs


def _eps_one_not_one(real):
    # eps_1 = 0 on a graph without sinks: the strong row would fail
    def epsilon(spec, n):
        return AlgebraElement.zero(spec) if n == 1 else real(spec, n)
    return epsilon


@pytest.mark.parametrize("owner, name, plant, spec, message", [
    (gradedstruct, "_path_into", _short_epsilon_companion,
     AlgebraSpec(graph_rose2(), ModularRing(2), []),
     "epsilon_-1 factor pair has the wrong degree"),
    (gradedstruct, "epsilon_element", _eps_one_not_one,
     AlgebraSpec.leavitt(graph_rose2(), ModularRing(2)),
     "^the strong row disagrees with Hazrat's criterion$"),
    (gradedstruct, "check_strong_Z", _raise_internal,
     AlgebraSpec.leavitt(graph_vw(), ModularRing(2)), "planted"),
    (gradedstruct, "_factor_pairs", _dropped_strong_pair,
     AlgebraSpec.leavitt(graph_rose2(), ModularRing(2)),
     "^epsilon_-1 is not the sum of its factor pairs$"),
    (gradedstruct, "_factor_pairs", _swapped_strong_pair,
     AlgebraSpec.leavitt(graph_rose2(), ModularRing(2)),
     "^epsilon_1 factor pair has the wrong degree$"),
    (gradedstruct, "_epsilon_paths", _first_out_edge_only,
     AlgebraSpec(SOURCE_TWO_LOOPS, ModularRing(2), []),
     "^epsilon_1 lists 1 of the 2 paths of length 1 into w$"),
], ids=["epsilon_companion_short",
        "hazrat_cross_check",
        "check_strong_Z", "strong_pair_dropped", "strong_pair_wrong_degree",
        "epsilon_first_out_edge_only"])
def test_classify_reraises_internal_failures(monkeypatch, tmp_path, capsys,
                                             owner, name, plant, spec, message):
    # a failed self-check is a bug, not a refusal or a fallback: classify
    # raises it and lpa classify exits 3 with one line
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    with pytest.raises(InternalVerificationFailure, match=message):
        classify(spec, 1, 1)
    graph, ring = tmp_path / "graph.json", tmp_path / "ring.json"
    graph.write_text(json.dumps(graph_to_dict(CohnPair(spec.graph, spec.x))))
    ring.write_text(json.dumps(ring_spec(spec.ring)))
    code = main(["lpa", "classify", "--graph", str(graph), "--ring", str(ring),
                 "--degree-bound", "1", "--size-bound", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: InternalVerificationFailure: ")
    assert err.count("\n") == 1


# -- homogeneous local units -------------------------------------------------------------


def test_local_units_examples(z2):
    rep = homogeneous_local_units(leavitt(graph_vw(), 2))
    assert [format_element(u) for u in rep.units] == ["v", "w"]
    assert format_element(rep.total) == "v + w"
    rep1 = homogeneous_local_units(leavitt(graph_a1(), 2))
    assert len(rep1.units) == 1
    repn = homogeneous_local_units(leavitt(graph_null(), 2))
    assert repn.units == () and repn.total.is_zero


# -- radical and semiprimeness ------------------------------------------------------------


def test_radical_a1_z2():
    rep = jacobson_radical_algebra(leavitt(graph_a1(), 2))
    assert rep.size == 1 and rep.generators == ()


def test_radical_a1_z4():
    rep = jacobson_radical_algebra(leavitt(graph_a1(), 4))
    assert rep.size == 2
    assert [format_element(g) for g in rep.generators] == ["2*v"]


def test_radical_vw_z2_trivial():
    # Leavitt basis of v->w is {v, w, f, f*}; ff* collapses to v
    rep = jacobson_radical_algebra(leavitt(graph_vw(), 2))
    assert rep.size == 1 and rep.dimension == 4


def test_radical_needs_acyclic():
    with pytest.raises(GralError):
        jacobson_radical_algebra(leavitt(graph_loop(), 2))


def test_semiprime_graded_examples():
    verdict = is_semiprime_graded(leavitt(graph_a1(), 4), 2, 2)
    assert verdict.status == "fails" and "2*v" in verdict.witness
    for spec in (leavitt(graph_vw(), 6), leavitt(graph_loop(), 2),
                 leavitt(graph_a1(), 3)):
        assert is_semiprime_graded(spec, 3, 3).holds


def test_prop_semiprimitive_pipeline():
    # graded-vnr + homogeneous local units => radical 0, on finite instances
    for make, n in ((graph_a1, 2), (graph_a1, 3), (graph_vw, 2)):
        spec = leavitt(make(), n)
        assert graded_vnr_verdict(spec, 2, 2, samples=10, seed=0).regular
        homogeneous_local_units(spec)
        assert jacobson_radical_algebra(spec).size == 1


# -- classification and coherence ---------------------------------------------------------


CHAIN = ("strong", "epsilon-strong", "nearly-epsilon", "symmetric")


def chain_consistent(report):
    holds = [report.verdict(p).holds for p in CHAIN]
    return all(not a or b for a, b in zip(holds, holds[1:]))


def test_remark_chain_on_corpus():
    corpus = []
    for name, make in SIX_GRAPHS.items():
        for n in (2, 4):
            corpus.append(classify(leavitt(make(), n), 2, 2))
    corpus.append(classify(MatrixGradingOracle(ModularRing(2)), 2, 2))
    corpus.append(classify(PolynomialOracle(ModularRing(2)), 2, 2))
    corpus.append(classify(TrivialGradingOracle(zero_multiplication_ring(2)), 2, 2))
    lau = CslAlgebra(ModularRing(2), 1, {0: 0, 1: 1})
    corpus.append(classify(CslOracle(lau), 2, 2))
    for report in corpus:
        assert chain_consistent(report), report.oracle_name


def test_example_symmetric_but_not_vnr():
    spec = leavitt(graph_a1(), 4)
    report = classify(spec, 2, 2)
    assert report.verdict("symmetric").holds
    vnr_report = graded_vnr_verdict(spec, 2, 2, samples=10, seed=0)
    assert vnr_report.overall == "counterexample-found"


def test_characterization_coherence():
    # graded-vnr == nearly epsilon-strong AND vnr coefficient ring
    for make in (graph_a1, graph_vw, graph_toeplitz):
        for n in (2, 3, 4, 6):
            spec = leavitt(make(), n)
            nearly, _ = check_nearly_epsilon(spec, 2, 2)
            regular = graded_vnr_verdict(spec, 2, 2, samples=15, seed=1).regular
            assert regular == (nearly.holds and is_vnr(spec.ring))


def test_report_text_lines():
    report = classify(leavitt(graph_a1(), 4), 1, 1)
    lines = report.to_text().splitlines()
    assert lines[0].startswith("oracle=")
    assert any(line.startswith("property=strong") for line in lines)
    assert any(line.startswith("summary property=symmetric") for line in lines)
