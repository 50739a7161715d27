"""Cohn functor, Cohn-to-Leavitt isomorphism, chain verification."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (graph_a1, graph_loop, graph_rose2, graph_span, graph_toeplitz,
                      graph_vw, graph_vwu, random_element, small_graphs)
from gral import coeffring
from gral.coeffring import ModularRing, SpanSolver
from gral.errors import GralError, RelationViolation
from gral.graphs import CohnPair, Graph, GraphMorphism
from gral.morphisms import (AlgebraHom, IsoRow, IsoVerdict, _homs_agree,
                            cohn_isomorphism,
                            cohn_to_leavitt, compose_homs, hom_apply,
                            hom_apply_all, identity_hom, induced_hom,
                            verify_graded_iso)
from gral.pathalg import (AlgebraElement, AlgebraSpec, edge_element,
                          format_element, monomial_element, reduced_monomials,
                          vertex_element, word_element)
from reference import chain_colimit_check, compose_morphisms, is_homogeneous


def inclusion_a1_vw(ring):
    return GraphMorphism.make(CohnPair(graph_a1(), frozenset()),
                              CohnPair(graph_vw(), frozenset({"v"})),
                              {"v": "v"}, {})


def inclusion_vw_vwu(ring):
    return GraphMorphism.make(CohnPair(graph_vw(), frozenset({"v"})),
                              CohnPair(graph_vwu(), frozenset({"v", "w"})),
                              {"v": "v", "w": "w"}, {"f": "f"})


# -- induced homs ---------------------------------------------------------------


def test_induced_hom_inclusion(z2):
    h = induced_hom(inclusion_a1_vw(z2), z2)
    assert format_element(h.vertex_image("v")) == "v"


def test_induced_hom_identity(z2):
    spec = AlgebraSpec.leavitt(graph_vw(), z2)
    pair = CohnPair(graph_vw(), None)
    ident = GraphMorphism.make(pair, pair,
                               {v: v for v in graph_vw().vertices}, {"f": "f"})
    h = induced_hom(ident, z2)
    assert h.vmap == identity_hom(spec).vmap
    assert h.emap == identity_hom(spec).emap


def test_induced_hom_rejects_invalid(z2):
    vw = graph_vw()
    collapse = GraphMorphism.make(CohnPair(vw, frozenset()), CohnPair(vw, frozenset()),
                                  {"v": "v", "w": "v"}, {"f": "f"})
    with pytest.raises(GralError):
        induced_hom(collapse, z2)


def test_hom_validation_catches_broken_images(z2):
    spec = AlgebraSpec.leavitt(graph_vw(), z2)
    with pytest.raises(RelationViolation) as err:
        AlgebraHom.make(spec, spec,
                        {"v": vertex_element(spec, "v"),
                         "w": vertex_element(spec, "v")},
                        {"f": edge_element(spec, "f")})
    assert err.value.relation in ("(i)", "(ii)", "(iii)", "(iv)", "(v)")


# -- hom_apply --------------------------------------------------------------------


def test_hom_apply_identity_and_laws(z6):
    spec = AlgebraSpec.leavitt(graph_loop(), z6)
    h = identity_hom(spec)
    rng = random.Random(61)
    for _ in range(100):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        assert hom_apply(h, x) == x
        assert hom_apply(h, x * y) == hom_apply(h, x) * hom_apply(h, y)
        assert hom_apply(h, x + y) == hom_apply(h, x) + hom_apply(h, y)


def substituted(h, x):
    """h(x) term by term, every path image multiplied out afresh."""
    vmap, emap, gmap = dict(h.vmap), dict(h.emap), dict(h.gmap)
    out = AlgebraElement.zero(h.target)
    for m, c in x.terms.items():
        real = vmap[m.alpha.src]
        for name in m.alpha.edges:
            real = real * emap[name]
        ghost = vmap[m.beta.src]
        for name in m.beta.edges:
            ghost = gmap[name] * ghost
        out = out + (real * ghost).scale(c)
    return out


@pytest.mark.parametrize("make", [graph_rose2, graph_span])
def test_batched_hom_apply_matches_each_element(make, z4):
    # one batch shares its path images across elements: the same images as
    # one element at a time and as substituting generators afresh
    spec = AlgebraSpec(make(), z4, [])
    rng = random.Random(97)
    for h in cohn_isomorphism(spec):
        xs = [random_element(h.source, rng, max_len=3) for _ in range(25)]
        batch = hom_apply_all(h, xs)
        assert batch == [hom_apply(h, x) for x in xs] == [substituted(h, x) for x in xs]
        assert hom_apply_all(h, []) == []


def test_hom_apply_preserves_degree(z2):
    phi = cohn_to_leavitt(CohnPair(graph_loop(), frozenset()), z2)
    rng = random.Random(67)
    for _ in range(60):
        d = rng.randint(-2, 2)
        x = random_element(AlgebraSpec(graph_loop(), z2, []), rng, degree=d)
        if x.is_zero:
            continue
        assert hom_apply(phi, x).degree() == d


# -- cohn to leavitt -----------------------------------------------------------------


def test_cohn_to_leavitt_images(z2):
    phi = cohn_to_leavitt(CohnPair(graph_vw(), frozenset()), z2)
    assert format_element(phi.vertex_image("v")) == "v + v'"
    assert format_element(phi.edge_image("f")) == "f"
    phi_loop = cohn_to_leavitt(CohnPair(graph_loop(), frozenset()), z2)
    assert format_element(phi_loop.edge_image("e")) == "e + e'"


def test_cohn_to_leavitt_identity_when_x_regular(z2):
    phi = cohn_to_leavitt(CohnPair(graph_vw(), None), z2)
    assert format_element(phi.vertex_image("v")) == "v"
    assert phi.source.graph == phi.target.graph


def test_relation_v_images_vanish(z2):
    # at X-vertices the relation (v) sum maps to zero in the target
    phi = cohn_to_leavitt(CohnPair(graph_vwu(), frozenset({"v"})), z2)
    src = phi.source
    lhs = phi.vertex_image("v")
    rhs = hom_apply(phi, word_element(src, ["f", "f*"]))
    assert lhs == rhs


# -- graded isomorphism ----------------------------------------------------------------


def test_iso_vw_rank_five(z2):
    phi = cohn_to_leavitt(CohnPair(graph_vw(), frozenset()), z2)
    verdict = verify_graded_iso(phi, 2, 2)
    assert verdict.status == "holds-exactly"
    assert verdict.total_source_rank() == 5
    assert verdict.total_target_rank() == 5


def test_iso_identity(z2):
    spec = AlgebraSpec.leavitt(graph_vwu(), z2)
    assert verify_graded_iso(identity_hom(spec), 2, 3).holds


def test_iso_over_zero_divisors():
    phi = cohn_to_leavitt(CohnPair(graph_vw(), frozenset()), ModularRing(4))
    assert verify_graded_iso(phi, 2, 2).holds


def test_iso_broken_inclusion_fails(z2):
    h = induced_hom(inclusion_a1_vw(z2), z2)
    verdict = verify_graded_iso(h, 1, 1)
    assert verdict.status == "fails"
    assert "unhit target element" in verdict.witness


def test_iso_cyclic_at_bound(z2):
    phi = cohn_to_leavitt(CohnPair(graph_loop(), frozenset()), z2)
    verdict = verify_graded_iso(phi, 2, 2)
    assert verdict.status == "holds-at-bound"


def test_iso_span_graph_rows_pinned(z4):
    # the Cohn-to-Leavitt iso of {e: v->w, f: w->v, g: v->v}, X empty, over
    # Z/4 at bounds 2/2: the bounded source reaches length 4, the target 2
    verdict = verify_graded_iso(cohn_to_leavitt(CohnPair(graph_span(), frozenset()), z4), 2, 2)
    ranks = {-2: (52, 10), -1: (87, 19), 0: (143, 33), 1: (87, 19), 2: (52, 10)}
    assert verdict.rows == tuple(IsoRow(d, s, t, "holds-at-bound")
                                 for d, (s, t) in ranks.items())
    assert (verdict.status, verdict.witness) == ("holds-at-bound", "")
    assert (verdict.total_source_rank(), verdict.total_target_rank()) == (421, 91)


@pytest.mark.parametrize("n", [6, 30])
def test_iso_span_graph_over_composite_moduli(n):
    # the same iso over Z/n, n split by CRT into two or three primes, at
    # bounds 3/3: the bounded source reaches length 6, the target 3
    phi = cohn_to_leavitt(CohnPair(graph_span(), frozenset()), ModularRing(n))
    verdict = verify_graded_iso(phi, 3, 3)
    assert (verdict.status, verdict.witness) == ("holds-at-bound", "")
    assert (verdict.total_source_rank(), verdict.total_target_rank()) == (1288, 288)


# (source rank, target rank) at degrees -2..2 of phi : C^X(E) -> L(E(X))
# at bounds 2/2; every graph has a cycle, so every row holds at the bound
COHN_ISO_RANKS = {
    ("span", ()): ((52, 10), (87, 19), (143, 33), (87, 19), (52, 10)),
    ("span", ("v",)): ((39, 7), (64, 11), (104, 19), (64, 11), (39, 7)),
    ("toeplitz", ()): ((6, 3), (8, 5), (10, 7), (8, 5), (6, 3)),
    ("toeplitz", ("u",)): ((4, 2), (5, 3), (6, 4), (5, 3), (4, 2)),
    ("rose2", ()): ((84, 8), (170, 18), (341, 37), (170, 18), (84, 8)),
    ("rose2", ("v",)): ((64, 4), (128, 8), (256, 16), (128, 8), (64, 4)),
}
ISO_GRAPHS = {"span": graph_span, "toeplitz": graph_toeplitz, "rose2": graph_rose2}


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("name, x", list(COHN_ISO_RANKS))
def test_cohn_to_leavitt_iso_verdicts_pinned(name, x, n):
    phi = cohn_to_leavitt(CohnPair(ISO_GRAPHS[name](), frozenset(x)), ModularRing(n))
    assert verify_graded_iso(phi, 2, 2) == IsoVerdict(
        tuple(IsoRow(d, s, t, "holds-at-bound")
              for d, (s, t) in zip(range(-2, 3), COHN_ISO_RANKS[name, x])),
        "holds-at-bound")


def _unhit_hom(ring):
    # A1 -> {f: v->w}, X = {v}: w, f and f* have no preimage
    return induced_hom(inclusion_a1_vw(ring), ring)


def _killing_hom(ring):
    # {v, w} -> {v} with w |-> 0: onto, but w is in the kernel
    source = AlgebraSpec.leavitt(Graph(["v", "w"], []), ring)
    target = AlgebraSpec.leavitt(Graph(["v"], []), ring)
    return AlgebraHom.make(source, target, {"v": vertex_element(target, "v"),
                                            "w": AlgebraElement.zero(target)}, {})


def _failing_verdict(fails, witness):
    """The verdict at bounds 2/2 whose rows fail at the degrees of fails,
    {degree: (source rank, target rank, witness)}, every other row holding
    exactly on empty sets, and whose first failing row is its witness."""
    rows = tuple(IsoRow(d, *fails[d][:2], "fails", fails[d][2]) if d in fails
                 else IsoRow(d, 0, 0, "holds-exactly") for d in range(-2, 3))
    return IsoVerdict(rows, "fails", witness)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_failing_iso_verdicts_pinned(n):
    ring = ModularRing(n)
    assert verify_graded_iso(_unhit_hom(ring), 2, 2) == _failing_verdict(
        {-1: (0, 1, "unhit target element f*"), 0: (1, 2, "unhit target element w"),
         1: (0, 1, "unhit target element f")}, "degree -1: unhit target element f*")
    # over Z/6 the CRT join of the kernel generators w (mod 2) and 0 (mod 3)
    killed = "3*w" if n == 6 else "w"
    assert verify_graded_iso(_killing_hom(ring), 2, 2) == _failing_verdict(
        {0: (2, 1, f"kernel element {killed}")}, f"degree 0: kernel element {killed}")


def test_verify_graded_iso_factors_once_per_degree(monkeypatch):
    # one elimination per degree answers every target basis element of it
    # and gives that degree's kernel
    phi = cohn_to_leavitt(CohnPair(graph_span(), frozenset()), ModularRing(4))
    factored, systems, solved, kernels = [], [], [], []
    real = coeffring._factor

    def counting_factor(ring, constraints, varlist):
        system = real(ring, constraints, varlist)
        factored.append(len(varlist))
        systems.append(system)
        solve, kernel = system.solve, system.kernel
        system.solve = lambda rhs: solved.append(len(rhs)) or solve(rhs)
        system.kernel = lambda: kernels.append(system) or kernel()
        return system

    monkeypatch.setattr(coeffring, "_factor", counting_factor)
    verdict = verify_graded_iso(phi, 1, 1)
    assert verdict.status == "holds-at-bound"
    assert [row.degree for row in verdict.rows] == [-1, 0, 1]
    assert factored == [row.source_rank for row in verdict.rows]
    assert len(solved) == verdict.total_target_rank() > len(factored)
    assert kernels == systems


@pytest.mark.parametrize("n", [2, 4, 6])
def test_iso_non_injective_hom_names_a_kernel_element(n):
    # {v, w} -> {v} with w |-> 0 is onto but kills w
    ring = ModularRing(n)
    source = AlgebraSpec.leavitt(Graph(["v", "w"], []), ring)
    target = AlgebraSpec.leavitt(Graph(["v"], []), ring)
    h = AlgebraHom.make(source, target, {"v": vertex_element(target, "v"),
                                         "w": AlgebraElement.zero(target)}, {})
    verdict = verify_graded_iso(h, 1, 1)
    assert verdict.status == "fails"
    w = vertex_element(source, "w")
    assert verdict.witness in {f"degree 0: kernel element {format_element(w.scale(c))}"
                               for c in range(1, n)}
    if n in (2, 4):
        # over a prime power the kernel generator is w itself
        assert verdict.witness == "degree 0: kernel element w"


def test_hom_preimage_roundtrip(z2):
    # psi(phi(x)) = x on the Cohn side and phi(psi(y)) = y on the Leavitt side
    spec = AlgebraSpec(graph_vw(), z2, [])
    phi, psi = cohn_isomorphism(spec)
    rng = random.Random(71)
    for _ in range(40):
        x = random_element(phi.source, rng, max_len=2)
        assert hom_apply(psi, hom_apply(phi, x)) == x
        y = random_element(phi.target, rng, max_len=2)
        assert hom_apply(phi, hom_apply(psi, y)) == y


@given(small_graphs(), st.data(), st.sampled_from([2, 4, 6]))
def test_cohn_inverse_is_the_inverse_on_generators(graph, data, n):
    # psi validates against the relations of L(E(X)), and both composites
    # are the identity on generators, for every X inside Reg(E)
    regular = sorted(graph.regular)
    x = [v for v in regular if data.draw(st.booleans())]
    spec = AlgebraSpec(graph, ModularRing(n), x)
    phi, psi = cohn_isomorphism(spec)
    psi.validate()
    assert _homs_agree(compose_homs(psi, phi), identity_hom(phi.source)) is None
    assert _homs_agree(compose_homs(phi, psi), identity_hom(phi.target)) is None
    assert cohn_isomorphism(spec) == (phi, psi)


def test_shared_preimages_match_hom_preimage(z4):
    # differential: wherever a linear solve over the bounded source
    # monomials finds a preimage of y, it is psi(y); on these cyclic graphs
    # many targets have a preimage at some of the bounds only
    rng = random.Random(83)
    for make in (graph_toeplitz, graph_span):
        spec = AlgebraSpec(make(), z4, [])
        phi, psi = cohn_isomorphism(spec)
        found = 0
        for _ in range(30):
            y = random_element(phi.target, rng, max_len=2)
            if y.is_zero or not is_homogeneous(y):
                continue
            for bound in (1, 2, 3):
                src = reduced_monomials(spec, degree=y.degree(), max_len=bound)
                solver = SpanSolver(z4, [hom_apply(phi, monomial_element(spec, m)).terms
                                         for m in src])
                sol = solver.solve(y.terms)
                if sol is not None:
                    found += 1
                    assert AlgebraElement.make(
                        spec, {src[i]: c for i, c in sol.items()}) == hom_apply(psi, y)
        assert found > 0


# -- chains ---------------------------------------------------------------------------------


def test_chain_three_objects(z2):
    verdict = chain_colimit_check([inclusion_a1_vw(z2), inclusion_vw_vwu(z2)], z2)
    assert verdict.commutes


def test_chain_single_object(z2):
    assert chain_colimit_check([], z2).commutes


def test_chain_mismatched_composite_named(z2):
    bad = GraphMorphism.make(CohnPair(graph_a1(), frozenset()),
                             CohnPair(graph_vwu(), frozenset({"v", "w"})),
                             {"v": "w"}, {})
    verdict = chain_colimit_check(
        [inclusion_a1_vw(z2), inclusion_vw_vwu(z2)], z2,
        claimed_composites={(0, 2): bad})
    assert not verdict.commutes
    assert "generator v" in verdict.detail


def test_functoriality_on_composites(z6):
    m1, m2 = inclusion_a1_vw(z6), inclusion_vw_vwu(z6)
    h1 = induced_hom(m1, z6)
    h2 = induced_hom(m2, z6)
    direct = induced_hom(compose_morphisms(m2, m1), z6)
    composed = compose_homs(h2, h1)
    assert direct.vmap == composed.vmap
    assert direct.emap == composed.emap
    assert direct.gmap == composed.gmap
