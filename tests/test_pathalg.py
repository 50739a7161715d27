"""Cohn/Leavitt path algebra arithmetic, normal forms and the matricial
decomposition."""

import os
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (SIX_GRAPHS, graph_loop, graph_null, graph_rose2,
                      graph_toeplitz, graph_vw, random_element, random_word,
                      rewrite_in_random_order, small_graphs, table_upper_z2,
                      word_in_random_order)
from gral.coeffring import ModularRing
from gral.errors import (GralError, NotDegreeZero, NotInDn, SearchCapExceeded,
                         SpecMismatch, UnknownGenerator)
from gral.graphs import Graph, Path
from gral.pathalg import (AlgebraElement, AlgebraSpec, BlockStructure,
                          MatricialImage, Monomial, dn_rank,
                          element_from_terms, element_to_terms,
                          filtration_level, format_element, identity_element,
                          matricial_decompose, matricial_lift,
                          monomial_element, normal_form, reduced_monomials,
                          vertex_element, word_element)
from reference import homogeneous_components


def leavitt(graph, n):
    return AlgebraSpec.leavitt(graph, ModularRing(n))


# -- normal form and arithmetic ----------------------------------------------


def test_normal_form_cuntz_krieger(z2):
    spec = AlgebraSpec.leavitt(graph_vw(), z2)
    assert word_element(spec, ["f", "f*"]) == vertex_element(spec, "v")
    assert word_element(spec, ["f*", "f"]) == vertex_element(spec, "w")


def test_normal_form_cohn_keeps_ff_star(z2):
    spec = AlgebraSpec(graph_vw(), z2, [])
    x = word_element(spec, ["f", "f*"])
    assert len(x.terms) == 1
    mono = next(iter(x.terms))
    assert mono.alpha.edges == ("f",) and mono.beta.edges == ("f",)


def test_normal_form_raw_sums(z6):
    spec = AlgebraSpec.leavitt(graph_loop(), z6)
    x = normal_form(spec, [(2, ["e"]), (5, ["e", "e*"]), ["v"]])
    # 5*v + v = 0 mod 6, so only 2*e survives
    assert x == word_element(spec, ["e"], coeff=2)


def test_unknown_generator(z2):
    spec = AlgebraSpec.leavitt(graph_vw(), z2)
    with pytest.raises(UnknownGenerator):
        word_element(spec, ["nope"])


def test_multiply_examples(z2):
    vw = AlgebraSpec.leavitt(graph_vw(), z2)
    f, fs = word_element(vw, ["f"]), word_element(vw, ["f*"])
    assert f * fs == vertex_element(vw, "v")
    assert (f * f).is_zero
    loop = AlgebraSpec.leavitt(graph_loop(), z2)
    e, es = word_element(loop, ["e"]), word_element(loop, ["e*"])
    assert e * (es * e) == e


def test_spec_mismatch(z2, z6):
    a = word_element(AlgebraSpec.leavitt(graph_vw(), z2), ["f"])
    b = word_element(AlgebraSpec.leavitt(graph_vw(), z6), ["f"])
    with pytest.raises(SpecMismatch):
        a * b


def test_equal_specs_multiply_and_different_specs_do_not(z2):
    # equal specs built apart share one algebra; another graph or another
    # X is another algebra (another ring: test_spec_mismatch)
    a = word_element(AlgebraSpec.leavitt(graph_vw(), z2), ["f"])
    b = word_element(AlgebraSpec.leavitt(graph_vw(), ModularRing(2)), ["f*"])
    assert a.spec is not b.spec and a.spec == b.spec
    assert a * b == vertex_element(a.spec, "v")
    assert b * a == vertex_element(b.spec, "w")
    for other in (AlgebraSpec(graph_vw(), z2, []), AlgebraSpec.leavitt(graph_loop(), z2)):
        c = identity_element(other)
        with pytest.raises(SpecMismatch):
            a * c
        with pytest.raises(SpecMismatch):
            c * a


def test_involution_examples(z2):
    spec = AlgebraSpec.leavitt(graph_loop(), z2)
    e = word_element(spec, ["e"])
    assert e.involution() == word_element(spec, ["e*"])
    x = word_element(spec, ["e", "e"]) * word_element(spec, ["e*"])
    assert x.degree() == 1 and x.involution().degree() == -1
    assert x.involution().involution() == x


def test_involution_antimultiplicative(z6):
    spec = AlgebraSpec.leavitt(graph_rose2(), z6)
    rng = random.Random(5)
    for _ in range(200):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        assert (x * y).involution() == y.involution() * x.involution()


def test_homogeneous_components(z2):
    spec = AlgebraSpec.leavitt(graph_loop(), z2)
    x = vertex_element(spec, "v") + word_element(spec, ["e"])
    comps = homogeneous_components(x)
    assert set(comps) == {0, 1}
    assert comps[0] == vertex_element(spec, "v")
    assert comps[1] == word_element(spec, ["e"])
    assert homogeneous_components(AlgebraElement.zero(spec)) == {}
    assert sum(comps.values(), AlgebraElement.zero(spec)) == x


def test_grading_multiplicative(z6):
    spec = AlgebraSpec.leavitt(graph_toeplitz(), z6)
    rng = random.Random(11)
    for _ in range(150):
        d1 = rng.randint(-2, 2)
        d2 = rng.randint(-2, 2)
        x = random_element(spec, rng, degree=d1)
        y = random_element(spec, rng, degree=d2)
        prod = x * y
        if not prod.is_zero:
            assert prod.degree() == d1 + d2


def test_filtration_level_examples(z2):
    loop = AlgebraSpec.leavitt(graph_loop(), z2)
    assert filtration_level(vertex_element(loop, "v")) == 0
    cohn = AlgebraSpec(graph_vw(), z2, [])
    assert filtration_level(word_element(cohn, ["f", "f*"])) == 1
    lpa = AlgebraSpec.leavitt(graph_vw(), z2)
    assert filtration_level(word_element(lpa, ["f", "f*"])) == 0
    rose = AlgebraSpec.leavitt(graph_rose2(), z2)
    efef = word_element(rose, ["e", "f"]) * word_element(rose, ["e", "f"]).involution()
    assert filtration_level(efef) == 2
    with pytest.raises(NotDegreeZero):
        filtration_level(word_element(loop, ["e"]))


# -- confluence and associativity ----------------------------------------------


@pytest.mark.parametrize("graph_name,modulus", [
    ("loop", 4), ("rose2", 6), ("toeplitz", 2), ("vw", 6)])
def test_confluence_two_strategies(graph_name, modulus):
    spec = leavitt(SIX_GRAPHS[graph_name](), modulus)
    rng = random.Random(hash((graph_name, modulus)) & 0xFFFF)
    shuffler = random.Random(999)
    for _ in range(300):
        word = random_word(spec, rng)
        assert word_element(spec, word) == word_in_random_order(spec, word, shuffler)


def test_rewrite_strips_every_shared_special_edge(z3):
    # e is the special edge of the Leavitt rose2: (ee)(ee)* = ee* - ef(ef)*
    # and ee* = v - ff*, so the closed form strips two levels
    spec = AlgebraSpec.leavitt(graph_rose2(), z3)
    g = spec.graph
    ee, fee = g.make_path(["e", "e"]), g.make_path(["f", "e", "e"])
    assert format_element(monomial_element(spec, Monomial(ee, ee))) == \
        "v + 2*ff* + 2*ef(ef)*"
    assert format_element(monomial_element(spec, Monomial(fee, ee))) == \
        "f + 2*fff* + 2*fef(ef)*"


def test_monomial_element_with_zero_coefficient_is_zero(z3):
    # a reducible monomial too: its closed form must not see a zero coefficient
    spec = AlgebraSpec.leavitt(graph_rose2(), z3)
    ee = spec.graph.make_path(["e", "e"])
    for m in (Monomial(ee, ee), reduced_monomials(spec, degree=0, max_len=1)[0]):
        assert monomial_element(spec, m, 0).is_zero


def test_associativity_random(z6):
    spec = AlgebraSpec.leavitt(graph_rose2(), z6)
    rng = random.Random(21)
    for _ in range(200):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        z = random_element(spec, rng)
        assert (x * y) * z == x * (y * z)


def test_distributivity_random(z4):
    spec = AlgebraSpec.leavitt(graph_toeplitz(), z4)
    rng = random.Random(22)
    for _ in range(100):
        x, y, z = (random_element(spec, rng) for _ in range(3))
        assert x * (y + z) == x * y + x * z


# -- kernel properties on random specs -------------------------------------------

KERNEL_RINGS = (ModularRing(4), ModularRing(6), table_upper_z2())


@st.composite
def kernel_specs(draw, leavitt=None):
    """A Leavitt or relative Cohn spec over a random graph of small_graphs
    and Z/4, Z/6 or the upper-triangular 2x2 matrices over Z/2; X is any
    subset of Reg(E), so proper and empty ones occur."""
    graph = draw(small_graphs())
    ring = draw(st.sampled_from(KERNEL_RINGS))
    if leavitt is None:
        leavitt = draw(st.booleans())
    x = None if leavitt else draw(st.sets(st.sampled_from(graph.regular))
                                  if graph.regular else st.just(set()))
    return AlgebraSpec(graph, ring, x)


def kernel_terms(draw, spec, degree=None):
    """Up to four (monomial, nonzero coefficient) pairs, repeats allowed."""
    pool = reduced_monomials(spec, degree=degree, max_len=2)
    nonzero = [c for c in spec.ring.elements() if c != spec.ring.zero]
    if not pool:
        return []
    return draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(nonzero)),
                         max_size=4))


def sum_of_terms(spec, terms):
    acc = AlgebraElement.zero(spec)
    for m, c in terms:
        acc = acc + monomial_element(spec, m, c)
    return acc


@given(st.data())
def test_kernel_products_agree_on_random_specs(data):
    spec = data.draw(kernel_specs())
    x, y, z = (sum_of_terms(spec, kernel_terms(data.draw, spec)) for _ in range(3))
    rnd = data.draw(st.randoms(use_true_random=False))
    xy = x * y
    assert AlgebraElement(spec, rewrite_in_random_order(spec, x.raw_product(y), rnd)) == xy
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == xy + x * z and (x + y) * z == x * z + y * z
    termwise = AlgebraElement.zero(spec)
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            termwise = termwise + monomial_element(spec, m1, c1) * monomial_element(spec, m2, c2)
    assert termwise == xy


@given(st.data())
def test_reduce_matches_one_rewrite_at_a_time_on_random_specs(data):
    # sums of monomials alpha.beta* of lengths <= 2, reducible or not, and
    # of their extensions along up to two special edges on both sides, which
    # the kernel strips in one closed form
    spec = data.draw(kernel_specs())
    g = spec.graph
    paths = [p for n in range(3) for p in g.paths(n)]
    pool = []
    for a in paths:
        for b in paths:
            if a.dst == b.dst:
                pool.append(Monomial(a, b))
                x, y = a, b
                for _ in range(2):
                    if x.dst not in spec.x:
                        break
                    f = g.out_edges(x.dst)[0]
                    x, y = g.extend(x, f), g.extend(y, f)
                    pool.append(Monomial(x, y))
    nonzero = [c for c in spec.ring.elements() if c != spec.ring.zero]
    terms = data.draw(st.dictionaries(st.sampled_from(pool), st.sampled_from(nonzero),
                                      max_size=4))
    rnd = data.draw(st.randoms(use_true_random=False))
    expected = AlgebraElement(spec, rewrite_in_random_order(spec, terms, rnd))
    assert sum_of_terms(spec, terms.items()) == expected


@given(st.data())
def test_kernel_hash_ignores_term_order_and_survives_pickle(data):
    spec = data.draw(kernel_specs())
    terms = kernel_terms(data.draw, spec)
    x = sum_of_terms(spec, terms)
    y = sum_of_terms(spec, data.draw(st.permutations(terms)))
    assert x == y and hash(x) == hash(y)
    for z in (x, y, x * y):
        copy = pickle.loads(pickle.dumps(z))
        assert copy._hash is None  # the hash is never pickled
        assert copy == z and z == copy and hash(copy) == hash(z)
        assert copy.terms == z.terms and list(copy.terms) == list(z.terms)


@given(st.data())
def test_decompose_then_lift_is_the_identity_on_random_specs(data):
    spec = data.draw(kernel_specs(leavitt=True))
    x = sum_of_terms(spec, kernel_terms(data.draw, spec, degree=0))
    n = filtration_level(x) + data.draw(st.integers(0, 1))
    image = matricial_decompose(x, n)
    assert matricial_lift(image) == x
    assert matricial_decompose(matricial_lift(image), n) == image


# -- spanning sets --------------------------------------------------------------


def test_free_span_rank_five(z2):
    spec = AlgebraSpec(graph_vw(), z2, [])
    monos = reduced_monomials(spec, max_len=1)
    assert len(monos) == 5
    names = {spec.monomial_str(m) for m in monos}
    assert names == {"v", "w", "f", "f*", "ff*"}


@given(kernel_specs(), st.integers(0, 3))
def test_one_degree_is_the_filtered_list(spec, max_len):
    # one degree pairs only paths whose lengths differ by it: the same
    # monomials in the same order as filtering the list of every degree
    every = reduced_monomials(spec, max_len=max_len)
    for d in range(-max_len - 1, max_len + 2):
        assert reduced_monomials(spec, degree=d, max_len=max_len) == \
            [m for m in every if m.degree == d]


def test_ghost_path_independence(z6):
    # distinct pure ghost monomials stay distinct basis elements
    spec = AlgebraSpec.leavitt(graph_rose2(), z6)
    ghosts = [m for m in reduced_monomials(spec, max_len=3)
              if not m.alpha.edges and m.beta.edges]
    rng = random.Random(3)
    for _ in range(50):
        picked = rng.sample(ghosts, min(3, len(ghosts)))
        coeffs = [rng.randrange(1, 6) for _ in picked]
        x = AlgebraElement.make(spec, dict(zip(picked, coeffs)))
        assert not x.is_zero
        assert set(x.terms) == set(picked)


# -- matricial decomposition -----------------------------------------------------


def test_decompose_vw_level_one(z2):
    spec = AlgebraSpec.leavitt(graph_vw(), z2)
    x = vertex_element(spec, "v") + vertex_element(spec, "w")
    img = matricial_decompose(x, 1)
    sink = img.block((0, "w"))
    level_w = img.block((1, "w"))
    assert sink == ((1,),) and level_w == ((1,),)
    assert img.block((1, "v")) == ()


def test_decompose_loop_level_two(z2):
    spec = AlgebraSpec.leavitt(graph_loop(), z2)
    img = matricial_decompose(vertex_element(spec, "v"), 2)
    assert img.block((2, "v")) == ((1,),)
    labels = img.structure.labels[(2, "v")]
    assert [p.edges for p in labels] == [("e", "e")]


def test_decompose_lift_roundtrip(z6):
    spec = AlgebraSpec.leavitt(graph_rose2(), z6)
    rng = random.Random(17)
    basis = reduced_monomials(spec, degree=0, max_len=2)
    for _ in range(100):
        monos = rng.sample(basis, rng.randint(1, 4))
        x = AlgebraElement.make(
            spec, {m: rng.randrange(1, 6) for m in monos})
        img = matricial_decompose(x, 2)
        assert matricial_lift(img) == x


def test_decompose_is_homomorphism(z6):
    spec = AlgebraSpec.leavitt(graph_toeplitz(), z6)
    rng = random.Random(19)
    basis = reduced_monomials(spec, degree=0, max_len=2)
    for _ in range(100):
        x = AlgebraElement.make(
            spec, {m: rng.randrange(1, 6) for m in rng.sample(basis, 2)})
        y = AlgebraElement.make(
            spec, {m: rng.randrange(1, 6) for m in rng.sample(basis, 2)})
        assert matricial_decompose(x * y, 2) == \
            matricial_decompose(x, 2) * matricial_decompose(y, 2)


def test_block_product_matches_dense_reference(z6):
    # rose2 at level 4: one 16 x 16 block, about 90% of entries zero
    structure = BlockStructure(AlgebraSpec.leavitt(graph_rose2(), z6), 4)
    rng = random.Random(23)

    def image():
        return MatricialImage(structure, {k: tuple(
            tuple(rng.randrange(1, 6) if rng.random() < 0.1 else 0
                  for _ in range(len(structure.labels[k])))
            for _ in range(len(structure.labels[k])))
            for k in structure.keys})

    for _ in range(30):
        x, y = image(), image()
        for k in structure.keys:
            a, b = x.block(k), y.block(k)
            s = len(a)
            dense = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(s)) % 6
                                for j in range(s)) for i in range(s))
            assert (x * y).block(k) == dense


def test_monomial_repr_is_pinned():
    # linear systems order their rows by the repr of their keys; the order
    # changes no answer, but it is kept for the cost of elimination
    g = graph_vw()
    m = Monomial(g.make_path(["f"]), g.vertex_path("w"))
    assert repr(m) == ("Monomial(alpha=Path(src='v', dst='w', edges=('f',)), "
                       "beta=Path(src='w', dst='w', edges=()))")


def test_monomial_is_hashed_once_and_equals_only_monomials(monkeypatch):
    hashes = []
    path_hash = Path.__hash__
    monkeypatch.setattr(Path, "__hash__", lambda p: hashes.append(p) or path_hash(p))
    g = graph_vw()
    a, b = g.make_path(["f"]), g.vertex_path("w")
    m = Monomial(a, b)
    n = Monomial(Path("v", "w", ("f",)), Path("w", "w"))
    assert hashes == []  # built from the paths' cached hashes
    assert hash(m) == hash((a._hash, b._hash))
    assert m == n and n == m and hash(m) == hash(n)
    assert {m: 1}[n] == 1 and hash(m) == hash(m)
    assert hashes == []
    assert m != (a, b) and (a, b) != m and m != Monomial(b, b)
    assert m.involute() == Monomial(b, a) and m.involute() != m
    assert m.__reduce__() == (Monomial, (a, b))


@given(small_graphs(), st.integers(0, 4))
def test_block_structure_is_refused_just_past_its_rank(graph, n):
    # the cap check counts |P(i, v)| before any path is listed; the rank it
    # checks must be the sum of s**2 over the blocks that would be listed
    spec = AlgebraSpec.leavitt(graph, ModularRing(2))
    structure = BlockStructure(spec, n)
    rank = sum(len(graph.paths(i, v)) ** 2 for i, v in structure.keys)
    assert structure.rank() == rank
    with mock.patch.dict(os.environ, {"GRAL_SEARCH_CAP": str(rank)}):
        assert BlockStructure(spec, n) == structure
    if rank > 1:
        with mock.patch.dict(os.environ, {"GRAL_SEARCH_CAP": str(rank - 1)}):
            with pytest.raises(SearchCapExceeded, match=f"needs {rank} states"):
                BlockStructure(spec, n)


def test_block_structure_past_the_cap_is_refused(monkeypatch, z2):
    # rose3 at level 2 is one 9 x 9 block: dense rank 81
    spec = AlgebraSpec.leavitt(Graph(["v"], [("a", "v", "v"), ("b", "v", "v"),
                                             ("c", "v", "v")]), z2)
    x = word_element(spec, ["a", "b", "b*", "a*"])
    monkeypatch.setenv("GRAL_SEARCH_CAP", "80")
    with pytest.raises(SearchCapExceeded, match="^block structure needs 81 states, cap is 80$"):
        spec.blocks(2)
    with pytest.raises(SearchCapExceeded):
        matricial_decompose(x, 2)
    assert spec.blocks(1).rank() == 9
    monkeypatch.setenv("GRAL_SEARCH_CAP", "81")
    assert matricial_lift(matricial_decompose(x, 2)) == x


def test_spec_builds_one_block_structure_per_level(z2):
    spec = AlgebraSpec.leavitt(graph_toeplitz(), z2)
    st = spec.blocks(2)
    assert spec.blocks(2) is st and spec.blocks(1) is not st
    fresh = BlockStructure(spec, 2)
    assert st == fresh and st.labels == fresh.labels and st.index == fresh.index
    assert matricial_decompose(identity_element(spec), 2).structure is st
    assert MatricialImage.zeros(st) is MatricialImage.zeros(st)
    with pytest.raises(GralError):
        AlgebraSpec(graph_toeplitz(), z2, []).blocks(1)
    with pytest.raises(ValueError):
        spec.blocks(-1)


def test_dn_ranks_match_block_formula():
    for name, make in SIX_GRAPHS.items():
        spec = leavitt(make(), 2)
        for n in range(4):
            assert dn_rank(spec, n) == len(reduced_monomials(spec, degree=0, max_len=n)), \
                (name, n)


def test_dn_rank_examples():
    assert [dn_rank(leavitt(graph_loop(), 2), n) for n in (1, 2, 3)] == [1, 1, 1]
    assert dn_rank(leavitt(graph_vw(), 2), 1) == 2
    assert dn_rank(leavitt(graph_rose2(), 2), 2) == 16


def test_not_in_dn(z2):
    spec = AlgebraSpec.leavitt(graph_rose2(), z2)
    x = word_element(spec, ["e", "f"]) * word_element(spec, ["e", "f"]).involution()
    with pytest.raises(NotInDn):
        matricial_decompose(x, 1)


def test_identity_blocks(z2):
    spec = AlgebraSpec.leavitt(graph_toeplitz(), z2)
    st = BlockStructure(spec, 2)
    one = {k: tuple(tuple(int(i == j) for j in range(len(labels))) for i in range(len(labels)))
           for k, labels in st.labels.items()}
    assert matricial_decompose(identity_element(spec), 2) == MatricialImage(st, one)


# -- null graph -------------------------------------------------------------------


def test_null_graph_zero_ring(z6):
    spec = AlgebraSpec.leavitt(graph_null(), z6)
    zero = AlgebraElement.zero(spec)
    assert identity_element(spec) == zero
    assert (zero * zero).is_zero and (zero + zero).is_zero
    assert reduced_monomials(spec, max_len=3) == []
    img = matricial_decompose(zero, 2)
    assert matricial_lift(img) == zero


# -- serialization ------------------------------------------------------------------


def test_element_json_roundtrip(z6):
    spec = AlgebraSpec.leavitt(graph_toeplitz(), z6)
    rng = random.Random(23)
    for _ in range(20):
        x = random_element(spec, rng, max_len=2)
        assert element_from_terms(spec, element_to_terms(x)) == x


def test_element_json_applies_normal_form(z2):
    spec = AlgebraSpec.leavitt(graph_vw(), z2)
    x = element_from_terms(spec, [
        {"coeff": 1, "alpha": ["f"], "beta": ["f"]}])
    assert x == vertex_element(spec, "v")


def test_format_element_sorted(z6):
    spec = AlgebraSpec.leavitt(graph_loop(), z6)
    x = word_element(spec, ["e"], coeff=2) + vertex_element(spec, "v") + \
        word_element(spec, ["e*"], coeff=3)
    assert format_element(x) == "3*e* + v + 2*e"
