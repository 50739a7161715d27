"""Local units, idempotent generators and graded regularity witnesses."""

import functools
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (SIX_GRAPHS, graph_2cycle, graph_a1, graph_loop,
                      graph_null, graph_rose2, graph_toeplitz, graph_vw,
                      graph_vwu, random_element, small_graphs, table_m2_z2,
                      table_upper_z2, table_z2xz2)
import gral.regularity as regularity
from gral.coeffring import ModularRing, ProductRing
from gral.gradedstruct import PathAlgebraOracle
from gral.graphs import Graph
from gral.errors import (CoefficientRingNotVNR, GralError,
                         InternalVerificationFailure, ZeroElement)
from gral.pathalg import (AlgebraElement, AlgebraSpec, BlockStructure,
                          MatricialImage, Monomial, _expand_to_level,
                          filtration_level, format_element, matricial_decompose,
                          matricial_lift, monomial_element, reduced_monomials,
                          vertex_element, word_element)
from gral.regularity import (graded_vnr_verdict, graded_witness_constructive,
                             idempotent_generator, local_unit_left, sample_homogeneous)
from reference import graded_witness_oracle, is_homogeneous, longest_path_length


# -- local units ---------------------------------------------------------------


def test_local_unit_single_monomial(z2):
    spec = AlgebraSpec.leavitt(graph_loop(), z2)
    x = word_element(spec, ["e", "e"])
    unit = local_unit_left(x)
    assert unit.epsilon * x == x
    assert len(unit.pairs) == 1
    a, b = unit.pairs[0]
    assert a == x and a.degree() == 2 and b.degree() == -2


def test_local_unit_ghost_edge(z2):
    spec = AlgebraSpec.leavitt(graph_vw(), z2)
    fs = word_element(spec, ["f*"])
    unit = local_unit_left(fs)
    assert unit.epsilon == vertex_element(spec, "w")
    (a, b), = unit.pairs
    assert a == fs and b == word_element(spec, ["f"])


def test_local_unit_vertex(z2):
    spec = AlgebraSpec.leavitt(graph_vw(), z2)
    v = vertex_element(spec, "v")
    assert local_unit_left(v).epsilon == v


def test_local_unit_component_membership(z6):
    spec = AlgebraSpec.leavitt(graph_rose2(), z6)
    rng = random.Random(31)
    for _ in range(50):
        d = rng.randint(-2, 2)
        x = random_element(spec, rng, degree=d)
        if x.is_zero:
            continue
        # the right unit of x is the mirror of the left unit of x*
        left, mirror = local_unit_left(x), local_unit_left(x.involution())
        assert left.epsilon * x == x
        assert x * mirror.epsilon.involution() == x
        for unit, e in ((left, d), (mirror, -d)):
            for a, b in unit.pairs:
                assert a.is_zero or a.degree() == e
                assert b.is_zero or b.degree() == -e


def test_local_unit_zero_rejected(z2):
    spec = AlgebraSpec.leavitt(graph_loop(), z2)
    with pytest.raises(ZeroElement):
        local_unit_left(AlgebraElement.zero(spec))


def test_local_unit_left_refuses_relative_cohn_specs(z2):
    # a relative Cohn witness is transported whole, so no unit goes through psi
    spec = AlgebraSpec(graph_vw(), z2, [])
    with pytest.raises(GralError, match="^local_unit_left needs a Leavitt spec$"):
        local_unit_left(word_element(spec, ["f"]))


# -- idempotent generators -------------------------------------------------------


def scalar_image(spec, level, value):
    x = vertex_element(spec, "v").scale(value)
    return matricial_decompose(x, level)


def test_idempotent_generator_z6_scalar():
    spec = AlgebraSpec.leavitt(graph_a1(), ModularRing(6))
    structure = BlockStructure(spec, 0)
    c = scalar_image(spec, 0, 2)
    y, us = idempotent_generator(structure, [c])
    assert y.block((0, "v")) == ((4,),)
    assert us[0].block((0, "v")) == ((2,),)
    # brute-force check of the left ideal {0, 2, 4}
    assert {(r * 2) % 6 for r in range(6)} == {0, 2, 4}
    assert {(r * 4) % 6 for r in range(6)} == {0, 2, 4}


def test_idempotent_generator_z2_unit():
    spec = AlgebraSpec.leavitt(graph_a1(), ModularRing(2))
    structure = BlockStructure(spec, 0)
    c = scalar_image(spec, 0, 1)
    y, us = idempotent_generator(structure, [c])
    assert y.block((0, "v")) == ((1,),)


def test_idempotent_generator_matrix_units(z2):
    # M_2(Z/2) realized as the level-1 block of the rose
    spec = AlgebraSpec.leavitt(graph_rose2(), z2)
    structure = BlockStructure(spec, 1)

    def unit(i, j):
        img = {k: [list(r) for r in m] for k, m in
               MatricialImage.zeros(structure).mats.items()}
        img[(1, "v")][i][j] = 1
        return MatricialImage(structure, {k: tuple(tuple(r) for r in m)
                                          for k, m in img.items()})

    e11, e21 = unit(0, 0), unit(1, 0)
    y, us = idempotent_generator(structure, [e11, e21])
    assert y == e11
    assert y * y == y
    assert e11 * y == e11 and e21 * y == e21
    acc = MatricialImage.zeros(structure)
    for u, c in zip(us, [e11, e21]):
        acc = acc + u * c
    assert acc == y


def test_idempotent_generator_refuses_non_vnr():
    spec = AlgebraSpec.leavitt(graph_a1(), ModularRing(4))
    structure = BlockStructure(spec, 0)
    c = scalar_image(spec, 0, 2)
    with pytest.raises(CoefficientRingNotVNR):
        idempotent_generator(structure, [c])


def test_idempotent_generator_random_invariants(z6):
    spec = AlgebraSpec.leavitt(graph_toeplitz(), z6)
    structure = BlockStructure(spec, 2)
    rng = random.Random(41)
    basis = reduced_monomials(spec, degree=0, max_len=2)
    for _ in range(20):
        cs = []
        for _ in range(rng.randint(1, 3)):
            monos = rng.sample(basis, rng.randint(1, 3))
            x = AlgebraElement.make(spec, {m: rng.randrange(1, 6) for m in monos})
            cs.append(matricial_decompose(x, 2))
        y, us = idempotent_generator(structure, cs)
        assert y * y == y
        for c in cs:
            assert c * y == c
        acc = MatricialImage.zeros(structure)
        for u, c in zip(us, cs):
            acc = acc + u * c
        assert acc == y


def random_image(structure, rng, density, zero_keys=()):
    """Block element with entries nonzero at about the given density."""
    ring = structure.spec.ring
    nonzero = [c for c in ring.elements() if c != ring.zero]
    mats = {}
    for k in structure.keys:
        s = len(structure.labels[k])
        mats[k] = tuple(
            tuple(rng.choice(nonzero)
                  if k not in zero_keys and rng.random() < density else ring.zero
                  for _ in range(s))
            for _ in range(s))
    return MatricialImage(structure, mats)


@pytest.mark.parametrize("ring", [ModularRing(6), ModularRing(30),
                                  ProductRing([ModularRing(2), ModularRing(3)])],
                         ids=["Z6", "Z30", "Z2xZ3"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_idempotent_generator_properties(ring, k):
    # two loops at v plus an exit to a sink: blocks of sizes 1, 1, 4 and 2
    g = Graph(["v", "w"], [("a", "v", "v"), ("b", "v", "v"), ("f", "v", "w")])
    structure = BlockStructure(AlgebraSpec.leavitt(g, ring), 2)
    zero_key = (2, "w")
    rng = random.Random(97 * k + len(ring.describe()))
    for trial in range(8):
        density = rng.choice([0.1, 0.3, 0.7])
        cs = [random_image(structure, rng, density, zero_keys=(zero_key,))
              for _ in range(k)]
        if trial % 2 == 0:
            cs[rng.randrange(k)] = MatricialImage.zeros(structure)
        y, us = idempotent_generator(structure, cs)
        assert y * y == y
        for c in cs:
            assert c * y == c
        acc = MatricialImage.zeros(structure)
        for u, c in zip(us, cs):
            acc = acc + u * c
        assert acc == y
        zero_block = MatricialImage.zeros(structure).block(zero_key)
        assert y.block(zero_key) == zero_block
        assert all(u.block(zero_key) == zero_block for u in us)


def test_shared_zero_image_stays_zero(z6):
    # MatricialImage.zeros hands out one image per structure, so no caller
    # may write into an image
    spec = AlgebraSpec.leavitt(graph_toeplitz(), z6)
    structure = spec.blocks(2)
    zero = MatricialImage.zeros(structure)
    rng = random.Random(43)
    basis = reduced_monomials(spec, degree=0, max_len=2)
    xs = [AlgebraElement.make(spec, {m: rng.randrange(1, 6)
                                     for m in rng.sample(basis, rng.randint(1, 3))})
          for _ in range(6)]
    idempotent_generator(structure, [matricial_decompose(x, 2) for x in xs])
    for x in xs + [word_element(spec, ["e", "f"]), word_element(spec, ["f*", "e*"])]:
        assert graded_witness_constructive(x).verified
    assert MatricialImage.zeros(structure) is zero
    assert zero.mats == {k: tuple((0,) * len(l) for _ in l)
                         for k, l in structure.labels.items()}


def test_idempotent_generator_all_zero_gives_zero(z6):
    structure = BlockStructure(AlgebraSpec.leavitt(graph_rose2(), z6), 2)
    zero = MatricialImage.zeros(structure)
    y, us = idempotent_generator(structure, [zero, zero])
    assert y == zero and us == [zero, zero]


def fresh_blocks(image):
    """image with every nonempty block rebuilt as a new tuple, so that none
    is a shared zero block and every operation takes the full path."""
    return MatricialImage(image.structure, {k: tuple(tuple(row) for row in m)
                                            for k, m in image.mats.items()})


def dense_decompose(x, n):
    """x's image at level n from a table of every block, each filled entry
    by entry from x's expansion to level n."""
    structure, ring = x.spec.blocks(n), x.spec.ring
    mats = {k: [[ring.zero] * len(l) for _ in l] for k, l in structure.labels.items()}
    for m, c in _expand_to_level(x.spec, x.terms, n).items():
        key = (len(m.alpha.edges), m.alpha.dst)
        i, j = structure.index[key][m.alpha], structure.index[key][m.beta]
        mats[key][i][j] = ring.add(mats[key][i][j], c)
    return MatricialImage(structure, {k: tuple(map(tuple, m)) for k, m in mats.items()})


def dense_op(a, b, op):
    """a + b, a - b or a . b block by block, every entry of every block."""
    ring = a.structure.spec.ring
    mats = {}
    for k in a.structure.keys:
        p, q = a.block(k), b.block(k)
        s = range(len(p))
        if op == "mul":
            mats[k] = tuple(tuple(functools.reduce(ring.add, (ring.mul(p[i][t], q[t][j])
                                                             for t in s), ring.zero)
                                  for j in s) for i in s)
        else:
            fn = ring.add if op == "add" else ring.sub
            mats[k] = tuple(tuple(fn(p[i][j], q[i][j]) for j in s) for i in s)
    return MatricialImage(a.structure, mats)


def graph_rose3():
    return Graph(["v"], [("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v")])


ZERO_BLOCK_GRAPHS = dict(SIX_GRAPHS, rose3=graph_rose3)
ZERO_BLOCK_RINGS = {"Z2": ModularRing(2), "Z6": ModularRing(6), "Z30": ModularRing(30),
                    "Z2xZ3": ProductRing([ModularRing(2), ModularRing(3)])}


@given(st.sampled_from(sorted(ZERO_BLOCK_GRAPHS)), st.sampled_from(sorted(ZERO_BLOCK_RINGS)),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_shared_zero_blocks_agree_with_dense_blocks(graph, ring, level, rnd):
    # decompose, +, -, x, lift and idempotent_generator pass the shared zero
    # blocks through; on the same values with fresh zero blocks, every block
    # is computed in full, and both must equal the dense reference
    spec = AlgebraSpec.leavitt(ZERO_BLOCK_GRAPHS[graph](), ZERO_BLOCK_RINGS[ring])
    xs = [random_element(spec, rnd, degree=0, max_len=level) for _ in range(3)]
    images = [matricial_decompose(x, level) for x in xs]
    dense = [dense_decompose(x, level) for x in xs]
    fresh = [fresh_blocks(img) for img in images]
    assert images == dense
    for x, img, f in zip(xs, images, fresh):
        assert matricial_lift(img) == matricial_lift(f) == x
    for a, b, fa, fb in ((images[0], images[1], fresh[0], fresh[1]),
                         (images[2], images[0], fresh[2], fresh[0])):
        for op, result, full in (("add", a + b, fa + fb), ("sub", a - b, fa - fb),
                                 ("mul", a * b, fa * fb)):
            assert result == full == dense_op(fa, fb, op)
            assert matricial_lift(result) == matricial_lift(full)
    structure = spec.blocks(level)
    y, us = idempotent_generator(structure, images)
    assert (y, us) == idempotent_generator(structure, fresh)


def test_shared_zero_blocks_pass_through(z6):
    # toeplitz at level 2: blocks (0, w), (1, w), (2, u) and (2, w); e e*
    # expands to ee(ee)* + ef(ef)* in (2, u) and (2, w), and 5 ee(ee)* sits
    # in (2, u) alone, so (0, w) and (1, w) stay the shared zero blocks
    spec = AlgebraSpec.leavitt(graph_toeplitz(), z6)
    structure = spec.blocks(2)
    zeros = MatricialImage.zeros(structure).mats
    a = matricial_decompose(word_element(spec, ["e", "e*"]), 2)
    b = matricial_decompose(word_element(spec, ["e", "e", "e*", "e*"]).scale(5), 2)
    untouched = [k for k in structure.keys if a.mats[k] is zeros[k]]
    assert untouched == [(0, "w"), (1, "w")]
    assert [k for k in structure.keys if b.mats[k] is zeros[k]] == untouched + [(2, "w")]
    assert (a * b).mats[(2, "w")] is zeros[(2, "w")]
    for k in untouched:
        assert (a * b).mats[k] is zeros[k] and (a + b).mats[k] is zeros[k]
        assert (a - b).mats[k] is zeros[k]
    zero = MatricialImage.zeros(structure)
    assert all((a + zero).mats[k] is a.mats[k] and (a - zero).mats[k] is a.mats[k]
               for k in structure.keys)
    # only a zero second operand passes through: 0 + a and 0 - a are computed
    assert zero + a == a and zero - a == dense_op(fresh_blocks(zero), fresh_blocks(a), "sub")
    y, us = idempotent_generator(structure, [a, b])
    assert all(y.mats[k] is zeros[k] and all(u.mats[k] is zeros[k] for u in us)
               for k in untouched)


def test_rose3_level4_witness_on_support(monkeypatch):
    # 81 x 81 blocks; the generalized inverse only sees the nonzero support
    g = Graph(["v"], [("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v")])
    spec = AlgebraSpec.leavitt(g, ModularRing(6))
    x = (monomial_element(spec, Monomial(g.make_path(["a", "b", "c", "b"]),
                                         g.make_path(["c", "a", "b", "c"])), 2)
         + monomial_element(spec, Monomial(g.make_path(["b", "b", "c", "a"]),
                                           g.make_path(["a", "c", "b", "c"])), 5))
    dims = []
    witness = regularity.matrix_vnr_witness

    def recording(a):
        dims.append((a.rows, a.cols))
        return witness(a)

    monkeypatch.setattr(regularity, "matrix_vnr_witness", recording)
    cert = graded_witness_constructive(x)
    assert max(len(l) for l in BlockStructure(spec, 4).labels.values()) == 81
    assert cert.verified and x * cert.witness * x == x
    assert dims and max(max(d) for d in dims) <= 4


# -- constructive witnesses --------------------------------------------------------


def test_constructive_witness_loop_edge(z2):
    spec = AlgebraSpec.leavitt(graph_loop(), z2)
    e = word_element(spec, ["e"])
    cert = graded_witness_constructive(e)
    assert cert.witness == word_element(spec, ["e*"])
    assert cert.verified and cert.method == "constructive"


def test_constructive_witness_2f_z6():
    spec = AlgebraSpec.leavitt(graph_vw(), ModularRing(6))
    x = word_element(spec, ["f"], coeff=2)
    cert = graded_witness_constructive(x)
    assert cert.witness == word_element(spec, ["f*"], coeff=2)


def test_constructive_inhomogeneous_rejected(z2):
    spec = AlgebraSpec.leavitt(graph_loop(), z2)
    x = vertex_element(spec, "v") + word_element(spec, ["e"])
    with pytest.raises(GralError):
        graded_witness_constructive(x)


def test_constructive_refuses_non_vnr():
    # over Z/4 the block groups answer instead of a refusal: e has the
    # witness e*, and 2e has the one group [2], which has no generalized
    # inverse, an exact absence
    spec = AlgebraSpec.leavitt(graph_loop(), ModularRing(4))
    cert = graded_witness_constructive(word_element(spec, ["e"]))
    assert (cert.method, cert.witness, cert.verified) == \
        ("blocks", word_element(spec, ["e*"]), True)
    cert = graded_witness_constructive(word_element(spec, ["e"], coeff=2))
    assert cert.to_text(format_element) == (
        "element=2*e degree=1 method=blocks absence=exact searched=group (0,v) "
        "rows [e] columns [v] matrix [2] has no generalized inverse bounds=- verified=true")


@pytest.mark.parametrize("make, x", [(graph_rose2, []), (graph_toeplitz, []),
                                     (graph_2cycle, ["v"])],
                         ids=["rose2", "toeplitz", "2cycle_Xv"])
def test_cohn_constructive_witnesses(z6, make, x):
    # psi of the Leavitt witness of phi(x): degree -d and x.b.x = x in the
    # Cohn algebra, for every monomial times every nonzero scalar and for
    # random homogeneous sums; inhomogeneous elements are refused as on
    # Leavitt specs, and over Z/4 an absence for phi(x) is one for x
    spec = AlgebraSpec(make(), z6, x)
    elements = [monomial_element(spec, m, c)
                for m in reduced_monomials(spec, max_len=2) for c in range(1, 6)]
    rng = random.Random(53)
    elements += [random_element(spec, rng, degree=rng.randint(-2, 2)) for _ in range(20)]
    for el in elements:
        if el.is_zero:
            continue
        cert = graded_witness_constructive(el)
        b = cert.witness
        assert cert.method == "constructive" and cert.verified
        assert b.degree() == -el.degree() and el * b * el == el
    v, e = spec.graph.vertices[0], spec.graph.edges[0].name
    with pytest.raises(GralError, match="not homogeneous"):
        graded_witness_constructive(vertex_element(spec, v) + word_element(spec, [e]))
    z4_spec = AlgebraSpec(make(), ModularRing(4), x)
    cert = graded_witness_constructive(vertex_element(z4_spec, v))
    assert (cert.method, cert.witness) == ("blocks", vertex_element(z4_spec, v))
    cert = graded_witness_constructive(vertex_element(z4_spec, v).scale(2))
    assert cert.absent and cert.absence_exact and cert.bounds == ()
    assert cert.searched.startswith("phi(x) group (") and "matrix [" in cert.searched


def test_broken_transported_witness_is_a_bug(monkeypatch, z2):
    # a psi that sends every element to 0 yields no witness: exact re-check
    real = regularity.hom_apply

    def broken(h, y):
        return real(h, y) if h.target.is_leavitt else AlgebraElement.zero(h.target)
    monkeypatch.setattr(regularity, "hom_apply", broken)
    spec = AlgebraSpec(graph_vw(), z2, [])
    with pytest.raises(InternalVerificationFailure,
                       match="transported witness failed verification"):
        graded_witness_constructive(word_element(spec, ["f"]))


def _left_unit_witness(x):
    """The route every other Leavitt element takes: the left local unit of
    x, the idempotent generator of its blocks, lifted back."""
    unit = local_unit_left(x)
    cs = [b * x for _, b in unit.pairs]
    level = max(filtration_level(c) for c in cs)
    _, us = idempotent_generator(x.spec.blocks(level),
                                 [matricial_decompose(c, level) for c in cs])
    return sum((matricial_lift(u) * b for u, (_, b) in zip(us, unit.pairs)),
               AlgebraElement.zero(x.spec))


def test_reflection_consistency():
    # a negative degree over a commutative ring reflects the witness of x*;
    # over each commutative vnr fixture ring the left-unit route must give
    # the same witness, on every monomial multiple and on seeded samples of
    # degrees -3..-1 on the six sweep graphs
    checked = 0
    for ring in (ModularRing(2), ModularRing(3), ModularRing(6),
                 ProductRing([ModularRing(2), ModularRing(3)]), table_z2xz2()):
        nonzero = [c for c in ring.elements() if c != ring.zero]
        for make in SIX_GRAPHS.values():
            spec = AlgebraSpec.leavitt(make(), ring)
            xs = [monomial_element(spec, m, c) for d in (-3, -2, -1)
                  for m in reduced_monomials(spec, degree=d, max_len=3) for c in nonzero]
            xs += [x for x in sample_homogeneous(spec, 3, 3, 20, random.Random(41))
                   if x.degree() < 0]
            for x in xs:
                assert graded_witness_constructive(x).witness == _left_unit_witness(x), \
                    (ring.describe(), format_element(x))
            checked += len(xs)
    assert checked > 1000


def test_constructive_random_hammer(z6):
    spec = AlgebraSpec.leavitt(graph_rose2(), z6)
    rng = random.Random(47)
    for _ in range(60):
        x = random_element(spec, rng, max_len=2)
        if x.is_zero or not is_homogeneous(x):
            continue
        cert = graded_witness_constructive(x)
        assert x * cert.witness * x == x


def test_constructive_branching_graph_hammer(z6):
    # loop + branch + two sinks: exercises mixed sink/level expansions
    from gral.graphs import Graph
    g = Graph(["a", "b", "c", "d"],
              [("e", "a", "a"), ("f", "a", "b"), ("g", "b", "c"),
               ("h", "b", "d"), ("k", "a", "d")])
    spec = AlgebraSpec.leavitt(g, z6)
    rng = random.Random(53)
    for _ in range(60):
        d = rng.randint(-2, 2)
        x = random_element(spec, rng, degree=d, max_len=2)
        if x.is_zero:
            continue
        cert = graded_witness_constructive(x)
        assert x * cert.witness * x == x


M2_GRAPHS = dict(SIX_GRAPHS,
                 vw2=lambda: Graph(["v", "w"], [("e", "v", "w"), ("f", "v", "w")]),
                 fork=lambda: Graph(["v", "a", "b", "c"],
                                    [("e", "v", "a"), ("f", "v", "b"), ("g", "v", "c")]))


@pytest.mark.parametrize("graph", sorted(M2_GRAPHS))
def test_constructive_witnesses_over_m2_z2(graph):
    # M_2(Z/2) is von Neumann regular and not commutative, so a negative
    # degree takes the left-unit route, not the reflection through x*
    ring = table_m2_z2()
    assert not ring.is_commutative()
    spec = AlgebraSpec.leavitt(M2_GRAPHS[graph](), ring)
    rng = random.Random(graph)
    for d in range(-2, 3):
        if not reduced_monomials(spec, degree=d, max_len=2):
            continue
        for _ in range(6):
            x = random_element(spec, rng, degree=d, max_len=2)
            if x.is_zero:
                continue
            cert = graded_witness_constructive(x)
            assert cert.verified and not cert.absent
            assert cert.witness.degree() == -d
            assert x * cert.witness * x == x


def random_graph(rng):
    nv = rng.randint(1, 4)
    vertices = [f"v{i}" for i in range(nv)]
    edges = []
    for j in range(rng.randint(0, 6)):
        edges.append((f"e{j}", rng.choice(vertices), rng.choice(vertices)))
    from gral.graphs import Graph
    return Graph(vertices, edges)


def test_constructive_random_graphs_stress(z6):
    from gral.coeffring import ModularRing, ProductRing
    rings = [ModularRing(2), ModularRing(3), z6,
             ProductRing([ModularRing(2), ModularRing(3)])]
    rng = random.Random(2024)
    graphs_tried = 0
    witnesses = 0
    while graphs_tried < 20:
        g = random_graph(rng)
        graphs_tried += 1
        spec = AlgebraSpec.leavitt(g, rings[graphs_tried % len(rings)])
        for _ in range(15):
            d = rng.randint(-2, 2)
            x = random_element(spec, rng, degree=d, max_len=2)
            if x.is_zero:
                continue
            cert = graded_witness_constructive(x)
            assert x * cert.witness * x == x
            witnesses += 1
    assert witnesses > 100


def test_verdict_inconclusive_on_cyclic_non_vnr():
    # the block groups decide every element on a cyclic graph too: the
    # first absence, 2e*, is an exact counterexample
    spec = AlgebraSpec.leavitt(graph_loop(), ModularRing(4))
    report = graded_vnr_verdict(spec, 1, 1, samples=0, seed=0)
    assert (report.method, report.overall) == ("blocks", "counterexample-found")
    assert format_element(report.counterexample.element) == "2*e*"
    absent = [c for c in report.certificates if c.absent]
    assert len(absent) == 3 and all(c.absence_exact for c in absent)  # 2e*, 2v, 2e


# -- oracle --------------------------------------------------------------------


def test_oracle_exact_absence_2v():
    spec = AlgebraSpec.leavitt(graph_a1(), ModularRing(4))
    cert = graded_witness_oracle(word_element(spec, ["v"], coeff=2), 3)
    assert cert.absent and cert.absence_exact and cert.verified
    assert "degree 0" in cert.searched


def test_oracle_witness_f(z2):
    spec = AlgebraSpec.leavitt(graph_vw(), z2)
    cert = graded_witness_oracle(word_element(spec, ["f"]), 1)
    assert cert.witness == word_element(spec, ["f*"])


def test_oracle_zero_element(z2):
    spec = AlgebraSpec.leavitt(graph_vw(), z2)
    cert = graded_witness_oracle(AlgebraElement.zero(spec), 1)
    assert cert.witness.is_zero and cert.verified


def test_oracle_bounded_absence_not_exact_on_cycles():
    spec = AlgebraSpec.leavitt(graph_loop(), ModularRing(4))
    cert = graded_witness_oracle(word_element(spec, ["e"], coeff=2), 2)
    if cert.absent:
        assert not cert.absence_exact


def test_oracle_agrees_with_constructive_on_acyclic():
    for make in (graph_a1, graph_vw, graph_vwu):
        for n in (2, 6):
            spec = AlgebraSpec.leavitt(make(), ModularRing(n))
            bound = longest_path_length(spec.graph)
            for d in range(-2, 3):
                for m in reduced_monomials(spec, degree=d, max_len=bound):
                    x = monomial_element(spec, m)
                    oracle = graded_witness_oracle(x, bound)
                    constructive = graded_witness_constructive(x)
                    assert not oracle.absent and not constructive.absent
                    assert x * oracle.witness * x == x


@st.composite
def acyclic_graphs(draw):
    """A graph on one to four vertices with at most four edges, each from
    an earlier vertex to a later one; parallel edges and sinks occur."""
    vertices = ["u", "v", "w", "z"][:draw(st.integers(1, 4))]
    pairs = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    return Graph(vertices, [(name, a, b) for name, (a, b) in zip("abcd", edges)])


@given(acyclic_graphs(), st.sampled_from([ModularRing(6),
                                          ProductRing([ModularRing(2), ModularRing(3)]),
                                          table_m2_z2()]),
       st.data())
def test_constructive_and_oracle_witnesses_on_random_acyclic_graphs(graph, ring, data):
    # a homogeneous sum of one to three reduced monomials over a vnr ring:
    # both routes must return a verified witness of the opposite degree;
    # over the non-commutative M_2(Z/2) the oracle route is not left-linear
    spec = AlgebraSpec.leavitt(graph, ring)
    bound = longest_path_length(graph)
    pools = {}
    for m in reduced_monomials(spec, max_len=bound):
        pools.setdefault(m.degree, []).append(m)
    d = data.draw(st.sampled_from(sorted(pools)))
    monos = data.draw(st.lists(st.sampled_from(pools[d]), min_size=1, max_size=3, unique=True))
    nonzero = [c for c in ring.elements() if c != ring.zero]
    x = AlgebraElement.make(spec, {m: data.draw(st.sampled_from(nonzero)) for m in monos})
    for cert in (graded_witness_constructive(x), graded_witness_oracle(x, bound)):
        assert cert.verified and not cert.absent
        assert cert.witness.degree() == -d
        assert x * cert.witness * x == x


GROUP_RINGS = {"Z4": ModularRing(4), "Z8": ModularRing(8), "Z12": ModularRing(12),
               "Z2xZ4": ProductRing([ModularRing(2), ModularRing(4)]),
               "z2xz2": table_z2xz2(), "upper_z2": table_upper_z2(), "m2_z2": table_m2_z2()}


def draw_element(spec, bound, data):
    """A homogeneous sum of one to three reduced monomials with lengths at
    most bound, each with a nonzero coefficient."""
    pools = {}
    for m in reduced_monomials(spec, max_len=bound):
        pools.setdefault(m.degree, []).append(m)
    d = data.draw(st.sampled_from(sorted(pools)))
    monos = data.draw(st.lists(st.sampled_from(pools[d]), min_size=1, max_size=3, unique=True))
    nonzero = [c for c in spec.ring.elements() if c != spec.ring.zero]
    return AlgebraElement.make(spec, {m: data.draw(st.sampled_from(nonzero)) for m in monos})


@given(acyclic_graphs(), st.sampled_from(sorted(GROUP_RINGS)), st.data())
def test_block_groups_agree_with_the_oracle_on_random_acyclic_graphs(graph, ring, data):
    # the oracle's search up to the longest path is exact on an acyclic
    # graph, and the block groups must give the same answer both ways: a
    # verified witness of degree -d exactly when the oracle finds one
    spec = AlgebraSpec.leavitt(graph, GROUP_RINGS[ring])
    bound = longest_path_length(graph)
    x = draw_element(spec, bound, data)
    d = x.degree()
    oracle = graded_witness_oracle(x, bound)
    cert = regularity._group_witness(x, d)
    assert oracle.absence_exact or not oracle.absent
    assert cert.absent == oracle.absent, format_element(x)
    if cert.absent:
        assert cert.absence_exact and cert.searched.startswith("group (")
    else:
        assert cert.verified and cert.witness.degree() == -d
        assert x * cert.witness * x == x


@given(small_graphs(), st.integers(-2, 2), st.integers(0, 2 ** 16))
def test_group_expansion_count_bounds_every_group(graph, d, seed):
    # the block route's cap is counted from path counts before any term is
    # listed: the groups it then builds, rows times columns, must fit in it
    spec = AlgebraSpec.leavitt(graph, ModularRing(4))
    x = random_element(spec, random.Random(seed), degree=d, max_len=3)
    if x.is_zero:
        return
    n = max(len(m.beta.edges) for m in x.terms)
    groups = {}
    for m in _expand_to_level(spec, x.terms, n + d):
        rows, cols = groups.setdefault((len(m.beta.edges), m.beta.dst), (set(), set()))
        rows.add(m.alpha)
        cols.add(m.beta)
    entries = sum(len(rows) * len(cols) for rows, cols in groups.values())
    assert entries <= regularity._group_entries(graph, x.terms, n, d)


@pytest.mark.parametrize("x", [None, []], ids=["leavitt", "cohn"])
@pytest.mark.parametrize("make", [graph_loop, graph_2cycle, graph_rose2, graph_toeplitz],
                         ids=["loop", "2cycle", "rose2", "toeplitz"])
def test_block_groups_find_every_witness_the_oracle_finds(make, x):
    # on a cyclic graph the oracle's absences are only at its bound, but
    # each witness it finds must be matched by the block groups, through
    # phi and psi on a relative Cohn spec
    rng = random.Random(make.__name__)
    checked = 0
    for ring in (ModularRing(4), ModularRing(12), GROUP_RINGS["Z2xZ4"], table_upper_z2()):
        spec = AlgebraSpec(make(), ring, x)
        oracle = PathAlgebraOracle(spec)
        nonzero = [c for c in ring.elements() if c != ring.zero]
        elements = [monomial_element(spec, m, c) for m in reduced_monomials(spec, max_len=2)
                    for c in rng.sample(nonzero, 3)]
        elements += [random_element(spec, rng, degree=rng.randint(-2, 2), max_len=2)
                     for _ in range(10)]
        for el in elements:
            if el.is_zero:
                continue
            cert = graded_witness_constructive(el)
            assert cert.method == "blocks" and cert.verified and cert.absence_exact == cert.absent
            if not graded_witness_oracle(el, 2, oracle).absent:
                assert not cert.absent, (ring.describe(), format_element(el))
            if not cert.absent:
                assert cert.witness.degree() == -el.degree() and el * cert.witness * el == el
            checked += 1
    assert checked > 60


@pytest.mark.parametrize("ring", [ModularRing(6), table_m2_z2()], ids=["Z6", "m2_z2"])
def test_block_groups_witness_every_element_over_vnr_rings(ring):
    # over a vnr ring every group has a generalized inverse: the block
    # witness passes the checks of the constructive one on the six graphs
    rng = random.Random(59)
    nonzero = [c for c in ring.elements() if c != ring.zero]
    for make in SIX_GRAPHS.values():
        spec = AlgebraSpec.leavitt(make(), ring)
        xs = [monomial_element(spec, m, c) for m in reduced_monomials(spec, max_len=2)
              if abs(m.degree) <= 2 for c in rng.sample(nonzero, 2)]
        xs += sample_homogeneous(spec, 2, 2, 10, rng)
        for el in xs:
            cert = regularity._group_witness(el, el.degree())
            assert cert.verified and not cert.absent, format_element(el)
            assert cert.witness.degree() == -el.degree()
            assert el * cert.witness * el == el


def combinations(spec, elements):
    """Every R-combination sum r_i . elements[i], the r_i on the left."""
    return [functools.reduce(lambda a, b: a + b,
                             (el.scale(r) for el, r in zip(elements, coeffs)),
                             AlgebraElement.zero(spec))
            for coeffs in itertools.product(spec.ring.elements(), repeat=len(elements))]


@pytest.mark.parametrize("graph", [graph_a1, graph_vw], ids=["A1", "vw"])
@pytest.mark.parametrize("ring", [ModularRing(4), ProductRing([ModularRing(2)] * 2),
                                  table_upper_z2()], ids=["Z4", "Z2xZ2", "upper_Z2"])
def test_oracle_absence_matches_brute_force(graph, ring):
    # the reference: every R-combination b of the bounded S_-d, tried on
    # every nonzero R-combination x of the bounded S_d
    spec = AlgebraSpec.leavitt(graph(), ring)
    oracle = PathAlgebraOracle(spec)
    for d in (-1, 0, 1):
        candidates = combinations(spec, oracle.spanning(-d, 1))
        for x in combinations(spec, oracle.spanning(d, 1)):
            if x.is_zero:
                continue
            cert = graded_witness_oracle(x, 1, oracle)
            found = any(x * b * x == x for b in candidates)
            assert cert.absent == (not found), format_element(x)
            assert cert.absent or (x * cert.witness * x == x and cert.witness in candidates)
            assert not cert.absent or cert.absence_exact


# -- verdict --------------------------------------------------------------------


def test_verdict_counterexample_z4_a1():
    spec = AlgebraSpec.leavitt(graph_a1(), ModularRing(4))
    report = graded_vnr_verdict(spec, 3, 3, samples=5, seed=0)
    assert report.overall == "counterexample-found"
    assert format_element(report.counterexample.element) == "2*v"


def test_verdict_null_graph(z2):
    spec = AlgebraSpec.leavitt(graph_null(), z2)
    report = graded_vnr_verdict(spec, 3, 3)
    assert report.overall == "verified-at-bounds"
    assert report.certificates == ()


def test_verdict_toeplitz_z6():
    spec = AlgebraSpec.leavitt(graph_toeplitz(), ModularRing(6))
    report = graded_vnr_verdict(spec, 2, 2, samples=30, seed=3)
    assert report.overall == "verified-at-bounds"
    assert all(c.verified for c in report.certificates)


def test_oracle_over_product_ring(z2xz2):
    spec = AlgebraSpec.leavitt(graph_vw(), z2xz2)
    f = word_element(spec, ["f"])
    cert = graded_witness_oracle(f, 1)
    assert not cert.absent and f * cert.witness * f == f
    x = f.scale((1, 0))
    cert2 = graded_witness_constructive(x)
    assert x * cert2.witness * x == x


def test_verdict_method_forced_oracle(z2):
    # the verdict has no method to force: the ring picks the route
    spec = AlgebraSpec.leavitt(graph_vw(), z2)
    with pytest.raises(TypeError):
        graded_vnr_verdict(spec, 1, 1, samples=5, seed=0, method="oracle")
    report = graded_vnr_verdict(spec, 1, 1, samples=5, seed=0)
    assert (report.method, report.overall) == ("constructive", "verified-at-bounds")
    z4 = AlgebraSpec.leavitt(graph_vw(), ModularRing(4))
    assert graded_vnr_verdict(z4, 1, 1, samples=5, seed=0).method == "blocks"


def test_sample_homogeneous_deterministic(z6):
    spec = AlgebraSpec.leavitt(graph_rose2(), z6)
    a = sample_homogeneous(spec, 2, 2, 10, random.Random(9))
    b = sample_homogeneous(spec, 2, 2, 10, random.Random(9))
    assert a == b


def test_certificate_text_stable(z2):
    spec = AlgebraSpec.leavitt(graph_vw(), z2)
    cert = graded_witness_oracle(word_element(spec, ["f"]), 1)
    text = cert.to_text(format_element)
    assert text == ("element=f degree=1 method=oracle witness=f* "
                    "bounds=size=1 verified=true")
