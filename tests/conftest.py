import functools
import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from gral.coeffring import ModularRing, ProductRing, TableRing
from gral.cornerlaurent import CslAlgebra
from gral.graphs import Graph
from gral.pathalg import AlgebraElement, Monomial, generator, reduced_monomials


# Property tests replay the same examples on every run and stay within the
# suite's few-second budget; nothing is written to an example database.
settings.register_profile("gral", derandomize=True, max_examples=40,
                          deadline=None, database=None)
settings.load_profile("gral")


def table_z2xz2():
    """Z/2 x Z/2 given by tables: the element 2a + b stands for (a, b)."""
    return TableRing([[i ^ j for j in range(4)] for i in range(4)],
                     [[i & j for j in range(4)] for i in range(4)], zero=0, one=3)


def table_mod(n):
    """Z/n given by tables: unlike Z/n itself, whose scalars are read in
    closed form, its vnr questions are searched under the cap."""
    return TableRing([[(i + j) % n for j in range(n)] for i in range(n)],
                     [[i * j % n for j in range(n)] for i in range(n)], zero=0, one=1)


def table_upper_z2():
    """Upper-triangular 2x2 matrices over Z/2 given by tables, a
    non-commutative ring of order 8: 4a + 2b + c stands for [[a, b], [0, c]]."""
    def entries(i):
        return i >> 2, (i >> 1) & 1, i & 1

    def mul(i, j):
        (a, b, c), (x, y, z) = entries(i), entries(j)
        return 4 * (a & x) + 2 * ((a & y) ^ (b & z)) + (c & z)
    return TableRing([[i ^ j for j in range(8)] for i in range(8)],
                     [[mul(i, j) for j in range(8)] for i in range(8)], zero=0, one=5)


def table_m2_z2():
    """All 2x2 matrices over Z/2 given by tables, a non-commutative von
    Neumann regular ring of order 16: 8a + 4b + 2c + d stands for
    [[a, b], [c, d]]."""
    def entries(i):
        return i >> 3, (i >> 2) & 1, (i >> 1) & 1, i & 1

    def mul(i, j):
        (a, b, c, d), (p, q, r, s) = entries(i), entries(j)
        return (8 * ((a & p) ^ (b & r)) + 4 * ((a & q) ^ (b & s))
                + 2 * ((c & p) ^ (d & r)) + ((c & q) ^ (d & s)))
    return TableRing([[i ^ j for j in range(16)] for i in range(16)],
                     [[mul(i, j) for j in range(16)] for i in range(16)], zero=0, one=9)


def brute_solutions(ring, constraints, variables):
    """Every assignment of ring elements to the variables that satisfies the
    constraints, in enumeration order: the reference for the solvers.  Each
    is {var: element} over its nonzero variables, the shape of the solvers'
    answers, so a variable that it leaves out is zero."""
    out = []
    for combo in itertools.product(ring.elements(), repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if all(functools.reduce(ring.add, (two_sided(ring, l, assignment[v], r)
                                           for l, v, r in terms), ring.zero) == rhs
               for terms, rhs in constraints):
            out.append({v: x for v, x in assignment.items() if x != ring.zero})
    return out


def two_sided(ring, l, x, r):
    """l . x . r, a None factor left out."""
    x = x if l is None else ring.mul(l, x)
    return x if r is None else ring.mul(x, r)


def swap_algebra():
    """The corner skew Laurent ring over Z/2 x Z/2 with e = (1, 1) and alpha
    swapping the two factors."""
    ring = ProductRing([ModularRing(2), ModularRing(2)])
    swap = {(a, b): (b, a) for a in range(2) for b in range(2)}
    return CslAlgebra(ring, (1, 1), swap)


def graph_a1():
    return Graph(["v"], [])


def graph_vw():
    return Graph(["v", "w"], [("f", "v", "w")])


def graph_vwu():
    return Graph(["v", "w", "u"], [("f", "v", "w"), ("g", "w", "u")])


def graph_loop():
    return Graph(["v"], [("e", "v", "v")])


def graph_2cycle():
    return Graph(["v", "w"], [("e", "v", "w"), ("f", "w", "v")])


def graph_rose2():
    return Graph(["v"], [("e", "v", "v"), ("f", "v", "v")])


def graph_toeplitz():
    # loop with an exit edge into a sink
    return Graph(["u", "w"], [("e", "u", "u"), ("f", "u", "w")])


def graph_span():
    # the benchmark's span graph: a 2-cycle with a loop at v
    return Graph(["v", "w"], [("e", "v", "w"), ("f", "w", "v"), ("g", "v", "v")])


def graph_null():
    return Graph([], [])


def diamond_chain(k):
    """v0 => v1 => ... => vk, two parallel edges per link, as a graph file:
    2^k paths from v0 to vk and no cycle."""
    return {"vertices": [f"v{i}" for i in range(k + 1)],
            "edges": [{"name": f"{n}{i}", "src": f"v{i}", "dst": f"v{i + 1}"}
                      for i in range(k) for n in "ab"]}


@st.composite
def small_graphs(draw):
    """A graph on at most three vertices and four edges; each vertex draws
    zero to two out-edges, so some graphs have sinks and some do not."""
    vertices = ["u", "v", "w"][:draw(st.integers(1, 3))]
    edges = [(v, draw(st.sampled_from(vertices)))
             for v in vertices for _ in range(draw(st.integers(0, 2)))][:4]
    return Graph(vertices, [(name, a, b) for name, (a, b) in zip("abcd", edges)])


SIX_GRAPHS = {
    "A1": graph_a1,
    "vw": graph_vw,
    "loop": graph_loop,
    "2cycle": graph_2cycle,
    "rose2": graph_rose2,
    "toeplitz": graph_toeplitz,
}


@pytest.fixture
def z2():
    return ModularRing(2)


@pytest.fixture
def z3():
    return ModularRing(3)


@pytest.fixture
def z4():
    return ModularRing(4)


@pytest.fixture
def z6():
    return ModularRing(6)


@pytest.fixture
def z2xz2():
    return ProductRing([ModularRing(2), ModularRing(2)])


def random_element(spec, rng, degree=None, max_len=2, max_terms=3):
    """Seeded random combination of bounded reduced monomials; may be zero."""
    pool = reduced_monomials(spec, degree=degree, max_len=max_len)
    if not pool:
        return AlgebraElement.zero(spec)
    k = rng.randint(1, min(max_terms, len(pool)))
    monos = rng.sample(pool, k)
    coeffs = [c for c in spec.ring.elements() if c != spec.ring.zero]
    return AlgebraElement.make(spec, {m: rng.choice(coeffs) for m in monos})


def random_word(spec, rng, max_len=6):
    g = spec.graph
    symbols = list(g.vertices) + [e.name for e in g.edges] + \
        [e.name + "*" for e in g.edges]
    n = rng.randint(1, max_len)
    return [rng.choice(symbols) for _ in range(n)]


def rewrite_in_random_order(spec, terms, rng):
    """The normal form of terms (monomial -> coefficient), reached one
    relation-(v) rewrite at a time, each time at a reducible monomial chosen
    by the seeded rng: alpha0 f (beta0 f)* -> alpha0 beta0* - the sum of
    alpha0 g (beta0 g)* over the siblings g of f.  A reference for the
    kernel's closed form that shares no code with it."""
    g, ring = spec.graph, spec.ring
    special = {g.out_edges(v)[0].name for v in spec.x}
    out = {m: c for m, c in terms.items() if c != ring.zero}

    def add(m, c):
        c = ring.add(out.get(m, ring.zero), c)
        if c == ring.zero:
            out.pop(m, None)
        else:
            out[m] = c

    while True:
        pending = sorted((m for m in out if m.alpha.edges and m.beta.edges
                          and m.alpha.edges[-1] == m.beta.edges[-1]
                          and m.alpha.edges[-1] in special), key=Monomial.sort_key)
        if not pending:
            return out
        m = rng.choice(pending)
        c = out.pop(m)
        f = g.edge(m.alpha.edges[-1])
        a0, b0 = m.alpha.edges[:-1], m.beta.edges[:-1]
        add(Monomial(_path(g, a0, f.src), _path(g, b0, f.src)), c)
        for e in g.out_edges(f.src):
            if e.name != f.name:
                add(Monomial(g.make_path(a0 + (e.name,)), g.make_path(b0 + (e.name,))),
                    ring.neg(c))


def _path(g, edges, v):
    """The path along edges, or the vertex v when there are none."""
    return g.make_path(edges) if edges else g.vertex_path(v)


def word_in_random_order(spec, word, rng):
    """The word's value in normal form: the product of its generators with
    no reduction on the way (the Cohn path algebra's monomial product),
    then rewrite_in_random_order."""
    acc = generator(spec, word[0])
    for symbol in word[1:]:
        acc = AlgebraElement(spec, acc.raw_product(generator(spec, symbol)))
    return AlgebraElement(spec, rewrite_in_random_order(spec, acc.terms, rng))
