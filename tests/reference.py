"""Reference oracles and fixtures that no gral command uses.

Tests compare the package against these: a span system written out row
by row, R[x] as a fifth graded-ring oracle, the vertex idempotents as
local units, the bounded witness search over a path algebra's spanning
monomials, the Jacobson radical of a finite algebra by enumeration (both
differential oracles on acyclic graphs), the epsilon paths by a walk along
every out-edge, and functoriality along finite chains of graph morphisms.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from gral.coeffring import Ring, _span_rows, within_cap
from gral.errors import GralError, InternalVerificationFailure
from gral.gradedstruct import (GradedRingOracle, PathAlgebraOracle, _identity, _path_into,
                               _require_one, combination_solver, solve_combination)
from gral.graphs import Graph, GraphMorphism, morphism_validate
from gral.morphisms import _homs_agree, compose_homs, induced_hom
from gral.pathalg import (AlgebraElement, AlgebraSpec, format_element, identity_element,
                          monomial_element, reduced_monomials, vertex_element)
from gral.regularity import WitnessCertificate


def longest_path_length(graph: Graph) -> Optional[int]:
    """Max path length for acyclic graphs, None if the graph has a cycle,
    from path_counts(|V|): a path of |V| edges repeats a vertex."""
    counts = graph.path_counts(len(graph.vertices))
    if any(counts[-1].values()):
        return None
    return max((i for i, c in enumerate(counts) if any(c.values())), default=0)


def epsilon_paths(graph: Graph, n: int):
    """Pairs (q, c) of paths with r(c) = r(q) and |q| - |c| = n: for n >= 0
    the paths q of length n, with c = r(q); for n < 0 the set M_-n.

    M_-n: each vertex, in sorted order, is expanded along every out-edge,
    dead branches included, and a path q is kept, with no further
    expansion, once r(q) receives a path c of length |q| - n (found from
    the path counts).  A path into a vertex on a cycle is always kept, so
    each branch stops within |V| - 1 edges.
    """
    if n >= 0:
        return [(p, graph.vertex_path(p.dst)) for p in graph.paths(n)]
    counts = graph.path_counts(len(graph.vertices) - 1 - n)
    pairs = []
    level = [graph.vertex_path(v) for v in sorted(graph.vertices)]
    while level:
        grown = []
        for q in level:
            if counts[len(q) - n][q.dst]:
                pairs.append((q, _path_into(graph, counts, q.dst, len(q) - n)))
            else:
                grown.extend(graph.extend(q, e) for e in graph.out_edges(q.dst))
        level = grown
    return pairs


def span_constraints(ring: Ring, columns, target=None):
    """Constraints for sum_i r_i . columns[i] = target over the variables
    0..len(columns)-1, where columns and target are coordinate dicts
    {key: coefficient}: the system SpanSolver factors.  One row per key of
    the columns and the target, in repr order, with its terms in column
    order; no target gives the homogeneous system."""
    target = target or {}
    zero = ring.zero
    return [(terms, target.get(k, zero)) for k, terms in _span_rows(columns, target)]


def homogeneous_components(x: AlgebraElement) -> dict:
    """Mapping degree -> component of x; empty for the zero element."""
    comps = {}
    for m, c in x.terms.items():
        comps.setdefault(m.degree, {})[m] = c
    return {d: AlgebraElement(x.spec, t) for d, t in sorted(comps.items())}


def is_homogeneous(x: AlgebraElement) -> bool:
    return len({m.degree for m in x.terms}) <= 1


# ---------------------------------------------------------------------------
# The bounded witness search


def graded_witness_oracle(x: AlgebraElement, bound: int, oracle=None) -> WitnessCertificate:
    """solve_combination for x.b.x = x over the degree-(-d) spanning
    monomials with real/ghost lengths at most the bound, from the spec's
    PathAlgebraOracle (pass one to share its spanning sets).  Exact
    absence on acyclic graphs once the bound reaches the longest path."""
    spec = x.spec
    if x.is_zero:
        return WitnessCertificate(x, 0, "oracle", witness=x, verified=True)
    d = x.degree()
    if oracle is None:
        oracle = PathAlgebraOracle(spec)
    candidates = oracle.spanning(-d, bound)
    searched = (f"degree {-d} spanning monomials with lengths <= {bound} "
                f"({len(candidates)} candidates)")
    b = solve_combination(oracle, candidates, [(x, lambda b: x * b * x)])
    bounds = (("size", bound),)
    if b is None:
        return WitnessCertificate(x, d, "oracle", absent=True,
                                  absence_exact=spec.graph.all_paths_within(bound),
                                  searched=searched, bounds=bounds, verified=True)
    if x * b * x != x:
        raise InternalVerificationFailure("oracle witness failed verification")
    return WitnessCertificate(x, d, "oracle", witness=b, bounds=bounds, verified=True)


# ---------------------------------------------------------------------------
# Truncated polynomial rings


class PolynomialOracle(GradedRingOracle):
    """R[x] with its degree grading, viewed through bounded spanning sets.

    Elements are tuples of (degree, coeff) pairs.
    """

    degree_one_generated = True

    def __init__(self, ring: Ring):
        _require_one(ring, "the polynomial ring")
        self._ring = ring
        self.name = f"{ring.describe()}[x]"

    @property
    def ring(self):
        return self._ring

    def monomial(self, degree, c=None):
        c = self._ring.one if c is None else c
        return ((degree, c),) if c != self._ring.zero else ()

    def spanning(self, degree, size_bound):
        if degree < 0:
            return []
        return [self.monomial(degree)]

    def exact_at(self, degree, size_bound):
        return True

    def add(self, x, y):
        ring = self._ring
        out = dict(x)
        for d, c in y:
            c2 = ring.add(out.get(d, ring.zero), c)
            if c2 == ring.zero:
                out.pop(d, None)
            else:
                out[d] = c2
        return tuple(sorted(out.items()))

    def mul(self, x, y):
        ring = self._ring
        out = {}
        for d1, c1 in x:
            for d2, c2 in y:
                c = ring.mul(c1, c2)
                d = d1 + d2
                c = ring.add(out.get(d, ring.zero), c)
                if c == ring.zero:
                    out.pop(d, None)
                else:
                    out[d] = c
        return tuple(sorted(out.items()))

    def scale(self, r, x):
        ring = self._ring
        return tuple((d, ring.mul(r, c)) for d, c in x
                     if ring.mul(r, c) != ring.zero)

    def is_zero(self, x):
        return not x

    def identity(self):
        return ((0, self._ring.one),)

    def coords(self, x):
        return dict(x)

    def format(self, x):
        if not x:
            return "0"
        ring = self._ring
        return " + ".join(
            (ring.format_element(c) if d == 0
             else ("x" if d == 1 else f"x^{d}") if c == ring.one
             else f"{ring.format_element(c)}*x^{d}")
            for d, c in x)


# ---------------------------------------------------------------------------
# Homogeneous local units


class LocalUnitsReport(NamedTuple):
    units: tuple          # vertex idempotents, as elements
    total: AlgebraElement  # sum of all vertices (identity for finite graphs)
    verified: bool


def homogeneous_local_units(spec: AlgebraSpec, size_bound: int = 3) -> LocalUnitsReport:
    """The vertex idempotents; for finite graphs their sum absorbs every
    bounded spanning element and is reported as the single unit."""
    vs = [vertex_element(spec, v) for v in sorted(spec.graph.vertices)]
    total = identity_element(spec)
    for i, u in enumerate(vs):
        if u * u != u:
            raise InternalVerificationFailure(f"vertex {format_element(u)} is not idempotent")
        for w in vs[i + 1:]:
            if not (u * w).is_zero or not (w * u).is_zero:
                raise InternalVerificationFailure(
                    f"vertices {format_element(u)} and {format_element(w)} are not orthogonal")
    for m in reduced_monomials(spec, max_len=size_bound):
        x = monomial_element(spec, m)
        if total * x != x or x * total != x:
            raise InternalVerificationFailure(
                f"the vertex sum is not a unit for {format_element(x)}")
        sa = vertex_element(spec, m.alpha.src)
        sb = vertex_element(spec, m.beta.src)
        if sa * x != x or x * sb != x:
            raise InternalVerificationFailure(
                f"the source vertices are not local units for {format_element(x)}")
    return LocalUnitsReport(tuple(vs), total, True)


# ---------------------------------------------------------------------------
# Radical and semiprimeness of finite algebra instances


class RadicalReport(NamedTuple):
    size: int
    generators: tuple       # homogeneous generating set
    dimension: int


def _all_elements(spec: AlgebraSpec, basis):
    ring = spec.ring
    for combo in itertools.product(ring.elements(), repeat=len(basis)):
        yield AlgebraElement.make(spec, dict(zip(basis, combo)))


def jacobson_radical_algebra(spec: AlgebraSpec) -> RadicalReport:
    """Radical of a finite-as-a-set Leavitt/Cohn algebra (acyclic graph,
    finite ring), by quasi-regularity enumeration; the result is graded and
    comes with a homogeneous generating set."""
    longest = longest_path_length(spec.graph)
    if longest is None:
        raise GralError("radical enumeration needs an acyclic graph")
    basis = reduced_monomials(spec, max_len=longest)
    total = spec.ring.order ** len(basis)
    within_cap(total * total, "algebra radical enumeration")
    elements = list(_all_elements(spec, basis))
    one = identity_element(spec)
    invertible = set()
    for u in elements:
        if any(z * u == one for z in elements):
            invertible.add(u)
    radical = [x for x in elements
               if all((one - (y * x)) in invertible for y in elements)]
    rad_set = set(radical)
    gens = []
    for x in radical:
        for _, comp in homogeneous_components(x).items():
            if comp not in rad_set:
                raise InternalVerificationFailure("radical is not graded")
            if comp not in gens and not comp.is_zero:
                gens.append(comp)
    multiples = [g.scale(r) for g in gens for r in spec.ring.elements()]
    # with no generators every answer is None, so 0, the empty sum, is skipped
    solve = combination_solver(PathAlgebraOracle(spec), gens, [_identity])
    if any(x + m not in rad_set for x in radical for m in multiples) or \
            any(solve([x]) is None for x in radical if not x.is_zero):
        raise InternalVerificationFailure("homogeneous set does not generate the radical")
    return RadicalReport(len(radical), tuple(sorted(gens, key=format_element)),
                         len(basis))


# ---------------------------------------------------------------------------
# Finite chains of morphisms


def compose_morphisms(second: GraphMorphism, first: GraphMorphism) -> GraphMorphism:
    """second after first."""
    if first.target != second.source:
        raise GralError("morphisms do not compose")
    v2, e2 = dict(second.vmap), dict(second.emap)
    vmap = {v: v2[w] for v, w in first.vmap}
    emap = {n: e2[m_] for n, m_ in first.emap}
    return GraphMorphism.make(first.source, second.target, vmap, emap)


class ChainVerdict(NamedTuple):
    commutes: bool
    detail: str = ""


def chain_colimit_check(morphisms, ring: Ring, claimed_composites=None) -> ChainVerdict:
    """Functoriality along a finite chain (F_1,Y_1) -> ... -> (F_m,Y_m):
    the induced hom of every composite equals the composite of induced homs,
    and all paths into the final algebra agree on generators.

    claimed_composites may supply {(i, j): GraphMorphism} fixtures to verify
    against; the default composes the chain itself.
    """
    morphisms = list(morphisms)
    if not morphisms:
        return ChainVerdict(True, "single-object chain")
    for k, psi in enumerate(morphisms):
        verdict = morphism_validate(psi)
        if not verdict.valid:
            return ChainVerdict(False, f"morphism {k} invalid at ({verdict.failed_condition})")
        if k + 1 < len(morphisms) and psi.target != morphisms[k + 1].source:
            return ChainVerdict(False, f"morphisms {k} and {k + 1} do not chain")
    homs = [induced_hom(psi, ring) for psi in morphisms]
    m = len(morphisms)
    for i in range(m):
        for j in range(i + 1, m + 1):
            composite = morphisms[i]
            for k in range(i + 1, j):
                composite = compose_morphisms(morphisms[k], composite)
            if claimed_composites and (i, j) in claimed_composites:
                composite = claimed_composites[(i, j)]
            lhs = induced_hom(composite, ring)
            rhs = homs[i]
            for k in range(i + 1, j):
                rhs = compose_homs(homs[k], rhs)
            bad = _homs_agree(lhs, rhs)
            if bad is not None:
                return ChainVerdict(False,
                                    f"composite {i}->{j} disagrees at generator {bad}")
    # cocone commutation: every route into the final algebra agrees
    for i in range(m):
        direct = homs[i]
        for k in range(i + 1, m):
            direct = compose_homs(homs[k], direct)
        staged = None
        for j in range(i + 1, m):
            left = homs[i]
            for k in range(i + 1, j):
                left = compose_homs(homs[k], left)
            rest = homs[j]
            for k in range(j + 1, m):
                rest = compose_homs(homs[k], rest)
            staged = compose_homs(rest, left)
            bad = _homs_agree(direct, staged)
            if bad is not None:
                return ChainVerdict(False,
                                    f"cocone via {j} disagrees at generator {bad}")
    return ChainVerdict(True)
