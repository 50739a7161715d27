"""Grading classification over an abstract graded-ring oracle.

Verdicts distinguish exact checks (finite-dimensional components fully
spanned at the bound) from bounded ones.  Built-in oracles cover path
algebras, the epsilon-but-not-strong matrix grading, trivial gradings
and corner skew Laurent rings.

Every row of a path algebra (Leavitt or relative Cohn) comes from a
certificate, checked exactly; the bounded span search decides the rows of
the other oracles.  The epsilon rows come from closed forms
(epsilon_element).  The oracle's graded witness decides the nearly
epsilon-strong and symmetric rows: x x* x = x by (CK1) alone for a
spanning monomial x in every C^X(E), and any y in S_-d with x y x = x
makes x y a left unit in S_d S_-d, y x a right unit in S_-d S_d, and puts
x = (x y) x in S_d S_-d S_d.
The strong row reads eps_1 and eps_-1: 1 is in S_1 S_-1 and in S_-1 S_1
iff both are 1, and for a Leavitt spec that must agree with Hazrat's
criterion (no sinks).
"""

from __future__ import annotations

import collections
import functools
from typing import NamedTuple, Optional

from .coeffring import AdditiveSpan, Ring, SpanSolver, TableRing, mul_entries, within_cap
# not called here, but perfbench/tracer.py rebinds solve_linear_system in
# every gral module that holds it
from .coeffring import solve_linear_system  # noqa: F401
from .cornerlaurent import CslAlgebra, format_csl
from .errors import GralError, InternalVerificationFailure, NotDegreeOneGenerated
from .pathalg import (AlgebraElement, AlgebraSpec, Monomial, format_element,
                      identity_element, monomial_element, reduced_monomials)

# ---------------------------------------------------------------------------
# Oracle interface


class GradedRingOracle:
    """Bounded view of a Z-graded ring: spanning sets per degree, arithmetic,
    coordinates over the coefficient ring, and finiteness flags.

    Arithmetic defaults to the elements' own operators, scale and is_zero;
    oracles whose elements are plain tuples or ring values override it.
    """

    name = "oracle"
    degree_one_generated = True
    no_sinks = None  # path algebras: Hazrat's criterion, shown on the strong row

    @property
    def ring(self) -> Ring:
        raise NotImplementedError

    def spanning(self, degree: int, size_bound: int):
        raise NotImplementedError

    def exact_at(self, degree: int, size_bound: int) -> bool:
        """Whether the bounded spanning set spans the whole component, i.e.
        the per-component finite-dimensionality flag at this bound."""
        raise NotImplementedError

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def scale(self, r, x):
        return x.scale(r)

    def is_zero(self, x) -> bool:
        return x.is_zero

    def identity(self):
        """Multiplicative identity, or None for non-unital oracles."""
        return None

    def coords(self, x) -> dict:
        """Coordinates over the coefficient ring in a fixed basis keyed by
        hashables; scaling must act on the left of each coordinate."""
        raise NotImplementedError

    def format(self, x) -> str:
        return str(x)

    def products(self, xs, ys) -> list:
        """The distinct nonzero products x.y, x in xs and y in ys, in the
        order in which they first occur (xs outer, ys inner)."""
        out = {}
        for a in xs:
            for b in ys:
                p = self.mul(a, b)
                if not self.is_zero(p):
                    out.setdefault(p, p)
        return list(out)

    def span_solve(self, target, elements):
        """A combination sum r_i.elements_i equal to target, or None."""
        return combination_solver(self, elements, [_identity])([target])

    def graded_witness(self, x):
        """A y of degree -deg x with x y x = x from the ring's own
        construction, already checked, or None when the ring has none and
        the bounded search must decide."""
        return None


class PathAlgebraOracle(GradedRingOracle):
    degree_one_generated = True

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.name = repr(spec)
        # built on first use and kept as long as the oracle (one classify)
        self._spans = {}        # size bound -> degree -> spanning elements
        self._witnesses = {}    # spanning monomial x -> x*
        self._epsilons = {}     # degree n -> epsilon_element(spec, n)

    @property
    def ring(self):
        return self.spec.ring

    def spanning(self, degree, size_bound):
        """The reduced monomials of the degree, in reduced_monomials'
        order, cut from one sorted list per size bound."""
        if size_bound not in self._spans:
            by_degree = {}
            for m in reduced_monomials(self.spec, max_len=size_bound):
                by_degree.setdefault(m.degree, []).append(
                    monomial_element(self.spec, m))
            self._spans[size_bound] = by_degree
        return self._spans[size_bound].get(degree, [])

    def exact_at(self, degree, size_bound):
        return self.spec.graph.all_paths_within(size_bound)

    @property
    def no_sinks(self):
        return not self.spec.graph.sinks

    def identity(self):
        return identity_element(self.spec)

    def graded_witness(self, x):
        """x* for a spanning monomial x of degree d, Leavitt and relative
        Cohn specs alike: (CK1) alone gives x x* x = x in every C^X(E).
        deg x* = -d and (x x*) x = x, the bracket of every witness
        certificate, are checked once per monomial, and a failure is a bug.
        Anything but a monomial with coefficient one is refused."""
        y = self._witnesses.get(x)
        if y is None:
            if len(x.terms) != 1 or self.ring.one not in x.terms.values():
                raise GralError(f"{format_element(x)} is no monomial with coefficient one")
            (m,) = x.terms
            y = monomial_element(self.spec, m.involute())
            if y.degree() != -m.degree or x * y * x != x:
                raise InternalVerificationFailure(f"x x* x = x fails on {format_element(x)}")
            self._witnesses[x] = y
        return y

    def epsilon(self, n):
        """epsilon_element(spec, n), formed and checked once per degree;
        the strong row and the epsilon rows both read it."""
        eps = self._epsilons.get(n)
        if eps is None:
            eps = self._epsilons[n] = epsilon_element(self.spec, n)
        return eps

    def coords(self, x):
        return dict(x.terms)

    def format(self, x):
        return format_element(x)


def _require_one(ring: Ring, what: str) -> None:
    """Refuse a ring without an identity, as spanning elements use ring.one."""
    if ring.one is None:
        raise GralError(f"{what} needs a unital ring; {ring.describe()} has no identity")


class MatrixGradingOracle(GradedRingOracle):
    """M_2(R) with components concentrated on the diagonal and the two
    off-diagonal corners at degrees 0 and +-1."""

    degree_one_generated = True

    def __init__(self, ring: Ring):
        _require_one(ring, "the M2 grading")
        self._ring = ring
        self.name = f"M2({ring.describe()})-graded"

    @property
    def ring(self):
        return self._ring

    def unit(self, i, j, c=None):
        ring = self._ring
        c = ring.one if c is None else c
        return tuple(tuple(c if (a, b) == (i, j) else ring.zero
                           for b in range(2)) for a in range(2))

    def spanning(self, degree, size_bound):
        if degree == 0:
            return [self.unit(0, 0), self.unit(1, 1)]
        if degree == 1:
            return [self.unit(0, 1)]
        if degree == -1:
            return [self.unit(1, 0)]
        return []

    def exact_at(self, degree, size_bound):
        return True

    def add(self, x, y):
        ring = self._ring
        return tuple(tuple(ring.add(a, b) for a, b in zip(r1, r2))
                     for r1, r2 in zip(x, y))

    def mul(self, x, y):
        return mul_entries(self._ring, x, y)

    def scale(self, r, x):
        ring = self._ring
        return tuple(tuple(ring.mul(r, a) for a in row) for row in x)

    def is_zero(self, x):
        ring = self._ring
        return all(a == ring.zero for row in x for a in row)

    def identity(self):
        ring = self._ring
        return tuple(tuple(ring.one if i == j else ring.zero
                           for j in range(2)) for i in range(2))

    def coords(self, x):
        ring = self._ring
        return {(i, j): x[i][j] for i in range(2) for j in range(2)
                if x[i][j] != ring.zero}

    def format(self, x):
        ring = self._ring
        return "[" + ";".join(",".join(ring.format_element(a) for a in row)
                              for row in x) + "]"


class TrivialGradingOracle(GradedRingOracle):
    """Any ring concentrated in degree zero; accepts non-unital tables."""

    degree_one_generated = False

    def __init__(self, ring: Ring):
        self._ring = ring
        self.name = f"trivial({ring.describe()})"

    @property
    def ring(self):
        return self._ring

    def spanning(self, degree, size_bound):
        if degree != 0:
            return []
        return [x for x in self._ring.elements() if x != self._ring.zero]

    def exact_at(self, degree, size_bound):
        return True

    def add(self, x, y):
        return self._ring.add(x, y)

    def mul(self, x, y):
        return self._ring.mul(x, y)

    def scale(self, r, x):
        return self._ring.mul(r, x)

    def is_zero(self, x):
        return x == self._ring.zero

    def identity(self):
        return self._ring.one

    def coords(self, x):
        if x == self._ring.zero:
            return {}
        return {"val": x}

    def format(self, x):
        return self._ring.format_element(x)


class CslOracle(GradedRingOracle):
    """Corner skew Laurent ring, over a finite ring the skew Laurent ring
    R[t, t^-1; alpha] (see cornerlaurent).  A twist keeps coordinates from
    being left-linear, so combination_solver, when the linear answer is
    missing or fails its check, searches the additive span of the
    R-multiples of the elements, even over a commutative ring."""

    degree_one_generated = True

    def __init__(self, algebra: CslAlgebra):
        self.algebra = algebra
        self.name = algebra.describe()

    @property
    def ring(self):
        return self.algebra.ring

    def spanning(self, degree, size_bound):
        return [x for x in self.algebra.component_elements(degree)
                if not x.is_zero]

    def exact_at(self, degree, size_bound):
        return True

    def identity(self):
        return self.algebra.one()

    def coords(self, x):
        return dict(x.coeffs)

    def format(self, x):
        return format_csl(x)


def _as_oracle(target) -> GradedRingOracle:
    """Path algebra specs are read through PathAlgebraOracle."""
    return PathAlgebraOracle(target) if isinstance(target, AlgebraSpec) else target


def _identity(x):
    return x


def combination_solver(oracle, elements, maps):
    """A function from targets [y_f], one per additive map f, to a
    combination b of the elements with f(b) = y_f for every f, or None
    (always, when there are no elements): the one bounded search behind
    the units, the epsilons, span membership and the oracle witness.

    The elements' images are factored once into a linear system, read
    through coordinates, map by map, and each answer is checked on the
    elements.  Over a commutative ring the coordinates of every oracle but
    a corner's are left-linear, so the linear answer is the answer, and
    one that fails its check is a bug.  A non-commutative ring or a
    twisted corner keeps them from being left-linear: when the check
    fails, or the system finds nothing, the equations are solved exactly
    in the additive span of the elements' R-multiples, built on first need
    and kept for later targets, and its answer is checked too.
    """
    if not elements:
        return lambda targets: None
    ring, coords = oracle.ring, oracle.coords
    # without maps, one block of empty columns: every combination solves it
    blocks = [[coords(f(p)) for p in elements] for f in maps] or [[{}] * len(elements)]
    linear = SpanSolver(ring, *blocks)
    left_linear = ring.is_commutative() and not isinstance(oracle, CslOracle)
    span = None
    zero = oracle.scale(ring.zero, elements[0])  # the sum of no elements

    def stacked(xs):
        return {(j, k): c for j, x in enumerate(xs) for k, c in coords(x).items()}

    def checked(coeffs, targets):
        # b = sum_i c . elements[i] over the answer's entries {i: c}
        b = functools.reduce(oracle.add, (oracle.scale(c, elements[i])
                                          for i, c in coeffs.items()), zero)
        return b if all(f(b) == y for f, y in zip(maps, targets)) else None

    def solve(targets):
        nonlocal span
        sol = linear.solve(*map(coords, targets))
        if sol is not None:
            b = checked(sol, targets)
            if b is not None:
                return b
            if left_linear:
                raise InternalVerificationFailure("linear combination fails its equations")
        elif left_linear:
            return None
        if span is None:
            span = AdditiveSpan(ring, [[stacked([f(oracle.scale(r, p)) for f in maps])
                                        for r in ring.elements() if r != ring.zero]
                                       for p in elements])
        coeffs = span.solve(stacked(targets))
        if coeffs is None:
            return None
        b = checked(coeffs, targets)
        if b is None:
            raise InternalVerificationFailure(
                "combination from the additive span fails its equations")
        return b
    return solve


# ---------------------------------------------------------------------------
# Verdicts and reports


HOLDS_EXACT = "holds-exactly"
HOLDS_AT_BOUND = "holds-at-bound"
FAILS = "fails"


class Verdict(NamedTuple):
    status: str
    witness: str = ""
    bound: int = 0

    @property
    def holds(self) -> bool:
        return self.status != FAILS

    def __str__(self):
        if self.witness:
            return f"{self.status} ({self.witness})"
        return self.status


class ReportRow(NamedTuple):
    property: str
    degree: str  # printable degree or "*"
    verdict: Verdict

    def to_text(self) -> str:
        return f"property={self.property} degree={self.degree} verdict={self.verdict.status}" + \
            (f" witness={self.verdict.witness}" if self.verdict.witness else "")


class ClassificationReport(NamedTuple):
    oracle_name: str
    rows: tuple
    summary: tuple  # ((property, Verdict), ...)
    eps_table: tuple = ()

    def verdict(self, prop: str) -> Verdict:
        for name, v in self.summary:
            if name == prop:
                return v
        raise KeyError(prop)

    def to_text(self) -> str:
        lines = [f"oracle={self.oracle_name}"]
        lines += [row.to_text() for row in self.rows]
        for name, v in self.summary:
            lines.append(f"summary property={name} verdict={v.status}" +
                         (f" witness={v.witness}" if v.witness else ""))
        for d, s in self.eps_table:
            lines.append(f"epsilon degree={d} element={s}")
        return "\n".join(lines)


def _verdict(exact, failure=None, bound=0) -> Verdict:
    """Holds exactly or at the bound, or fails with the failure, marked
    at-bound when the check was not exact."""
    if failure is None:
        return Verdict(HOLDS_EXACT if exact else HOLDS_AT_BOUND)
    return Verdict(FAILS, failure + ("" if exact else " at-bound"), bound)


def _combine(rows) -> Verdict:
    for row in rows:
        if row.verdict.status == FAILS:
            return row.verdict
    if all(row.verdict.status == HOLDS_EXACT for row in rows) and rows:
        return Verdict(HOLDS_EXACT)
    return Verdict(HOLDS_AT_BOUND)


# ---------------------------------------------------------------------------
# Symmetric gradings


def check_symmetric(oracle: GradedRingOracle, degree_bound: int = 3,
                    size_bound: int = 3):
    """S_d = S_d S_{-d} S_d per degree, for every bounded spanning element
    s of S_d.

    An element with the oracle's graded witness y is certified by
    s = (s y) s, with s in S_d and y in S_-d.  The other elements are
    decided by bounded span membership in the triple products, formed once
    per degree when first needed.
    """
    rows = []
    for d in range(-degree_bound, degree_bound + 1):
        span_d = oracle.spanning(d, size_bound)
        exact = oracle.exact_at(d, size_bound) and oracle.exact_at(-d, size_bound)
        solve = None
        bad = None
        for s in span_d:
            if oracle.graded_witness(s) is not None:
                continue
            if solve is None:
                span_md = oracle.spanning(-d, size_bound)
                solve = combination_solver(
                    oracle, oracle.products(oracle.products(span_d, span_md), span_d),
                    [_identity])
            if solve([s]) is None:
                bad = s
                break
        failure = None if bad is None else f"{oracle.format(bad)} not in S_d S_-d S_d"
        rows.append(ReportRow("symmetric", str(d), _verdict(exact, failure, size_bound)))
    return _combine(rows), rows


# ---------------------------------------------------------------------------
# Strong gradings


class StrongVerdict(NamedTuple):
    verdict: Verdict
    no_sinks: Optional[bool] = None  # Leavitt cross-check, when available

    @property
    def strong(self) -> bool:
        return self.verdict.holds


def check_strong_Z(oracle: GradedRingOracle, size_bound: int = 3) -> StrongVerdict:
    """Degree-one criterion: 1 in S_1 S_-1 and 1 in S_-1 S_1.

    Refuses oracles that do not declare degree-one generation; the oracle's
    no_sinks (path algebras) is reported alongside.  A path algebra is
    decided at every bound by epsilon_element: eps_n in S_n S_-n is a left
    unit on S_n, so 1 = sum a_i b_i with a_i in S_n gives eps_n = sum
    (eps_n a_i) b_i = 1, and 1 is in S_n S_-n iff eps_n = 1.  A Leavitt
    spec must agree with Hazrat's criterion, strong iff no sinks; a
    disagreement is a bug.  A failure is marked at-bound where the spanning
    sets do not span, as the bounded search printed it.  Other oracles are
    decided by bounded span membership.
    """
    if not oracle.degree_one_generated:
        raise NotDegreeOneGenerated(f"{oracle.name} lacks the degree-one flag")
    one = oracle.identity()
    if one is None:
        raise GralError("strong grading test needs a unital oracle")
    no_sinks = oracle.no_sinks
    exact = oracle.exact_at(1, size_bound) and oracle.exact_at(-1, size_bound)
    if isinstance(oracle, PathAlgebraOracle):
        spec = oracle.spec
        ok_pos = oracle.epsilon(1) == one
        ok_neg = ok_pos and oracle.epsilon(-1) == one
        if spec.is_leavitt and (ok_pos and ok_neg) != no_sinks:
            raise InternalVerificationFailure("the strong row disagrees with Hazrat's criterion")
    else:
        s1 = oracle.spanning(1, size_bound)
        sm1 = oracle.spanning(-1, size_bound)
        ok_pos = oracle.span_solve(one, oracle.products(s1, sm1)) is not None
        ok_neg = oracle.span_solve(one, oracle.products(sm1, s1)) is not None
    if ok_pos and ok_neg:
        verdict = Verdict(HOLDS_EXACT)  # positive findings are witnessed
    else:
        side = "S_1 S_-1" if not ok_pos else "S_-1 S_1"
        verdict = _verdict(exact, f"1 not reached in {side}", size_bound)
    return StrongVerdict(verdict, no_sinks)


# ---------------------------------------------------------------------------
# Epsilon-strong gradings


def epsilon_element(spec: AlgebraSpec, n: int) -> AlgebraElement:
    """The epsilon of degree n of a Leavitt or relative Cohn spec in closed
    form (Nystedt and Oinert): the one element of S_n S_-n that is a left
    unit on S_n and a right unit on S_-n.

    It is the sum of q q* = (q c*)(c q*) over the pairs (q, c) of
    _epsilon_paths, with q c* in S_n and c q* in S_-n: eps_n =
    sum_{|p|=n} p p* for n >= 0, and the sum over M_-n for n < 0.  Only
    (CK1), p* q = delta_{p,q} r(p) for paths of one length, is used, so it
    holds in every C^X(E).  Every monomial a b* of S_n has a = q a' for one
    of the paths q, and so has every b of S_-n, as _check_cover confirms.
    So eps q = q and q* eps = q* prove both unit relations on all of S_n
    and S_-n at every bound.  They and the factor pairs' degrees and sum
    are checked exactly and hold for every finite graph and X: a failure is a bug.
    """
    table = _epsilon_table(spec.graph, n)
    paths = _epsilon_paths(spec.graph, n, table)
    eps = sum((monomial_element(spec, Monomial(q, q)) for q, _ in paths),
              AlgebraElement.zero(spec))
    for q, _ in paths:
        x = monomial_element(spec, Monomial(q, spec.graph.vertex_path(q.dst)))
        if eps * x != x or x.involution() * eps != x.involution():
            raise InternalVerificationFailure(f"epsilon_{n} fails on {format_element(x)}")
    total = AlgebraElement.zero(spec)
    for a, b in _factor_pairs(spec, paths):
        if a.degree() != n or b.degree() != -n:
            raise InternalVerificationFailure(f"epsilon_{n} factor pair has the wrong degree")
        total = total + a * b
    if total != eps:
        raise InternalVerificationFailure(f"epsilon_{n} is not the sum of its factor pairs")
    _check_cover(spec, n, table, [q for q, _ in paths])
    return eps


def _epsilon_table(graph, n: int):
    """(counts, kept, live, free) over pairs (length L, range v), L = 0..top,
    top = n for n >= 0 and |V| - 1 for n < 0.  A path is kept at its first
    L with range in kept[L], the v receiving a path of length L - n >= 0.
    live[L] is kept[L] and the sources of edges into live[L + 1]; free[L][v],
    up to L = top + 1, counts the paths of length L into v with no kept
    proper prefix (for n < 0 a vertex on a cycle receives every length, so
    such a path repeats no vertex).  The walk visits the free paths at live
    pairs, counted against the search cap before any is listed."""
    top = n if n >= 0 else len(graph.vertices) - 1
    counts = graph.path_counts(top - n)
    kept = [{v for v in graph.vertices if L >= n and counts[L - n][v]} for L in range(top + 1)]
    live = [set() for _ in range(top + 2)]
    for L in reversed(range(top + 1)):
        live[L] = kept[L] | {e.src for e in graph.edges if e.dst in live[L + 1]}
    free = [dict.fromkeys(graph.vertices, 1)]
    for L in range(top + 1):
        free.append(dict.fromkeys(graph.vertices, 0))
        for e in graph.edges:
            if e.src not in kept[L]:
                free[-1][e.dst] += free[L][e.src]
    within_cap(sum(free[L][v] for L, level in enumerate(live) for v in level), "epsilon walk")
    return counts, kept, live, free


def _epsilon_paths(graph, n: int, table):
    """Pairs (q, c) of paths with r(c) = r(q) and |q| - |c| = n, q the kept
    paths of the _epsilon_table, grown from each live vertex, in sorted
    order, into live pairs only: the walk visits prefixes of kept paths."""
    counts, kept, live, _ = table
    pairs, level = [], [graph.vertex_path(v) for v in sorted(graph.vertices) if v in live[0]]
    while level:
        grown = []
        for q in level:
            if q.dst in kept[len(q)]:
                pairs.append((q, graph.vertex_path(q.dst) if len(q) == n
                              else _path_into(graph, counts, q.dst, len(q) - n)))
            else:
                grown.extend(graph.extend(q, e) for e in graph.out_edges(q.dst)
                             if e.dst in live[len(q) + 1])
        level = grown
    return pairs


def _check_cover(spec, n, table, kept_paths):
    """Every path a whose range receives a path of length |a| - n extends a
    kept path, checked on the _epsilon_table apart from the walk: each kept
    path is first kept at its end, and there are free[L][v] of them at each
    kept (L, v) and none past top, so the shortest kept prefix of a is one."""
    graph, (_, kept, _, free) = spec.graph, table
    found = collections.Counter()
    for q in set(kept_paths):
        stops = [graph.edge(e).src for e in q.edges] + [q.dst]
        if [L for L, v in enumerate(stops[:len(kept)]) if v in kept[L]] != [len(q)]:
            raise InternalVerificationFailure(
                f"epsilon_{n} keeps {spec.path_str(q)} at the wrong length")
        found[len(q), q.dst] += 1
    for L, level in enumerate(free):
        for v, count in level.items():
            if (L == len(kept) or v in kept[L]) and found[L, v] != count:
                raise InternalVerificationFailure(
                    f"epsilon_{n} lists {found[L, v]} of the {count} paths of length {L} into {v}")


def _path_into(graph, counts, v, length):
    """A path of the given length (at least 1) into v, which counts (of
    Graph.path_counts) says exists: built backwards from v, each step along
    the first edge whose source receives a path one edge shorter."""
    edges = []
    for k in range(length, 0, -1):
        e = next(e for e in graph.edges if e.dst == v and counts[k - 1][e.src])
        edges.append(e.name)
        v = e.src
    return graph.make_path(reversed(edges))


def _factor_pairs(spec, paths):
    """The elements (q c*, c q*) of the path pairs (q, c)."""
    return [(monomial_element(spec, Monomial(q, c)), monomial_element(spec, Monomial(c, q)))
            for q, c in paths]


def check_epsilon_strong(oracle: GradedRingOracle, degree_bound: int = 3,
                         size_bound: int = 3):
    """Per degree, a single element of the bounded S_d S_-d span acting as a
    left unit on S_d and a right unit on S_{-d}; records the epsilon found.
    A path algebra's epsilons come from epsilon_element instead."""
    if isinstance(oracle, PathAlgebraOracle):
        return _epsilon_path_algebra(oracle, degree_bound, size_bound)
    rows, table = [], []
    for d in range(-degree_bound, degree_bound + 1):
        span_d = oracle.spanning(d, size_bound)
        span_md = oracle.spanning(-d, size_bound)
        exact = oracle.exact_at(d, size_bound) and oracle.exact_at(-d, size_bound)
        products = oracle.products(span_d, span_md)
        eps = solve_combination(oracle, products,
                                [(s, lambda u, s=s: oracle.mul(u, s)) for s in span_d] +
                                [(t, lambda u, t=t: oracle.mul(t, u)) for t in span_md])
        if eps is None and (span_d or span_md):
            rows.append(ReportRow("epsilon-strong", str(d),
                                  _verdict(exact, f"no epsilon at degree {d}", size_bound)))
            continue
        rows.append(ReportRow("epsilon-strong", str(d), _verdict(exact)))
        # both components zero: epsilon 0 works vacuously
        table.append((d, "0" if eps is None else oracle.format(eps)))
    return _combine(rows), rows, tuple(table)


def solve_combination(oracle, elements, equations):
    """A combination b of the elements with f(b) = y for every equation
    (y, f), each f additive, or None: combination_solver for one target."""
    return combination_solver(oracle, elements, [f for _, f in equations])(
        [y for y, _ in equations])


def _epsilon_path_algebra(oracle: PathAlgebraOracle, degree_bound, size_bound):
    """The rows of epsilon_element's closed forms.  A relative Cohn spec has
    one row and one table entry per degree.  A Leavitt spec has one row +-n
    per pair of degrees and eps_n in the table; eps_-n is formed and
    checked too, but not printed.  The paths of lengths 0..degree_bound
    are capped, counted before the first epsilon is formed; each epsilon's
    walk is capped by the paths it visits, counted in _epsilon_table."""
    spec = oracle.spec
    within_cap(sum(sum(c.values()) for c in spec.graph.path_counts(degree_bound)),
               "epsilon paths")
    verdict = _verdict(oracle.exact_at(0, size_bound))
    rows, table = [], []
    for d in range(-degree_bound, degree_bound + 1):
        eps = oracle.epsilon(d)
        if not spec.is_leavitt or d >= 0:
            label = str(d) if not spec.is_leavitt else f"+-{d}" if d else "0"
            rows.append(ReportRow("epsilon-strong", label, verdict))
            table.append((d, format_element(eps)))
    return _combine(rows), rows, tuple(table)


# ---------------------------------------------------------------------------
# Nearly epsilon-strong gradings


def check_nearly_epsilon(target, degree_bound: int = 3, size_bound: int = 3):
    """Per degree d, a left unit in S_d S_-d and a right unit in S_-d S_d
    for every bounded spanning element of S_d.

    An element with the oracle's graded witness y has them: s y and y s,
    since (s y) s = s = s (y s).  When the oracle has none, the bounded
    search solve_combination decides, over product lists formed once per
    degree, when first needed.
    """
    oracle = _as_oracle(target)
    rows = []
    for d in range(-degree_bound, degree_bound + 1):
        span_d = oracle.spanning(d, size_bound)
        if not span_d:
            continue
        exact = oracle.exact_at(d, size_bound) and oracle.exact_at(-d, size_bound)
        products = {}  # side -> S_d S_-d ("left") or S_-d S_d ("right")
        for s in span_d:
            if oracle.graded_witness(s) is not None:
                continue
            side = _missing_unit(oracle, s, d, size_bound, products)
            if side is not None:
                rows.append(ReportRow("nearly-epsilon", str(d), _verdict(
                    exact, f"no {side} unit for {oracle.format(s)}", size_bound)))
                break
        else:
            rows.append(ReportRow("nearly-epsilon", str(d), _verdict(exact)))
    if not rows:
        rows.append(ReportRow("nearly-epsilon", "*", Verdict(HOLDS_EXACT)))
    return _combine(rows), rows


def _missing_unit(oracle, s, d, size_bound, products):
    """The first side ("left", then "right") on which the bounded search
    finds no unit for s in S_d, or None; products caches the two product
    lists of degree d."""
    span_d, span_md = oracle.spanning(d, size_bound), oracle.spanning(-d, size_bound)
    for side, xs, ys, act in (("left", span_d, span_md, lambda u: oracle.mul(u, s)),
                              ("right", span_md, span_d, lambda u: oracle.mul(s, u))):
        if side not in products:
            products[side] = oracle.products(xs, ys)
        if solve_combination(oracle, products[side], [(s, act)]) is None:
            return side
    return None


def is_semiprime_graded(target, degree_bound: int = 3, size_bound: int = 3):
    """Search for homogeneous x != 0 with x . (bounded span) . x = 0."""
    oracle = _as_oracle(target)
    ring = oracle.ring
    nonzero = [r for r in ring.elements() if r != ring.zero]
    span_all = []
    exact = True
    for d in range(-degree_bound, degree_bound + 1):
        span_all.extend(oracle.spanning(d, size_bound))
        exact = exact and oracle.exact_at(d, size_bound)
    for d in range(-degree_bound, degree_bound + 1):
        for s in oracle.spanning(d, size_bound):
            for r in nonzero:
                x = oracle.scale(r, s)
                if oracle.is_zero(x):
                    continue
                if all(oracle.is_zero(oracle.mul(oracle.mul(x, t), x))
                       for t in span_all):
                    return _verdict(exact, f"{oracle.format(x)} squashes the span", size_bound)
    return _verdict(exact)


# ---------------------------------------------------------------------------
# Whole-report classification


def classify(target, degree_bound: int = 3, size_bound: int = 3) -> ClassificationReport:
    """Strong / epsilon-strong / nearly epsilon-strong / symmetric, with the
    epsilon table; one row per (property, degree)."""
    oracle = _as_oracle(target)
    rows = []
    summary = []
    try:
        strong = check_strong_Z(oracle, size_bound)
        extra = ""
        if strong.no_sinks is not None:
            extra = f"no-sinks={'yes' if strong.no_sinks else 'no'}"
        v = strong.verdict if not extra else Verdict(strong.verdict.status,
                                                     (strong.verdict.witness + " " + extra).strip(),
                                                     strong.verdict.bound)
        rows.append(ReportRow("strong", "*", v))
        summary.append(("strong", strong.verdict))
    except GralError as exc:
        v = Verdict(FAILS, f"refused: {exc}")
        rows.append(ReportRow("strong", "*", v))
        summary.append(("strong", v))
    eps_overall, eps_rows, eps_table = check_epsilon_strong(oracle, degree_bound, size_bound)
    rows.extend(eps_rows)
    summary.append(("epsilon-strong", eps_overall))
    nearly_overall, nearly_rows = check_nearly_epsilon(oracle, degree_bound, size_bound)
    rows.extend(nearly_rows)
    summary.append(("nearly-epsilon", nearly_overall))
    sym_overall, sym_rows = check_symmetric(oracle, degree_bound, size_bound)
    rows.extend(sym_rows)
    summary.append(("symmetric", sym_overall))
    return ClassificationReport(oracle.name, tuple(rows), tuple(summary), eps_table)


def zero_multiplication_ring(n: int = 2) -> TableRing:
    """Additive Z/n with all products zero; the desk-scale stand-in for a
    non-unital fixture (validation relaxed: no designated identity)."""
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[0] * n for _ in range(n)]
    return TableRing(add, mul, zero=0, one=None, require_one=False)
