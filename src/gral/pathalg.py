"""Relative Cohn path algebras C_R^X(E), Leavitt when X = Reg(E).

Elements are kept in normal form on the reduced-monomial basis: a monomial
alpha.beta* is reduced unless alpha and beta both end in the special
(least-named) edge of a vertex in X.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .coeffring import Ring, mul_entries, within_cap
from .errors import (GralError, NotDegreeZero, NotInDn, SpecMismatch,
                     UnknownGenerator, json_field, json_value)
from .graphs import Graph, Path, regular_subset


class Monomial:
    """The monomial alpha.beta* (alpha and beta end at one vertex).

    Immutable by contract, like Path: __init__ hashes the two paths' cached
    hashes once (the value of hash((alpha._hash, beta._hash)), with no
    Path.__hash__ call) and __hash__ returns it, since monomials key every
    element's terms.  The repr is pinned to
    Monomial(alpha=Path(...), beta=Path(...)) because linear systems order
    their rows by the repr of their keys (coeffring._span_rows), and that
    order sets the cost of elimination (not the solution returned).
    """

    __slots__ = ("alpha", "beta", "_hash")

    def __init__(self, alpha: Path, beta: Path):
        self.alpha = alpha
        self.beta = beta
        self._hash = hash((alpha._hash, beta._hash))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not Monomial:
            return NotImplemented
        return (self._hash == other._hash and self.alpha == other.alpha
                and self.beta == other.beta)

    def __repr__(self):
        return f"Monomial(alpha={self.alpha!r}, beta={self.beta!r})"

    def __reduce__(self):
        # rebuild from the fields: string hashes differ between processes
        return Monomial, (self.alpha, self.beta)

    @property
    def degree(self) -> int:
        return len(self.alpha.edges) - len(self.beta.edges)

    def sort_key(self):
        return (self.degree, self.alpha.sort_key(), self.beta.sort_key())

    def involute(self) -> "Monomial":
        return Monomial(self.beta, self.alpha)


class AlgebraSpec:
    """Graph, coefficient ring and relative subset X, plus the special-edge
    choice that fixes the reduced basis."""

    def __init__(self, graph: Graph, ring: Ring, x=None):
        self.graph = graph
        self.ring = ring
        self.x = regular_subset(graph, x)
        self.special_names = frozenset(graph.out_edges(v)[0].name for v in self.x)
        self.is_leavitt = self.x == frozenset(graph.regular)
        self._joiner = "" if all(len(e.name) == 1 for e in graph.edges) else "."
        self._blocks = {}  # level -> BlockStructure, see blocks()
        self._cohn = None  # (phi, psi), see morphisms.cohn_isomorphism

    @classmethod
    def leavitt(cls, graph: Graph, ring: Ring) -> "AlgebraSpec":
        return cls(graph, ring, None)

    def blocks(self, n: int) -> "BlockStructure":
        """The block structure of D_n, built on the first request for level
        n and shared by every later one.  The cache lives on the spec, so it
        holds only the levels asked for and goes with the spec."""
        structure = self._blocks.get(n)
        if structure is None:
            structure = self._blocks[n] = BlockStructure(self, n)
        return structure

    def __eq__(self, other):
        return other is self or (
            isinstance(other, AlgebraSpec) and other.graph == self.graph
            and other.ring == self.ring and other.x == self.x)

    def __hash__(self):
        return hash((self.graph, self.ring, self.x))

    def __repr__(self):
        name = "L" if self.is_leavitt else f"C^{sorted(self.x)}"
        return f"{name}_{self.ring.describe()}({self.graph!r})"

    def path_str(self, p: Path) -> str:
        if not p.edges:
            return p.src
        return self._joiner.join(p.edges)

    def monomial_str(self, m: Monomial) -> str:
        a, b = m.alpha, m.beta
        if not b.edges:
            return self.path_str(a)
        bs = self.path_str(b)
        ghost = bs + "*" if len(b.edges) == 1 else "(" + bs + ")*"
        if not a.edges:
            return ghost
        return self.path_str(a) + ghost


# ---------------------------------------------------------------------------
# Rewriting engine


def _mono_mul(m1: Monomial, m2: Monomial) -> Optional[Monomial]:
    """(a b*)(c d*) before relation-(v) reduction: a single monomial or None.
    When |b| = |c| the result is a d*, with a itself, not a rebuilt copy."""
    b, c = m1.beta, m2.alpha
    lb, lc = len(b.edges), len(c.edges)
    if lb <= lc:
        if c.edges[:lb] != b.edges:
            return None
        if lb == 0 and b.src != c.src:
            return None
        if lb == lc:
            return Monomial(m1.alpha, m2.beta)
        alpha = Path(m1.alpha.src, c.dst, m1.alpha.edges + c.edges[lb:])
        return Monomial(alpha, m2.beta)
    if b.edges[:lc] != c.edges:
        return None
    if lc == 0 and c.src != b.src:
        return None
    beta = Path(m2.beta.src, b.dst, m2.beta.edges + b.edges[lc:])
    return Monomial(m1.alpha, beta)


def _reducible(spec: AlgebraSpec, m: Monomial) -> bool:
    """alpha and beta end in one edge, the special edge of its source."""
    a, b = m.alpha.edges, m.beta.edges
    if a and b and a[-1] == b[-1]:
        return a[-1] in spec.special_names
    return False


def _drop_last(p: Path, v: str) -> Path:
    """p without its last edge, which leaves v."""
    return Path(p.src if len(p.edges) > 1 else v, v, p.edges[:-1])


def _append(p: Path, edge) -> Path:
    return Path(p.src, edge.dst, p.edges + (edge.name,))


def _rewrite(spec: AlgebraSpec, m: Monomial):
    """The normal form of a reducible alpha0 f (beta0 f)* in closed form:
    strip the shared special last edge f, emit -alpha0 g (beta0 g)* for each
    sibling g of f (never reducible: f is the special edge at s(g)), and
    repeat on alpha0 beta0* while it is reducible.  Returns (monomial, sign)
    pairs, the remaining reduced monomial last with sign +1."""
    graph = spec.graph
    out = []
    while _reducible(spec, m):
        f = m.alpha.edges[-1]
        v = graph.edge(f).src
        alpha, beta = _drop_last(m.alpha, v), _drop_last(m.beta, v)
        for other in graph.out_edges(v):
            if other.name != f:
                out.append((Monomial(_append(alpha, other), _append(beta, other)), -1))
        m = Monomial(alpha, beta)
    out.append((m, 1))
    return out


def _reduce(spec: AlgebraSpec, terms: dict, ring: Ring) -> dict:
    """The normal form's terms, coefficients in ring: each reducible
    monomial is replaced by its closed form (_rewrite) in one pass, since no
    rewritten monomial is reducible.  terms must have no zero coefficients,
    and _reduce takes it over: the dict is rewritten in place and returned,
    at once when no term is reducible."""
    reducible = None  # a loop: a comprehension would cost a frame per product
    for m in terms:
        if _reducible(spec, m):
            if reducible is None:
                reducible = []
            reducible.append(m)
    if reducible is None:
        return terms
    zero, add, neg = ring.zero, ring.add, ring.neg
    for m in reducible:
        c = terms.pop(m)
        minus = neg(c)
        for m2, sign in _rewrite(spec, m):
            c2 = c if sign > 0 else minus
            prev = terms.get(m2)
            if prev is not None:
                c2 = add(prev, c2)
            if c2 == zero:
                del terms[m2]
            else:
                terms[m2] = c2
    return terms


# ---------------------------------------------------------------------------
# Elements


class AlgebraElement:
    """Finite coefficient-weighted sum of reduced monomials.

    Contracts of the product kernel:
    - Elements are immutable: neither spec nor terms (monomial -> nonzero
      coefficient) changes after __init__.
    - The hash is computed on the first __hash__ and kept in a slot, as Path
      and Monomial keep theirs; __reduce__ rebuilds an element from spec and
      terms, so the hash is never pickled (string hashes differ between
      processes).
    - A dict passed to __init__ belongs to the element built from it.  A
      raw product (raw_product) is brought to normal form in place by
      _reduce and becomes the product's terms without a copy.
    """

    __slots__ = ("spec", "terms", "_hash")

    def __init__(self, spec: AlgebraSpec, terms: dict):
        self.spec = spec
        self.terms = terms
        self._hash = None

    def __reduce__(self):
        return AlgebraElement, (self.spec, self.terms)

    @staticmethod
    def make(spec: AlgebraSpec, terms: dict) -> "AlgebraElement":
        """The normal form of sum c.m over terms {monomial: coefficient}."""
        ring = spec.ring
        return AlgebraElement(spec, _reduce(spec, {m: c for m, c in terms.items()
                                                   if c != ring.zero}, ring))

    @staticmethod
    def zero(spec: AlgebraSpec) -> "AlgebraElement":
        return AlgebraElement(spec, {})

    def support(self):
        return sorted(self.terms, key=Monomial.sort_key)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.spec != other.spec:
            raise SpecMismatch("elements belong to different algebra specs")

    def __add__(self, other):
        if other.spec is not self.spec:
            self._check(other)
        ring = self.spec.ring
        zero, add = ring.zero, ring.add
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            c2 = c if prev is None else add(prev, c)
            if c2 == zero:
                out.pop(m, None)
            else:
                out[m] = c2
        return AlgebraElement(self.spec, out)

    def __neg__(self):
        ring = self.spec.ring
        return AlgebraElement(self.spec, {m: ring.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def raw_product(self, other) -> dict:
        """The product's terms before relation-(v) reduction: monomial ->
        nonzero coefficient, summed over the term pairs."""
        if other.spec is not self.spec:
            self._check(other)
        ring = self.spec.ring
        zero, add, mul = ring.zero, ring.add, ring.mul
        right = other.terms.items()
        raw = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = _mono_mul(m1, m2)
                if m is None:
                    continue
                c = mul(c1, c2)
                prev = raw.get(m)
                if prev is not None:
                    c = add(prev, c)
                if c == zero:
                    raw.pop(m, None)
                else:
                    raw[m] = c
        return raw

    def __mul__(self, other):
        """Product in normal form: the raw product, reduced in place."""
        spec = self.spec
        return AlgebraElement(spec, _reduce(spec, self.raw_product(other), spec.ring))

    def scale(self, r) -> "AlgebraElement":
        ring = self.spec.ring
        zero, mul = ring.zero, ring.mul
        out = {}
        for m, c in self.terms.items():
            c2 = mul(r, c)
            if c2 != zero:
                out[m] = c2
        return AlgebraElement(self.spec, out)

    def involution(self) -> "AlgebraElement":
        return AlgebraElement(self.spec, {m.involute(): c for m, c in self.terms.items()})

    def degree(self) -> Optional[int]:
        """Degree of a nonzero homogeneous element, None for zero."""
        if len(self.terms) == 1:
            for m in self.terms:
                return m.degree
        degs = {m.degree for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise GralError("element is not homogeneous")
        return degs.pop()

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, AlgebraElement)
                and (other.spec is self.spec or other.spec == self.spec)
                and other.terms == self.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        return format_element(self)


def format_element(x: AlgebraElement) -> str:
    if x.is_zero:
        return "0"
    ring = x.spec.ring
    parts = []
    for m in x.support():
        c = x.terms[m]
        ms = x.spec.monomial_str(m)
        parts.append(ms if c == ring.one else f"{ring.format_element(c)}*{ms}")
    return " + ".join(parts)


# -- generators and words ----------------------------------------------------


def vertex_element(spec: AlgebraSpec, v: str) -> AlgebraElement:
    p = spec.graph.vertex_path(v)
    return AlgebraElement(spec, {Monomial(p, p): spec.ring.one})


def edge_element(spec: AlgebraSpec, name: str) -> AlgebraElement:
    e = spec.graph.edge(name)
    p = spec.graph.make_path([name])
    q = spec.graph.vertex_path(e.dst)
    return AlgebraElement(spec, {Monomial(p, q): spec.ring.one})


def ghost_element(spec: AlgebraSpec, name: str) -> AlgebraElement:
    return edge_element(spec, name).involution()


def generator(spec: AlgebraSpec, symbol: str) -> AlgebraElement:
    g = spec.graph
    if symbol in set(g.vertices):
        return vertex_element(spec, symbol)
    edge_names = {e.name for e in g.edges}
    if symbol in edge_names:
        return edge_element(spec, symbol)
    if symbol.endswith("*") and symbol[:-1] in edge_names:
        return ghost_element(spec, symbol[:-1])
    raise UnknownGenerator(f"{symbol!r} is not a generator of {spec!r}")


def word_element(spec: AlgebraSpec, word, coeff=None) -> AlgebraElement:
    """Evaluate a word in the generators v, f, f*."""
    word = list(word)
    if not word:
        raise UnknownGenerator("empty word")
    acc = generator(spec, word[0])
    for symbol in word[1:]:
        acc = acc * generator(spec, symbol)
    if coeff is not None:
        acc = acc.scale(coeff)
    return acc


def normal_form(spec: AlgebraSpec, raw_terms) -> AlgebraElement:
    """Normalize a raw sum given as (coeff, word) pairs or bare words."""
    acc = AlgebraElement.zero(spec)
    for item in raw_terms:
        if isinstance(item, (list, tuple)) and len(item) == 2 and not isinstance(item[0], str):
            coeff, word = item
        else:
            coeff, word = None, item
        acc = acc + word_element(spec, word, coeff)
    return acc


def identity_element(spec: AlgebraSpec) -> AlgebraElement:
    """Sum of all vertices; the multiplicative identity for finite graphs
    (zero for the null graph)."""
    acc = AlgebraElement.zero(spec)
    for v in spec.graph.vertices:
        acc = acc + vertex_element(spec, v)
    return acc


# -- spanning sets ------------------------------------------------------------


def reduced_monomials(spec: AlgebraSpec, degree: Optional[int] = None,
                      max_len: int = 3):
    """Reduced monomials with real and ghost lengths at most max_len,
    optionally restricted to one degree; sorted.  One degree d pairs only
    the paths whose lengths differ by d, once monomial_path_counts admits them."""
    g = spec.graph
    monomial_path_counts(g, max_len)
    by_range = {v: [[] for _ in range(max_len + 1)] for v in g.vertices}
    for n in range(max_len + 1):
        for p in g.paths(n):
            by_range[p.dst][n].append(p)
    lengths = [(i, j) for i in range(max_len + 1) for j in range(max_len + 1)
               if degree is None or i - j == degree]
    out = []
    for v in g.vertices:
        for i, j in lengths:
            for a, b in itertools.product(by_range[v][i], by_range[v][j]):
                m = Monomial(a, b)
                if not _reducible(spec, m):
                    out.append(m)
    return sorted(out, key=Monomial.sort_key)


def monomial_path_counts(graph: Graph, max_len: int):
    """Graph.path_counts(max_len), once the cap admits the monomial pairs
    of every degree, sum over v of (sum_{i <= max_len} |P(i, v)|)^2, so a
    degree is refused exactly when all are."""
    counts = graph.path_counts(max_len)
    within_cap(sum(sum(c[v] for c in counts) ** 2 for v in graph.vertices), "reduced monomials")
    return counts


def monomial_element(spec: AlgebraSpec, m: Monomial, coeff=None) -> AlgebraElement:
    ring = spec.ring
    c = ring.one if coeff is None else coeff
    if c == ring.zero:
        return AlgebraElement.zero(spec)
    return AlgebraElement(spec, _reduce(spec, {m: c}, ring))


# ---------------------------------------------------------------------------
# D_n filtration and the matricial decomposition


def filtration_level(x: AlgebraElement) -> int:
    """Least n with x in D_n; requires a homogeneous degree-0 element."""
    if x.is_zero:
        return 0
    degs = {m.degree for m in x.terms}
    if degs != {0}:
        raise NotDegreeZero(f"degrees present: {sorted(degs)}")
    return max(len(m.alpha.edges) for m in x.terms)


class BlockStructure:
    """Labels of the D_n standard basis: one block per (i, sink) with i < n
    and one block per vertex at level n, indexed by the paths P(i, v).
    spec.blocks(n) gives the shared one of a spec."""

    def __init__(self, spec: AlgebraSpec, n: int):
        if not spec.is_leavitt:
            raise GralError("the matricial decomposition needs a Leavitt spec")
        if n < 0:
            raise ValueError("filtration level must be nonnegative")
        self.spec = spec
        self.level = n
        g = spec.graph
        keys = [(i, v) for i in range(n) for v in sorted(g.sinks)]
        keys += [(n, v) for v in sorted(g.vertices)]
        counts = g.path_counts(n)  # before any path is listed
        self._rank = within_cap(sum(counts[i][v] ** 2 for i, v in keys), "block structure")
        self.keys = tuple(keys)
        self.labels = {(i, v): tuple(g.paths(i, v)) for (i, v) in keys}
        self.index = {k: {p: j for j, p in enumerate(lbls)}
                      for k, lbls in self.labels.items()}
        self._zero = None  # see MatricialImage.zeros

    def rank(self) -> int:
        return self._rank

    def __eq__(self, other):
        return other is self or (isinstance(other, BlockStructure)
                                 and other.spec == self.spec
                                 and other.level == self.level)

    def __hash__(self):
        return hash((self.spec, self.level))


class MatricialImage:
    """Element of the block-matrix realization of D_n."""

    __slots__ = ("structure", "mats")

    def __init__(self, structure: BlockStructure, mats: dict):
        self.structure = structure
        self.mats = mats  # key -> tuple of row tuples (possibly empty)

    @staticmethod
    def zeros(structure: BlockStructure) -> "MatricialImage":
        """The zero image, one shared per structure: images are never
        written into, their rows are tuples.  Operations pass its blocks,
        the shared zero blocks, through (0.B = 0, A + 0 = A)."""
        if structure._zero is None:
            zero = structure.spec.ring.zero
            structure._zero = MatricialImage(structure, {
                k: tuple((zero,) * len(l) for _ in l)
                for k, l in structure.labels.items()})
        return structure._zero

    def block(self, key):
        return self.mats[key]

    def _zip(self, other, fn):
        """fn entry by entry; A + 0 = A - 0 = A for a shared zero block."""
        if self.structure != other.structure:
            raise SpecMismatch("block elements from different structures")
        zeros = MatricialImage.zeros(self.structure).mats
        mats = {}
        for k in self.structure.keys:
            a, b = self.mats[k], other.mats[k]
            mats[k] = a if b is zeros[k] else tuple(tuple(fn(x, y) for x, y in zip(ra, rb))
                                                    for ra, rb in zip(a, b))
        return MatricialImage(self.structure, mats)

    def __add__(self, other):
        return self._zip(other, self.structure.spec.ring.add)

    def __sub__(self, other):
        return self._zip(other, self.structure.spec.ring.sub)

    def __mul__(self, other):
        if self.structure != other.structure:
            raise SpecMismatch("block elements from different structures")
        ring = self.structure.spec.ring
        z = MatricialImage.zeros(self.structure).mats
        return MatricialImage(self.structure, {
            k: z[k] if self.mats[k] is z[k] or other.mats[k] is z[k]
            else mul_entries(ring, self.mats[k], other.mats[k])
            for k in self.structure.keys})

    def __eq__(self, other):
        return (isinstance(other, MatricialImage)
                and other.structure == self.structure and other.mats == self.mats)

    def is_idempotent(self) -> bool:
        return self * self == self

    def __repr__(self):
        spec = self.structure.spec
        ring = spec.ring
        parts = []
        for k in self.structure.keys:
            m = self.mats[k]
            if any(x != ring.zero for row in m for x in row):
                parts.append(f"block{k}={[[ring.format_element(x) for x in row] for row in m]}")
        return "MatricialImage(" + ("; ".join(parts) if parts else "0") + ")"


def _expand_to_level(spec: AlgebraSpec, terms: dict, n: int) -> dict:
    """Rewrite via v = sum f f* at regular range vertices until every
    monomial has length n or ends at a sink."""
    g = spec.graph
    ring = spec.ring
    out = {}
    work = list(terms.items())
    while work:
        m, c = work.pop()
        l = len(m.alpha.edges)
        r = m.alpha.dst
        if l >= n or not g.out_edges(r):
            c2 = ring.add(out.get(m, ring.zero), c)
            if c2 == ring.zero:
                out.pop(m, None)
            else:
                out[m] = c2
            continue
        for e in g.out_edges(r):
            work.append((Monomial(_append(m.alpha, e), _append(m.beta, e)), c))
    return out


def matricial_decompose(x: AlgebraElement, n: int) -> MatricialImage:
    """Image of x in the D_n block realization (Leavitt specs only)."""
    spec = x.spec
    structure = spec.blocks(n)
    level = filtration_level(x)
    if level > n:
        raise NotInDn(f"element has filtration level {level} > {n}")
    ring = spec.ring
    touched = {}  # key -> rows as lists; every other block stays the shared zero
    for m, c in _expand_to_level(spec, x.terms, n).items():
        key = (len(m.alpha.edges), m.alpha.dst)
        idx = structure.index[key]
        block = touched.get(key)
        if block is None:
            block = touched[key] = [[ring.zero] * len(idx) for _ in idx]
        i, j = idx[m.alpha], idx[m.beta]
        block[i][j] = ring.add(block[i][j], c)
    zeros = MatricialImage.zeros(structure).mats
    return MatricialImage(structure, {k: tuple(map(tuple, touched[k])) if k in touched
                                      else zeros[k] for k in structure.keys})


def matricial_lift(image: MatricialImage) -> AlgebraElement:
    """Two-sided inverse of matricial_decompose on images."""
    structure = image.structure
    spec = structure.spec
    ring = spec.ring
    zeros = MatricialImage.zeros(structure).mats
    raw = {}  # each (a, b) occurs in one block only: no sums, no zeros
    for k in structure.keys:
        m = image.mats[k]
        if m is zeros[k]:
            continue
        labels = structure.labels[k]
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                c = m[i][j]
                if c != ring.zero:
                    raw[Monomial(a, b)] = c
    return AlgebraElement(spec, _reduce(spec, raw, ring))


def dn_rank(spec: AlgebraSpec, n: int) -> int:
    """Rank of D_n from the block formula."""
    return spec.blocks(n).rank()


# ---------------------------------------------------------------------------
# JSON interface


def element_to_terms(x: AlgebraElement):
    ring = x.spec.ring
    out = []
    for m in x.support():
        out.append({
            "coeff": ring.encode(x.terms[m]),
            "alpha": _path_to_json(m.alpha),
            "beta": _path_to_json(m.beta),
        })
    return out


def _path_to_json(p: Path):
    if not p.edges:
        return {"vertex": p.src}
    return list(p.edges)


def _path_from_json(g: Graph, term: dict, name: str) -> Path:
    """Field name of a term: {"vertex": name} or a list of edge names."""
    obj = json_field(term, name, object, "a term")
    if isinstance(obj, dict):
        return g.vertex_path(json_field(obj, "vertex", str, f"the {name} vertex"))
    return g.make_path(json_value(obj, [str], f"field {name!r} of a term"))


def element_from_terms(spec: AlgebraSpec, terms) -> AlgebraElement:
    """[{"coeff": <element>, "alpha": <path>, "beta": <path>}, ...]"""
    ring = spec.ring
    raw = {}
    for t in json_value(terms, [dict], "an element"):
        a = _path_from_json(spec.graph, t, "alpha")
        b = _path_from_json(spec.graph, t, "beta")
        if a.dst != b.dst:
            raise GralError(f"monomial ranges differ: {a} vs {b}")
        c = ring.decode(json_field(t, "coeff", object, "a term"))
        m = Monomial(a, b)
        raw[m] = ring.add(raw.get(m, ring.zero), c)
    return AlgebraElement(spec, _reduce(spec, {m: c for m, c in raw.items() if c != ring.zero},
                                        ring))
