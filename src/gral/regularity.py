"""Graded von Neumann regularity witnesses for Leavitt path algebras and
relative Cohn path algebras.

Over a von Neumann regular coefficient ring the constructive route
follows the idempotent-generator proof: build a per-element left local
unit with an explicit factorization across degrees d and -d, push the
resulting degree-zero generators into a matricial filtration level,
combine them into a single idempotent there, and read off the witness.
Over any other ring the element's block groups decide it exactly.  A
relative Cohn spec C^X(E) takes its witnesses from L(E(X)) through the
isomorphism phi and its inverse psi (morphisms.cohn_isomorphism): psi of
the witness of phi(x), checked again on x; an absence for phi(x) is one
for x.
"""

from __future__ import annotations

import collections
import random
from typing import NamedTuple, Optional

from .coeffring import MatrixOverRing, is_vnr, matrix_vnr_witness, mul_entries, within_cap
# not called here, but perfbench/tracer.py rebinds solve_linear_system in
# every gral module that holds it
from .coeffring import solve_linear_system  # noqa: F401
from .errors import (CoefficientRingNotVNR, GralError,
                     InternalVerificationFailure, ZeroElement)
from .graphs import Path
from .morphisms import cohn_isomorphism, hom_apply
from .pathalg import (AlgebraElement, AlgebraSpec, BlockStructure,
                      MatricialImage, Monomial, _expand_to_level,
                      filtration_level, matricial_decompose, matricial_lift,
                      monomial_element, reduced_monomials)

# ---------------------------------------------------------------------------
# Local units


class UnitFactorization(NamedTuple):
    """epsilon = sum of a_i b_i with a_i of degree d and b_i of degree -d."""

    epsilon: AlgebraElement
    pairs: tuple


def local_unit_left(x: AlgebraElement) -> UnitFactorization:
    """Left local unit for a nonzero homogeneous element of a Leavitt spec,
    with its factorization across the degree pair.  A relative Cohn spec is
    refused: graded_witness_constructive transports its whole witness."""
    if x.is_zero:
        raise ZeroElement("local units need a nonzero element")
    if not x.spec.is_leavitt:
        raise GralError("local_unit_left needs a Leavitt spec")
    d = x.degree()
    spec = x.spec
    top = max(len(m.alpha.edges) for m in x.terms)
    expanded = _expand_to_level(spec, x.terms, top)
    companion = {}
    for m in sorted(expanded, key=Monomial.sort_key):
        companion.setdefault(m.alpha, m.beta)
    pairs = []
    eps = AlgebraElement.zero(spec)
    for gamma in sorted(companion, key=lambda p: p.sort_key()):
        delta = companion[gamma]
        a = monomial_element(spec, Monomial(gamma, delta))
        b = monomial_element(spec, Monomial(delta, gamma))
        pairs.append((a, b))
        eps = eps + a * b
    if any(a.degree() != d or b.degree() != -d for a, b in pairs):
        raise InternalVerificationFailure("local unit factor has wrong degree")
    if eps * x != x:
        raise InternalVerificationFailure("local unit does not absorb the element")
    return UnitFactorization(eps, tuple(pairs))


# ---------------------------------------------------------------------------
# Idempotent generators inside a matricial level


def idempotent_generator(structure: BlockStructure, generators):
    """Idempotent y with sum(D.c_i) = D.y inside the block realization,
    plus coefficients u_i with y = sum(u_i . c_i).

    Over a vnr ring a finitely generated left ideal is generated by an
    idempotent, so one generalized inverse per block suffices: stack the
    generators' s x s blocks into C (k.s x s), take a matrix witness W of C
    (C.W.C = C) and set y = W.C; u_i is the i-th s-column slice of W.  The
    witness is computed on the nonzero rows and columns of C only, and a key
    where every generator has the shared zero block gives it to y and the
    u_i.  Refuses non-vnr coefficient rings.
    """
    ring = structure.spec.ring
    if not is_vnr(ring):
        raise CoefficientRingNotVNR(
            f"{ring.describe()} is not von Neumann regular")
    for c in generators:
        if c.structure != structure:
            raise GralError("generator from a different block structure")
    zero = ring.zero
    zeros = MatricialImage.zeros(structure).mats
    y_mats = {}
    u_mats = [{} for _ in generators]
    for key in structure.keys:
        if all(c.mats[key] is zeros[key] for c in generators):
            y_mats[key] = zeros[key]
            for u in u_mats:
                u[key] = zeros[key]
            continue
        s = len(structure.labels[key])
        stacked = [row for c in generators for row in c.mats[key]]
        rows = [r for r, row in enumerate(stacked) if any(x != zero for x in row)]
        cols = [j for j in range(s) if any(stacked[r][j] != zero for r in rows)]
        w = [[zero] * len(stacked) for _ in range(s)]
        if rows:
            support = MatrixOverRing(ring, tuple(tuple(stacked[r][j] for j in cols)
                                                 for r in rows))
            w_support = matrix_vnr_witness(support)
            if w_support is None:
                raise InternalVerificationFailure(
                    "matrix witness absent over a vnr coefficient ring")
            for j, w_row in zip(cols, w_support.entries):
                for r, x in zip(rows, w_row):
                    w[j][r] = x
        y_mats[key] = mul_entries(ring, w, stacked)
        for i, u in enumerate(u_mats):
            u[key] = tuple(tuple(row[i * s:(i + 1) * s]) for row in w)
    y = MatricialImage(structure, y_mats)
    us = [MatricialImage(structure, u) for u in u_mats]
    # from the first product: zero image + u.c would zip every block of it
    products = [u * c for u, c in zip(us, generators)]
    acc = sum(products[1:], products[0]) if products else MatricialImage.zeros(structure)
    if acc != y or not y.is_idempotent():
        raise InternalVerificationFailure("idempotent generator bookkeeping failed")
    for c in generators:
        if c * y != c:
            raise InternalVerificationFailure("generator not absorbed by idempotent")
    return y, us


# ---------------------------------------------------------------------------
# Certificates


class WitnessCertificate(NamedTuple):
    """Machine-checkable record: either a verified witness b with
    x = x.b.x, or a certified absence over a described search space."""

    element: object
    degree: int
    method: str                       # "constructive" | "blocks" | "oracle"
    witness: Optional[object] = None
    absent: bool = False
    absence_exact: bool = False
    searched: str = ""
    bounds: tuple = ()
    verified: bool = False

    def to_text(self, fmt=str) -> str:
        fields = [
            ("element", fmt(self.element)),
            ("degree", str(self.degree)),
            ("method", self.method),
        ]
        if self.absent:
            kind = "exact" if self.absence_exact else "at-bound"
            fields.append(("absence", kind))
            fields.append(("searched", self.searched))
        else:
            fields.append(("witness", fmt(self.witness)))
        fields.append(("bounds", ",".join(f"{k}={v}" for k, v in self.bounds) or "-"))
        fields.append(("verified", "true" if self.verified else "false"))
        return " ".join(f"{k}={v}" for k, v in fields)


def _verify_witness(x: AlgebraElement, b: AlgebraElement) -> bool:
    return x * b * x == x


def graded_witness_constructive(x: AlgebraElement) -> WitnessCertificate:
    """Witness via local units and the matricial idempotent generator over
    a vnr coefficient ring, and via the block groups (method "blocks"),
    witness or exact absence, over any other; a relative Cohn spec takes
    psi of the witness of phi(x).

    Guaranteed to find a witness over vnr coefficient rings; an
    InternalVerificationFailure therefore signals a bug, not a negative.
    """
    spec = x.spec
    regular = is_vnr(spec.ring)
    method = "constructive" if regular else "blocks"
    if x.is_zero:
        return WitnessCertificate(x, 0, method, witness=x, verified=True)
    d = x.degree()
    if not spec.is_leavitt:
        phi, psi = cohn_isomorphism(spec)
        image = graded_witness_constructive(hom_apply(phi, x))
        if image.absent:  # phi is a graded isomorphism
            return WitnessCertificate(x, d, method, absent=True, absence_exact=True,
                                      searched=f"phi(x) {image.searched}", verified=True)
        b = hom_apply(psi, image.witness)
        if b.degree() != -d or not _verify_witness(x, b):
            raise InternalVerificationFailure("transported witness failed verification")
        return WitnessCertificate(x, d, method, witness=b, verified=True)
    if not regular:
        return _group_witness(x, d)
    if d < 0 and spec.ring.is_commutative():
        # r.ab* -> r.ba* is an anti-homomorphism only over a commutative ring
        mirror = graded_witness_constructive(x.involution())
        b = mirror.witness.involution()
        if not _verify_witness(x, b):
            raise InternalVerificationFailure("reflected witness failed")
        return WitnessCertificate(x, d, method, witness=b, verified=True)
    unit = local_unit_left(x)
    cs = [b * x for _, b in unit.pairs]
    level = max(filtration_level(c) for c in cs)
    structure = spec.blocks(level)
    images = [matricial_decompose(c, level) for c in cs]
    _, us = idempotent_generator(structure, images)
    r = AlgebraElement.zero(spec)
    for u, (_, b) in zip(us, unit.pairs):
        r = r + matricial_lift(u) * b
    if not r.is_zero and r.degree() != -d:
        raise InternalVerificationFailure("witness has wrong degree")
    if not _verify_witness(x, r):
        raise InternalVerificationFailure("constructive witness failed verification")
    return WitnessCertificate(x, d, method, witness=r, verified=True)


def _group_witness(x: AlgebraElement, d: int) -> WitnessCertificate:
    """x of degree d in a Leavitt spec, expanded by v = sum ee* until each
    ghost path beta has the longest ghost length n or ends at a sink, and
    grouped by (|beta|, r(beta)) into matrices X_k, the alphas as rows and
    the betas as columns: b = sum_k Y_k[beta, alpha] beta.alpha* with
    X_k.Y_k.X_k = X_k.  The alphas, and the betas, are prefix-free (equal
    or orthogonal by (CK1) at one length, a shorter one ends at a sink), so
    x.b.x is the sum of the X_k.Y_k.X_k.  A group without a generalized
    inverse over R proves that x has no witness y: the group's corner of
    x.y.x = x is X_k.Z.X_k = X_k over the degree-0 corner of L(E), a union
    of matrix rings over R with R on the diagonal, and a diagonal entry of
    Z is a generalized inverse of X_k over R (Hazrat, Israel J. Math. 195,
    2013; Abrams, Ara and Siles Molina, LNM 2191).  The absence names that
    group: its key, rows, columns and matrix.  The groups' entries are
    capped, counted by _group_entries before any term is expanded."""
    spec = x.spec
    ring = spec.ring
    n = max(len(m.beta.edges) for m in x.terms)
    within_cap(_group_entries(spec.graph, x.terms, n, d), "group expansion")
    groups = {}
    for m, c in _expand_to_level(spec, x.terms, n + d).items():
        groups.setdefault((len(m.beta.edges), m.beta.dst), {})[m] = c
    raw = {}
    for key in sorted(groups):
        terms = groups[key]
        rows = sorted({m.alpha for m in terms}, key=Path.sort_key)
        cols = sorted({m.beta for m in terms}, key=Path.sort_key)
        entries = tuple(tuple(terms.get(Monomial(a, b), ring.zero) for b in cols) for a in rows)
        y = matrix_vnr_witness(MatrixOverRing(ring, entries))
        if y is None:
            searched = (f"group ({key[0]},{key[1]}) rows [{','.join(map(spec.path_str, rows))}]"
                        f" columns [{','.join(map(spec.path_str, cols))}] matrix ["
                        + ";".join(",".join(map(ring.format_element, row)) for row in entries)
                        + "] has no generalized inverse")
            return WitnessCertificate(x, d, "blocks", absent=True, absence_exact=True,
                                      searched=searched, verified=True)
        raw.update((Monomial(beta, alpha), c) for beta, y_row in zip(cols, y.entries)
                   for alpha, c in zip(rows, y_row))
    b = AlgebraElement.make(spec, raw)
    if b.degree() != -d or not _verify_witness(x, b):
        raise InternalVerificationFailure("block witness failed verification")
    return WitnessCertificate(x, d, "blocks", witness=b, verified=True)


def _group_entries(graph, terms, n: int, d: int) -> int:
    """An upper bound on the entries of the (|beta|, r(beta)) groups of the
    degree-d terms expanded to ghost length n, from path counts alone.  A
    term with range r and ghost length b gives group (b + j, w) one
    monomial per path of length j from r to w that the expansion keeps
    (j = n - b, or a shorter path into a sink).  A group (L, w) with k such
    monomials has at most min(k, |P(L + d, w)|) rows and min(k, |P(L, w)|)
    columns."""
    kept = collections.Counter()
    for (r, b), count in collections.Counter((m.beta.dst, len(m.beta.edges))
                                             for m in terms).items():
        level = {r: count}
        for j in range(n - b + 1):
            grown = collections.Counter()
            for w, c in level.items():
                if j == n - b or not graph.out_edges(w):
                    kept[b + j, w] += c
                for e in graph.out_edges(w):
                    grown[e.dst] += c
            level = grown
    counts = graph.path_counts(n + max(d, 0))
    return sum(min(k, counts[L + d][w]) * min(k, counts[L][w]) for (L, w), k in kept.items())


# ---------------------------------------------------------------------------
# Whole-algebra verdicts


class RegularityReport(NamedTuple):
    spec: AlgebraSpec
    method: str
    certificates: tuple
    overall: str                      # verified-at-bounds | counterexample-found
    counterexample: Optional[WitnessCertificate] = None

    @property
    def regular(self) -> bool:
        return self.overall == "verified-at-bounds"


def sample_homogeneous(spec: AlgebraSpec, degree_bound: int, length_bound: int,
                       count: int, rng: random.Random):
    """Seeded random homogeneous combinations of bounded reduced monomials."""
    pools = {d: reduced_monomials(spec, degree=d, max_len=length_bound)
             for d in range(-degree_bound, degree_bound + 1)}
    degrees = [d for d, pool in pools.items() if pool]
    nonzero = [c for c in spec.ring.elements() if c != spec.ring.zero]
    out = []
    if not degrees:
        return out
    attempts = 0
    while len(out) < count and attempts < 20 * count:
        attempts += 1
        d = rng.choice(degrees)
        pool = pools[d]
        k = rng.randint(1, min(3, len(pool)))
        monos = rng.sample(pool, k)
        terms = {m: rng.choice(nonzero) for m in monos}
        x = AlgebraElement.make(spec, terms)
        if not x.is_zero:
            out.append(x)
    return out


def graded_vnr_verdict(spec: AlgebraSpec, degree_bound: int = 3,
                       filtration_bound: int = 3, samples: int = 100,
                       seed: int = 0) -> RegularityReport:
    """A witness, or an exact absence, for every bounded reduced monomial
    times every nonzero scalar and for seeded random homogeneous
    combinations; the first absence is the counterexample."""
    method = "constructive" if is_vnr(spec.ring) else "blocks"
    if spec.graph.is_null():
        return RegularityReport(spec, method, (), "verified-at-bounds")
    ring = spec.ring
    nonzero = [c for c in ring.elements() if c != ring.zero]
    elements = []
    for d in range(-degree_bound, degree_bound + 1):
        for m in reduced_monomials(spec, degree=d, max_len=filtration_bound):
            for c in nonzero:
                elements.append(monomial_element(spec, m, c))
    rng = random.Random(seed)
    elements.extend(sample_homogeneous(spec, degree_bound, filtration_bound,
                                       samples, rng))
    certificates = [graded_witness_constructive(x) for x in elements if not x.is_zero]
    counterexample = next((c for c in certificates if c.absent), None)
    overall = "verified-at-bounds" if counterexample is None else "counterexample-found"
    return RegularityReport(spec, method, tuple(certificates), overall, counterexample)
