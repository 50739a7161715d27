"""Graded von Neumann regularity witnesses for Leavitt path algebras and
relative Cohn path algebras.

The constructive route follows the idempotent-generator proof: build a
per-element left local unit with an explicit factorization across degrees
d and -d, push the resulting degree-zero generators into a matricial
filtration level, combine them into a single idempotent there, and read
off the witness.  A relative Cohn spec C^X(E) takes its witnesses from
L(E(X)) through the isomorphism phi and its inverse psi
(morphisms.cohn_isomorphism): psi of the witness of phi(x), checked again
on x.  The oracle route asks gradedstruct.solve_combination for a
combination b of a bounded spanning set with x.b.x = x, and its absence
is exact on acyclic graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .coeffring import MatrixOverRing, is_vnr, matrix_vnr_witness, mul_entries
# not called here, but perfbench/tracer.py rebinds solve_linear_system in
# every gral module that holds it
from .coeffring import solve_linear_system  # noqa: F401
from .errors import (CoefficientRingNotVNR, GralError,
                     InternalVerificationFailure, ZeroElement)
from .morphisms import cohn_isomorphism, hom_apply
from .pathalg import (AlgebraElement, AlgebraSpec, BlockStructure,
                      MatricialImage, Monomial, _expand_to_level,
                      filtration_level, matricial_decompose, matricial_lift,
                      monomial_element, reduced_monomials)

# ---------------------------------------------------------------------------
# Local units


@dataclass(frozen=True)
class UnitFactorization:
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
    if not is_vnr(ring).regular:
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


@dataclass(frozen=True)
class WitnessCertificate:
    """Machine-checkable record: either a verified witness b with
    x = x.b.x, or a certified absence over a described search space."""

    element: object
    degree: int
    method: str                       # "constructive" | "oracle"
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
    """Witness via local units and the matricial idempotent generator; a
    relative Cohn spec takes psi of the witness of phi(x).

    Guaranteed to succeed over vnr coefficient rings; an
    InternalVerificationFailure therefore signals a bug, not a negative.
    """
    spec = x.spec
    if not is_vnr(spec.ring).regular:
        raise CoefficientRingNotVNR(f"{spec.ring.describe()} is not von Neumann regular")
    if x.is_zero:
        raise ZeroElement("the zero element needs no witness")
    d = x.degree()
    if not spec.is_leavitt:
        phi, psi = cohn_isomorphism(spec)
        b = hom_apply(psi, graded_witness_constructive(hom_apply(phi, x)).witness)
        if b.degree() != -d or not _verify_witness(x, b):
            raise InternalVerificationFailure("transported witness failed verification")
        return WitnessCertificate(x, d, "constructive", witness=b, verified=True)
    if d < 0:
        mirror = graded_witness_constructive(x.involution())
        b = mirror.witness.involution()
        if not _verify_witness(x, b):
            raise InternalVerificationFailure("reflected witness failed")
        return WitnessCertificate(x, d, "constructive", witness=b, verified=True)
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
    return WitnessCertificate(x, d, "constructive", witness=r, verified=True)


def graded_witness_oracle(x: AlgebraElement, bound: int,
                          oracle=None) -> WitnessCertificate:
    """solve_combination for x.b.x = x over the degree-(-d) spanning
    monomials with real/ghost lengths at most the bound, from the spec's
    PathAlgebraOracle (pass one to share its spanning sets).  Exact
    absence on acyclic graphs once the bound reaches the longest path."""
    from .gradedstruct import PathAlgebraOracle, solve_combination

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
    if not _verify_witness(x, b):
        raise InternalVerificationFailure("oracle witness failed verification")
    return WitnessCertificate(x, d, "oracle", witness=b, bounds=bounds,
                              verified=True)


# ---------------------------------------------------------------------------
# Whole-algebra verdicts


@dataclass(frozen=True)
class RegularityReport:
    spec: AlgebraSpec
    method: str
    bounds: tuple
    certificates: tuple
    overall: str                      # verified-at-bounds | counterexample-found | inconclusive-at-bounds
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
                       seed: int = 0, method: Optional[str] = None) -> RegularityReport:
    """Run witness searches over all bounded reduced monomials, their scalar
    multiples, and seeded random homogeneous combinations."""
    from .gradedstruct import PathAlgebraOracle

    bounds = (("degree", degree_bound), ("length", filtration_bound),
              ("samples", samples), ("seed", seed))
    if spec.graph.is_null():
        return RegularityReport(spec, method or "constructive", bounds, (),
                                "verified-at-bounds")
    if method is None:
        method = "constructive" if is_vnr(spec.ring).regular else "oracle"
    elif method == "constructive" and not is_vnr(spec.ring).regular:
        raise CoefficientRingNotVNR(
            f"{spec.ring.describe()} is not von Neumann regular")
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
    oracle = PathAlgebraOracle(spec)
    certificates = []
    counterexample = None
    inconclusive = False
    for x in elements:
        if x.is_zero:
            continue
        if method == "constructive":
            cert = graded_witness_constructive(x)
        else:
            cert = graded_witness_oracle(x, filtration_bound, oracle)
        certificates.append(cert)
        if cert.absent and counterexample is None:
            if cert.absence_exact:
                counterexample = cert
            else:
                inconclusive = True
    if counterexample is not None:
        overall = "counterexample-found"
    elif inconclusive:
        overall = "inconclusive-at-bounds"
    else:
        overall = "verified-at-bounds"
    return RegularityReport(spec, method, bounds, tuple(certificates),
                            overall, counterexample)
