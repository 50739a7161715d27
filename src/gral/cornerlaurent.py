"""Corner skew Laurent polynomial rings R[t+, t-; alpha] over finite rings.

Defining relations (pinned here since the construction is cited, not
reproduced): t- t+ = 1, t+ t- = e, t+ r = alpha(r) t+, r t- = t- alpha(r).
Canonical form: sum of t-^i a_{-i} (i > 0), a_0, and a_i t+^i (i > 0) with
a_i = a_i e_i and a_{-i} = e_i a_{-i}, where e_i = t+^i t-^i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coeffring import Ring, search_cap
from .errors import (AssertionFailure, GralError, NotCornerIso, NotIdempotent,
                     SearchCapExceeded, json_field)
from .regularity import WitnessCertificate


@dataclass(frozen=True)
class CornerData:
    ring: Ring
    e: object
    alpha: tuple  # ((element, image), ...) sorted by enumeration index

    @staticmethod
    def make(ring: Ring, e, alpha: dict) -> "CornerData":
        return CornerData(ring, e, tuple(sorted(alpha.items(),
                                                key=lambda kv: ring.index(kv[0]))))

    def alpha_map(self) -> dict:
        return dict(self.alpha)


class CslAlgebra:
    """Handle for one corner skew Laurent ring; validates the corner data."""

    def __init__(self, data: CornerData):
        ring = data.ring
        e = data.e
        alpha = data.alpha_map()
        if ring.mul(e, e) != e:
            raise NotIdempotent(f"{ring.format_element(e)} is not idempotent")
        corner = {ring.mul(ring.mul(e, x), e) for x in ring.elements()}
        if set(alpha) != set(ring.elements()):
            raise NotCornerIso("alpha must be total on the ring")
        image = set(alpha.values())
        if image != corner or len(image) != len(alpha):
            raise NotCornerIso("alpha is not a bijection onto eRe")
        if alpha[ring.one] != e:
            raise NotCornerIso("alpha(1) must equal e")
        for a in ring.elements():
            for b in ring.elements():
                if alpha[ring.add(a, b)] != ring.add(alpha[a], alpha[b]):
                    raise NotCornerIso(f"alpha not additive at ({a!r},{b!r})")
                if alpha[ring.mul(a, b)] != ring.mul(alpha[a], alpha[b]):
                    raise NotCornerIso(f"alpha not multiplicative at ({a!r},{b!r})")
        self.ring = ring
        self.e = e
        self._alpha = alpha
        self._alpha_inv = {v: k for k, v in alpha.items()}

    def corner_unit(self, i: int):
        """e_i = t+^i t-^i, via e_0 = 1 and e_{i+1} = alpha(e_i).e."""
        return _iterate(lambda c: self.ring.mul(self._alpha[c], self.e), self.ring.one, i)

    def alpha_pow(self, k: int, a):
        return _iterate(self._alpha.__getitem__, a, k)

    def _reduce_middle(self, c, k: int):
        """t-^k c t+^k as a coefficient: k-fold alpha^{-1}(e c e)."""
        ring = self.ring
        return _iterate(lambda c: self._alpha_inv[ring.mul(ring.mul(self.e, c), self.e)], c, k)

    # -- elements -----------------------------------------------------------

    def element(self, coeffs: dict) -> "CSLElement":
        return CSLElement(self, self._canonical(coeffs))

    def _canonical(self, coeffs: dict) -> tuple:
        ring = self.ring
        out = {}
        for d, c in coeffs.items():
            if d > 0:
                c = ring.mul(c, self.corner_unit(d))
            elif d < 0:
                c = ring.mul(self.corner_unit(-d), c)
            if c != ring.zero:
                out[d] = ring.add(out[d], c) if d in out else c
                if out[d] == ring.zero:
                    del out[d]
        return tuple(sorted(out.items()))

    def zero(self) -> "CSLElement":
        return self.element({})

    def one(self) -> "CSLElement":
        return self.element({0: self.ring.one})

    def scalar(self, r) -> "CSLElement":
        return self.element({0: r})

    def t_plus(self, i: int = 1) -> "CSLElement":
        return self.element({i: self.ring.one})

    def t_minus(self, i: int = 1) -> "CSLElement":
        return self.element({-i: self.ring.one})

    def component_elements(self, d: int):
        """All of S_d (finite): canonical coefficients at degree d."""
        seen = []
        for c in self.ring.elements():
            x = self.element({d: c})
            if x not in seen:
                seen.append(x)
        return seen

    def __eq__(self, other):
        return (isinstance(other, CslAlgebra) and other.ring == self.ring
                and other.e == self.e and other._alpha == self._alpha)

    def __hash__(self):
        return hash((self.ring, self.e, tuple(sorted(self._alpha.items(),
                                                     key=lambda kv: self.ring.index(kv[0])))))

    def describe(self) -> str:
        kind = "id" if all(k == v for k, v in self._alpha.items()) else "twisted"
        return f"{self.ring.describe()}[t+,t-;{kind}]"


class CSLElement:
    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: CslAlgebra, coeffs: tuple):
        self.algebra = algebra
        self.coeffs = coeffs  # sorted ((degree, coeff), ...), canonical

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, d: int):
        for dd, c in self.coeffs:
            if dd == d:
                return c
        return self.algebra.ring.zero

    def degrees(self):
        return [d for d, _ in self.coeffs]

    def degree(self) -> Optional[int]:
        if not self.coeffs:
            return None
        if len(self.coeffs) > 1:
            raise GralError("element is not homogeneous")
        return self.coeffs[0][0]

    def is_homogeneous(self) -> bool:
        return len(self.coeffs) <= 1

    def _check(self, other):
        if self.algebra != other.algebra:
            raise GralError("elements from different corner Laurent rings")

    def __add__(self, other):
        self._check(other)
        ring = self.algebra.ring
        out = dict(self.coeffs)
        for d, c in other.coeffs:
            out[d] = ring.add(out.get(d, ring.zero), c)
        return self.algebra.element(out)

    def __neg__(self):
        ring = self.algebra.ring
        return self.algebra.element({d: ring.neg(c) for d, c in self.coeffs})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        alg = self.algebra
        ring = alg.ring
        out = {}
        for i, a in self.coeffs:
            for j, b in other.coeffs:
                d, c = _term_product(alg, i, a, j, b)
                if c != ring.zero:
                    out[d] = ring.add(out.get(d, ring.zero), c)
        return alg.element(out)

    def scale(self, r) -> "CSLElement":
        # left multiplication by the degree-0 coefficient r
        return self.algebra.scalar(r) * self

    def __eq__(self, other):
        return (isinstance(other, CSLElement) and other.algebra == self.algebra
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.algebra, self.coeffs))

    def __repr__(self):
        return format_csl(self)


def _iterate(step, x, k: int):
    """step applied k times to x.  The ring is finite, so the orbit of x
    repeats within |R| steps, and any k costs no more steps than that."""
    orbit = [x]
    for _ in range(k):
        x = step(x)
        if x in orbit:
            start = orbit.index(x)
            return orbit[start + (k - start) % (len(orbit) - start)]
        orbit.append(x)
    return x


def _term_product(alg: CslAlgebra, i: int, a, j: int, b):
    """Product of canonical terms at degrees i and j -> (degree, coefficient)."""
    ring = alg.ring
    if i >= 0 and j >= 0:
        return i + j, ring.mul(a, alg.alpha_pow(i, b))
    if i <= 0 and j <= 0:
        return i + j, ring.mul(alg.alpha_pow(-j, a), b)
    if i > 0 and j < 0:
        k = -j
        if i >= k:
            return i - k, ring.mul(a, alg.alpha_pow(i - k, ring.mul(alg.corner_unit(k), b)))
        return i - k, ring.mul(alg.alpha_pow(k - i, ring.mul(a, alg.corner_unit(i))), b)
    # i < 0 < j: middle coefficient crosses the corner
    k = -i
    c = ring.mul(a, b)
    if k <= j:
        return j - k, alg._reduce_middle(c, k)
    return -(k - j), alg._reduce_middle(c, j)


def format_csl(x: CSLElement) -> str:
    if x.is_zero:
        return "0"
    ring = x.algebra.ring
    parts = []
    for d, c in x.coeffs:
        cs = ring.format_element(c)
        if d == 0:
            parts.append(cs)
        elif d > 0:
            t = "t+" if d == 1 else f"t+^{d}"
            parts.append(t if c == ring.one else f"{cs}*{t}")
        else:
            t = "t-" if d == -1 else f"t-^{-d}"
            parts.append(t if c == ring.one else f"{t}*{cs}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Operations


def csl_make(data: CornerData) -> CslAlgebra:
    return CslAlgebra(data)


def csl_table_epsilon(alg: CslAlgebra, n: int) -> CSLElement:
    """Table entry: e_n for n > 0, the identity for n <= 0."""
    return alg.scalar(alg.corner_unit(n)) if n > 0 else alg.one()


def csl_epsilon(alg: CslAlgebra, n: int) -> CSLElement:
    """Epsilon element at degree n, validated against the unit relations:
    epsilon_n . s = s = s . epsilon_{-n} for every s in the (finite)
    component S_n.  Raises AssertionFailure with a counterexample."""
    eps = csl_table_epsilon(alg, n)
    eps_inv = csl_table_epsilon(alg, -n)
    for s in alg.component_elements(n):
        if eps * s != s:
            raise AssertionFailure(f"epsilon_{n} fails as left unit on {s!r}")
        if s * eps_inv != s:
            raise AssertionFailure(f"epsilon_{-n} fails as right unit on {s!r}")
    return eps


def csl_graded_witness(x: CSLElement, bound: int = 3) -> WitnessCertificate:
    """Exact witness or exact absence: S_{-d} is the finite coset of
    canonical degree-(-d) coefficients, enumerated exhaustively."""
    alg = x.algebra
    ring = alg.ring
    if x.is_zero:
        return WitnessCertificate(x, 0, "oracle", witness=x, verified=True)
    d = x.degree()
    cap = search_cap()
    if ring.order > cap:
        raise SearchCapExceeded(ring.order, cap, "corner witness search")
    searched = f"full degree {-d} component ({ring.order} coefficients)"
    for b in alg.component_elements(-d):
        if x * b * x == x:
            return WitnessCertificate(x, d, "oracle", witness=b,
                                      bounds=(("size", bound),), verified=True)
    return WitnessCertificate(x, d, "oracle", absent=True, absence_exact=True,
                              searched=searched, bounds=(("size", bound),),
                              verified=True)


# ---------------------------------------------------------------------------
# JSON interface


def corner_from_dict(obj) -> CslAlgebra:
    """{"ring": <ring spec>, "e": <element>, "alpha": {"<elt>": <image>, ...}}

    Keys of "alpha" are the JSON encodings of elements rendered as strings
    (json.dumps with compact separators).
    """
    import json

    from .coeffring import ring_make

    what = "a corner"
    ring = ring_make(json_field(obj, "ring", dict, what))
    e = ring.decode(json_field(obj, "e", object, what))
    alpha = {ring.decode(json.loads(key)): ring.decode(img)
             for key, img in json_field(obj, "alpha", dict, what).items()}
    return csl_make(CornerData.make(ring, e, alpha))


def corner_to_dict(alg: CslAlgebra):
    import json

    from .coeffring import ring_spec

    ring = alg.ring
    return {
        "ring": ring_spec(ring),
        "e": ring.encode(alg.e),
        "alpha": {json.dumps(ring.encode(k), separators=(",", ":")): ring.encode(v)
                  for k, v in sorted(alg._alpha.items(), key=lambda kv: ring.index(kv[0]))},
    }


def csl_element_from_dict(alg: CslAlgebra, obj) -> CSLElement:
    """{"terms": [{"degree": d, "coeff": <element>}]}"""
    ring = alg.ring
    coeffs = {}
    for t in json_field(obj, "terms", [dict], "a corner element"):
        d = json_field(t, "degree", int, "a corner element term")
        c = ring.decode(json_field(t, "coeff", object, "a corner element term"))
        coeffs[d] = ring.add(coeffs.get(d, ring.zero), c)
    return alg.element(coeffs)


def csl_element_to_dict(x: CSLElement):
    ring = x.algebra.ring
    return {"terms": [{"degree": d, "coeff": ring.encode(c)} for d, c in x.coeffs]}
