"""Corner skew Laurent polynomial rings R[t+, t-; alpha] over finite rings.

Defining relations (pinned here since the construction is cited, not
reproduced): t- t+ = 1, t+ t- = e, t+ r = alpha(r) t+, r t- = t- alpha(r),
for an idempotent e and an isomorphism alpha of R onto the corner eRe.

Over a finite ring the corner is all of R: alpha is a bijection of R onto
eRe, so |eRe| = |R|, hence eRe = R, 1 = e.x.e for some x, and e = 1.  So
alpha is an automorphism, t+ t- = 1 as well, and with t^k = t+^k for k >= 0
and t^k = t-^-k for k < 0 every product follows from t^i r = alpha^i(r) t^i.
Canonical form: sum of t-^k a_{-k} (k > 0), a_0, and a_k t+^k (k > 0), each
a_k a free coefficient.  A homogeneous element has a graded witness exactly
when its coefficient has one in R (csl_graded_witness).
"""

from __future__ import annotations

from typing import Optional

from .coeffring import Ring, vnr_witness
from .errors import (GralError, InternalVerificationFailure, NotCornerIso,
                     NotIdempotent, json_field)
from .regularity import WitnessCertificate


class CslAlgebra:
    """Handle for one corner skew Laurent ring; validates the corner data
    (alpha as a dict {element: image})."""

    def __init__(self, ring: Ring, e, alpha: dict):
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
        if e != ring.one:
            # a bijection onto eRe over a finite ring forces eRe = R, so e = 1
            raise InternalVerificationFailure("a finite corner other than R passed validation")
        self.ring = ring
        self.e = e
        self._alpha = dict(alpha)
        self._alpha_inv = {v: k for k, v in alpha.items()}

    def alpha_pow(self, k: int, a):
        """alpha^k(a) for any integer k; negative k applies alpha^-1."""
        step = (self._alpha if k >= 0 else self._alpha_inv).__getitem__
        return _iterate(step, a, abs(k))

    # -- elements -----------------------------------------------------------

    def element(self, coeffs: dict) -> "CSLElement":
        return CSLElement(self, self._canonical(coeffs))

    def _canonical(self, coeffs: dict) -> tuple:
        zero = self.ring.zero
        return tuple(sorted((d, c) for d, c in coeffs.items() if c != zero))

    def zero(self) -> "CSLElement":
        return self.element({})

    def one(self) -> "CSLElement":
        return self.element({0: self.ring.one})

    def scalar(self, r) -> "CSLElement":
        return self.element({0: r})

    def component_elements(self, d: int):
        """All of S_d (finite): one element per coefficient, in enumeration
        order."""
        return [self.element({d: c}) for c in self.ring.elements()]

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

    def degree(self) -> Optional[int]:
        if not self.coeffs:
            return None
        if len(self.coeffs) > 1:
            raise GralError("element is not homogeneous")
        return self.coeffs[0][0]

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
        """(a t^i)(b t^j) = a alpha^i(b) t^(i+j) on left-form coefficients;
        a coefficient c stored at degree -k (t-^k c) has left form
        alpha^-k(c), and the product is stored back in that form."""
        self._check(other)
        alg = self.algebra
        ring = alg.ring
        out = {}
        for i, a in self.coeffs:
            a = alg.alpha_pow(min(i, 0), a)
            for j, b in other.coeffs:
                d = i + j
                c = alg.alpha_pow(-min(d, 0), ring.mul(a, alg.alpha_pow(i + min(j, 0), b)))
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


def csl_graded_witness(x: CSLElement) -> WitnessCertificate:
    """Exact witness or exact absence, in closed form: x.b.x for x and b
    with coefficients a and c is x with a.c.a for a (t+^k t-^k = 1), so
    S_{-d} holds a witness iff a has one, and b takes c = vnr_witness(a)."""
    alg = x.algebra
    ring = alg.ring
    if x.is_zero:
        return WitnessCertificate(x, 0, "oracle", witness=x, verified=True)
    d = x.degree()
    c = vnr_witness(ring, x.coeff(d))
    if c is None:
        return WitnessCertificate(x, d, "oracle", absent=True, absence_exact=True,
                                  searched=f"full degree {-d} component ({ring.order} coefficients)",
                                  verified=True)
    b = alg.element({-d: c})
    if x * b * x != x:
        raise InternalVerificationFailure("corner witness failed verification")
    return WitnessCertificate(x, d, "oracle", witness=b, verified=True)


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
    return CslAlgebra(ring, e, alpha)


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
