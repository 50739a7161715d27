"""Corner skew Laurent rings: relations, canonical form, witnesses."""

import json
import random

import pytest

from conftest import swap_algebra, table_upper_z2, table_z2xz2
from gral.coeffring import ModularRing, ProductRing, is_vnr
from gral.cornerlaurent import (CslAlgebra, corner_from_dict,
                                corner_to_dict, csl_element_from_dict,
                                csl_element_to_dict, csl_graded_witness,
                                format_csl)
from gral.errors import GralError, NotCornerIso, NotIdempotent
from gral.gradedstruct import CslOracle, check_epsilon_strong


def t_plus(alg, i=1):
    """The generator t+ of the corner ring, to the power i."""
    return alg.element({i: alg.ring.one})


def t_minus(alg, i=1):
    """The generator t- of the corner ring, to the power i."""
    return alg.element({-i: alg.ring.one})


def laurent(n):
    ring = ModularRing(n)
    return CslAlgebra(ring, 1, {i: i for i in range(n)})


# -- construction ----------------------------------------------------------------


def test_laurent_degenerate_corner():
    alg = laurent(2)
    assert alg.e == 1
    tp, tm = t_plus(alg), t_minus(alg)
    assert tm * tp == alg.one()
    assert tp * tm == alg.scalar(alg.e)


def test_swap_relation():
    alg = swap_algebra()
    lhs = t_plus(alg) * alg.scalar((1, 0))
    rhs = alg.scalar((0, 1)) * t_plus(alg)
    assert lhs == rhs


def test_not_idempotent_rejected():
    ring = ModularRing(4)
    with pytest.raises(NotIdempotent):
        CslAlgebra(ring, 2, {i: i for i in range(4)})


def test_not_corner_iso_rejected():
    ring = ModularRing(4)
    # additive but not multiplicative on Z/4: x -> 3x fixes 1? 3*1=3 != 1
    bad = {i: (3 * i) % 4 for i in range(4)}
    with pytest.raises(NotCornerIso):
        CslAlgebra(ring, 1, bad)
    with pytest.raises(NotCornerIso):
        CslAlgebra(ring, 1, {0: 0, 1: 1, 2: 2})


def test_finite_corner_is_the_whole_ring():
    # alpha is a bijection onto eRe, so over a finite ring eRe = R and e = 1:
    # every idempotent e != 1 has a smaller corner and is refused
    for ring in (ModularRing(6), ModularRing(12), ModularRing(30),
                 ProductRing([ModularRing(2), ModularRing(2)]), table_upper_z2()):
        proper = [e for e in ring.elements()
                  if ring.mul(e, e) == e and e != ring.one]
        assert proper
        for e in proper:
            corner = {ring.mul(ring.mul(e, x), e) for x in ring.elements()}
            assert len(corner) < ring.order
            with pytest.raises(NotCornerIso, match="not a bijection onto eRe"):
                CslAlgebra(ring, e, {x: ring.mul(ring.mul(e, x), e)
                                     for x in ring.elements()})


# -- multiplication -----------------------------------------------------------------


def test_defining_relations():
    alg = laurent(6)
    tp, tm = t_plus(alg), t_minus(alg)
    assert tm * tp == alg.one()
    assert tp * tm == alg.scalar(alg.e)
    r = alg.scalar(4)
    assert tp * r == alg.scalar(4) * tp  # alpha = id here
    assert r * tm == tm * alg.scalar(4)


def test_canonical_form_idempotent():
    alg = swap_algebra()
    rng = random.Random(83)
    elems = [alg.element({d: (rng.randrange(2), rng.randrange(2))
                          for d in range(-2, 3)}) for _ in range(40)]
    for x in elems:
        assert alg.element(dict(x.coeffs)) == x


def test_associativity_random():
    for alg in (laurent(6), swap_algebra()):
        ring = alg.ring
        rng = random.Random(89)
        def rand():
            return alg.element({d: rng.choice(ring.elements())
                                for d in rng.sample(range(-3, 4), rng.randint(1, 3))})
        for _ in range(150):
            x, y, z = rand(), rand(), rand()
            assert (x * y) * z == x * (y * z)


def test_t_plus_t_minus_powers_are_one():
    # e = 1: t+^i t-^i = t-^i t+^i = 1, and t^i r = alpha^i(r) t^i for
    # negative i too
    for alg in (laurent(6), swap_algebra()):
        for i in range(1, 6):
            assert t_plus(alg, i) * t_minus(alg, i) == alg.one()
            assert t_minus(alg, i) * t_plus(alg, i) == alg.one()
            for r in alg.ring.elements():
                assert t_minus(alg, i) * alg.scalar(r) == \
                    alg.scalar(alg.alpha_pow(-i, r)) * t_minus(alg, i)
                assert alg.alpha_pow(i, alg.alpha_pow(-i, r)) == r


# -- epsilon structure -----------------------------------------------------------------


def test_large_degrees_follow_the_orbits():
    # alpha permutes the finite ring, so alpha^k and the products of terms
    # of huge degree are read off the orbits; the swap has period 2
    alg = swap_algebra()
    huge = 10**18
    for a in alg.ring.elements():
        assert [alg.alpha_pow(k, a) for k in range(5)] == [a, a[::-1]] * 2 + [a]
        assert alg.alpha_pow(huge, a) == a and alg.alpha_pow(huge + 1, a) == a[::-1]
        assert alg.alpha_pow(-huge - 1, a) == a[::-1]
    x = alg.element({huge: (1, 0)}) * alg.element({-huge - 1: (1, 1)})
    assert x == alg.element({2: (1, 0)}) * alg.element({-3: (1, 1)})
    assert not x.is_zero and not csl_graded_witness(x).absent


def test_epsilon_table_degenerate():
    # corner oracles go through the generic epsilon loop; the table reads 1
    overall, rows, table = check_epsilon_strong(CslOracle(laurent(2)), 3, 3)
    assert overall.holds
    assert [r.verdict.status for r in rows] == ["holds-exactly"] * 7
    assert table == tuple((d, "1") for d in range(-3, 4))


def test_epsilon_left_relation():
    # 1 is the only degree-0 element acting as a left unit on S_d and a right
    # unit on S_-d, and the twisted table reads it at every degree
    alg = swap_algebra()
    _, _, table = check_epsilon_strong(CslOracle(alg), 2, 2)
    assert table == tuple((d, "(1,1)") for d in range(-2, 3))
    for d in range(-2, 3):
        units = [r for r in alg.ring.elements()
                 if all(alg.scalar(r) * s == s for s in alg.component_elements(d))
                 and all(t * alg.scalar(r) == t for t in alg.component_elements(-d))]
        assert units == [alg.ring.one]


# -- witnesses --------------------------------------------------------------------------


def test_witness_tplus():
    alg = laurent(2)
    cert = csl_graded_witness(t_plus(alg))
    assert cert.witness == t_minus(alg)
    assert cert.verified


def test_witness_2tplus_z6():
    alg = laurent(6)
    x = alg.element({1: 2})
    cert = csl_graded_witness(x)
    assert not cert.absent
    assert x * cert.witness * x == x
    assert cert.witness == alg.element({-1: 2})


def test_witness_2tplus_z4_exact_absence():
    alg = laurent(4)
    cert = csl_graded_witness(alg.element({1: 2}))
    assert cert.absent and cert.absence_exact
    assert "degree -1" in cert.searched


def test_witness_zero():
    alg = laurent(2)
    cert = csl_graded_witness(alg.zero())
    assert cert.witness == alg.zero()


def test_inhomogeneous_rejected():
    alg = laurent(2)
    x = alg.one() + t_plus(alg)
    with pytest.raises(GralError):
        csl_graded_witness(x)


def enumerated_witness(x, parts=()):
    """The reference: the first b of S_-d, in enumeration order, with
    x.b.x = x, or None.  With parts, the prime powers q of a composite Z/n,
    b's coefficient must also be, mod each q, the first witness over Z/q of
    x's coefficient: the CRT join of the parts' first witnesses."""
    d = x.degree()
    a = x.coeff(d)

    def first_mod(q):
        return next(y for y in range(q) if (a * y * a - a) % q == 0)
    return next((b for b in x.algebra.component_elements(-d)
                 if x * b * x == x and all(b.coeff(-d) % q == first_mod(q) for q in parts)),
                None)


def identity_corner(ring):
    return CslAlgebra(ring, ring.one, {a: a for a in ring.elements()})


@pytest.mark.parametrize("alg, parts", [
    (laurent(4), ()), (laurent(6), (2, 3)), (laurent(8), ()),
    (identity_corner(ProductRing([ModularRing(2), ModularRing(3)])), ()),
    (identity_corner(table_upper_z2()), ()), (swap_algebra(), ()),
    # the bit swap (a, b) -> (b, a) of Z/2 x Z/2 given by tables
    (CslAlgebra(table_z2xz2(), 3, {0: 0, 1: 2, 2: 1, 3: 3}), ()),
], ids=["Z4", "Z6", "Z8", "Z2xZ3", "upper_Z2", "swap", "table_swap"])
def test_closed_form_witness_is_the_first_enumerated(alg, parts):
    # the witness is the first in enumeration order over every ring but a
    # composite Z/n, where it is the CRT join of its parts' first witnesses
    # (over Z/6, 3t+ takes 3t- where the first witness is t-)
    for d in range(-4, 5):
        for x in alg.component_elements(d):
            if x.is_zero:
                continue
            cert = csl_graded_witness(x)
            expected = enumerated_witness(x, parts)
            assert cert.verified and cert.absent == (expected is None), format_csl(x)
            assert cert.witness == expected and (not cert.absent or cert.absence_exact)


def test_cor_witnesses_iff_vnr_coefficients():
    # witness search succeeds for every homogeneous element iff is_vnr(R)
    fixtures = [laurent(2), laurent(6), laurent(4), swap_algebra()]
    for alg in fixtures:
        expected = is_vnr(alg.ring)
        found_all = True
        for d in range(-3, 4):
            for x in alg.component_elements(d):
                if x.is_zero:
                    continue
                if csl_graded_witness(x).absent:
                    found_all = False
        assert found_all == expected, alg.describe()


def test_cor_no_homogeneous_annihilator_when_vnr():
    # over vnr coefficients no homogeneous x != 0 kills the whole truncation
    for alg in (laurent(6), swap_algebra()):
        span = [x for d in range(-2, 3) for x in alg.component_elements(d)
                if not x.is_zero]
        for x in span:
            assert any(not (x * s * x).is_zero for s in span)


# -- serialization ------------------------------------------------------------------------


def test_corner_json_roundtrip():
    alg = swap_algebra()
    blob = json.dumps(corner_to_dict(alg))
    alg2 = corner_from_dict(json.loads(blob))
    assert alg2 == alg


def test_element_json_roundtrip():
    alg = swap_algebra()
    x = alg.element({2: (1, 0), 0: (1, 1), -1: (0, 1)})
    assert csl_element_from_dict(alg, csl_element_to_dict(x)) == x


def test_format():
    alg = laurent(6)
    x = alg.element({-2: 3, 0: 1, 1: 2})
    assert format_csl(x) == "t-^2*3 + 1 + 2*t+"
