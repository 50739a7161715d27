"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with -s to see the lines; every criterion is exercised at its stated
bounds and tolerances (all checks here are exact integer arithmetic).
"""

import random
import time

from conftest import (SIX_GRAPHS, graph_a1, graph_loop, graph_rose2,
                      graph_toeplitz, graph_vw, graph_vwu, random_element,
                      random_word, word_in_random_order)
from gral.coeffring import ModularRing, ProductRing
from gral.cornerlaurent import CslAlgebra, csl_graded_witness
from gral.gradedstruct import (CslOracle, MatrixGradingOracle,
                               PathAlgebraOracle,
                               TrivialGradingOracle, check_epsilon_strong,
                               check_strong_Z, classify, epsilon_element,
                               is_semiprime_graded,
                               zero_multiplication_ring)
from gral.graphs import CohnPair, GraphMorphism
from gral.morphisms import cohn_to_leavitt, verify_graded_iso
from gral.pathalg import (AlgebraElement, AlgebraSpec, dn_rank,
                          format_element,
                          matricial_decompose, monomial_element,
                          reduced_monomials, word_element)
from gral.regularity import (graded_vnr_verdict, graded_witness_constructive,
                             sample_homogeneous)
from reference import (PolynomialOracle, chain_colimit_check, graded_witness_oracle,
                       is_homogeneous, jacobson_radical_algebra, longest_path_length)

RINGS = {2: ModularRing(2), 3: ModularRing(3), 4: ModularRing(4),
         6: ModularRing(6)}


def leavitt(graph, n):
    return AlgebraSpec.leavitt(graph, RINGS[n])


def report(number, ok, text):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_constructive_witnesses_positive():
    """Every reduced monomial (|degree| <= 3, lengths <= 3) and 100 seeded
    random homogeneous elements get a verified witness, over all six graphs
    and Z/2, Z/3, Z/6; under 60 seconds."""
    start = time.time()
    failures = 0
    total = 0
    for name, make in SIX_GRAPHS.items():
        for n in (2, 3, 6):
            spec = leavitt(make(), n)
            elements = [monomial_element(spec, m)
                        for m in reduced_monomials(spec, max_len=3)
                        if abs(m.degree) <= 3]
            rng = random.Random(1000 + n)
            elements += sample_homogeneous(spec, 3, 3, 100, rng)
            for x in elements:
                if x.is_zero:
                    continue
                total += 1
                cert = graded_witness_constructive(x)
                if not cert.verified or x * cert.witness * x != x:
                    failures += 1
    elapsed = time.time() - start
    report(1, failures == 0 and elapsed < 60,
           f"{total} constructive witnesses verified, 0 expected failures, "
           f"{elapsed:.1f}s")


def test_criterion_02_exact_absences_over_z4():
    spec_a1 = leavitt(graph_a1(), 4)
    cert1 = graded_witness_oracle(word_element(spec_a1, ["v"], coeff=2), 3)
    spec_vw = leavitt(graph_vw(), 4)
    cert2 = graded_witness_oracle(word_element(spec_vw, ["f"], coeff=2), 3)
    ok = (cert1.absent and cert1.absence_exact
          and cert2.absent and cert2.absence_exact)
    report(2, ok, "2v and 2f over Z/4 get exact absence certificates")


def test_criterion_03_matricial_ranks_and_homomorphism():
    ok = True
    for name, make in SIX_GRAPHS.items():
        spec = leavitt(make(), 6)
        for n in range(4):
            ok = ok and dn_rank(spec, n) == len(reduced_monomials(spec, degree=0, max_len=n))
    loop = leavitt(graph_loop(), 6)
    ok = ok and [dn_rank(loop, n) for n in (1, 2, 3)] == [1, 1, 1]
    ok = ok and dn_rank(leavitt(graph_vw(), 6), 1) == 2
    ok = ok and dn_rank(leavitt(graph_rose2(), 6), 2) == 16
    pairs = 0
    for name, make in SIX_GRAPHS.items():
        spec = leavitt(make(), 6)
        basis = reduced_monomials(spec, degree=0, max_len=2)
        if not basis:
            continue
        rng = random.Random(300)
        for _ in range(200):
            x = AlgebraElement.make(
                spec, {m: rng.randrange(1, 6)
                       for m in rng.sample(basis, min(2, len(basis)))})
            y = AlgebraElement.make(
                spec, {m: rng.randrange(1, 6)
                       for m in rng.sample(basis, min(2, len(basis)))})
            pairs += 1
            if matricial_decompose(x * y, 2) != \
                    matricial_decompose(x, 2) * matricial_decompose(y, 2):
                ok = False
    report(3, ok, f"block ranks match the formula; decompose multiplicative "
                  f"on {pairs} random pairs")


def test_criterion_04_oracle_constructive_agreement():
    ok = True
    checked = 0
    for make in (graph_a1, graph_vw, graph_vwu):
        for n in (2, 6):
            spec = leavitt(make(), n)
            bound = longest_path_length(spec.graph)
            for d in range(-3, 4):
                for m in reduced_monomials(spec, degree=d, max_len=bound):
                    x = monomial_element(spec, m)
                    checked += 1
                    oracle = graded_witness_oracle(x, bound)
                    constructive = graded_witness_constructive(x)
                    if oracle.absent or constructive.absent:
                        ok = False
    report(4, ok, f"oracle and constructive methods agree on {checked} "
                  f"acyclic spanning elements")


def test_criterion_05_epsilon_structure():
    ok = True
    for name, make in SIX_GRAPHS.items():
        for n_ring in (2, 6):
            spec = leavitt(make(), n_ring)
            for n in range(-3, 4):
                eps = epsilon_element(spec, n)
                for m in reduced_monomials(spec, degree=n, max_len=3):
                    s = monomial_element(spec, m)
                    ok = ok and eps * s == s
                for m in reduced_monomials(spec, degree=-n, max_len=3):
                    s = monomial_element(spec, m)
                    ok = ok and s * eps == s
    mo = MatrixGradingOracle(RINGS[2])
    _, _, table = check_epsilon_strong(mo, 3, 3)
    got = dict(table)
    ok = ok and got[1] == mo.format(mo.unit(0, 0))
    ok = ok and got[-1] == mo.format(mo.unit(1, 1))
    ok = ok and got[0] == mo.format(mo.identity())
    ok = ok and all(got[d] == "0" for d in (-3, -2, 2, 3))
    report(5, ok, "epsilon relations hold at |n| <= 3; matrix-grading table "
                  "is e11 / e22 / 1 / 0")


def test_criterion_06_strong_iff_no_sinks():
    expected = {"loop": True, "2cycle": True, "rose2": True,
                "A1": False, "vw": False, "toeplitz": False}
    ok = True
    for name, make in SIX_GRAPHS.items():
        verdict = check_strong_Z(PathAlgebraOracle(leavitt(make(), 2)), 3)
        ok = ok and verdict.strong == expected[name] == verdict.no_sinks
    report(6, ok, "check_strong_Z matches the no-sinks criterion on all six graphs")


def test_criterion_07_cohn_to_leavitt_iso():
    phi = cohn_to_leavitt(CohnPair(graph_vw(), frozenset()), RINGS[2])
    verdict = verify_graded_iso(phi, 2, 2)
    ok = (verdict.status == "holds-exactly"
          and verdict.total_source_rank() == 5
          and verdict.total_target_rank() == 5)
    report(7, ok, "C^0(v->w) = L(E(X)) verified exactly with total rank 5")


def test_criterion_08_implication_chain():
    chain = ("strong", "epsilon-strong", "nearly-epsilon", "symmetric")
    corpus = []
    for name, make in SIX_GRAPHS.items():
        for n in (2, 4, 6):
            corpus.append(classify(leavitt(make(), n), 2, 2))
    corpus.append(classify(MatrixGradingOracle(RINGS[2]), 2, 2))
    corpus.append(classify(PolynomialOracle(RINGS[2]), 2, 2))
    corpus.append(classify(TrivialGradingOracle(zero_multiplication_ring(2)), 2, 2))
    lau = CslAlgebra(RINGS[2], 1, {0: 0, 1: 1})
    corpus.append(classify(CslOracle(lau), 2, 2))
    ok = True
    for rep in corpus:
        holds = [rep.verdict(p).holds for p in chain]
        ok = ok and all(not a or b for a, b in zip(holds, holds[1:]))
    spec = leavitt(graph_a1(), 4)
    sym = classify(spec, 2, 2).verdict("symmetric").holds
    vnr = graded_vnr_verdict(spec, 2, 2, samples=10, seed=0)
    ok = ok and sym and vnr.overall == "counterexample-found"
    report(8, ok, f"no report among {len(corpus)} violates the implication "
                  f"chain; Z/4 fixture is symmetric but not graded-vnr")


def test_criterion_09_radical_and_semiprimeness():
    rep2 = jacobson_radical_algebra(leavitt(graph_a1(), 2))
    rep4 = jacobson_radical_algebra(leavitt(graph_a1(), 4))
    ok = rep2.size == 1 and rep4.size == 2
    ok = ok and [format_element(g) for g in rep4.generators] == ["2*v"]
    verdict4 = is_semiprime_graded(leavitt(graph_a1(), 4), 3, 3)
    ok = ok and verdict4.status == "fails" and "2*v" in verdict4.witness
    vnr_fixtures = [(name, n) for name in SIX_GRAPHS for n in (2, 3, 6)]
    for name, n in vnr_fixtures:
        ok = ok and is_semiprime_graded(leavitt(SIX_GRAPHS[name](), n), 3, 3).holds
    report(9, ok, "radical {0} over Z/2 and span{2v} over Z/4; semiprimeness "
                  f"fails there and holds on {len(vnr_fixtures)} vnr fixtures")


def test_criterion_10_corner_laurent_witnesses():
    fixtures = [
        CslAlgebra(RINGS[2], 1, {0: 0, 1: 1}),
        CslAlgebra(RINGS[6], 1, {i: i for i in range(6)}),
        CslAlgebra(ProductRing([RINGS[2], RINGS[2]]), (1, 1),
                   {(a, b): (b, a) for a in range(2) for b in range(2)}),
    ]
    ok = True
    found = 0
    for alg in fixtures:
        for d in range(-3, 4):
            for x in alg.component_elements(d):
                if x.is_zero:
                    continue
                found += 1
                if csl_graded_witness(x).absent:
                    ok = False
    lau4 = CslAlgebra(RINGS[4], 1, {i: i for i in range(4)})
    cert = csl_graded_witness(lau4.element({1: 2}))
    ok = ok and cert.absent and cert.absence_exact
    report(10, ok, f"{found} corner-Laurent witnesses found; 2t+ over Z/4 "
                   f"exactly absent")


def test_criterion_11_rewriting_soundness():
    specs = [leavitt(graph_loop(), 4), leavitt(graph_rose2(), 6),
             leavitt(graph_toeplitz(), 2),
             AlgebraSpec(graph_vw(), RINGS[6], [])]
    ok = True
    for idx, spec in enumerate(specs):
        rng = random.Random(500 + idx)
        shuffler = random.Random(600 + idx)
        for _ in range(1000):
            word = random_word(spec, rng)
            if word_element(spec, word) != word_in_random_order(spec, word, shuffler):
                ok = False
    assoc_spec = leavitt(graph_rose2(), 6)
    rng = random.Random(700)
    for _ in range(500):
        x, y, z = (random_element(assoc_spec, rng) for _ in range(3))
        if (x * y) * z != x * (y * z):
            ok = False
    inv_spec = leavitt(graph_toeplitz(), 4)
    rng = random.Random(800)
    for _ in range(500):
        x = random_element(inv_spec, rng)
        y = random_element(inv_spec, rng)
        if (x * y).involution() != y.involution() * x.involution():
            ok = False
        if is_homogeneous(x) and not x.is_zero:
            if x.involution().degree() != -x.degree():
                ok = False
    report(11, ok, "1000 words/spec confluent across strategies; 500 "
                   "associativity triples; 500 involution samples")


def test_criterion_12_chain_functor():
    m1 = GraphMorphism.make(CohnPair(graph_a1(), frozenset()),
                            CohnPair(graph_vw(), frozenset({"v"})),
                            {"v": "v"}, {})
    m2 = GraphMorphism.make(CohnPair(graph_vw(), frozenset({"v"})),
                            CohnPair(graph_vwu(), frozenset({"v", "w"})),
                            {"v": "v", "w": "w"}, {"f": "f"})
    verdict = chain_colimit_check([m1, m2], RINGS[2])
    report(12, verdict.commutes,
           "three-object chain commutes through the Cohn functor")
