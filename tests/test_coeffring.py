"""Finite ring arithmetic, regularity search and linear solving."""

import functools
import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (brute_solutions, table_m2_z2, table_mod, table_upper_z2,
                      table_z2xz2)
from gral import coeffring
from gral.cli import main
from gral.coeffring import (MatrixOverRing, ModularRing, ProductRing, Ring,
                            SpanSolver, TableRing, is_semiprime_ring,
                            is_vnr, jacobson_radical, kernel_generators,
                            matrix_vnr_witness, mul_entries,
                            ring_make, ring_spec, search_cap,
                            solve_linear_system, vnr_witness)
from gral.errors import (AxiomViolation, InternalVerificationFailure,
                         SearchCapExceeded)
from gral.gradedstruct import zero_multiplication_ring
from reference import span_constraints


def matrix(ring, rows):
    """The MatrixOverRing of nested lists of entries."""
    return MatrixOverRing(ring, tuple(tuple(r) for r in rows))


def mat_mul(a, b):
    """A.B for two MatrixOverRing operands."""
    return MatrixOverRing(a.ring, mul_entries(a.ring, a.entries, b.entries))


def brute_vnr_witness(ring, a):
    """Independent exhaustive oracle for a = a.y.a."""
    for y in ring.elements():
        if ring.mul(ring.mul(a, y), a) == a:
            return y
    return None


# -- construction -------------------------------------------------------------


def test_ring_make_modular():
    ring = ring_make({"kind": "mod", "n": 4})
    assert ring.order == 4
    assert list(ring.elements()) == [0, 1, 2, 3]


def test_ring_make_product_order():
    ring = ring_make({"kind": "product",
                      "factors": [{"kind": "mod", "n": 2}, {"kind": "mod", "n": 3}]})
    assert ring.order == 6
    assert ring.one == (1, 1)


def test_ring_make_refuses_rings_beyond_the_cap(monkeypatch):
    # every element of a loaded ring gets enumerated, so its order is capped
    # before anything is built
    monkeypatch.setenv("GRAL_SEARCH_CAP", "100")
    assert ring_make({"kind": "mod", "n": 100}).order == 100
    with pytest.raises(SearchCapExceeded):
        ring_make({"kind": "mod", "n": 2**70})
    with pytest.raises(SearchCapExceeded):
        ring_make({"kind": "product", "factors": [{"kind": "mod", "n": 11}] * 2})


def test_modular_decode_checks_the_range_without_enumerating(monkeypatch):
    monkeypatch.setattr(ModularRing, "elements", lambda self: pytest.fail("Z/n enumerated"))
    ring = ModularRing(999996)
    assert ring.decode(0) == 0 and ring.decode(999995) == 999995
    for bad, message in ((999996, "not an element of Z/999996: 999996"),
                         (-1, "not an element of Z/999996: -1"),
                         (True, "an element of Z/999996 must be an integer, got True")):
        with pytest.raises(ValueError) as err:
            ring.decode(bad)
        assert str(err.value) == message


def test_is_commutative():
    assert ModularRing(6).is_commutative() and table_z2xz2().is_commutative()
    assert not table_upper_z2().is_commutative()


def test_table_ring_valid_roundtrip():
    # Z/3 written out as a table
    add = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    mul = [[(i * j) % 3 for j in range(3)] for i in range(3)]
    ring = ring_make({"kind": "table", "size": 3, "zero": 0, "one": 1,
                      "add": add, "mul": mul})
    assert ring.order == 3
    assert ring.is_field()
    assert ring_make(ring_spec(ring)) == ring


def test_table_ring_nonassociative_mul_rejected():
    add = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    mul = [[0, 0, 0], [0, 2, 1], [0, 1, 1]]
    with pytest.raises(AxiomViolation) as err:
        TableRing(add, mul, zero=0, one=None, require_one=False)
    assert "associative" in err.value.axiom or "distributive" in err.value.axiom
    assert err.value.witness is not None


def test_table_missing_one_rejected_when_required():
    add = [[(i + j) % 2 for j in range(2)] for i in range(2)]
    mul = [[0, 0], [0, 0]]
    with pytest.raises(AxiomViolation):
        TableRing(add, mul, zero=0, one=1)


def test_product_needs_factor():
    with pytest.raises(ValueError):
        ProductRing([])


# -- vnr witnesses ------------------------------------------------------------


def test_vnr_witness_identity(z2):
    assert vnr_witness(z2, 1) == 1


def test_vnr_witness_z6_matches_brute_force(z6):
    # Z/6 is answered from Z/2 and Z/3: each witness is the CRT join of the
    # parts' first witnesses, which exhaustive search over each part finds;
    # the first witness of 3 and of 4 over Z/6 itself is 1
    assert [vnr_witness(z6, a) for a in z6.elements()] == [0, 1, 2, 3, 4, 5]
    assert brute_vnr_witness(z6, 3) == brute_vnr_witness(z6, 4) == 1
    parts = {q: ModularRing(q) for q in (2, 3)}
    for a in z6.elements():
        y = vnr_witness(z6, a)
        assert z6.mul(z6.mul(a, y), a) == a
        assert all(y % q == brute_vnr_witness(part, a % q) for q, part in parts.items())


def test_vnr_witness_absent_z4(z4):
    assert brute_vnr_witness(z4, 2) is None
    assert vnr_witness(z4, 2) is None


def test_is_vnr_verdicts(z4, z6):
    assert is_vnr(ModularRing(5)) is True  # field
    assert is_vnr(z6) is True
    assert is_vnr(z4) is False
    # the first element without a witness, found by vnr_witness and by search
    assert [a for a in z4.elements() if vnr_witness(z4, a) is None] == [2]
    assert [a for a in z4.elements() if brute_vnr_witness(z4, a) is None] == [2]


def test_is_vnr_search_is_capped(monkeypatch):
    # each product a.y.a tried is one step: over the field Z/7 given by
    # tables, a = 0 takes one and a = k takes k^-1 + 1, 28 in all (Z/7
    # itself is read in closed form); each call gets a fresh handle, as the
    # verdict is cached on it
    monkeypatch.setenv("GRAL_SEARCH_CAP", "28")
    assert is_vnr(table_mod(7)) is True
    monkeypatch.setenv("GRAL_SEARCH_CAP", "27")
    with pytest.raises(SearchCapExceeded, match="vnr search needs 28 states, cap is 27"):
        is_vnr(table_mod(7))


def test_is_vnr_product_is_and_of_factors(z2, z4):
    prod = ProductRing([z2, z4])
    assert is_vnr(prod) is False
    assert is_vnr(ProductRing([z2, ModularRing(3)])) is True
    # a handle caches its answer, and so does each factor
    assert prod._vnr_cache is False and z2._vnr_cache is True and z4._vnr_cache is False


def test_is_regular_agrees_with_the_vnr_search():
    # is_vnr, the one answer, decides a Z/n from its prime powers, a
    # product from its parts and a table ring by its search; each answer
    # is that of exhaustive search over every a, y of the whole ring
    rings = [ModularRing(n) for n in range(2, 41)] + [
        ProductRing([ModularRing(2), ModularRing(4)]), ProductRing([ModularRing(3), ModularRing(5)]),
        table_mod(7), table_z2xz2(), table_upper_z2(), table_m2_z2()]
    for ring in rings:
        searched = all(brute_vnr_witness(ring, a) is not None for a in ring.elements())
        assert is_vnr(ring) is searched, ring.describe()


def test_witness_recheck_property(z6):
    for a in z6.elements():
        y = vnr_witness(z6, a)
        assert z6.mul(z6.mul(a, y), a) == a


# -- linear systems -----------------------------------------------------------


def test_solve_z4_least_solution(z4):
    sols = brute_solutions(z4, [([(2, "x", None)], 2)], ["x"])
    assert [s["x"] for s in sols] == [1, 3]
    got = solve_linear_system(z4, [([(2, "x", None)], 2)])
    assert got == {"x": 1}


def test_solve_z6_absent(z6):
    assert brute_solutions(z6, [([(3, "x", None)], 1)], ["x"]) == []
    assert solve_linear_system(z6, [([(3, "x", None)], 1)]) is None


def test_solve_z2_substitution(z2):
    got = solve_linear_system(
        z2, [([(None, "x", None), (None, "y", None)], 1), ([(None, "x", None)], 1)])
    assert got == {"x": 1}  # y = 0 is left out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 12])
def test_solve_agrees_with_brute_force_on_small_rings(n):
    # 9 exercises the p^2 recursion, 12 the CRT with a prime-power factor
    ring = ModularRing(n)
    rng = random.Random(100 + n)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        variables = [f"x{i}" for i in range(nvars)]
        constraints = []
        for _ in range(rng.randint(1, 3)):
            terms = [(rng.randrange(n), v, rng.randrange(n)) for v in variables]
            constraints.append((terms, rng.randrange(n)))
        got = solve_linear_system(ring, constraints, variables)
        brute = brute_solutions(ring, constraints, variables)
        if got is None:
            assert brute == []
        else:
            assert got in brute


def test_solve_agrees_with_brute_force_on_product(z2xz2):
    rng = random.Random(200)
    ring = z2xz2
    elems = list(ring.elements())
    for _ in range(30):
        nvars = rng.randint(1, 2)
        variables = [f"x{i}" for i in range(nvars)]
        constraints = []
        for _ in range(rng.randint(1, 3)):
            terms = [(rng.choice(elems), v, rng.choice(elems)) for v in variables]
            constraints.append((terms, rng.choice(elems)))
        got = solve_linear_system(ring, constraints, variables)
        brute = brute_solutions(ring, constraints, variables)
        if got is None:
            assert brute == []
        else:
            assert got in brute


def module_span(ring, gens, nvars):
    """Every combination sum r_g . g of the generator vectors, a missing
    entry of a generator read as zero."""
    vecs = [tuple(g.get(i, ring.zero) for i in range(nvars)) for g in gens]
    span = frontier = {tuple(ring.zero for _ in range(nvars))}
    while frontier:
        frontier = {tuple(ring.add(a, ring.mul(r, b)) for a, b in zip(vec, g))
                    for vec in frontier for g in vecs for r in ring.elements()} - span
        span |= frontier
    return span


def test_kernel_generators_span_full_solution_set():
    # every brute-force kernel vector must be a combination of generators,
    # for kernel_generators and SpanSolver.kernel alike; half the systems get
    # a multiple of their first row, so their rank falls short
    rng = random.Random(300)
    rings = [ModularRing(n) for n in (4, 6, 8, 9, 12, 27, 30)] + [
        ProductRing([ModularRing(2), ModularRing(3)]),
        ProductRing([ModularRing(4), ModularRing(2)]), _z3_table()]
    for ring in rings:
        elems = ring.elements()
        for _ in range(10):
            nvars = rng.randint(1, 3 if ring.order <= 12 else 2)
            rows = [[rng.choice(elems) for _ in range(nvars)]
                    for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5:
                c = rng.choice(elems)
                rows.append([ring.mul(c, x) for x in rows[0]])
            columns = [{k: row[i] for k, row in enumerate(rows)} for i in range(nvars)]
            constraints = span_constraints(ring, columns)
            brute = {tuple(sol.get(i, ring.zero) for i in range(nvars))
                     for sol in brute_solutions(ring, constraints, range(nvars))}
            for gens in (kernel_generators(ring, constraints, range(nvars)),
                         SpanSolver(ring, columns).kernel()):
                assert all(any(x != ring.zero for x in g.values()) for g in gens)
                assert module_span(ring, gens, nvars) == brute


def test_kernel_generators_needs_a_homogeneous_system(z4):
    # a nonzero right-hand side is refused for every ring kind; a modular
    # one is read mod n
    for ring, rhs in ((_z3_table(), 1), (z4, 1),
                      (ProductRing([ModularRing(2), ModularRing(3)]), (0, 1))):
        with pytest.raises(ValueError, match="homogeneous"):
            kernel_generators(ring, [([(None, "x", None)], rhs)], ["x"])
    assert kernel_generators(z4, [([(2, "x", None)], 4)], ["x"]) == [{"x": 2}]


def test_solve_product_ring(z2xz2):
    got = solve_linear_system(
        z2xz2, [([(None, "x", None)], (1, 0)), ([(None, "y", (1, 1))], (0, 1))])
    assert got == {"x": (1, 0), "y": (0, 1)}


def test_solve_table_ring():
    got = solve_linear_system(_z3_table(), [([(2, "x", None)], 1)])
    assert got == {"x": 2}


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_search_cap_rejects_bad_values(monkeypatch, tmp_path, capsys, raw):
    monkeypatch.setenv("GRAL_SEARCH_CAP", raw)
    with pytest.raises(ValueError, match="GRAL_SEARCH_CAP"):
        search_cap()
    # the CLI reports it as a usage error, not as a counterexample
    ring = tmp_path / "z4.json"
    ring.write_text('{"kind": "mod", "n": 4}')
    assert main(["check-ring", str(ring)]) == 2
    assert "GRAL_SEARCH_CAP" in capsys.readouterr().err


@pytest.mark.parametrize("columns, target, rows", [
    # rows in repr order of the keys, terms in column order; a key absent
    # from a column gives no term, a key only the target has an empty row
    ([{"b": 2, "a": 1}, {"c": 5}, {"a": 3, "c": 4}], {"a": 1, "d": 2},
     [([(None, 0, 1), (None, 2, 3)], 1), ([(None, 0, 2)], 0),
      ([(None, 1, 5), (None, 2, 4)], 0), ([], 2)]),
    # no target: the homogeneous system
    ([{(1, 0): 2}, {(0, 1): 1, (1, 0): 1}], None,
     [([(None, 1, 1)], 0), ([(None, 0, 2), (None, 1, 1)], 0)]),
    ([], None, []),
], ids=["target-only-key", "homogeneous", "empty"])
def test_span_constraints_layout(z6, columns, target, rows):
    assert span_constraints(z6, columns, target) == rows


@pytest.mark.parametrize("ring", [ModularRing(4), ModularRing(6),
                                  ProductRing([ModularRing(2), ModularRing(3)])],
                         ids=["Z4", "Z6", "Z2xZ3"])
def test_span_constraints_solve_agrees_with_exhaustive(ring):
    # a solution exists iff exhaustive search finds one, and it really
    # combines the columns into the target
    rng = random.Random(400 + ring.order)
    elems = list(ring.elements())
    keys = ["a", "b", "c", (0, 1)]
    for _ in range(60):
        ncols = rng.randint(0, 3)
        columns = [{k: rng.choice(elems) for k in rng.sample(keys, rng.randint(0, 3))}
                   for _ in range(ncols)]
        target = {k: rng.choice(elems) for k in rng.sample(keys, rng.randint(0, 2))}
        variables = list(range(ncols))
        constraints = span_constraints(ring, columns, target)
        got = solve_linear_system(ring, constraints, variables)
        assert (got is None) == (brute_solutions(ring, constraints, variables) == [])
        if got is not None:
            for k in set(keys):
                acc = ring.zero
                for i, col in enumerate(columns):
                    acc = ring.add(acc, ring.mul(got.get(i, ring.zero), col.get(k, ring.zero)))
                assert acc == target.get(k, ring.zero)


def _z3_table():
    add = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    mul = [[(i * j) % 3 for j in range(3)] for i in range(3)]
    return TableRing(add, mul, zero=0, one=1)


SPAN_RINGS = {"Z4": ModularRing(4), "Z8": ModularRing(8), "Z6": ModularRing(6),
              "Z2xZ3": ProductRing([ModularRing(2), ModularRing(3)]),
              "Z3table": _z3_table()}
COLUMN_KEYS = ("a", "b", "c")


# the rings solved in additive coordinates: commutative and not, unital and
# not, a field and not
TABLE_RINGS = {"Z2xZ2table": table_z2xz2(), "upper_Z2": table_upper_z2(),
               "Z3table": _z3_table(), "zero_mult": zero_multiplication_ring(2)}


@st.composite
def span_systems(draw, rings=SPAN_RINGS):
    """(ring, columns, targets): up to 4 columns over three keys, entries
    possibly zero (so all-zero and empty columns and the empty column list
    occur), and targets that may use a key "z" no column has; the last
    target is a combination of the columns."""
    ring = rings[draw(st.sampled_from(sorted(rings)))]
    elems = st.sampled_from(ring.elements())
    columns = draw(st.lists(st.dictionaries(st.sampled_from(COLUMN_KEYS), elems,
                                            max_size=3), max_size=4))
    targets = draw(st.lists(st.dictionaries(st.sampled_from(COLUMN_KEYS + ("z",)),
                                            elems, max_size=4), max_size=3))
    coeffs = draw(st.lists(elems, min_size=len(columns), max_size=len(columns)))
    return ring, columns, targets + [_combine_columns(ring, columns, coeffs)]


def _combine_columns(ring, columns, coeffs):
    out = {}
    for r, col in zip(coeffs, columns):
        for k, c in col.items():
            out[k] = ring.add(out.get(k, ring.zero), ring.mul(r, c))
    return out


def _nonzero_part(ring, vec):
    return frozenset((k, c) for k, c in vec.items() if c != ring.zero)


# the edge cases every run covers: no columns, all-zero and empty columns,
# and target keys that no column has
span_edge_cases = [
    example((SPAN_RINGS["Z4"], [], [{}, {"z": 2}, {"a": 0}])),
    example((SPAN_RINGS["Z6"], [{"a": 0, "b": 0}, {}, {"a": 2}], [{"a": 4}, {"a": 3}, {"z": 1}])),
    example((SPAN_RINGS["Z2xZ3"], [{"a": (1, 0)}, {"b": (0, 0)}],
             [{"a": (1, 0), "z": (0, 0)}, {"z": (0, 1)}, {"a": (0, 2)}])),
]


def with_span_edge_cases(test):
    for ex in span_edge_cases:
        test = ex(test)
    return test


@with_span_edge_cases
@given(span_systems())
def test_span_solver_membership_agrees_with_exhaustive(system):
    ring, columns, targets = system
    reachable = {_nonzero_part(ring, _combine_columns(ring, columns, coeffs))
                 for coeffs in itertools.product(ring.elements(), repeat=len(columns))}
    solver = SpanSolver(ring, columns)
    for target in targets:
        assert (solver.solve(target) is not None) == \
            (_nonzero_part(ring, target) in reachable)


@with_span_edge_cases
@given(span_systems())
def test_span_solver_solutions_combine_to_target(system):
    ring, columns, targets = system
    solver = SpanSolver(ring, columns)
    for target in targets:
        sol = solver.solve(target)
        if sol is not None:
            assert set(sol) <= set(range(len(columns)))
            coeffs = [sol.get(i, ring.zero) for i in range(len(columns))]
            assert _nonzero_part(ring, _combine_columns(ring, columns, coeffs)) == \
                _nonzero_part(ring, target)


@with_span_edge_cases
@given(span_systems())
def test_span_solver_agrees_with_solve_linear_system(system):
    ring, columns, targets = system
    solver = SpanSolver(ring, columns)
    for target in targets:
        assert solver.solve(target) == solve_linear_system(
            ring, span_constraints(ring, columns, target), range(len(columns)))


@given(span_systems(), st.data())
def test_row_order_changes_neither_solution_nor_kernel(system, data):
    # span systems keep their rows in repr order of the keys for the cost of
    # elimination only: shuffling the rows changes no answer
    ring, columns, targets = system
    variables = list(range(len(columns)))
    for target in targets:
        rows = span_constraints(ring, columns, target)
        shuffled = data.draw(st.permutations(rows))
        got = [coeffring._factor(ring, r, variables) for r in (rows, shuffled)]
        assert got[0].solve(dict(enumerate(b for _, b in rows))) == \
            got[1].solve(dict(enumerate(b for _, b in shuffled)))
        assert got[0].kernel() == got[1].kernel()


@pytest.mark.parametrize("n", [4, 8, 9, 12])
def test_span_solver_answers_every_target_like_brute_force(n):
    # 4, 8 and 9 are one prime power, answered without CRT; 12 needs it.
    # One factorization answers every target over two keys, each answer a
    # solution in [0, n) and None exactly when brute force finds none
    ring = ModularRing(n)
    rng = random.Random(600 + n)
    for _ in range(3):
        columns = [{k: rng.randrange(n) for k in "ab"} for _ in range(rng.randint(1, 3))]
        solutions = {}
        for coeffs in itertools.product(range(n), repeat=len(columns)):
            combo = _combine_columns(ring, columns, coeffs)
            solutions.setdefault((combo.get("a", 0), combo.get("b", 0)), set()).add(coeffs)
        solver = SpanSolver(ring, columns)
        for a, b in itertools.product(range(n), repeat=2):
            got = solver.solve({"a": a, "b": b})
            if got is None:
                assert (a, b) not in solutions
            else:
                assert tuple(got.get(i, 0) for i in range(len(columns))) in solutions[(a, b)]


def test_span_solver_table_ring_agrees_with_solve_linear_system():
    # also for a target key that no column has
    ring = _z3_table()
    columns = [{"a": 1}, {"a": 2, "b": 1}]
    solver = SpanSolver(ring, columns)
    for target in ({"a": 1}, {"b": 2}, {"z": 1}):
        assert solver.solve(target) == solve_linear_system(
            ring, span_constraints(ring, columns, target), range(2))


@st.composite
def two_sided_systems(draw):
    """(ring, constraints, variables) over a table ring: up to three
    unknowns and three constraints of up to three terms l . x . r, each
    factor None or any element, so empty and all-zero rows occur."""
    ring = TABLE_RINGS[draw(st.sampled_from(sorted(TABLE_RINGS)))]
    variables = list(range(draw(st.integers(1, 3))))
    factor = st.sampled_from((None,) + tuple(ring.elements()))
    terms = st.lists(st.tuples(factor, st.sampled_from(variables), factor), max_size=3)
    constraints = draw(st.lists(st.tuples(terms, st.sampled_from(ring.elements())),
                                min_size=1, max_size=3))
    return ring, constraints, variables


def additive_span(ring, gens, variables):
    """Every sum of the generators {var: element}, as tuples over the
    variables (a missing entry read as zero): the integer combinations,
    which are all of the solutions of a two-sided system that the
    generators solve."""
    vecs = [tuple(g.get(v, ring.zero) for v in variables) for g in gens]
    span = frontier = {tuple(ring.zero for _ in variables)}
    while frontier:
        frontier = {tuple(map(ring.add, x, g)) for x in frontier for g in vecs} - span
        span |= frontier
    return span


@given(two_sided_systems())
def test_table_ring_solve_agrees_with_enumeration(system):
    ring, constraints, variables = system
    got = solve_linear_system(ring, constraints, variables)
    brute = brute_solutions(ring, constraints, variables)
    assert got in brute if brute else got is None


@given(span_systems(TABLE_RINGS))
def test_table_ring_span_solver_agrees_with_enumeration(system):
    ring, columns, targets = system
    solver = SpanSolver(ring, columns)
    for target in targets:
        got = solver.solve(target)
        brute = brute_solutions(ring, span_constraints(ring, columns, target),
                                range(len(columns)))
        assert got in brute if brute else got is None


@given(two_sided_systems(), span_systems(TABLE_RINGS))
def test_table_ring_kernels_generate_every_solution(system, span):
    ring, constraints, variables = system
    homogeneous = [(terms, ring.zero) for terms, _ in constraints]
    brute = {tuple(sol.get(v, ring.zero) for v in variables)
             for sol in brute_solutions(ring, homogeneous, variables)}
    gens = kernel_generators(ring, homogeneous, variables)
    assert all(any(x != ring.zero for x in g.values()) for g in gens)
    assert additive_span(ring, gens, variables) == brute
    ring, columns, _ = span
    variables = range(len(columns))
    brute = {tuple(sol.get(i, ring.zero) for i in variables)
             for sol in brute_solutions(ring, span_constraints(ring, columns), variables)}
    assert additive_span(ring, SpanSolver(ring, columns).kernel(), variables) == brute


@pytest.mark.parametrize("width", [10, 40, 160])
def test_table_ring_recheck_costs_the_answers_support(monkeypatch, width):
    # the exact re-check of a one-key answer sums that unknown's one term,
    # whatever the width; a tampered answer is still caught, on a row that
    # only the target reaches and on a row of the answer
    ring = table_z2xz2()
    solver = SpanSolver(ring, [{k: ring.one} for k in range(width)])
    calls = []
    real = coeffring._term
    monkeypatch.setattr(coeffring, "_term", lambda *args: calls.append(args) or real(*args))
    assert solver.solve({0: ring.one}) == {0: ring.one}
    assert len(calls) == 1
    for tampered in ({}, {1: ring.one}):
        monkeypatch.setattr(coeffring.AdditiveSpan, "solve",
                            lambda span, target, answer=tampered: dict(answer))
        with pytest.raises(InternalVerificationFailure, match="linear solution"):
            solver.solve({0: ring.one})


# every kind of ring the solve layer answers over: prime powers, composite
# moduli (split by CRT), products (Z/2 x Z/6 split twice) and the
# three table rings (solved in additive coordinates)
ANSWER_RINGS = {"Z2": ModularRing(2), "Z4": ModularRing(4), "Z9": ModularRing(9),
                "Z6": ModularRing(6), "Z12": ModularRing(12),
                "Z2xZ3": ProductRing([ModularRing(2), ModularRing(3)]),
                "Z2xZ6": ProductRing([ModularRing(2), ModularRing(6)]),
                "Z2xZ2table": table_z2xz2(), "upper_Z2": table_upper_z2(),
                "M2_Z2": table_m2_z2()}


# every run answers with a zero unknown left out over a split of a split
# and over a table ring
@example((ANSWER_RINGS["Z2xZ6"], [{"a": (1, 1)}, {"a": (0, 3), "b": (1, 0)}], [{"a": (1, 1)}]))
@example((ANSWER_RINGS["M2_Z2"], [{"a": 9}, {"b": 9}], [{"a": 9}]))
@given(span_systems(ANSWER_RINGS))
def test_solve_layer_answers_list_only_nonzero_unknowns(system):
    # every solution and kernel generator of the solve layer is {unknown:
    # element} over its nonzero unknowns, and with the left-out unknowns
    # read as zero it solves its system; AdditiveSpan is asked for the
    # same combinations, through the additive maps a -> a . column
    ring, columns, targets = system
    zero, n = ring.zero, len(columns)
    solver = SpanSolver(ring, columns)
    homogeneous = span_constraints(ring, columns)
    span = coeffring.AdditiveSpan(ring, [[{k: ring.mul(a, c) for k, c in col.items()}
                                          for a in ring.elements() if a != zero]
                                         for col in columns])
    answers = [(sol, target) for target in targets for sol in (
        solver.solve(target), span.solve(target),
        solve_linear_system(ring, span_constraints(ring, columns, target), range(n)))]
    kernels = solver.kernel() + span.kernel() + kernel_generators(ring, homogeneous, range(n))
    assert all(kernels)  # no generator is zero
    for sol, t in answers + [(g, {}) for g in kernels]:
        if sol is not None:
            assert set(sol) <= set(range(n))
            assert all(x != zero for x in sol.values())
            coeffs = [sol.get(i, zero) for i in range(n)]
            assert _nonzero_part(ring, _combine_columns(ring, columns, coeffs)) == \
                _nonzero_part(ring, t)


FACTOR_RINGS = {"Z4": ModularRing(4), "Z8": ModularRing(8), "Z12": ModularRing(12),
                "Z6": ModularRing(6),
                "Z2xZ2": ProductRing([ModularRing(2), ModularRing(2)]),
                # a split inside a split: Z/6 is split again into Z/2 and Z/3
                "Z2xZ6": ProductRing([ModularRing(2), ModularRing(6)])}


@st.composite
def sparse_systems(draw):
    """(ring, constraints, variables): up to six rows over up to three
    unknowns, each row holding at most three terms l . x with l nonzero or
    None, so rows share columns, fill in and cancel during elimination."""
    ring = FACTOR_RINGS[draw(st.sampled_from(sorted(FACTOR_RINGS)))]
    variables = list(range(draw(st.integers(1, 3))))
    factor = st.sampled_from((None,) + tuple(c for c in ring.elements() if c != ring.zero))
    terms = st.lists(st.tuples(factor, st.sampled_from(variables), st.none()), max_size=3)
    constraints = draw(st.lists(st.tuples(terms, st.sampled_from(ring.elements())),
                                min_size=1, max_size=6))
    return ring, constraints, variables


def _ones(*variables):
    return [(None, v, None) for v in variables]


# every run eliminates a column that an earlier pivot filled into a row
# (x0 + x1, x0 + x2, x0) and one that it cancelled from a row (x0 + x1,
# x0 + x1 + x2, x1)
@example((FACTOR_RINGS["Z4"], [(_ones(0, 1), 1), (_ones(0, 2), 2), (_ones(0), 3)], [0, 1, 2]))
@example((FACTOR_RINGS["Z12"], [(_ones(0, 1), 1), (_ones(0, 1, 2), 2), (_ones(1), 3)],
          [0, 1, 2]))
@given(sparse_systems())
def test_factor_agrees_with_brute_force(system):
    # solvable exactly when brute force finds a solution, the answer one of
    # them, and every kernel generator solves the homogeneous system
    ring, constraints, variables = system
    factored = coeffring._factor(ring, constraints, variables)
    brute = brute_solutions(ring, constraints, variables)
    got = factored.solve(dict(enumerate(b for _, b in constraints)))
    assert got in brute if brute else got is None
    homogeneous = brute_solutions(ring, [(terms, ring.zero) for terms, _ in constraints],
                                  variables)
    assert all(g in homogeneous for g in factored.kernel())


def test_checked_rejects_a_wrong_entry(z4):
    system = SpanSolver(z4, [{"a": 1, "b": 2}, {"b": 1}])._system
    assert system._checked({0: 1, 1: 1}, {0: 1, 1: 3, 2: 0}, "solution") == {0: 1, 1: 1}
    with pytest.raises(InternalVerificationFailure, match="solution failed re-verification"):
        system._checked({0: 1, 1: 2}, {0: 1, 1: 3, 2: 0}, "solution")


def test_checked_reads_rows_no_column_touches(z4, monkeypatch):
    # the trailing row of a SpanSolver has no column: a target key that no
    # column has lands there, and a tampered factor that answers anyway is
    # caught by the re-check of that row
    solver = SpanSolver(z4, [{"a": 1}])
    assert solver.solve({"a": 1, "z": 2}) is None
    with pytest.raises(InternalVerificationFailure):
        solver._system._checked({0: 1}, {0: 1, 1: 2}, "solution")
    monkeypatch.setattr(coeffring._PrimePowerFactor, "solve",
                        lambda self, rhs: {0: rhs[0]})
    assert solver.solve({"a": 1}) == {0: 1}
    with pytest.raises(InternalVerificationFailure, match="linear solution"):
        solver.solve({"a": 1, "z": 2})


def test_tampered_kernel_generator_is_caught(z4, monkeypatch):
    solver = SpanSolver(z4, [{"a": 2}])
    assert solver.kernel() == [{0: 2}]
    monkeypatch.setattr(coeffring._PrimePowerFactor, "kernel", lambda self: [{0: 1}])
    with pytest.raises(InternalVerificationFailure, match="kernel generator"):
        solver.kernel()


def test_wrong_join_is_caught():
    # each joined answer must project back onto every part's answer, so a
    # join that answers wrongly is caught in solve and in kernel alike
    parts, project, join = coeffring.ring_parts(ModularRing(6))
    constraints = [([(None, 0, None), (2, 1, None)], 0)]  # x0 + 2 x1
    system = coeffring._SplitSystem((parts, project, join), constraints, [0, 1])
    assert system.solve({0: 1}) == {0: 1}
    assert system.kernel() == [{1: 3}, {0: 4, 1: 4}]
    wrong = coeffring._SplitSystem((parts, project, lambda xs: (join(xs) + 1) % 6),
                                   constraints, [0, 1])
    with pytest.raises(InternalVerificationFailure, match="linear solution"):
        wrong.solve({0: 1})
    with pytest.raises(InternalVerificationFailure, match="kernel generator"):
        wrong.kernel()


def _prime_power_factors(system):
    """(factor, number of rows) of every _PrimePowerFactor in a factored
    modular system: each part's, and each factor's p-divisible sub."""
    parts = system.parts if isinstance(system, coeffring._SplitSystem) else [system]
    todo = [(part.factor, len(part.rows)) for part in parts]
    while todo:
        factor, nrows = todo.pop()
        yield factor, nrows
        rem, _, sub, _ = factor._reduced
        if sub is not None:
            todo.append((sub, len(rem)))


@st.composite
def modular_systems(draw):
    """(ring, constraints, variables) over Z/4, Z/8, Z/9 or Z/12: up to
    eight rows over up to four unknowns, each row holding at most three
    terms c . x with c nonzero, so pivots fill in and cancel."""
    ring = ModularRing(draw(st.sampled_from([4, 8, 9, 12])))
    variables = list(range(draw(st.integers(1, 4))))
    terms = st.lists(st.tuples(st.integers(1, ring.n - 1), st.sampled_from(variables),
                               st.none()), max_size=3)
    constraints = draw(st.lists(st.tuples(terms, st.just(0)), min_size=1, max_size=8))
    return ring, constraints, variables


def _dense_replay(factor, rhs):
    """rhs, a list with entries in [0, q), with every recorded row
    operation of the factor applied in order: the reference replay."""
    q = factor.q
    for i, inv, elim in factor.ops:
        b = rhs[i] = rhs[i] * inv % q
        if b:
            for k, f in elim:
                rhs[k] = (rhs[k] - f * b) % q
    return rhs


@given(modular_systems(), st.data())
def test_sparse_replay_agrees_with_replay(system, data):
    # the sparse replay of a target dict runs only the ops its rows reach,
    # and reads the same entries as the dense replay of the same list
    ring, constraints, variables = system
    for factor, nrows in _prime_power_factors(coeffring._factor(ring, constraints, variables)):
        target = data.draw(st.dictionaries(st.integers(0, nrows - 1),
                                           st.integers(0, factor.q - 1)))
        dense = _dense_replay(factor, [target.get(r, 0) for r in range(nrows)])
        sparse = factor.sparse_replay(dict(target))
        assert {r: b for r, b in sparse.items() if b} == {r: b for r, b in enumerate(dense) if b}


@given(st.sampled_from([2, 3, 5]), st.data())
def test_generalized_inverse_builds_no_reduced_rows(p, data):
    # the inverse over Z/p reads its row operations through sparse_replay
    # alone: the reduced rows, which only solves and kernels read, are
    # never built, and Y is E's rows at the pivot columns
    shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=shape[1],
                                       max_size=shape[1]), min_size=shape[0], max_size=shape[0]))
    def reduced(factor):
        raise AssertionError("the reduced rows were built")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coeffring._PrimePowerFactor, "_reduced", property(reduced))
        y = matrix_vnr_witness(matrix(ModularRing(p), rows))
    factor = coeffring._PrimePowerFactor(
        [{j: x for j, x in enumerate(row) if x} for row in rows], shape[1], p, 1)
    e_rows = list(zip(*(_dense_replay(factor, [int(r == c) for r in range(shape[0])])
                        for c in range(shape[0]))))
    expected = [(0,) * shape[0]] * shape[1]
    for i, j in factor.cells:
        expected[j] = e_rows[i]
    assert y.entries == tuple(expected)


Z2xZ3 = ProductRing([ModularRing(2), ModularRing(3)])
SPLIT_RINGS = {"Z6": ModularRing(6), "Z12": ModularRing(12), "Z30": ModularRing(30),
               "Z2xZ3": Z2xZ3, "(Z2xZ3)xZ5": ProductRing([Z2xZ3, ModularRing(5)])}


@pytest.mark.parametrize("name", sorted(SPLIT_RINGS))
def test_ring_parts_splits_into_a_product(name):
    # join undoes project, and project is additive and multiplicative: the
    # ring is the product of its parts; the split is made once per handle
    ring = SPLIT_RINGS[name]
    split = coeffring.ring_parts(ring)
    parts, project, join = split
    assert coeffring.ring_parts(ring) is split
    assert all(join(project(x)) == x for x in ring.elements())
    for x, y in itertools.product(ring.elements(), repeat=2):
        for op in ("add", "mul"):
            assert project(getattr(ring, op)(x, y)) == tuple(
                getattr(part, op)(a, b) for part, a, b in zip(parts, project(x), project(y)))


def test_ring_parts_of_twelve_are_its_prime_powers():
    parts, _, _ = coeffring.ring_parts(ModularRing(12))
    assert parts == (ModularRing(4), ModularRing(3))


@pytest.mark.parametrize("ring", [ModularRing(7), ModularRing(8), table_z2xz2()],
                         ids=["Z7", "Z8", "Z2xZ2table"])
def test_ring_parts_leaves_prime_powers_and_tables_whole(ring):
    assert coeffring.ring_parts(ring) is None


def test_kernel_generators_mod4(z4):
    # kernel of 2x = 0 mod 4 is {0, 2}
    gens = kernel_generators(z4, [([(2, "x", None)], 0)], ["x"])
    produced = {g["x"] for g in gens}
    assert produced == {2}


# -- matrices -----------------------------------------------------------------


def test_matrix_refuses_empty_dimensions(z2):
    # positionally, by keyword and from nested lists, as the record always has
    for make in (lambda e: MatrixOverRing(z2, e), lambda e: MatrixOverRing(ring=z2, entries=e),
                 lambda e: matrix(z2, e)):
        for entries in ((), ((),), [[]]):
            with pytest.raises(ValueError, match="dimensions must be positive"):
                make(entries)
    a = MatrixOverRing(z2, ((1, 0),))
    assert (a.rows, a.cols) == (1, 2) and a == matrix(z2, [[1, 0]])
    assert repr(a).startswith("MatrixOverRing(ring=") and repr(a).endswith(", entries=((1, 0),))")


def test_matrix_witness_idempotent(z2):
    a = matrix(z2, [[1, 0], [0, 0]])
    y = matrix_vnr_witness(a)
    assert mat_mul(mat_mul(a, y), a) == a
    assert y == a


def test_matrix_witness_scalar_z6(z6):
    a = matrix(z6, [[2]])
    y = matrix_vnr_witness(a)
    assert y.entries == ((2,),)


def test_matrix_witness_absent_z4(z4):
    a = matrix(z4, [[2]])
    assert matrix_vnr_witness(a) is None


@pytest.mark.parametrize("ring", [ModularRing(4), table_z2xz2()], ids=["Z4", "Z2xZ2table"])
def test_matrix_witness_non_square(ring):
    # A is m x n and Y is n x m; every 2x1 and 1x2 matrix either gets a
    # verified witness or has none among all candidates
    for shape in ((2, 1), (1, 2)):
        for flat in itertools.product(ring.elements(), repeat=2):
            a = matrix(ring, [flat] if shape == (1, 2)
                                          else [[x] for x in flat])
            y = matrix_vnr_witness(a)
            if y is not None:
                assert (y.rows, y.cols) == (a.cols, a.rows)
                assert mat_mul(mat_mul(a, y), a) == a
                continue
            for cand in itertools.product(ring.elements(), repeat=2):
                y = matrix(ring, [cand] if shape == (2, 1)
                                              else [[x] for x in cand])
                assert mat_mul(mat_mul(a, y), a) != a


def dense_product(ring, a, b):
    """Reference triple loop over every entry, zeros included."""
    return tuple(
        tuple(functools.reduce(ring.add, (ring.mul(a[i][t], b[t][j])
                                          for t in range(len(b))), ring.zero)
              for j in range(len(b[0])))
        for i in range(len(a)))


def sparse_rows(ring, rng, rows, cols, density):
    nonzero = [c for c in ring.elements() if c != ring.zero]
    return tuple(tuple(rng.choice(nonzero) if rng.random() < density else ring.zero
                       for _ in range(cols)) for _ in range(rows))


def relabelled_z2xz2():
    """table_z2xz2 with its elements renamed by perm: the zero is 2 and 0
    is a nonzero element, so a kernel that tests entries by truthiness or
    against the literal 0 gets wrong answers."""
    ring, perm = table_z2xz2(), [2, 0, 3, 1]
    inv = [perm.index(i) for i in range(4)]

    def table(op):
        return [[perm[op(inv[i], inv[j])] for j in range(4)] for i in range(4)]
    return TableRing(table(ring.add), table(ring.mul), zero=perm[ring.zero], one=perm[ring.one])


def with_zero_lines(ring, rows, zero_rows, zero_cols):
    """rows with the given rows and columns set to the ring's zero."""
    return tuple(tuple(ring.zero if i in zero_rows or j in zero_cols else x
                       for j, x in enumerate(row)) for i, row in enumerate(rows))


KERNEL_RINGS = pytest.mark.parametrize(
    "ring", [ModularRing(6), ProductRing([ModularRing(2), ModularRing(3)]), relabelled_z2xz2()])


@KERNEL_RINGS
def test_mul_entries_matches_dense_reference(ring):
    rng = random.Random(61)
    for _ in range(40):
        m, k, n = (rng.randint(1, 30) for _ in range(3))
        density = rng.choice([0.0, 0.02, 0.05, 0.1, 0.5])  # 0.5: few zero rows
        a = sparse_rows(ring, rng, m, k, density)
        b = sparse_rows(ring, rng, k, n, density)
        # explicit all-zero rows of A and B and all-zero columns of both
        a = with_zero_lines(ring, a, set(rng.sample(range(m), m // 3)),
                            set(rng.sample(range(k), k // 3)))
        b = with_zero_lines(ring, b, set(rng.sample(range(k), k // 3)),
                            set(rng.sample(range(n), n // 3)))
        expected = dense_product(ring, a, b)
        assert mul_entries(ring, a, b) == expected
        # A as a list of lists, as idempotent_generator passes its W
        assert mul_entries(ring, [list(row) for row in a], b) == expected


@KERNEL_RINGS
def test_mul_entries_keeps_rows_of_one_nonzero_element(ring):
    # a row repeating one nonzero element is no zero row, even when that
    # element is 0 or falsy, in A and in B
    rng = random.Random(62)
    for c in ring.elements():
        if c == ring.zero:
            continue
        rows = ((c,) * 3, (ring.zero,) * 3, (c,) * 3)
        other = sparse_rows(ring, rng, 3, 3, 1.0)
        for a, b in ((rows, other), (other, rows)):
            assert mul_entries(ring, a, b) == dense_product(ring, a, b)


@pytest.mark.parametrize("entries, witness", [
    (((3, 5), (6, 10)), ((3336, 0), (0, 0))),
    (((2, 3), (5, 7)), ((10000, 3), (5, 10005))),
    (((0, 0), (0, 9999)), ((0, 0), (0, 8756))),
])
def test_matrix_witness_over_a_large_prime(monkeypatch, entries, witness):
    # over the field Z/10007 each pivot's inverse is pow(a, -1, p), with no
    # scan of the ring; the inverse is unique, so the witness is the same
    monkeypatch.setattr(ModularRing, "elements", lambda self: pytest.fail("Z/p enumerated"))
    a = MatrixOverRing(ModularRing(10007), entries)
    y = matrix_vnr_witness(a)
    assert y.entries == witness
    assert mat_mul(mat_mul(a, y), a) == a


def test_field_inverse_pivots_on_the_least_unused_column_pinned(z2):
    # row by row, the least unused column holding a unit is the pivot, and
    # row j of Y is the row operations' row i for each pivot (i, j); the
    # full-pivoting elimination this replaced gave ((0, 0), (0, 1), (1, 0))
    a = matrix(z2, [[0, 0, 1], [1, 1, 0]])
    assert matrix_vnr_witness(a).entries == ((0, 1), (0, 0), (1, 0))


SPLIT_RING_INVERSES = [
    (ModularRing(6), [[4]], [[4]]),
    (ModularRing(6), [[0]], [[0]]),
    (ModularRing(6), [[3], [2]], [[3, 2]]),
    (ModularRing(6), [[0, 5], [0, 0], [0, 3]], [[0, 0, 0], [5, 0, 0]]),
    (ModularRing(6), [[1, 2], [3, 4], [5, 0]], [[1, 4, 0], [0, 4, 0]]),
    (ModularRing(30), [[12]], [[18]]),
    (ModularRing(30), [[10], [6]], [[10, 6]]),
    (ModularRing(30), [[0, 0], [15, 0], [7, 20]], [[0, 15, 28], [0, 0, 0]]),
    (ModularRing(30), [[6, 10], [0, 0], [15, 21]], [[6, 0, 15], [10, 0, 6]]),
    (Z2xZ3, [[(1, 2)]], [[(1, 2)]]),
    (Z2xZ3, [[(0, 1)], [(1, 0)]], [[(0, 1), (1, 0)]]),
    (Z2xZ3, [[(1, 1), (0, 0)], [(0, 0), (0, 0)], [(1, 2), (0, 0)]],
     [[(1, 1), (0, 0), (0, 0)], [(0, 0), (0, 0), (0, 0)]]),
    (Z2xZ3, [[(1, 2), (0, 1)], [(1, 0), (1, 1)], [(0, 0), (0, 2)]],
     [[(1, 2), (0, 1), (0, 0)], [(1, 0), (1, 1), (0, 0)]]),
]


@pytest.mark.parametrize("ring, rows, witness", SPLIT_RING_INVERSES, ids=[
    f"{ring.describe().replace('/', '').replace(' ', '')}-{len(rows)}x{len(rows[0])}-{k}"
    for k, (ring, rows, _) in enumerate(SPLIT_RING_INVERSES)])
def test_split_ring_generalized_inverses_pinned(ring, rows, witness):
    # each part of a split ring is solved on its own and the answers are
    # joined (by CRT, or as tuples); pinned, so that how the parts are
    # handed around cannot change a printed witness
    y = matrix_vnr_witness(matrix(ring, rows))
    assert y == matrix(ring, witness)


VNR_MATRIX_RINGS = {"Z2": ModularRing(2), "Z3": ModularRing(3), "Z5": ModularRing(5),
                    "Z6": ModularRing(6), "Z30": ModularRing(30), "Z2xZ3": Z2xZ3,
                    "(Z2xZ3)xZ5": ProductRing([Z2xZ3, ModularRing(5)])}


@st.composite
def vnr_ring_matrices(draw):
    """An m x n matrix, m, n <= 6, over a von Neumann regular ring, with
    some of its rows and columns set to zero."""
    ring = VNR_MATRIX_RINGS[draw(st.sampled_from(sorted(VNR_MATRIX_RINGS)))]
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = draw(st.lists(st.lists(st.sampled_from(ring.elements()), min_size=n,
                                     max_size=n), min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, m - 1)))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    return matrix(ring, [
        [ring.zero if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(entries)])


@given(vnr_ring_matrices())
def test_matrix_witness_over_vnr_rings_always_exists(a):
    # every matrix over a von Neumann regular ring is regular: the witness
    # is n x m, and A.Y.A = A (which matrix_vnr_witness also re-checks)
    y = matrix_vnr_witness(a)
    assert (y.rows, y.cols) == (a.cols, a.rows)
    assert mat_mul(mat_mul(a, y), a) == a


def test_matrix_witness_random_verified(z6):
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = matrix(
            z6, [[rng.randrange(6) for _ in range(cols)] for _ in range(rows)])
        y = matrix_vnr_witness(a)
        assert y is not None  # Z/6 is vnr, so every matrix is regular
        assert mat_mul(mat_mul(a, y), a) == a


def _no_bilinear_solve_over_z_n(monkeypatch):
    """Make _matrix_witness_solve refuse a ModularRing: each Z/q block is
    answered by its unit-pivot elimination."""
    real = coeffring._matrix_witness_solve

    def table_rings_only(ring, rows):
        if isinstance(ring, ModularRing):
            raise AssertionError(f"bilinear solve over {ring.describe()}")
        return real(ring, rows)
    monkeypatch.setattr(coeffring, "_matrix_witness_solve", table_rings_only)
    return real


def test_matrix_witness_prime_power_agrees_with_brute_force(monkeypatch):
    # 2x2 over Z/8 and Z/9 from one unit-pivot elimination, never the
    # bilinear solve; absences checked exhaustively
    _no_bilinear_solve_over_z_n(monkeypatch)
    rng = random.Random(13)
    absent = 0
    for n in (8, 9):
        ring = ModularRing(n)
        for _ in range(12):
            a = matrix(
                ring, [[rng.choice([0, 0, 1, 3, n // 2, rng.randrange(n)]) for _ in range(2)]
                       for _ in range(2)])
            y = matrix_vnr_witness(a)
            if y is not None:
                assert mat_mul(mat_mul(a, y), a) == a
                continue
            absent += 1
            for combo in itertools.product(range(n), repeat=4):
                cand = matrix(ring, [combo[:2], combo[2:]])
                assert mat_mul(mat_mul(a, cand), a) != a
    assert absent >= 4


def test_prime_power_elimination_agrees_with_the_bilinear_solve(monkeypatch):
    # a block over Z/q, q = p**e, has a generalized inverse iff no row
    # without a unit pivot is left nonzero; the (mn)^2 bilinear system,
    # which table rings keep, decides the same on random blocks up to 4x4
    bilinear = _no_bilinear_solve_over_z_n(monkeypatch)
    rng = random.Random(17)
    found = {True: 0, False: 0}
    for n in (4, 8, 9, 27):
        ring = ModularRing(n)
        p = 3 if n % 3 == 0 else 2
        for _ in range(40):
            m, k = rng.randint(1, 4), rng.randint(1, 4)
            rows = tuple(tuple(rng.choice([0, p, p * rng.randrange(n), rng.randrange(n)]) % n
                               for _ in range(k)) for _ in range(m))
            y = matrix_vnr_witness(MatrixOverRing(ring, rows))
            assert (y is None) == (bilinear(ring, rows) is None), (n, rows)
            found[y is None] += 1
    assert min(found.values()) >= 20


# -- scalars over Z/q in closed form ------------------------------------------


def is_prime_power(n):
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


PRIME_POWERS = [q for q in range(2, 300) if is_prime_power(q)]


def test_scalar_blocks_agree_with_the_solver():
    # a 1x1 block over a Z/q that ring_parts leaves whole is read in closed
    # form, after the one split of Z/n and of products; its witness is the
    # one that the linear solver gives the same block
    rings = [ModularRing(n) for n in range(2, 300)] + [
        ProductRing([ModularRing(a), ModularRing(b)]) for a, b in ((2, 4), (4, 3), (9, 4))]
    cases = 0
    for ring in rings:
        for a in ring.elements():
            y = matrix_vnr_witness(MatrixOverRing(ring, ((a,),)))
            assert (None if y is None else y.entries) == \
                coeffring._matrix_witness_solve(ring, ((a,),)), (ring.describe(), a)
            cases += 1
    assert cases == 44849 + 8 + 12 + 36


def brute_scalar_facts(q):
    """Over Z/q, by enumeration in integer arithmetic: each a's first y with
    a.y.a = a (or None), the x with 1 - y.x a unit for every y, and the
    first a != 0 with a.r.a = 0 for every r (or None)."""
    witnesses = [next((y for y in range(q) if a * y * a % q == a), None) for a in range(q)]
    units = {u for u in range(q) if any(z * u % q == 1 for z in range(q))}
    radical = [x for x in range(q) if all((1 - y * x) % q in units for y in range(q))]
    nil = next((a for a in range(1, q) if all(a * r * a % q == 0 for r in range(q))), None)
    return witnesses, radical, nil


def test_prime_power_closed_forms_agree_with_enumeration():
    assert len(PRIME_POWERS) == 79
    for q in PRIME_POWERS:
        ring = ModularRing(q)
        witnesses, radical, nil = brute_scalar_facts(q)
        assert [vnr_witness(ring, a) for a in range(q)] == witnesses, q
        assert is_vnr(ring) is (None not in witnesses), q
        assert jacobson_radical(ring) == radical, q
        assert is_semiprime_ring(ring) == (nil is None, nil), q


def test_prime_power_answers_need_no_search(monkeypatch):
    # Z/q is answered in O(q) steps, far below a cap that its |R|^2
    # enumeration would pass; table rings still search under the cap
    monkeypatch.setenv("GRAL_SEARCH_CAP", "2")
    assert is_vnr(ModularRing(20011)) is True
    assert vnr_witness(ModularRing(20011), 2) == 10006
    assert is_vnr(ModularRing(1024)) is False
    assert [a for a in range(3) if vnr_witness(ModularRing(1024), a) is None] == [2]
    assert jacobson_radical(ModularRing(1009)) == [0]
    assert jacobson_radical(ModularRing(27)) == [0, 3, 6, 9, 12, 15, 18, 21, 24]
    assert is_semiprime_ring(ModularRing(1009)) == (True, None)
    assert is_semiprime_ring(ModularRing(1024)) == (False, 32)
    with pytest.raises(SearchCapExceeded):
        is_vnr(table_mod(2))


def test_prime_power_answers_are_rechecked(monkeypatch):
    # a wrong closed form fails its exact re-check instead of being printed
    monkeypatch.setattr(coeffring, "_unit_witness", lambda q, a: 1)
    with pytest.raises(InternalVerificationFailure):
        is_vnr(ModularRing(7))
    with pytest.raises(InternalVerificationFailure):
        vnr_witness(ModularRing(7), 3)
    # read as Z/4, Z/8 has 4 != 0 in the radical's p**e and in 2.2
    monkeypatch.setattr(coeffring, "_prime_powers", lambda n: [(2, 2)])
    with pytest.raises(InternalVerificationFailure):
        jacobson_radical(ModularRing(8))
    with pytest.raises(InternalVerificationFailure):
        is_semiprime_ring(ModularRing(8))


# -- composite moduli and products, answered by parts ---------------------------


COMPOSITE = [n for n in range(2, 300) if not is_prime_power(n)]


def prime_power_parts(n):
    """The prime powers q of n, by trial division."""
    out = []
    for p in range(2, n + 1):
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            out.append(q)
    return out


def first_witness_mod(q, a):
    """The first y in [0, q) with a.y.a = a mod q, or None."""
    return next((y for y in range(q) if a * y * a % q == a % q), None)


def test_composite_moduli_are_answered_by_parts():
    # each question over Z/n equals exhaustive search over Z/n; a witness is
    # the CRT join of the parts' first witnesses, each part searched alone
    assert len(COMPOSITE) == 219
    for n in COMPOSITE:
        ring = ModularRing(n)
        witnesses, radical, nil = brute_scalar_facts(n)
        qs = prime_power_parts(n)
        assert is_vnr(ring) is (None not in witnesses), n
        for a in range(n):
            y = vnr_witness(ring, a)
            assert (y is None) == (witnesses[a] is None), (n, a)
            if y is not None:
                assert a * y * a % n == a
                assert [y % q for q in qs] == [first_witness_mod(q, a) for q in qs], (n, a)
        assert jacobson_radical(ring) == radical, n
        assert is_semiprime_ring(ring) == (nil is None, nil), n


PRODUCTS = {
    "Z2xZ4": lambda: ProductRing([ModularRing(2), ModularRing(4)]),
    "Z3xZ5": lambda: ProductRing([ModularRing(3), ModularRing(5)]),
    "upper_Z2xZ3": lambda: ProductRing([table_upper_z2(), ModularRing(3)]),
    "Z6xZ4": lambda: ProductRing([ModularRing(6), ModularRing(4)]),
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_products_are_answered_by_parts(name):
    # each question over a product equals exhaustive search over the whole
    # ring; a witness is the first in enumeration order when every factor
    # is a prime-power modulus or a table ring, and a Z/6 factor gives its
    # CRT join
    ring = PRODUCTS[name]()
    elems, zero = ring.elements(), ring.zero
    first = [brute_vnr_witness(ring, a) for a in elems]
    nil = next((a for a in elems if a != zero and
                all(ring.mul(ring.mul(a, r), a) == zero for r in elems)), None)
    assert is_vnr(ring) is (None not in first)
    assert jacobson_radical(ring) == brute_radical(ring)
    assert is_semiprime_ring(ring) == (nil is None, nil)
    for a, expected in zip(elems, first):
        y = vnr_witness(ring, a)
        assert (y is None) == (expected is None), a
        if y is None:
            continue
        assert ring.mul(ring.mul(a, y), a) == a
        if name == "Z6xZ4":
            assert y[1] == expected[1], a
            assert [y[0] % q for q in (2, 3)] == [first_witness_mod(q, a[0]) for q in (2, 3)], a
        else:
            assert y == expected, a


# -- radical and semiprimeness ------------------------------------------------


def brute_radical(ring):
    """Independent oracle: quasi-regularity enumeration."""
    invertible = {u for u in ring.elements()
                  if any(ring.mul(z, u) == ring.one for z in ring.elements())}
    return [x for x in ring.elements()
            if all(ring.sub(ring.one, ring.mul(y, x)) in invertible
                   for y in ring.elements())]


def test_jacobson_radical_examples(z2, z4, z6):
    assert brute_radical(z4) == [0, 2]
    assert jacobson_radical(z4) == [0, 2]
    assert jacobson_radical(z2) == [0]
    assert jacobson_radical(z6) == [0]


def test_radical_is_ideal(z4):
    rad = set(jacobson_radical(z4))
    for x in rad:
        for y in rad:
            assert z4.add(x, y) in rad
        for r in z4.elements():
            assert z4.mul(r, x) in rad and z4.mul(x, r) in rad


def test_semiprime_examples(z2, z4, z6):
    verdict = is_semiprime_ring(z4)
    assert not verdict.semiprime and verdict.witness == 2
    assert is_semiprime_ring(z6).semiprime
    assert is_semiprime_ring(z2).semiprime
