"""Finite unital coefficient rings with exact arithmetic.

Three kinds of ring are supported: modular Z/n, finite products, and
explicit addition/multiplication tables.  Elements are plain Python
values (ints for modular and table rings, tuples for products) and all
operations go through the owning :class:`Ring` handle.  Handles are
immutable after construction, so everything here is safe to share.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (AxiomViolation, InternalVerificationFailure,
                     SearchCapExceeded, json_field, json_value)

DEFAULT_SEARCH_CAP = 10**6


def search_cap() -> int:
    """Exhaustive-search state cap; GRAL_SEARCH_CAP overrides the default.

    Raises ValueError when the variable is set to anything but a positive
    integer."""
    raw = os.environ.get("GRAL_SEARCH_CAP")
    if not raw:
        return DEFAULT_SEARCH_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"GRAL_SEARCH_CAP must be a positive integer, got {raw!r}")
    return cap


class Ring:
    """Common interface of the three ring kinds."""

    kind = "abstract"
    order: int

    def elements(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        """Multiplicative identity, or None for a relaxed (non-unital) table."""
        raise NotImplementedError

    def index(self, a) -> int:
        return self.elements().index(a)

    def encode(self, a):
        """JSON-compatible encoding of an element."""
        return a

    def decode(self, obj):
        a = self._decode(obj)
        if not self._has(a):
            raise ValueError(f"not an element of {self.describe()}: {obj!r}")
        return a

    def _decode(self, obj):
        return json_value(obj, int, f"an element of {self.describe()}")

    def _has(self, a) -> bool:
        cached = getattr(self, "_elt_set", None)
        if cached is None:
            cached = set(self.elements())
            self._elt_set = cached
        return a in cached

    def describe(self) -> str:
        raise NotImplementedError

    def format_element(self, a) -> str:
        return str(a)

    def is_field(self) -> bool:
        cached = getattr(self, "_field_cache", None)
        if cached is None:
            cached = all(
                any(self.mul(b, a) == self.one and self.mul(a, b) == self.one
                    for b in self.elements())
                for a in self.elements() if a != self.zero
            ) and self.one is not None
            self._field_cache = cached
        return cached

    def is_commutative(self) -> bool:
        cached = getattr(self, "_commutative_cache", None)
        if cached is None:
            cached = all(self.mul(a, b) == self.mul(b, a)
                         for a, b in itertools.combinations(self.elements(), 2))
            self._commutative_cache = cached
        return cached


class ModularRing(Ring):
    kind = "mod"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("modulus must be at least 2")
        self.n = n
        self.order = n
        self._elems = None  # built on the first elements() call

    def elements(self):
        if self._elems is None:
            self._elems = tuple(range(self.n))
        return self._elems

    def _has(self, a) -> bool:
        return 0 <= a < self.n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    # plain attributes, not properties: the product kernel reads them per call
    zero = 0
    one = 1

    def index(self, a):
        return a

    @functools.cached_property
    def _is_prime(self) -> bool:
        """Whether n is prime, factored once per handle."""
        return _prime_powers(self.n) == [(self.n, 1)]

    def is_commutative(self) -> bool:
        return True

    def describe(self):
        return f"Z/{self.n}"

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.n == self.n

    def __hash__(self):
        return hash(("mod", self.n))


class ProductRing(Ring):
    kind = "product"

    def __init__(self, factors: Sequence[Ring]):
        if not factors:
            raise ValueError("product ring needs at least one factor")
        self.factors = tuple(factors)
        self.order = math.prod(f.order for f in self.factors)
        self._elems = None

    def elements(self):
        if self._elems is None:
            self._elems = tuple(itertools.product(*(f.elements() for f in self.factors)))
        return self._elems

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    @property
    def zero(self):
        return tuple(f.zero for f in self.factors)

    @property
    def one(self):
        return tuple(f.one for f in self.factors)

    def encode(self, a):
        return [f.encode(x) for f, x in zip(self.factors, a)]

    def _decode(self, obj):
        if len(json_value(obj, list, f"an element of {self.describe()}")) != len(self.factors):
            raise ValueError(f"bad product element: {obj!r}")
        return tuple(f.decode(x) for f, x in zip(self.factors, obj))

    def is_commutative(self) -> bool:
        return all(f.is_commutative() for f in self.factors)

    def describe(self):
        return " x ".join(f.describe() for f in self.factors)

    def format_element(self, a):
        return "(" + ",".join(f.format_element(x) for f, x in zip(self.factors, a)) + ")"

    def __eq__(self, other):
        return isinstance(other, ProductRing) and other.factors == self.factors

    def __hash__(self):
        return hash(("product", self.factors))


class TableRing(Ring):
    """Ring given by explicit addition and multiplication tables.

    Axioms are validated at load.  With require_one=False a table without a
    designated identity is accepted (only used for grading fixtures).
    """

    kind = "table"

    def __init__(self, add_table, mul_table, zero: int, one: Optional[int],
                 require_one: bool = True):
        k = len(add_table)
        self.k = k
        self.order = k
        self.add_table = tuple(tuple(row) for row in add_table)
        self.mul_table = tuple(tuple(row) for row in mul_table)
        self._zero = zero
        self._one = one
        self._elems = tuple(range(k))
        self._validate(require_one)

    def _validate(self, require_one: bool):
        k = self.k
        rng = range(k)
        for name, table in (("add", self.add_table), ("mul", self.mul_table)):
            if len(table) != k or any(len(row) != k for row in table):
                raise AxiomViolation(f"{name}-total", None)
            for a in rng:
                for b in rng:
                    if not 0 <= table[a][b] < k:
                        raise AxiomViolation(f"{name}-closure", (a, b))
        add, mul, z = self.add_table, self.mul_table, self._zero
        if not 0 <= z < k:
            raise AxiomViolation("zero-element", z)
        for a in rng:
            if add[a][z] != a or add[z][a] != a:
                raise AxiomViolation("add-zero", a)
            if not any(add[a][b] == z for b in rng):
                raise AxiomViolation("add-inverse", a)
            for b in rng:
                if add[a][b] != add[b][a]:
                    raise AxiomViolation("add-commutative", (a, b))
                for c in rng:
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise AxiomViolation("add-associative", (a, b, c))
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise AxiomViolation("mul-associative", (a, b, c))
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise AxiomViolation("distributive-left", (a, b, c))
                    if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                        raise AxiomViolation("distributive-right", (a, b, c))
        if require_one or self._one is not None:
            o = self._one
            if o is None or not 0 <= o < k:
                raise AxiomViolation("one-element", o)
            if o == z:
                raise AxiomViolation("one-nonzero", o)
            for a in rng:
                if mul[a][o] != a or mul[o][a] != a:
                    raise AxiomViolation("one-identity", a)

    def elements(self):
        return self._elems

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        for b in self._elems:
            if self.add_table[a][b] == self._zero:
                return b
        raise AxiomViolation("add-inverse", a)

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def index(self, a):
        return a

    def describe(self):
        return f"table({self.k})"

    def format_element(self, a):
        return f"t{a}"

    def __eq__(self, other):
        return (isinstance(other, TableRing) and other.add_table == self.add_table
                and other.mul_table == self.mul_table and other._zero == self._zero
                and other._one == self._one)

    def __hash__(self):
        return hash(("table", self.add_table, self.mul_table, self._zero, self._one))


def ring_make(spec) -> Ring:
    """Build a ring handle from a parsed spec dict.

    Schema: {"kind":"mod","n":4} | {"kind":"product","factors":[...]} |
    {"kind":"table","size":k,"zero":i,"one":j,"add":[[...]],"mul":[[...]]}.
    Every element of a ring is enumerated, so a ring with more elements than
    the search cap is refused.
    """
    kind = json_field(spec, "kind", str, "a ring spec")
    what = f"a {kind} ring spec"
    if kind == "mod":
        n = json_field(spec, "n", int, what)
        return ModularRing(within_cap(n, "ring enumeration"))
    if kind == "product":
        ring = ProductRing([ring_make(f) for f in json_field(spec, "factors", list, what)])
        within_cap(ring.order, "ring enumeration")
        return ring
    if kind == "table":
        size = json_field(spec, "size", int, what)
        add, mul = (json_field(spec, name, [[int]], what) for name in ("add", "mul"))
        if len(add) != size or len(mul) != size:
            raise AxiomViolation("table-size", size)
        return TableRing(add, mul, json_field(spec, "zero", int, what),
                         json_field(spec, "one", int, what))
    raise ValueError(f"unknown ring kind: {kind!r}")


def within_cap(states: int, what: str) -> int:
    """states, checked before a search over that many states: past the
    search cap, SearchCapExceeded naming what.  The one up-front cap check;
    only is_vnr counts its states as it goes.  A matricial level asks with
    its dense rank, the path listings with their path counts; the linear
    solvers never ask."""
    cap = search_cap()
    if states > cap:
        raise SearchCapExceeded(states, cap, what)
    return states


def ring_spec(ring: Ring):
    """Inverse of ring_make for the serializable kinds."""
    if isinstance(ring, ModularRing):
        return {"kind": "mod", "n": ring.n}
    if isinstance(ring, ProductRing):
        return {"kind": "product", "factors": [ring_spec(f) for f in ring.factors]}
    if isinstance(ring, TableRing):
        return {"kind": "table", "size": ring.k, "zero": ring.zero, "one": ring.one,
                "add": [list(r) for r in ring.add_table],
                "mul": [list(r) for r in ring.mul_table]}
    raise ValueError(f"cannot serialize {ring!r}")


# ---------------------------------------------------------------------------
# von Neumann regularity


@dataclass(frozen=True)
class VnrVerdict:
    regular: bool
    witnesses: Optional[tuple] = None       # ((a, y), ...) when regular
    counterexample: Optional[object] = None  # least a without a witness


def vnr_witness(ring: Ring, a):
    """First y in enumeration order with a = a.y.a, or None."""
    for y in ring.elements():
        if ring.mul(ring.mul(a, y), a) == a:
            return y
    return None


def is_vnr(ring: Ring) -> VnrVerdict:
    """Each a with its first witness y, or the first a without one.  Every
    product a.y.a tried is one step, and more steps than the search cap
    raise SearchCapExceeded."""
    cached = getattr(ring, "_vnr_cache", None)
    if cached is not None:
        return cached
    cap = search_cap()
    steps = 0
    table = []
    for a in ring.elements():
        for y in ring.elements():
            steps += 1
            if steps > cap:
                raise SearchCapExceeded(steps, cap, "vnr search")
            if ring.mul(ring.mul(a, y), a) == a:
                table.append((a, y))
                break
        else:
            verdict = VnrVerdict(False, None, a)
            break
    else:
        verdict = VnrVerdict(True, tuple(table), None)
    ring._vnr_cache = verdict
    return verdict


# ---------------------------------------------------------------------------
# Linear systems
#
# A constraint is (terms, rhs) where terms is a sequence of (left, var, right)
# triples meaning sum(left . x_var . right) = rhs; left/right may be None
# (treated as "no factor", which also covers non-unital table rings).
#
# A system's left-hand sides are factored once (_factor) and then asked for
# solutions against any number of right-hand sides, and for the generators
# of its homogeneous solutions.  ring_parts is the one split: a product
# ring into its factors, a composite Z/n into its prime powers, each part
# factored on its own and each answer joined (by CRT) and checked to
# project back onto every part's.  Over Z/q, q = p**e, _PrimePowerFactor
# is the one elimination: it folds the constraints into sparse rows,
# eliminates with unit pivots (first row, then first column, holding a
# unit), records the row operations and factors the leftover rows, all
# divisible by p, divided by p mod p**(e-1).  Solving replays the row
# operations on the right-hand side, checks the leftover rows and
# back-substitutes; the kernel's non-pivot unknowns are free, or range
# over the lifted sub-kernel plus p**(e-1) times anything, and the reduced
# pivot rows fix the rest.  Every solution and generator is re-checked
# exactly.  A matrix's generalized inverse over Z/p is the row operations
# of its rows replayed on the unit vectors.  Pivots depend on the
# left-hand sides alone, so SpanSolver factors a span question's columns
# once for any number of targets and its kernel.  Table rings are solved
# by AdditiveSpan: given each unknown's image of every nonzero element,
# it eliminates in additive coordinates and answers in ring elements.


def _span_rows(columns, keys=()):
    """(key, terms) for sum_i r_i . columns[i], one per key of the columns
    and of keys, in repr order, with the terms in column order.  Row order
    changes no solution or kernel, but it sets the cost of elimination:
    first-seen order makes path-algebra systems slower to eliminate."""
    rows = {k: [] for k in keys}
    for i, column in enumerate(columns):
        for k, c in column.items():
            terms = rows.get(k)
            if terms is None:
                rows[k] = terms = []
            terms.append((None, i, c))
    return [(k, rows[k]) for k in sorted(rows, key=repr)]


def span_constraints(ring: Ring, columns, target=None):
    """Constraints for sum_i r_i . columns[i] = target over the variables
    0..len(columns)-1, where columns and target are coordinate dicts
    {key: coefficient}.  One row per key of the columns and the target, in
    repr order, with its terms in column order; no target gives the
    homogeneous system."""
    target = target or {}
    zero = ring.zero
    return [(terms, target.get(k, zero)) for k, terms in _span_rows(columns, target)]


class SpanSolver:
    """Solutions of sum_i r_i . columns[i] = target for many targets, the
    columns factored once.  Columns and targets are coordinate dicts
    {key: coefficient}; solve(target) gives {i: r_i} or None, the same
    answer as solve_linear_system(ring, span_constraints(ring, columns,
    target), range(len(columns))), and kernel() the generators of the
    {i: r_i} with sum_i r_i . columns[i] = 0.

    More blocks of columns, one column per unknown in each, ask for the
    same r_i in several equations: solve(target, ...) takes one target per
    block, and the rows are those of span_constraints block by block."""

    def __init__(self, ring: Ring, *blocks):
        self.zero = ring.zero
        self._row_of = []  # per block, key -> row
        constraints = []
        for columns in blocks:
            rows = _span_rows(columns)
            self._row_of.append({k: r for r, (k, _) in enumerate(rows, len(constraints))})
            constraints += [(terms, ring.zero) for _, terms in rows]
        # the last row, without terms, stands for the target keys that no
        # column has: span_constraints gives each of them such a row, and a
        # nonzero coefficient there leaves the system without a solution
        constraints.append(([], ring.zero))
        self._system = _factor(ring, constraints, list(range(len(blocks[0]))))
        self._nrows = len(constraints)

    def solve(self, *targets) -> Optional[dict]:
        zero = self.zero
        rhs = [zero] * self._nrows
        for row_of, target in zip(self._row_of, targets):
            for k, b in target.items():
                r = row_of.get(k)
                if r is not None:
                    rhs[r] = b
                elif b != zero:
                    rhs[-1] = b
        return self._system.solve(rhs)

    def kernel(self) -> list:
        return self._system.kernel()


def solve_linear_system(ring: Ring, constraints, variables=None):
    """One solution as {var: element}, or None if certifiably absent.

    Modular and product rings are solved exactly (split by ring_parts,
    elimination with unit pivots and p-divisible recursion over each prime
    power); table rings by the same elimination in additive coordinates.
    """
    varlist = _collect_vars(constraints, variables)
    if isinstance(ring, ProductRing):
        # each factor is a solve_linear_system call of its own
        split = ring_parts(ring)
        return _joined(split, (solve_linear_system(part, system, varlist) for part, system
                               in zip(split[0], _split_constraints(split, constraints))),
                       varlist, "linear solution")
    return _factor(ring, constraints, varlist).solve([b for _, b in constraints])


def _collect_vars(constraints, variables):
    if variables is not None:
        return list(variables)
    seen = []
    have = set()
    for terms, _ in constraints:
        for _, v, _ in terms:
            if v not in have:
                have.add(v)
                seen.append(v)
    return seen


def _factor(ring: Ring, constraints, varlist):
    """The left-hand sides of the constraints (their right-hand sides are
    ignored) prepared once; solve(rhs), with one right-hand side per
    constraint, gives {var: element} or None, and kernel() the nonzero
    generators {var: element} of the homogeneous solutions."""
    split = ring_parts(ring)
    if split is not None:
        return _SplitSystem(split, constraints, varlist)
    if isinstance(ring, ModularRing):
        return _ModularSystem(ring, constraints, varlist)
    return _AdditiveSystem(ring, constraints, varlist)


def _split_constraints(split, constraints):
    """The constraints projected to each part of a ring_parts split, one
    list of constraints per part."""
    parts, project, _ = split
    none = (None,) * len(parts)
    per_part = [[] for _ in parts]
    for terms, b in constraints:
        terms = [(none if l is None else project(l), v, none if r is None else project(r))
                 for l, v, r in terms]
        for k, (system, bk) in enumerate(zip(per_part, project(b))):
            system.append(([(l[k], v, r[k]) for l, v, r in terms], bk))
    return per_part


def _joined(split, answers, varlist, what):
    """{var: element} joined from the answers {var: element}, one per part
    of a ring_parts split and read in turn, once each joined entry projects
    back onto every part's; None at the first answer that is None."""
    per_part = []
    for sol in answers:
        if sol is None:
            return None
        per_part.append(sol)
    _, project, join = split
    x = {}
    for v in varlist:
        xs = tuple(sol[v] for sol in per_part)
        x[v] = join(xs)
        if project(x[v]) != xs:
            raise InternalVerificationFailure(f"{what} failed re-verification")
    return x


class _SplitSystem:
    """A system over a ring that ring_parts splits, factored part by part."""

    def __init__(self, split, constraints, varlist):
        self.split, self.varlist = split, varlist
        self.parts = [_factor(part, system, varlist)
                      for part, system in zip(split[0], _split_constraints(split, constraints))]

    def solve(self, rhs):
        rhs = [self.split[1](b) for b in rhs]
        return _joined(self.split, (part.solve([b[k] for b in rhs])
                                    for k, part in enumerate(self.parts)),
                       self.varlist, "linear solution")

    def kernel(self):
        """Each part's generators, zero in the other parts."""
        zeros = [dict.fromkeys(self.varlist, part.zero) for part in self.split[0]]
        return [_joined(self.split, zeros[:k] + [g] + zeros[k + 1:], self.varlist,
                        "kernel generator")
                for k, part in enumerate(self.parts) for g in part.kernel()]


class _AdditiveSystem:
    """A table ring's constraints solved by AdditiveSpan: the map of the
    unknown v sends a to the sum of the terms l . a . r of v in each row.
    Each answer is re-checked exactly."""

    def __init__(self, ring, constraints, varlist):
        self.ring, self.varlist, self.lhs = ring, varlist, [terms for terms, _ in constraints]
        nonzero = [a for a in ring.elements() if a != ring.zero]
        images = {v: [{} for _ in nonzero] for v in varlist}  # v -> a -> {row: entry}
        for i, terms in enumerate(self.lhs):
            for l, v, r in terms:
                for col, a in zip(images[v], nonzero):
                    col[i] = ring.add(col.get(i, ring.zero), _term(ring, l, a, r))
        self.span = AdditiveSpan(ring, list(images.values()))

    def solve(self, rhs):
        xs = self.span.solve(dict(enumerate(rhs)))
        return None if xs is None else self._checked(xs, rhs, "linear solution")

    def kernel(self):
        zero = self.ring.zero
        return [self._checked(g, itertools.repeat(zero), "kernel generator")
                for g in self.span.kernel()]

    def _checked(self, xs, rhs, what):
        ring = self.ring
        x = dict(zip(self.varlist, xs))
        for terms, b in zip(self.lhs, rhs):
            if functools.reduce(ring.add, (_term(ring, l, x[v], r) for l, v, r in terms),
                                ring.zero) != b:
                raise InternalVerificationFailure(f"{what} failed re-verification")
        return x


def _term(ring, l, x, r):
    """l . x . r, a None factor left out."""
    x = x if l is None else ring.mul(l, x)
    return x if r is None else ring.mul(x, r)


class AdditiveSpan:
    """Elements x_i of R with sum_i f_i(x_i) = target, for additive maps f_i
    into coordinate dicts {key: ring element}; images[i] lists f_i(a) for
    each nonzero a of R in enumeration order.  Solved in additive
    coordinates x_i = sum_a n_(i,a) . a, n mod N, the exponent of (R, +) =
    (Z/N)^R modulo the e_a + e_b - e_(a+b).  An entry c at key k is the
    unit vector at (k, c), and each key gets the relations as columns of its
    own, so one SpanSolver over Z/N gives solve(target) = [x_i] or None and
    kernel(), the generators [x_i] that are not all zero."""

    def __init__(self, ring: Ring, images):
        self.ring, self.zero, self.width = ring, ring.zero, len(images)
        self.nonzero = [a for a in ring.elements() if a != ring.zero]
        columns = [col for image in images for col in image]
        n, multiples = 1, ring.elements()
        while any(x != ring.zero for x in multiples):
            n, multiples = n + 1, [ring.add(x, a) for x, a in zip(multiples, ring.elements())]
        # e_a + e_b - e_(a+b), the -1 read as n - 1
        relations = [collections.Counter((a, b) + (ring.add(a, b),) * (n - 1))
                     for a, b in itertools.combinations_with_replacement(ring.elements(), 2)]
        keys = dict.fromkeys(k for col in columns for k in col)
        self._solver = SpanSolver(ModularRing(n), [self._vector(col) for col in columns] + [
            {(k, x): c % n for x, c in rel.items() if c % n} for k in keys for rel in relations])

    def _vector(self, coords):
        return {(k, c): 1 for k, c in coords.items() if c != self.zero}

    def _elements(self, counts):
        """[x_i], x_i = sum_a n . a over the counts n of the (i, a)."""
        ring, nonzero = self.ring, self.nonzero
        out = []
        for i in range(self.width):
            x = ring.zero
            for t, a in enumerate(nonzero, i * len(nonzero)):
                for _ in range(counts[t]):
                    x = ring.add(x, a)
            out.append(x)
        return out

    def solve(self, target) -> Optional[list]:
        sol = self._solver.solve(self._vector(target))
        return None if sol is None else self._elements(sol)

    def kernel(self) -> list:
        gens = (self._elements(g) for g in self._solver.kernel())
        return [g for g in gens if any(x != self.zero for x in g)]


def _fold_modular(ring, constraints, varlist):
    """The left-hand sides as sparse rows {column: entry}, reduced mod n."""
    n = ring.n
    pos = {v: i for i, v in enumerate(varlist)}
    rows = []
    for terms, _ in constraints:
        row = {}
        for l, v, r in terms:
            j = pos[v]
            c = (row.get(j, 0) + (1 if l is None else l) * (1 if r is None else r)) % n
            if c:
                row[j] = c
            else:
                row.pop(j, None)
        rows.append(row)
    return rows


def _prime_powers(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _crt(residues):
    """The x in [0, prod q) with x = r mod q for each (r, q); the q are
    pairwise coprime."""
    x, mod = 0, 1
    for r, q in residues:
        x += mod * ((r - x) * pow(mod, -1, q) % q)
        mod *= q
    return x


def ring_parts(ring: Ring):
    """(parts, project, join), the one split of a ring, or None: a product
    into its factors, a composite Z/n into Z/q for each prime power q of n
    (joined by CRT).  project maps an element to its tuple of parts, and
    join is its inverse.  Cached on the handle."""
    cached = getattr(ring, "_parts_cache", False)  # None is an answer
    if cached is not False:
        return cached
    split = None
    if isinstance(ring, ProductRing):
        split = (ring.factors, lambda x: x, tuple)
    elif isinstance(ring, ModularRing):
        qs = [p**e for p, e in _prime_powers(ring.n)]
        if len(qs) > 1:
            split = (tuple(ModularRing(q) for q in qs),
                     lambda x: tuple(x % q for q in qs),
                     lambda xs: _crt(zip(xs, qs)))
    ring._parts_cache = split
    return split


class _ModularSystem:
    """The left-hand sides over Z/q, q a prime power, as sparse rows,
    factored once."""

    def __init__(self, ring, constraints, varlist):
        self.n, self.varlist = ring.n, varlist
        self.rows = _fold_modular(ring, constraints, varlist)
        # column j as (row, entry) pairs, for re-checks from a solution's support
        self.columns = [[] for _ in varlist]
        for r, row in enumerate(self.rows):
            for j, c in row.items():
                self.columns[j].append((r, c))
        (p, e), = _prime_powers(self.n)
        self.factor = _PrimePowerFactor([dict(row) for row in self.rows], len(varlist), p, e)

    def solve(self, rhs):
        x = self.factor.solve([b % self.n for b in rhs])
        return None if x is None else self._checked(x, rhs, "linear solution")

    def kernel(self):
        return [self._checked(g, itertools.repeat(0), "kernel generator")
                for g in self.factor.kernel()]

    def _checked(self, x, rhs, what):
        """x as {var: entry}, once sum_j x_j . column_j, formed from the
        nonzero x_j, equals rhs on every row (also on a row no column has)."""
        acc = [0] * len(self.rows)
        for j, xj in enumerate(x):
            if xj:
                for r, c in self.columns[j]:
                    acc[r] += c * xj
        n = self.n
        if any((a - b) % n for a, b in zip(acc, rhs)):
            raise InternalVerificationFailure(f"{what} failed re-verification")
        return dict(zip(self.varlist, x))


class _PrimePowerFactor:
    """Elimination of sparse rows mod q = p**e with unit pivots, recorded
    so that any right-hand side can be replayed.  The rows left without a
    unit pivot have every entry divisible by p; divided by p they are
    factored mod p**(e-1) in sub.  Only ops and the pivot cells are built up
    front; the rest waits for the first solve or kernel call."""

    def __init__(self, rows, ncols, p, e):
        q = p**e
        self.p, self.q, self.e, self.ncols = p, q, e, ncols
        self.ops = []    # (pivot row, inverse, ((row, factor), ...))
        self.cells = []  # (pivot row, pivot column)
        used = set()
        holders = [set() for _ in range(ncols)]  # column -> rows with an entry there
        for i, row in enumerate(rows):
            for j in row:
                holders[j].add(i)
        for i, row in enumerate(rows):
            # a row passed over here keeps all its entries divisible by p:
            # every later pivot subtracts a multiple of p from it
            j = min((j for j, c in row.items() if c % p and j not in used), default=None)
            if j is None:
                continue
            inv = pow(row[j], -1, q)
            row = rows[i] = {jj: c * inv % q for jj, c in row.items()}
            elim = []
            for k in sorted(holders[j]):
                if k == i:
                    continue
                other = rows[k]
                f = other[j]
                elim.append((k, f))
                for jj, c in row.items():
                    old = other.get(jj)
                    x = ((old or 0) - f * c) % q
                    if x:
                        if old is None:
                            holders[jj].add(k)
                        other[jj] = x
                    elif old is not None:
                        del other[jj]
                        holders[jj].discard(k)
            self.ops.append((i, inv, tuple(elim)))
            self.cells.append((i, j))
            used.add(j)
        self._rows = rows

    @functools.cached_property
    def _reduced(self):
        """(rem, live, sub, pivots): rows and columns without a pivot, sub,
        and per pivot (row, column, the reduced row's other entries)."""
        rows = vars(self).pop("_rows")  # read here once, then dropped
        p, cells = self.p, self.cells
        pivot_rows = {i for i, _ in cells}
        used = {j for _, j in cells}
        rem = [i for i in range(len(rows)) if i not in pivot_rows]
        live = [j for j in range(self.ncols) if j not in used]
        sub = None
        if self.e > 1 and rem:
            pos = {j: t for t, j in enumerate(live)}
            sub = _PrimePowerFactor([{pos[j]: c // p for j, c in rows[i].items()} for i in rem],
                                    len(live), p, self.e - 1)
        # the reduced pivot rows hold their pivot and non-pivot columns only
        pivots = [(i, j, tuple((jj, c) for jj, c in rows[i].items() if jj != j))
                  for i, j in cells]
        return rem, live, sub, pivots

    def replay(self, rhs):
        """rhs (entries in [0, q), overwritten) with the recorded row
        operations applied."""
        q = self.q
        for i, inv, elim in self.ops:
            b = rhs[i] = rhs[i] * inv % q
            if b:
                for k, f in elim:
                    rhs[k] = (rhs[k] - f * b) % q
        return rhs

    def solve(self, rhs):
        """Solution mod q of the factored rows against rhs (entries in
        [0, q), overwritten), or None."""
        p, q = self.p, self.q
        rem, live, sub, pivots = self._reduced
        rhs = self.replay(rhs)
        if any(rhs[i] % p for i in rem):
            return None
        sol = [0] * self.ncols
        if sub is None:
            # the non-pivot unknowns stay 0
            for i, j, _ in pivots:
                sol[j] = rhs[i]
            return sol
        sub_sol = sub.solve([rhs[i] // p for i in rem])
        if sub_sol is None:
            return None
        for j, x in zip(live, sub_sol):
            sol[j] = x
        for i, j, entries in pivots:
            acc = rhs[i]
            for jj, c in entries:
                acc -= c * sol[jj]
            sol[j] = acc % q
        return sol

    def kernel(self):
        """Generators mod q of the solutions of the factored rows against
        0, as lists over the columns."""
        q = self.q
        _, live, sub, pivots = self._reduced
        if sub is None:
            free = [{j: 1} for j in live]
        else:
            # the leftover rows are p times sub's: their solutions mod q are
            # sub's kernel lifted plus p**(e-1) times anything
            free = [dict(zip(live, g)) for g in sub.kernel()]
            free += [{j: q // self.p} for j in live]
        gens = []
        for values in free:
            x = [0] * self.ncols
            for j, c in values.items():
                x[j] = c
            for _, j, entries in pivots:
                x[j] = -sum(c * x[jj] for jj, c in entries) % q
            gens.append(x)
        return gens


def kernel_generators(ring: Ring, constraints, variables):
    """Nonzero generators {var: element} of the solution module of a
    homogeneous system (every right-hand side zero, a modular one read mod
    n; ValueError otherwise), from the same factorization that
    solve_linear_system uses.

    Used for injectivity testing over rings with zero divisors, where rank
    arguments are unavailable.
    """
    # ring.add reduces a modular right-hand side mod n
    if any(ring.add(b, ring.zero) != ring.zero for _, b in constraints):
        raise ValueError("kernel_generators needs a homogeneous system")
    return _factor(ring, constraints, list(variables)).kernel()


# ---------------------------------------------------------------------------
# Matrices


@dataclass(frozen=True)
class MatrixOverRing:
    ring: Ring
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix dimensions must be positive")

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    @staticmethod
    def from_lists(ring, rows):
        return MatrixOverRing(ring, tuple(tuple(r) for r in rows))


def mul_entries(ring: Ring, a, b) -> tuple:
    """Rows of A.B for matrices given as sequences of rows; the one block
    kernel.  Each row of A visits only its nonzero entries t, and each of
    those only the nonzero entries of row t of B.

    Cost: an all-zero row of A or B costs one C-level row.count(zero),
    which compares with the ring's zero (a ProductRing zero (0, 0) is
    truthy); a zero row of A is the one shared row (zero,) * width.  A
    nonzero row of A pays a Python step per entry, plus one per product
    of its nonzero entries with the nonzero entries of B's matching rows.
    """
    zero, add, mul = ring.zero, ring.add, ring.mul
    width = len(b[0]) if b else 0
    b_support = [[] if row.count(zero) == len(row)
                 else [(j, x) for j, x in enumerate(row) if x != zero] for row in b]
    zero_row = (zero,) * width
    out = []
    for row in a:
        if row.count(zero) == len(row):
            out.append(zero_row)
            continue
        acc = [zero] * width
        for x, b_row in zip(row, b_support):
            if x == zero:
                continue
            for j, y in b_row:
                acc[j] = add(acc[j], mul(x, y))
        out.append(tuple(acc))
    return tuple(out)


def matrix_vnr_witness(a: MatrixOverRing) -> Optional[MatrixOverRing]:
    """Y with A.Y.A = A, or None (certified absence).

    A ring that ring_parts splits is solved part by part; Z/p gets the
    generalized inverse from one elimination of A's rows; everything else
    goes through solve_linear_system.  The parts are solved on plain row
    tuples, and the result (its shape and A.Y.A = A) is re-verified
    before it is returned.
    """
    ring, entries = a.ring, a.entries
    y = _matrix_witness_dispatch(ring, entries)
    if y is not None and (len(y) != a.cols or any(len(row) != a.rows for row in y) or
                          mul_entries(ring, mul_entries(ring, entries, y), entries) != entries):
        raise InternalVerificationFailure("matrix witness failed re-verification")
    return None if y is None else MatrixOverRing(ring, y)


def _matrix_witness_dispatch(ring: Ring, rows):
    """Rows of a Y with A.Y.A = A for A's rows over ring, or None."""
    split = ring_parts(ring)
    if split is not None:
        parts, project, join = split
        # part k's matrix holds the k-th parts of A's entries
        ys = []
        for part, part_rows in zip(parts, zip(*(tuple(zip(*map(project, row)))
                                                for row in rows))):
            y = _matrix_witness_dispatch(part, part_rows)
            if y is None:
                return None
            ys.append(y)
        return tuple(tuple(map(join, zip(*y_rows))) for y_rows in zip(*ys))
    if isinstance(ring, ModularRing) and ring._is_prime:
        return _field_generalized_inverse(rows, ring.n)
    return _matrix_witness_solve(ring, rows)


def _matrix_witness_solve(ring: Ring, rows):
    m, n = len(rows), len(rows[0])
    constraints = []
    for i in range(m):
        for j in range(n):
            terms = []
            for k in range(n):
                for l in range(m):
                    terms.append((rows[i][k], (k, l), rows[l][j]))
            constraints.append((terms, rows[i][j]))
    variables = [(k, l) for k in range(n) for l in range(m)]
    sol = solve_linear_system(ring, constraints, variables)
    if sol is None:
        return None
    return tuple(tuple(sol[(k, l)] for l in range(m)) for k in range(n))


def _field_generalized_inverse(rows, p):
    """Rows of a Y with A.Y.A = A over Z/p, p prime, from the row operations
    E and pivot cells of one elimination of A's rows.  E.A is reduced, with
    a 1 at each pivot (i, j), zeros in the rest of column j and zero rows
    without a pivot; row j of Y is row i of E, and every other row of Y is
    zero.  Column r of E is the replay of the r-th unit vector."""
    m = len(rows)
    factor = _PrimePowerFactor([{j: x for j, x in enumerate(row) if x} for row in rows],
                               len(rows[0]), p, 1)
    e_rows = list(zip(*(factor.replay([0] * r + [1] + [0] * (m - 1 - r)) for r in range(m))))
    y = [(0,) * m] * len(rows[0])
    for i, j in factor.cells:
        y[j] = e_rows[i]
    return tuple(y)


# ---------------------------------------------------------------------------
# Radical and semiprimeness


def jacobson_radical(ring: Ring):
    """{x : 1 - yx has a left inverse for all y}, in enumeration order."""
    within_cap(ring.order**2, "radical enumeration")
    one = ring.one
    elems = ring.elements()
    invertible = set()
    for u in elems:
        if any(ring.mul(z, u) == one for z in elems):
            invertible.add(u)
    radical = [x for x in elems
               if all(ring.sub(one, ring.mul(y, x)) in invertible for y in elems)]
    rad_set = set(radical)
    for x in radical:
        for y in radical:
            if ring.add(x, y) not in rad_set:
                raise InternalVerificationFailure(
                    f"radical of {ring.describe()} not closed under addition")
        for y in elems:
            if ring.mul(y, x) not in rad_set or ring.mul(x, y) not in rad_set:
                raise InternalVerificationFailure(
                    f"radical of {ring.describe()} is not a two-sided ideal")
    return radical


@dataclass(frozen=True)
class SemiprimeVerdict:
    semiprime: bool
    witness: Optional[object] = None  # a != 0 with aRa = 0


def is_semiprime_ring(ring: Ring) -> SemiprimeVerdict:
    within_cap(ring.order**2, "semiprime enumeration")
    for a in ring.elements():
        if a == ring.zero:
            continue
        if all(ring.mul(ring.mul(a, r), a) == ring.zero for r in ring.elements()):
            return SemiprimeVerdict(False, a)
    return SemiprimeVerdict(True, None)
