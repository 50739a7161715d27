"""The Cohn-algebra functor on graph-pair morphisms, the Cohn-to-Leavitt
graded isomorphism, and finite direct-limit chain verification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coeffring import Ring, SpanSolver
# not called here, but perfbench/tracer.py rebinds solve_linear_system in
# every gral module that holds it
from .coeffring import solve_linear_system  # noqa: F401
from .errors import GralError, InternalVerificationFailure, RelationViolation
from .graphs import (CohnPair, GraphMorphism, cohn_cover, compose_morphisms,
                     morphism_validate)
from .pathalg import (AlgebraElement, AlgebraSpec, edge_element,
                      format_element, monomial_element, reduced_monomials,
                      vertex_element)
from .regularity import LocalUnitPair, UnitFactorization, local_units


@dataclass(frozen=True)
class AlgebraHom:
    """Generator assignment between two path algebra presentations."""

    source: AlgebraSpec
    target: AlgebraSpec
    vmap: tuple   # ((vertex, element), ...)
    emap: tuple   # ((edge, element), ...)
    gmap: tuple   # ((edge, element), ...) ghost images

    @staticmethod
    def make(source: AlgebraSpec, target: AlgebraSpec,
             vmap: dict, emap: dict, gmap: Optional[dict] = None) -> "AlgebraHom":
        if gmap is None:
            gmap = {name: img.involution() for name, img in emap.items()}
        hom = AlgebraHom(source, target,
                         tuple(sorted(vmap.items())),
                         tuple(sorted(emap.items())),
                         tuple(sorted(gmap.items())))
        hom.validate()
        return hom

    def vertex_image(self, v):
        return dict(self.vmap)[v]

    def edge_image(self, name):
        return dict(self.emap)[name]

    def ghost_image(self, name):
        return dict(self.gmap)[name]

    def validate(self):
        """Re-derive relations (i)-(v) of the source presentation on the
        generator images; raises RelationViolation naming the first failure."""
        g = self.source.graph
        vmap, emap, gmap = dict(self.vmap), dict(self.emap), dict(self.gmap)
        for v in g.vertices:
            img = vmap[v]
            if not img.is_zero and img.degree() != 0:
                raise RelationViolation("grading", f"image of {v} not degree 0")
        for e in g.edges:
            for img, want, what in ((emap[e.name], 1, e.name),
                                    (gmap[e.name], -1, e.name + "*")):
                if not img.is_zero and img.degree() != want:
                    raise RelationViolation("grading", f"image of {what} has wrong degree")
        for u in g.vertices:
            for v in g.vertices:
                prod = vmap[u] * vmap[v]
                want = vmap[u] if u == v else AlgebraElement.zero(self.target)
                if prod != want:
                    raise RelationViolation("(i)", f"{u}.{v}")
        for e in g.edges:
            fe = emap[e.name]
            if vmap[e.src] * fe != fe or fe * vmap[e.dst] != fe:
                raise RelationViolation("(ii)", e.name)
            ge = gmap[e.name]
            if vmap[e.dst] * ge != ge or ge * vmap[e.src] != ge:
                raise RelationViolation("(iii)", e.name)
        for e in g.edges:
            for f in g.edges:
                prod = gmap[e.name] * emap[f.name]
                want = vmap[e.dst] if e.name == f.name else AlgebraElement.zero(self.target)
                if prod != want:
                    raise RelationViolation("(iv)", f"{e.name}*.{f.name}")
        for v in sorted(self.source.x):
            acc = AlgebraElement.zero(self.target)
            for e in g.out_edges(v):
                acc = acc + emap[e.name] * gmap[e.name]
            if acc != vmap[v]:
                raise RelationViolation("(v)", v)


def hom_apply(h: AlgebraHom, x: AlgebraElement) -> AlgebraElement:
    """Substitute generator images and renormalize in the target."""
    if x.spec != h.source:
        raise GralError("element does not live in the hom's source algebra")
    vmap, emap, gmap = dict(h.vmap), dict(h.emap), dict(h.gmap)
    out = AlgebraElement.zero(h.target)
    for m, c in x.terms.items():
        if m.alpha.edges:
            real = emap[m.alpha.edges[0]]
            for name in m.alpha.edges[1:]:
                real = real * emap[name]
        else:
            real = vmap[m.alpha.src]
        if m.beta.edges:
            ghost = gmap[m.beta.edges[-1]]
            for name in reversed(m.beta.edges[:-1]):
                ghost = ghost * gmap[name]
        else:
            ghost = vmap[m.beta.src]
        out = out + (real * ghost).scale(c)
    return out


def identity_hom(spec: AlgebraSpec) -> AlgebraHom:
    return AlgebraHom.make(
        spec, spec,
        {v: vertex_element(spec, v) for v in spec.graph.vertices},
        {e.name: edge_element(spec, e.name) for e in spec.graph.edges})


def compose_homs(second: AlgebraHom, first: AlgebraHom) -> AlgebraHom:
    if first.target != second.source:
        raise GralError("homs do not compose")
    return AlgebraHom.make(
        first.source, second.target,
        {v: hom_apply(second, img) for v, img in first.vmap},
        {e: hom_apply(second, img) for e, img in first.emap},
        {e: hom_apply(second, img) for e, img in first.gmap})


def induced_hom(psi: GraphMorphism, ring: Ring) -> AlgebraHom:
    """The Cohn functor on a validated morphism: generators map to the
    corresponding generators; relation preservation is re-validated."""
    verdict = morphism_validate(psi)
    if not verdict.valid:
        raise GralError(f"morphism invalid at condition ({verdict.failed_condition}):"
                        f" {verdict.detail}")
    source = AlgebraSpec(psi.source.graph, ring, psi.source.x)
    target = AlgebraSpec(psi.target.graph, ring, psi.target.x)
    vmap = {v: vertex_element(target, img) for v, img in psi.vmap}
    emap = {e: edge_element(target, img) for e, img in psi.emap}
    return AlgebraHom.make(source, target, vmap, emap)


def cohn_to_leavitt(pair: CohnPair, ring: Ring) -> AlgebraHom:
    """phi : C_R^X(E) -> L_R(E(X)); v -> v + v', f -> f + f' at duplicated
    range vertices, ghost images by involution."""
    e_graph = pair.graph
    cover = cohn_cover(e_graph, pair.x)
    source = AlgebraSpec(e_graph, ring, pair.x)
    target = AlgebraSpec.leavitt(cover, ring)
    y = set(e_graph.regular) - set(pair.x)
    vmap = {}
    for v in e_graph.vertices:
        img = vertex_element(target, v)
        if v in y:
            img = img + vertex_element(target, v + "'")
        vmap[v] = img
    emap = {}
    for e in e_graph.edges:
        img = edge_element(target, e.name)
        if e.dst in y:
            img = img + edge_element(target, e.name + "'")
        emap[e.name] = img
    return AlgebraHom.make(source, target, vmap, emap)


# ---------------------------------------------------------------------------
# Graded-isomorphism verification


@dataclass(frozen=True)
class IsoRow:
    degree: int
    source_rank: int
    target_rank: int
    status: str              # holds-exactly | holds-at-bound | fails
    witness: str = ""


@dataclass(frozen=True)
class IsoVerdict:
    rows: tuple
    status: str
    witness: str = ""

    @property
    def holds(self) -> bool:
        return self.status != "fails"

    def total_source_rank(self) -> int:
        return sum(r.source_rank for r in self.rows)

    def total_target_rank(self) -> int:
        return sum(r.target_rank for r in self.rows)


def verify_graded_iso(h: AlgebraHom, degree_bound: int = 3,
                      size_bound: int = 3) -> IsoVerdict:
    """Injectivity and surjectivity per degree on bounded spanning sets.

    Surjectivity solves for preimages of the target basis; injectivity
    checks that every kernel generator of the image coordinate matrix, read
    from the same factorization, is already zero in the source (rank
    arguments fail over zero divisors).
    """
    exact = h.source.graph.all_paths_within(size_bound) and \
        h.target.graph.all_paths_within(size_bound)
    # cyclic specs: bounded target elements may only be hit from source
    # elements of slightly larger length, so give the source side slack
    src_bound = size_bound if exact else size_bound + 2
    preimages = HomPreimages(h)
    rows = []
    overall = "holds-exactly" if exact else "holds-at-bound"
    witness = ""
    for d in range(-degree_bound, degree_bound + 1):
        src, image = preimages.factored(d, src_bound)
        tgt = [monomial_element(h.target, m)
               for m in reduced_monomials(h.target, degree=d, max_len=size_bound)]
        status = "holds-exactly" if exact else "holds-at-bound"
        row_witness = ""
        for t in tgt:
            if image.solve(t.terms) is None:
                status = "fails"
                row_witness = f"unhit target element {format_element(t)}"
                break
        if status != "fails":
            for gen in image.kernel():
                combo = AlgebraElement.make(
                    h.source, {m: gen[i] for i, m in enumerate(src)})
                if not combo.is_zero:
                    status = "fails"
                    row_witness = f"kernel element {format_element(combo)}"
                    break
        rows.append(IsoRow(d, len(src), len(tgt), status, row_witness))
        if status == "fails" and overall != "fails":
            overall = "fails"
            witness = f"degree {d}: {row_witness}"
    return IsoVerdict(tuple(rows), overall, witness)


class HomPreimages:
    """Preimages under one hom for many targets, found on bounded source
    spanning sets: the source monomials of each (degree, bound) are mapped
    and their images factored once, on first use."""

    def __init__(self, h: AlgebraHom):
        self.hom = h
        self._solvers = {}

    def factored(self, degree: int, size_bound: int):
        """(source monomials, SpanSolver of their images) for the degree and
        bound, built on first use."""
        key = (degree, size_bound)
        if key not in self._solvers:
            source = self.hom.source
            src = reduced_monomials(source, degree=degree, max_len=size_bound)
            coords = [hom_apply(self.hom, monomial_element(source, m)).terms
                      for m in src]
            self._solvers[key] = src, SpanSolver(source.ring, coords)
        return self._solvers[key]

    def preimage(self, target_elt: AlgebraElement,
                 size_bound: int = 3) -> Optional[AlgebraElement]:
        """One source element mapping to the target element, or None."""
        source = self.hom.source
        if target_elt.is_zero:
            return AlgebraElement.zero(source)
        src, solver = self.factored(target_elt.degree(), size_bound)
        sol = solver.solve(target_elt.terms)
        if sol is None:
            return None
        return AlgebraElement.make(source, {m: sol[i] for i, m in enumerate(src)})

    def local_units(self, x: AlgebraElement, size_bound: int = 4) -> LocalUnitPair:
        """Local units of x pulled back from local units of its image, and
        checked on x."""
        upstairs = local_units(hom_apply(self.hom, x))
        bound = max(size_bound, *(len(m.alpha.edges)
                                  for side in (upstairs.left, upstairs.right)
                                  for a, b in side.pairs
                                  for m in list(a.terms) + list(b.terms))) \
            if upstairs.left.pairs or upstairs.right.pairs else size_bound

        def pull(factor: UnitFactorization) -> UnitFactorization:
            pairs = []
            eps = AlgebraElement.zero(x.spec)
            for a, b in factor.pairs:
                pa = self.preimage(a, bound)
                pb = self.preimage(b, bound)
                if pa is None or pb is None:
                    raise GralError("transport failed: preimage outside the bound")
                pairs.append((pa, pb))
                eps = eps + pa * pb
            return UnitFactorization(eps, tuple(pairs))

        left = pull(upstairs.left)
        right = pull(upstairs.right)
        if left.epsilon * x != x or x * right.epsilon != x:
            # the preimages are exact and the hom is injective: a bug
            raise InternalVerificationFailure("transported local units failed verification")
        return LocalUnitPair(x, x.degree(), left, right)


def cohn_transport(spec: AlgebraSpec) -> HomPreimages:
    """Preimages under the Cohn-to-Leavitt isomorphism of a relative Cohn
    spec."""
    return HomPreimages(cohn_to_leavitt(CohnPair(spec.graph, spec.x), spec.ring))


# ---------------------------------------------------------------------------
# Finite chains of morphisms


@dataclass(frozen=True)
class ChainVerdict:
    commutes: bool
    detail: str = ""


def _homs_agree(a: AlgebraHom, b: AlgebraHom) -> Optional[str]:
    """Name of the first generator on which the homs differ, or None."""
    for (v, img) in a.vmap:
        if img != b.vertex_image(v):
            return v
    for (e, img) in a.emap:
        if img != b.edge_image(e):
            return e
    for (e, img) in a.gmap:
        if img != b.ghost_image(e):
            return e + "*"
    return None


def chain_colimit_check(morphisms, ring: Ring, claimed_composites=None) -> ChainVerdict:
    """Functoriality along a finite chain (F_1,Y_1) -> ... -> (F_m,Y_m):
    the induced hom of every composite equals the composite of induced homs,
    and all paths into the final algebra agree on generators.

    claimed_composites may supply {(i, j): GraphMorphism} fixtures to verify
    against; the default composes the chain itself.
    """
    morphisms = list(morphisms)
    if not morphisms:
        return ChainVerdict(True, "single-object chain")
    for k, psi in enumerate(morphisms):
        verdict = morphism_validate(psi)
        if not verdict.valid:
            return ChainVerdict(False, f"morphism {k} invalid at ({verdict.failed_condition})")
        if k + 1 < len(morphisms) and psi.target != morphisms[k + 1].source:
            return ChainVerdict(False, f"morphisms {k} and {k + 1} do not chain")
    homs = [induced_hom(psi, ring) for psi in morphisms]
    m = len(morphisms)
    for i in range(m):
        for j in range(i + 1, m + 1):
            composite = morphisms[i]
            for k in range(i + 1, j):
                composite = compose_morphisms(morphisms[k], composite)
            if claimed_composites and (i, j) in claimed_composites:
                composite = claimed_composites[(i, j)]
            lhs = induced_hom(composite, ring)
            rhs = homs[i]
            for k in range(i + 1, j):
                rhs = compose_homs(homs[k], rhs)
            bad = _homs_agree(lhs, rhs)
            if bad is not None:
                return ChainVerdict(False,
                                    f"composite {i}->{j} disagrees at generator {bad}")
    # cocone commutation: every route into the final algebra agrees
    for i in range(m):
        direct = homs[i]
        for k in range(i + 1, m):
            direct = compose_homs(homs[k], direct)
        staged = None
        for j in range(i + 1, m):
            left = homs[i]
            for k in range(i + 1, j):
                left = compose_homs(homs[k], left)
            rest = homs[j]
            for k in range(j + 1, m):
                rest = compose_homs(homs[k], rest)
            staged = compose_homs(rest, left)
            bad = _homs_agree(direct, staged)
            if bad is not None:
                return ChainVerdict(False,
                                    f"cocone via {j} disagrees at generator {bad}")
    return ChainVerdict(True)
