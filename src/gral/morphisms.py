"""The Cohn-algebra functor on graph-pair morphisms, the Cohn-to-Leavitt
graded isomorphism phi with its explicit inverse psi (Abrams, Ara and Siles
Molina, LNM 2191, section 1.5), which carry elements between the two
algebras by substitution alone.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .coeffring import Ring, SpanSolver
# not called here, but perfbench/tracer.py rebinds solve_linear_system in
# every gral module that holds it
from .coeffring import solve_linear_system  # noqa: F401
from .errors import (GralError, InternalVerificationFailure, RelationViolation,
                     SpecMismatch)
from .graphs import (CohnPair, GraphMorphism, cohn_cover, cohn_duplicates,
                     morphism_validate)
from .pathalg import (AlgebraElement, AlgebraSpec, edge_element,
                      format_element, monomial_element, reduced_monomials,
                      vertex_element)


class AlgebraHom(NamedTuple):
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
        for img in (*vmap.values(), *emap.values(), *gmap.values()):
            if img.spec != self.target:
                raise SpecMismatch("a generator image does not live in the target algebra")
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
    return hom_apply_all(h, [x])[0]


def hom_apply_all(h: AlgebraHom, xs) -> list:
    """hom_apply of each element of xs.  The image of each path and of each
    monomial is formed once per call, from the images of its shorter paths:
    real(alpha e) = real(alpha) . h(e) and ghost(e beta) = ghost(beta) . h(e*),
    so each is the left-to-right product of its generators' images.  The
    images are summed into one dict per element, in the order that adding
    each c . image in turn gives."""
    vmap, emap, gmap = dict(h.vmap), dict(h.emap), dict(h.gmap)
    ring = h.target.ring
    zero, add, mul = ring.zero, ring.add, ring.mul
    real, ghost, images = {}, {}, {}   # edges -> image; monomial -> image

    def real_image(edges):
        img = real.get(edges)
        if img is None:
            img = real[edges] = (emap[edges[0]] if len(edges) == 1 else
                                 real_image(edges[:-1]) * emap[edges[-1]])
        return img

    def ghost_image(edges):
        img = ghost.get(edges)
        if img is None:
            img = ghost[edges] = (gmap[edges[0]] if len(edges) == 1 else
                                  ghost_image(edges[1:]) * gmap[edges[0]])
        return img

    out = []
    for x in xs:
        if x.spec != h.source:
            raise GralError("element does not live in the hom's source algebra")
        acc = {}
        for m, c in x.terms.items():
            img = images.get(m)
            if img is None:
                a, b = m.alpha, m.beta
                img = images[m] = (
                    (real_image(a.edges) if a.edges else vmap[a.src]) *
                    (ghost_image(b.edges) if b.edges else vmap[b.src]))
            for m2, c2 in img.terms.items():
                c2 = mul(c, c2)
                if c2 == zero:
                    continue
                prev = acc.get(m2)
                if prev is not None:
                    c2 = add(prev, c2)
                if c2 == zero:
                    acc.pop(m2, None)
                else:
                    acc[m2] = c2
        out.append(AlgebraElement(h.target, acc))
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
    vmap = {v: vertex_element(target, v) for v in e_graph.vertices}
    emap = {e.name: edge_element(target, e.name) for e in e_graph.edges}
    for name, dup in cohn_duplicates(e_graph, pair.x).items():
        images, generator = (vmap, vertex_element) if name in vmap else (emap, edge_element)
        images[name] += generator(target, dup)
    return AlgebraHom.make(source, target, vmap, emap)


def cohn_inverse(phi: AlgebraHom) -> AlgebraHom:
    """psi : L_R(E(X)) -> C_R^X(E), the inverse of phi = cohn_to_leavitt.

    With Y = Reg(E) minus X and q_v = sum of e e* over s(e) = v: psi(v) = q_v
    and psi(v') = v - q_v for v in Y; psi(f) = f q_r(f) and
    psi(f') = f (r(f) - q_r(f)) for r(f) in Y; every other generator maps to
    itself, and ghost images come by involution.
    """
    source, graph = phi.source, phi.source.graph
    dup = cohn_duplicates(graph, source.x)
    vmap = {v: vertex_element(source, v) for v in graph.vertices}
    for v in sorted(set(graph.vertices) & set(dup)):
        out = [edge_element(source, e.name) for e in graph.out_edges(v)]
        q = sum((f * f.involution() for f in out), AlgebraElement.zero(source))
        vmap[v], vmap[dup[v]] = q, vmap[v] - q
    emap = {}
    for e in graph.edges:
        f = edge_element(source, e.name)
        emap[e.name] = f * vmap[e.dst]
        if e.dst in dup:
            emap[dup[e.name]] = f * vmap[dup[e.dst]]
    return AlgebraHom.make(phi.target, source, vmap, emap)


def cohn_isomorphism(spec: AlgebraSpec):
    """(phi, psi) of a relative Cohn spec, psi.phi and phi.psi checked to be
    the identity on generators; built once and kept on the spec, as its
    block structures are.  Both are homomorphisms and invert each other for
    every finite graph and X, so a relation that either breaks, or a failed
    check, is a bug (InternalVerificationFailure)."""
    if spec._cohn is None:
        try:
            phi = cohn_to_leavitt(CohnPair(spec.graph, spec.x), spec.ring)
        except RelationViolation as exc:
            raise InternalVerificationFailure(f"phi: {exc}") from exc
        try:
            psi = cohn_inverse(phi)
        except RelationViolation as exc:
            raise InternalVerificationFailure(f"psi: {exc}") from exc
        for first, second, name in ((phi, psi, "psi.phi"), (psi, phi, "phi.psi")):
            bad = _homs_agree(compose_homs(second, first), identity_hom(first.source))
            if bad is not None:
                raise InternalVerificationFailure(
                    f"{name} is not the identity at generator {bad}")
        spec._cohn = phi, psi
    return spec._cohn


# ---------------------------------------------------------------------------
# Graded-isomorphism verification


class IsoRow(NamedTuple):
    degree: int
    source_rank: int
    target_rank: int
    status: str              # holds-exactly | holds-at-bound | fails
    witness: str = ""


class IsoVerdict(NamedTuple):
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
    rows = []
    overall = "holds-exactly" if exact else "holds-at-bound"
    witness = ""
    degrees = range(-degree_bound, degree_bound + 1)
    src_by_degree = _by_degree(reduced_monomials(h.source, max_len=src_bound), degrees)
    tgt_by_degree = _by_degree(reduced_monomials(h.target, max_len=size_bound), degrees)
    sources = [m for d in degrees for m in src_by_degree[d]]
    images = dict(zip(sources, hom_apply_all(
        h, [monomial_element(h.source, m) for m in sources])))
    for d in degrees:
        src = src_by_degree[d]
        image = SpanSolver(h.source.ring, [images[m].terms for m in src])
        tgt = [monomial_element(h.target, m) for m in tgt_by_degree[d]]
        status = "holds-exactly" if exact else "holds-at-bound"
        row_witness = ""
        for t in tgt:
            if image.solve(t.terms) is None:
                status = "fails"
                row_witness = f"unhit target element {format_element(t)}"
                break
        if status != "fails":
            for gen in image.kernel():
                combo = AlgebraElement.make(h.source, {src[i]: c for i, c in gen.items()})
                if not combo.is_zero:
                    status = "fails"
                    row_witness = f"kernel element {format_element(combo)}"
                    break
        rows.append(IsoRow(d, len(src), len(tgt), status, row_witness))
        if status == "fails" and overall != "fails":
            overall = "fails"
            witness = f"degree {d}: {row_witness}"
    return IsoVerdict(tuple(rows), overall, witness)


def _by_degree(monomials, degrees) -> dict:
    """{d: the monomials of degree d, in their given order} for d in degrees."""
    out = {d: [] for d in degrees}
    for m in monomials:
        if m.degree in out:
            out[m.degree].append(m)
    return out
