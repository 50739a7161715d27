"""Finite directed graphs: path enumeration, vertex classification, the
relative-Cohn cover construction and morphisms between (graph, X) pairs."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import GralError, XNotRegular, json_field

PRIME_SUFFIX = "'"


class Edge(NamedTuple):
    name: str
    src: str
    dst: str


class Path:
    """A path from src to dst along the named edges; a length-0 path is a
    vertex (src == dst, no edges).

    Immutable by contract: the fields are never assigned after __init__,
    which hashes them once; __hash__ returns that hash, the same value as
    hash((src, dst, edges)).  Paths are dictionary keys throughout the
    rewriting engine, so the hash must not be recomputed per lookup.  The
    repr is pinned to the field-by-field form
    Path(src='v', dst='w', edges=('e',)): linear systems order their rows
    by the repr of their keys (coeffring._span_rows).  That order sets the
    cost of elimination, not the solution a solver returns.  The repr is
    built on first use and kept in the _repr slot, which stays unset until
    then, so a path that is never printed or sorted pays nothing for it.
    """

    __slots__ = ("src", "dst", "edges", "_hash", "_repr")

    def __init__(self, src: str, dst: str, edges: tuple = ()):
        self.src = src
        self.dst = dst
        self.edges = edges
        self._hash = hash((src, dst, edges))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not Path:
            return NotImplemented
        return (self._hash == other._hash and self.edges == other.edges
                and self.src == other.src and self.dst == other.dst)

    def __repr__(self):
        cached = getattr(self, "_repr", None)
        if cached is None:
            cached = self._repr = \
                f"Path(src={self.src!r}, dst={self.dst!r}, edges={self.edges!r})"
        return cached

    def __reduce__(self):
        # rebuild from the fields: string hashes differ between processes
        return Path, (self.src, self.dst, self.edges)

    def __len__(self):
        return len(self.edges)

    def sort_key(self):
        return (len(self.edges), self.edges, self.src)


class Graph:
    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(Edge(*e) if not isinstance(e, Edge) else e for e in edges)
        names = list(self.vertices) + [e.name for e in self.edges]
        if len(set(names)) != len(names):
            raise GralError("vertex and edge names must be globally unique")
        vset = set(self.vertices)
        for e in self.edges:
            if e.src not in vset or e.dst not in vset:
                raise GralError(f"edge {e.name} references unknown vertex")
        self._edge_by_name = {e.name: e for e in self.edges}
        self._out = {v: tuple(sorted((e for e in self.edges if e.src == v),
                                     key=lambda e: e.name))
                     for v in self.vertices}

    def edge(self, name: str) -> Edge:
        e = self._edge_by_name.get(name)
        if e is None:
            raise GralError(f"unknown edge {name!r}")
        return e

    def out_edges(self, v: str):
        return self._out[v]

    @property
    def sinks(self):
        return tuple(v for v in self.vertices if not self._out[v])

    @property
    def regular(self):
        # finite graphs have no infinite emitters, so regular = non-sink
        return tuple(v for v in self.vertices if self._out[v])

    def is_null(self) -> bool:
        return not self.vertices

    # -- paths -------------------------------------------------------------

    def vertex_path(self, v: str) -> Path:
        if v not in self._out:
            raise GralError(f"unknown vertex {v!r}")
        return Path(v, v, ())

    def make_path(self, edge_names) -> Path:
        edge_names = tuple(edge_names)
        if not edge_names:
            raise GralError("use vertex_path for length-0 paths")
        es = [self.edge(n) for n in edge_names]
        for a, b in zip(es, es[1:]):
            if a.dst != b.src:
                raise GralError(f"edges {a.name},{b.name} do not compose")
        return Path(es[0].src, es[-1].dst, edge_names)

    def extend(self, p: Path, e: Edge) -> Path:
        if p.dst != e.src:
            raise GralError(f"path into {p.dst} cannot continue along {e.name}")
        return Path(p.src, e.dst, p.edges + (e.name,))

    def paths(self, n: int, target: Optional[str] = None):
        """P(n, v): length-n paths, optionally with range v, lex-ordered."""
        if n < 0:
            raise ValueError("path length must be nonnegative")
        level = [Path(v, v, ()) for v in sorted(self.vertices)]
        for _ in range(n):
            nxt = []
            for p in level:
                for e in self._out[p.dst]:
                    nxt.append(Path(p.src, e.dst, p.edges + (e.name,)))
            level = nxt
        if target is not None:
            level = [p for p in level if p.dst == target]
        return sorted(level, key=Path.sort_key)

    def path_counts(self, n: int):
        """[{v: |P(i, v)|} for i = 0..n], counted without listing a path."""
        counts = [dict.fromkeys(self.vertices, 1)]
        for _ in range(n):
            counts.append(dict.fromkeys(self.vertices, 0))
            for e in self.edges:
                counts[-1][e.dst] += counts[-2][e.src]
        return counts

    def all_paths_within(self, length_bound: int) -> bool:
        """Whether spanning sets cut at this length span their components: no
        path of min(length_bound + 1, |V|) edges; one of |V| means a cycle."""
        counts = self.path_counts(min(length_bound + 1, len(self.vertices)))
        return not any(counts[-1].values())

    def __eq__(self, other):
        return (isinstance(other, Graph) and other.vertices == self.vertices
                and other.edges == self.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({list(self.vertices)}, {[(e.name, e.src, e.dst) for e in self.edges]})"


def regular_subset(graph: Graph, x=None) -> frozenset:
    """X as a frozenset, Reg(E) when x is None; a vertex of X that is not
    regular raises XNotRegular."""
    reg = frozenset(graph.regular)
    if x is None:
        return reg
    x = frozenset(x)
    if not x <= reg:
        raise XNotRegular(f"X contains non-regular vertices: {sorted(x - reg)}")
    return x


def cohn_duplicates(graph: Graph, x) -> dict:
    """{name: its duplicate's name in E(X)} for each vertex of Y = Reg(E) \\ X,
    sorted, and then each edge into Y, in edge order: the first of name + "'",
    name + "''", ... that no vertex or edge has taken."""
    y = set(graph.regular) - regular_subset(graph, x)
    taken = set(graph.vertices) | {e.name for e in graph.edges}
    dup = {}
    for name in sorted(y) + [e.name for e in graph.edges if e.dst in y]:
        dup[name] = name + PRIME_SUFFIX
        while dup[name] in taken:
            dup[name] += PRIME_SUFFIX
        taken.add(dup[name])
    return dup


def cohn_cover(graph: Graph, x) -> Graph:
    """E(X): a duplicate v' of each v in Y and e' : s(e) -> r(e)' of each edge
    e with r(e) in Y, appended and named as in cohn_duplicates."""
    dup = cohn_duplicates(graph, x)
    return Graph(graph.vertices + tuple(dup[v] for v in sorted(graph.vertices) if v in dup),
                 graph.edges + tuple(Edge(dup[e.name], e.src, dup[e.dst])
                                     for e in graph.edges if e.name in dup))


# ---------------------------------------------------------------------------
# Category of (graph, X) pairs


class _CohnPairFields(NamedTuple):
    graph: Graph
    x: frozenset = None


class CohnPair(_CohnPairFields):
    """Object (E, X) with X a subset of the regular vertices of E; X = None
    reads Reg(E), and a non-regular vertex in X raises XNotRegular.  Build
    it by calling the class: _make and _replace skip the check."""

    __slots__ = ()

    def __new__(cls, graph: Graph, x=None):
        return super().__new__(cls, graph, regular_subset(graph, x))


class GraphMorphism(NamedTuple):
    """Morphism (F, Y) -> (E, X): vertex and edge maps."""

    source: CohnPair
    target: CohnPair
    vmap: tuple  # ((v, image), ...) sorted
    emap: tuple

    @staticmethod
    def make(source: CohnPair, target: CohnPair, vmap: dict, emap: dict):
        f, e = source.graph, target.graph
        if set(vmap) != set(f.vertices) or set(emap) != {x.name for x in f.edges}:
            raise GralError("morphism maps must be total on the source graph")
        for v in vmap.values():
            if v not in set(e.vertices):
                raise GralError(f"vertex image {v!r} not in target graph")
        for name in emap.values():
            if name not in {x.name for x in e.edges}:
                raise GralError(f"edge image {name!r} not in target graph")
        return GraphMorphism(source, target,
                             tuple(sorted(vmap.items())), tuple(sorted(emap.items())))

    def vertex_image(self, v):
        return dict(self.vmap)[v]

    def edge_image(self, name):
        return dict(self.emap)[name]


class MorphismVerdict(NamedTuple):
    valid: bool
    failed_condition: Optional[str] = None  # "a" | "b" | "c"
    detail: str = ""


def morphism_validate(m: GraphMorphism) -> MorphismVerdict:
    """Check the three morphism conditions, reporting the first failure."""
    f, e = m.source.graph, m.target.graph
    vmap, emap = dict(m.vmap), dict(m.emap)
    # (a) injective graph homomorphism
    if len(set(vmap.values())) != len(vmap):
        return MorphismVerdict(False, "a", "vertex map not injective")
    if len(set(emap.values())) != len(emap):
        return MorphismVerdict(False, "a", "edge map not injective")
    for edge in f.edges:
        img = e.edge(emap[edge.name])
        if img.src != vmap[edge.src]:
            return MorphismVerdict(False, "a", f"source of {edge.name} not preserved")
        if img.dst != vmap[edge.dst]:
            return MorphismVerdict(False, "a", f"range of {edge.name} not preserved")
    # (b) psi0(Y) <= X
    for v in sorted(m.source.x):
        if vmap[v] not in m.target.x:
            return MorphismVerdict(False, "b", f"{v} in Y but image outside X")
    # (c) bijection on outgoing edges at Y-vertices
    for v in sorted(m.source.x):
        images = sorted(emap[edge.name] for edge in f.out_edges(v))
        targets = sorted(edge.name for edge in e.out_edges(vmap[v]))
        if images != targets:
            return MorphismVerdict(False, "c", f"s^-1({v}) not mapped bijectively")
    return MorphismVerdict(True)


# ---------------------------------------------------------------------------
# JSON interface


def graph_from_dict(obj) -> CohnPair:
    """{"vertices": [...], "edges": [{"name","src","dst"}], "x": [...]?}

    Omitted "x" means X = Reg(E), i.e. the Leavitt case.
    """
    edges = [tuple(json_field(e, name, str, f"graph edge {e!r}") for name in ("name", "src", "dst"))
             for e in json_field(obj, "edges", [dict], "a graph", [])]
    g = Graph(json_field(obj, "vertices", [str], "a graph", []), edges)
    return CohnPair(g, json_field(obj, "x", [str], "a graph", None))


def graph_to_dict(pair: CohnPair):
    g = pair.graph
    out = {
        "vertices": list(g.vertices),
        "edges": [{"name": e.name, "src": e.src, "dst": e.dst} for e in g.edges],
    }
    if set(pair.x) != set(g.regular):
        out["x"] = sorted(pair.x)
    return out


def morphism_from_dict(obj, source: CohnPair, target: CohnPair) -> GraphMorphism:
    """{"vmap": {...}, "emap": {...}, "sourceX": [...]?, "targetX": [...]?}

    Explicit X fields override the pairs' own subsets.
    """
    what = "a graph morphism"
    source = CohnPair(source.graph, json_field(obj, "sourceX", [str], what, source.x))
    target = CohnPair(target.graph, json_field(obj, "targetX", [str], what, target.x))
    return GraphMorphism.make(source, target, json_field(obj, "vmap", {str: str}, what),
                              json_field(obj, "emap", {str: str}, what))
