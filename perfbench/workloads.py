"""Inputs, items and output checks of the three benchmark workloads.

Every workload is a fixed list of items built from the seed; the runner calls
the items one after another (a closed loop with one caller).  An item's
`run` calls gral through module attributes looked up at call time, so the
tracer's rebinding reaches it.  `check` judges a result by its meaning,
never by comparing bytes, and raises `CheckFailed` when it is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import random


class CheckFailed(Exception):
    """An output that is not a correct answer for its input."""


class Item:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# Witness certificates (sweep, rose3)

SWEEP_GRAPHS = {
    "A1": (["v"], []),
    "vw": (["v", "w"], [("f", "v", "w")]),
    "loop": (["v"], [("e", "v", "v")]),
    "2cycle": (["v", "w"], [("e", "v", "w"), ("f", "w", "v")]),
    "rose2": (["v"], [("e", "v", "v"), ("f", "v", "v")]),
    "toeplitz": (["u", "w"], [("e", "u", "u"), ("f", "u", "w")]),
}
SWEEP_COMBOS = [(g, n) for g in SWEEP_GRAPHS for n in (2, 3, 6)] + [("toeplitz", 30)]
SWEEP_DEGREE_BOUND = 3
SWEEP_LENGTH_BOUND = 3
SWEEP_SAMPLES = 100

ROSE3 = (["v"], [("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v")])
ROSE3_MODULUS = 6
ROSE3_MONOMIALS = 100
ROSE3_SUMS = 10


def check_certificate(x, cert):
    """cert must carry a witness b with deg b = -deg x and x.b.x = x."""
    b = cert.witness
    if cert.absent or b is None:
        raise CheckFailed(f"no witness for {x!r}")
    if b.spec != x.spec or b.is_zero or b.degree() != -x.degree():
        raise CheckFailed(f"witness for {x!r} has the wrong degree")
    if x * b * x != x:
        raise CheckFailed(f"x.b.x != x for {x!r}")


def _witness_item(mods, x):
    regularity = mods.regularity
    return Item("cert", lambda: regularity.graded_witness_constructive(x),
                lambda cert: check_certificate(x, cert))


def _nonzero(ring):
    return [c for c in ring.elements() if c != ring.zero]


def sweep_elements(mods, seed):
    """The element set graded_vnr_verdict(spec, 3, 3, samples=100, seed)
    builds, for every (graph, Z/n) combination of the sweep."""
    out = []
    for gname, n in SWEEP_COMBOS:
        spec = mods.pathalg.AlgebraSpec.leavitt(
            mods.graphs.Graph(*SWEEP_GRAPHS[gname]), mods.coeffring.ModularRing(n))
        for d in range(-SWEEP_DEGREE_BOUND, SWEEP_DEGREE_BOUND + 1):
            for m in mods.pathalg.reduced_monomials(spec, degree=d,
                                                    max_len=SWEEP_LENGTH_BOUND):
                for c in _nonzero(spec.ring):
                    x = mods.pathalg.monomial_element(spec, m, c)
                    if not x.is_zero:
                        out.append(x)
        out.extend(mods.regularity.sample_homogeneous(
            spec, SWEEP_DEGREE_BOUND, SWEEP_LENGTH_BOUND, SWEEP_SAMPLES,
            random.Random(seed)))
    return out


def rose3_elements(mods, seed):
    """Degree-0 monomials a.b* with |a| = |b| = 3 on the three-loop rose
    over Z/6, each with a random nonzero coefficient, then sums of 2-3 of
    them; zero sums are redrawn so the item count is fixed."""
    pathalg = mods.pathalg
    spec = pathalg.AlgebraSpec.leavitt(mods.graphs.Graph(*ROSE3),
                                       mods.coeffring.ModularRing(ROSE3_MODULUS))
    paths = spec.graph.paths(3)
    coeffs = _nonzero(spec.ring)
    rng = random.Random(seed)

    def monomial():
        m = pathalg.Monomial(rng.choice(paths), rng.choice(paths))
        return pathalg.monomial_element(spec, m, rng.choice(coeffs))

    out = [monomial() for _ in range(ROSE3_MONOMIALS)]
    sums = []
    while len(sums) < ROSE3_SUMS:
        x = monomial()
        for _ in range(rng.randint(1, 2)):
            x = x + monomial()
        if not x.is_zero:
            sums.append(x)
    return out + sums


# ---------------------------------------------------------------------------
# Span-solver checks (span)

SPAN_GRAPH = {"vertices": ["v", "w"],
              "edges": [{"name": "e", "src": "v", "dst": "w"},
                        {"name": "f", "src": "w", "dst": "v"},
                        {"name": "g", "src": "v", "dst": "v"}]}
CLASSIFY_SIZE_BOUND = 4
CLASSIFY_SUMMARY = {"strong": "holds-exactly", "epsilon-strong": "holds-at-bound",
                    "nearly-epsilon": "holds-at-bound", "symmetric": "holds-at-bound"}
ISO_MODULUS = 4
ISO_BOUNDS = (2, 2)
ISO_RANKS = (421, 91)
CORNER_CERTIFICATES = 21  # 3 nonzero coefficients x 7 degrees in [-3, 3]


def swap_corner():
    """R = Z/2 x Z/2, e = 1, alpha swapping the two factors."""
    alpha = {json.dumps([a, b], separators=(",", ":")): [b, a]
             for a in range(2) for b in range(2)}
    return {"ring": {"kind": "product",
                     "factors": [{"kind": "mod", "n": 2}, {"kind": "mod", "n": 2}]},
            "e": [1, 1], "alpha": alpha}


def _run_cli(mods, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mods.cli.main(argv)
    return rc, buf.getvalue()


def check_classify(result):
    rc, text = result
    if rc != 0:
        raise CheckFailed(f"classify exited {rc}")
    summary = {}
    for line in text.splitlines():
        if line.startswith("summary "):
            fields = dict(f.split("=", 1) for f in line.split()[1:3])
            summary[fields["property"]] = fields["verdict"]
    if summary != CLASSIFY_SUMMARY:
        raise CheckFailed(f"classify summary {summary}")


def check_iso(verdict):
    ranks = (verdict.total_source_rank(), verdict.total_target_rank())
    if verdict.status != "holds-at-bound" or ranks != ISO_RANKS:
        raise CheckFailed(f"iso status {verdict.status} with ranks {ranks}")


def check_corner(result):
    rc, text = result
    certs = [l for l in text.splitlines() if l.startswith("element=")]
    if rc != 0 or "absence=" in text:
        raise CheckFailed(f"corner witness exited {rc} or reported an absence")
    if len(certs) != CORNER_CERTIFICATES or \
            not all(l.endswith("verified=true") for l in certs):
        raise CheckFailed(f"corner witness printed {len(certs)} verified certificates")


def span_items(mods, workdir):
    """The three fixed checks; the inputs do not depend on the seed."""
    graph_file = workdir / "span_graph.json"
    ring_file = workdir / "span_ring.json"
    corner_file = workdir / "span_corner.json"
    graph_file.write_text(json.dumps(SPAN_GRAPH), encoding="utf-8")
    ring_file.write_text(json.dumps({"kind": "mod", "n": 2}), encoding="utf-8")
    corner_file.write_text(json.dumps(swap_corner()), encoding="utf-8")
    classify_argv = ["lpa", "classify", "--graph", str(graph_file), "--ring",
                     str(ring_file), "--size-bound", str(CLASSIFY_SIZE_BOUND)]
    corner_argv = ["corner", "witness", "--corner", str(corner_file)]
    pair = mods.graphs.graph_from_dict(SPAN_GRAPH)
    cohn = mods.graphs.CohnPair(pair.graph, frozenset())
    z4 = mods.coeffring.ModularRing(ISO_MODULUS)
    morphisms = mods.morphisms

    def iso():
        return morphisms.verify_graded_iso(morphisms.cohn_to_leavitt(cohn, z4),
                                           *ISO_BOUNDS)

    return [Item("classify", lambda: _run_cli(mods, classify_argv), check_classify),
            Item("iso", iso, check_iso),
            Item("corner", lambda: _run_cli(mods, corner_argv), check_corner)], [z4]


# ---------------------------------------------------------------------------


def build(name, mods, seed, workdir):
    """(items, rings to warm) for a workload."""
    if name == "span":
        return span_items(mods, workdir)
    elements = sweep_elements(mods, seed) if name == "sweep" else rose3_elements(mods, seed)
    rings = list({id(x.spec.ring): x.spec.ring for x in elements}.values())
    return [_witness_item(mods, x) for x in elements], rings


WORKLOADS = ("sweep", "rose3", "span")
