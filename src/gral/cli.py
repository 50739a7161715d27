"""Command-line front end: load JSON specs, run checks, emit certificates.

Reports are line-oriented structured text (stable field order, deterministic
given a fixed seed); --json switches to a machine format.  Exit codes:
0 verified/holds, 1 counterexample found, 2 usage or parse error (one
"error:" line on stderr), 3 internal failure such as a certificate that
failed its own re-verification (a bug; one "internal error:" line).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .coeffring import (is_semiprime_ring, is_vnr, jacobson_radical,
                        ring_make, vnr_witness)
from .cornerlaurent import (CslAlgebra, corner_from_dict,
                            csl_element_from_dict, csl_graded_witness,
                            format_csl)
from .errors import GralError, InternalVerificationFailure
from .gradedstruct import (MatrixGradingOracle, PathAlgebraOracle, classify,
                           check_strong_Z, check_epsilon_strong,
                           is_semiprime_graded, zero_multiplication_ring,
                           TrivialGradingOracle, CslOracle)
from .graphs import CohnPair, Graph, cohn_cover, graph_from_dict, graph_to_dict, morphism_from_dict, morphism_validate
from .morphisms import cohn_to_leavitt, induced_hom, verify_graded_iso
from .pathalg import (AlgebraSpec, dn_rank, element_from_terms,
                      format_element, matricial_decompose)
from .regularity import graded_vnr_verdict, graded_witness_constructive

# the integer options a subcommand may read, with their defaults
INT_OPTIONS = {"degree-bound": 3, "size-bound": 3, "samples": 100, "seed": 0}


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _emit(args, lines, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) if args.json \
        else "\n".join(lines)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    elif sys.stdout is None:  # fd 1 was closed before the run started
        raise OSError("stdout is closed")
    else:
        print(text, flush=True)  # flushed: a report stdout cannot take fails in main


def _cert_payload(cert, fmt):
    return {
        "element": fmt(cert.element),
        "degree": cert.degree,
        "method": cert.method,
        "witness": None if cert.absent else fmt(cert.witness),
        "absent": cert.absent,
        "absence_exact": cert.absence_exact,
        "searched": cert.searched,
        "verified": cert.verified,
    }


def _spec_from_args(args) -> AlgebraSpec:
    pair = graph_from_dict(_load(args.graph))
    ring = ring_make(_load(args.ring))
    return AlgebraSpec(pair.graph, ring, pair.x)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check_ring(args) -> int:
    ring = ring_make(_load(args.ring))
    regular = is_vnr(ring)
    witnesses, counterexample = [], None
    for a in ring.elements():
        y = vnr_witness(ring, a)
        if y is None:
            counterexample = a
            break
        witnesses.append((a, y))
    if regular != (counterexample is None):
        raise InternalVerificationFailure(
            f"is_vnr and the witnesses of {ring.describe()} disagree")
    radical = jacobson_radical(ring)
    semi = is_semiprime_ring(ring)
    lines = [f"ring={ring.describe()} order={ring.order}"]
    if regular:
        lines.append("vnr=true")
        lines.append("witnesses=" + ",".join(
            f"{ring.format_element(a)}:{ring.format_element(y)}" for a, y in witnesses))
    else:
        lines.append(f"vnr=false counterexample={ring.format_element(counterexample)}")
    lines.append("radical={" + ",".join(ring.format_element(x) for x in radical) + "}")
    lines.append(f"semiprime={'true' if semi.semiprime else 'false'}" +
                 ("" if semi.semiprime else f" witness={ring.format_element(semi.witness)}"))
    payload = {
        "ring": ring.describe(),
        "vnr": regular,
        "counterexample": None if regular else ring.encode(counterexample),
        "radical": [ring.encode(x) for x in radical],
        "semiprime": semi.semiprime,
    }
    _emit(args, lines, payload)
    return 0 if regular else 1


def cmd_lpa_witness(args) -> int:
    spec = _spec_from_args(args)
    cert = graded_witness_constructive(element_from_terms(spec, _load(args.element)))
    lines = [cert.to_text(format_element)]
    _emit(args, lines, _cert_payload(cert, format_element))
    return 1 if cert.absent else 0


def cmd_lpa_verdict(args) -> int:
    spec = _spec_from_args(args)
    report = graded_vnr_verdict(spec, args.degree_bound, args.size_bound,
                                samples=args.samples, seed=args.seed)
    lines = [f"algebra={spec!r} method={report.method} overall={report.overall}"]
    lines += [c.to_text(format_element) for c in report.certificates]
    payload = {
        "algebra": repr(spec),
        "method": report.method,
        "overall": report.overall,
        "certificates": [_cert_payload(c, format_element) for c in report.certificates],
    }
    _emit(args, lines, payload)
    return 1 if report.overall == "counterexample-found" else 0


def cmd_lpa_classify(args) -> int:
    spec = _spec_from_args(args)
    report = classify(spec, args.degree_bound, args.size_bound)
    lines = report.to_text().splitlines()
    payload = {
        "oracle": report.oracle_name,
        "rows": [{"property": r.property, "degree": r.degree,
                  "verdict": r.verdict.status, "witness": r.verdict.witness}
                 for r in report.rows],
        "summary": {name: v.status for name, v in report.summary},
        "epsilon": [{"degree": d, "element": s} for d, s in report.eps_table],
    }
    _emit(args, lines, payload)
    return 0


def cmd_lpa_decompose(args) -> int:
    spec = _spec_from_args(args)
    x = element_from_terms(spec, _load(args.element))
    image = matricial_decompose(x, args.level)
    ring = spec.ring
    lines = [f"level={args.level} rank={image.structure.rank()}"]
    payload_blocks = []
    for key in image.structure.keys:
        labels = image.structure.labels[key]
        mat = image.mats[key]
        if not labels:
            continue
        label_str = ",".join(spec.path_str(p) for p in labels)
        rows = ";".join(",".join(ring.format_element(x) for x in row) for row in mat)
        lines.append(f"block=({key[0]},{key[1]}) labels=[{label_str}] matrix=[{rows}]")
        payload_blocks.append({
            "level": key[0], "vertex": key[1],
            "labels": [spec.path_str(p) for p in labels],
            "matrix": [[ring.encode(x) for x in row] for row in mat],
        })
    _emit(args, lines, {"level": args.level, "rank": image.structure.rank(),
                        "blocks": payload_blocks})
    return 0


def cmd_graph_cover(args) -> int:
    pair = graph_from_dict(_load(args.graph))
    cover = cohn_cover(pair.graph, pair.x)
    out = graph_to_dict(CohnPair(cover, None))
    lines = [json.dumps(out, sort_keys=True)]
    _emit(args, lines, out)
    return 0


def cmd_morphism_check(args) -> int:
    source = graph_from_dict(_load(args.source))
    target = graph_from_dict(_load(args.target))
    psi = morphism_from_dict(_load(args.map), source, target)
    verdict = morphism_validate(psi)
    lines = [f"valid={'true' if verdict.valid else 'false'}" +
             ("" if verdict.valid else
              f" failed={verdict.failed_condition} detail={verdict.detail}")]
    if verdict.valid:
        ring = ring_make(_load(args.ring)) if args.ring else None
        if ring is not None:
            induced_hom(psi, ring)
            lines.append("induced-hom=valid")
    _emit(args, lines, {"valid": verdict.valid,
                        "failed": verdict.failed_condition,
                        "detail": verdict.detail})
    return 0 if verdict.valid else 1


def cmd_corner_witness(args) -> int:
    alg = corner_from_dict(_load(args.corner))
    certs = []
    if args.element:
        xs = [csl_element_from_dict(alg, _load(args.element))]
    else:
        xs = []
        for d in range(-args.degree_bound, args.degree_bound + 1):
            xs.extend(x for x in alg.component_elements(d) if not x.is_zero)
    for x in xs:
        certs.append(csl_graded_witness(x))
    lines = [f"corner={alg.describe()}"]
    lines += [c.to_text(format_csl) for c in certs]
    _emit(args, lines, {"corner": alg.describe(),
                        "certificates": [_cert_payload(c, format_csl) for c in certs]})
    return 1 if any(c.absent for c in certs) else 0


# ---------------------------------------------------------------------------
# Built-in fixtures


def _fixture_graphs():
    return {
        "A1": Graph(["v"], []),
        "vw": Graph(["v", "w"], [("f", "v", "w")]),
        "loop": Graph(["v"], [("e", "v", "v")]),
        "2cycle": Graph(["v", "w"], [("e", "v", "w"), ("f", "w", "v")]),
        "rose2": Graph(["v"], [("e", "v", "v"), ("f", "v", "v")]),
        "toeplitz": Graph(["u", "w"], [("e", "u", "u"), ("f", "u", "w")]),
    }


def run_examples(report=print) -> int:
    """Built-in desk-scale checks of the headline facts; returns the number
    of failures."""
    from .coeffring import ModularRing

    z2, z3, z4, z6 = (ModularRing(n) for n in (2, 3, 4, 6))
    graphs = _fixture_graphs()
    failures = 0

    def check(name, ok):
        nonlocal failures
        report(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    mo = MatrixGradingOracle(z2)
    _, _, table = check_epsilon_strong(mo, 3, 3)
    expected = {-1: mo.unit(1, 1), 0: mo.identity(), 1: mo.unit(0, 0)}
    got = dict(table)
    ok = all(got.get(d) == mo.format(m) for d, m in expected.items()) and \
        all(got.get(d) == "0" for d in (-3, -2, 2, 3))
    check("epsilon table of the corner-graded 2x2 matrix ring", ok)

    strong_ok = True
    for name, expect in (("loop", True), ("2cycle", True), ("rose2", True),
                         ("A1", False), ("vw", False), ("toeplitz", False)):
        sv = check_strong_Z(PathAlgebraOracle(AlgebraSpec.leavitt(graphs[name], z2)), 2)
        strong_ok = strong_ok and sv.strong == expect and sv.no_sinks == expect
    check("strong grading iff no sinks on the six test graphs", strong_ok)

    lau = CslAlgebra(z2, 1, {0: 0, 1: 1})
    check("laurent ring is strongly graded",
          check_strong_Z(CslOracle(lau), 2).strong)

    spec_a1_z4 = AlgebraSpec.leavitt(graphs["A1"], z4)
    rep = classify(spec_a1_z4, 2, 2)
    vnr_rep = graded_vnr_verdict(spec_a1_z4, 2, 2, samples=10, seed=0)
    check("symmetric but not graded-vnr over Z/4 on a single vertex",
          rep.verdict("symmetric").holds and vnr_rep.overall == "counterexample-found"
          and format_element(vnr_rep.counterexample.element) == "2*v")

    iso = verify_graded_iso(cohn_to_leavitt(CohnPair(graphs["vw"], frozenset()), z2), 2, 2)
    check("cohn-to-leavitt graded isomorphism with total rank 5",
          iso.holds and iso.status == "holds-exactly"
          and iso.total_source_rank() == 5 and iso.total_target_rank() == 5)

    ranks_ok = (all(dn_rank(AlgebraSpec.leavitt(graphs["loop"], z2), n) == 1
                    for n in (1, 2, 3))
                and dn_rank(AlgebraSpec.leavitt(graphs["vw"], z2), 1) == 2
                and dn_rank(AlgebraSpec.leavitt(graphs["rose2"], z2), 2) == 16)
    check("matricial block ranks on the test graphs", ranks_ok)

    zm = TrivialGradingOracle(zero_multiplication_ring(2))
    eps_v, _, _ = check_epsilon_strong(zm, 1, 2)
    check("relaxed non-unital table ring is not epsilon-strong", not eps_v.holds)

    null_rep = graded_vnr_verdict(AlgebraSpec.leavitt(Graph([], []), z6), 2, 2)
    check("null graph is vacuously graded regular",
          null_rep.overall == "verified-at-bounds" and not null_rep.certificates)

    lau6 = CslAlgebra(z6, 1, {i: i for i in range(6)})
    lau4 = CslAlgebra(z4, 1, {i: i for i in range(4)})
    ok6 = all(not csl_graded_witness(x).absent
              for d in range(-2, 3) for x in lau6.component_elements(d)
              if not x.is_zero)
    cert4 = csl_graded_witness(lau4.element({1: 2}))
    check("corner laurent witnesses over Z/6 and exact absence over Z/4",
          ok6 and cert4.absent and cert4.absence_exact)

    toeplitz = AlgebraSpec.leavitt(graphs["toeplitz"], z6)
    rep6 = graded_vnr_verdict(toeplitz, 2, 2, samples=25, seed=1)
    check("graded regularity witnesses over Z/6 on the toeplitz graph",
          rep6.overall == "verified-at-bounds")

    semi = is_semiprime_graded(spec_a1_z4, 2, 2)
    check("semiprimeness fails over Z/4 with witness 2*v",
          not semi.holds and "2*v" in semi.witness)
    return failures


def cmd_examples(args) -> int:
    lines = []
    failures = run_examples(report=lines.append)
    lines.append(f"failures={failures}")
    _emit(args, lines, {"lines": lines, "failures": failures})
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Parser


def _add_options(p, *names):
    """The named options, then --json and --output, read by every subcommand."""
    for name in names:
        p.add_argument(f"--{name}", type=int, default=INT_OPTIONS[name])
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", default=None)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help or a usage message that cannot
    be written raises OSError (exit 2 in main, as a report that cannot be
    written does) instead of being dropped.  Subparsers are made of the
    same class."""

    def _print_message(self, message, file=None):
        file = file or sys.stderr
        if message and file is not None:  # None: the stream was closed at start
            file.write(message)
            file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gral",
        description="graded rings, Leavitt path algebras and regularity witnesses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-ring", help="vnr / radical / semiprime for a ring file")
    p.add_argument("ring")
    _add_options(p)
    p.set_defaults(func=cmd_check_ring)

    lpa = sub.add_parser("lpa", help="path algebra checks")
    lpa_sub = lpa.add_subparsers(dest="subcommand", required=True)
    for name, fn, needs_element, options in (
        ("witness", cmd_lpa_witness, True, ()),
        ("verdict", cmd_lpa_verdict, False,
         ("degree-bound", "size-bound", "samples", "seed")),
        ("classify", cmd_lpa_classify, False, ("degree-bound", "size-bound")),
        ("decompose", cmd_lpa_decompose, True, ()),
    ):
        q = lpa_sub.add_parser(name)
        q.add_argument("--graph", required=True)
        q.add_argument("--ring", required=True)
        if needs_element:
            q.add_argument("--element", required=True)
        if name == "decompose":
            q.add_argument("--level", type=int, required=True)
        _add_options(q, *options)
        q.set_defaults(func=fn)

    g = sub.add_parser("graph", help="graph constructions")
    g_sub = g.add_subparsers(dest="subcommand", required=True)
    q = g_sub.add_parser("cover")
    q.add_argument("--graph", required=True)
    _add_options(q)
    q.set_defaults(func=cmd_graph_cover)

    m = sub.add_parser("morphism", help="morphism validation")
    m_sub = m.add_subparsers(dest="subcommand", required=True)
    q = m_sub.add_parser("check")
    q.add_argument("--source", required=True)
    q.add_argument("--target", required=True)
    q.add_argument("--map", required=True)
    q.add_argument("--ring", default=None)
    _add_options(q)
    q.set_defaults(func=cmd_morphism_check)

    c = sub.add_parser("corner", help="corner skew Laurent checks")
    c_sub = c.add_subparsers(dest="subcommand", required=True)
    q = c_sub.add_parser("witness")
    q.add_argument("--corner", required=True)
    q.add_argument("--element", default=None)
    _add_options(q, "degree-bound")
    q.set_defaults(func=cmd_corner_witness)

    e = sub.add_parser("examples", help="run the built-in reference fixtures")
    _add_options(e)
    e.set_defaults(func=cmd_examples)
    return parser


# built on the first call of main, not at import, and reused by every later call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    line = None
    try:
        args = _parser().parse_args(argv)
        for bound in ("degree_bound", "size_bound", "samples"):
            if getattr(args, bound, 0) < 0:
                raise ValueError(f"--{bound.replace('_', '-')} must be nonnegative")
        code = args.func(args)
    except SystemExit as exc:  # argparse has written help or a usage error
        code = 2 if exc.code not in (0, None) else 0
    except (GralError, OSError, ValueError) as exc:
        line, code = f"error: {exc}", 2
    except Exception as exc:  # a bug, never a verdict: the one exit-3 boundary
        line, code = f"internal error: {type(exc).__name__}: {exc}", 3
    if line and sys.stderr is not None:  # else print would fall back to stdout
        with contextlib.suppress(OSError):  # no stderr to take it: the code still tells
            print(line, file=sys.stderr)
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None: closed at start
        try:  # a failed write that argparse dropped, or that is still buffered
            stream.flush()
        except OSError:
            code = max(code, 2)
            if stream in (sys.__stdout__, sys.__stderr__):  # or the flush at exit fails: 120
                with open(os.devnull, "w") as null:
                    os.dup2(null.fileno(), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
