"""Span tracer that wraps gral's public entry points from outside the package.

A wrapped call records one span: entry, start, end, parent span and the id
of the workload item being processed.  Spans live in compact in-memory
arrays until `write_spans` dumps them.  An entry's self time is its span's
duration minus the whole duration of every child wrapper, so the tracer's
own bookkeeping in a child (including its counter hooks) is not charged to
the parent.  Nested calls of the same entry (the mirror witness for negative
degrees, per-factor ProductRing solves) are separate spans.

Module-level functions are rebound in every loaded gral module that holds
them, so names imported with ``from .coeffring import solve_linear_system``
are traced too.  Methods are patched on their class.  `uninstall` restores
every original binding.
"""

from __future__ import annotations

import itertools
import sys
import time
from array import array

# ---------------------------------------------------------------------------
# Counter hooks: hook(counters, args, result) runs after a successful call.


def _block_mul(c, args, result):
    a, b = args
    zero = a.structure.spec.ring.zero
    for k, m in a.mats.items():
        s = len(m)
        c["dense_ops"] += s ** 3
        c["_entries"] += 2 * s * s
        for mat in (m, b.mats[k]):
            for row in mat:
                for x in row:
                    if x != zero:
                        c["_nonzero"] += 1


def _elem_mul(c, args, result):
    c["term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _matrix_witness(c, args, result):
    a = args[0]
    c["max_dim"] = max(c["max_dim"], a.rows, a.cols)


def _solve(c, args, result):
    constraints = args[1]
    variables = args[2] if len(args) > 2 else None
    c["rows"] += len(constraints)
    if variables is None:
        variables = {v for terms, _ in constraints for _, v, _ in terms}
    c["cols"] += len(variables)
    if result is None:
        c["_absent"] += 1


def _decompose(c, args, result):
    biggest = max((len(l) for l in result.structure.labels.values()), default=0)
    c["max_block"] = max(c["max_block"], biggest)


def _idempotent_generator(c, args, result):
    c["generators"] += len(args[1])


def _local_unit_left(c, args, result):
    c["pairs"] += len(result.pairs)


# (metric prefix, gral module, class or None, attributes, counters, hook)
ENTRIES = (
    ("coeffring.is_vnr", "coeffring", None, ("is_vnr",), (), None),
    ("coeffring.solve", "coeffring", None, ("solve_linear_system",),
     ("rows", "cols", "_absent"), _solve),
    ("coeffring.kernel", "coeffring", None, ("kernel_generators",), (), None),
    ("coeffring.matrix_witness", "coeffring", None, ("matrix_vnr_witness",),
     ("max_dim",), _matrix_witness),
    ("graphs.paths", "graphs", "Graph", ("paths",), (), None),
    ("pathalg.mul", "pathalg", "AlgebraElement", ("__mul__",),
     ("term_pairs",), _elem_mul),
    ("pathalg.elem_hash", "pathalg", "AlgebraElement", ("__hash__",), (), None),
    ("pathalg.elem_eq", "pathalg", "AlgebraElement", ("__eq__",), (), None),
    ("pathalg.block_mul", "pathalg", "MatricialImage", ("__mul__",),
     ("dense_ops", "_nonzero", "_entries"), _block_mul),
    ("pathalg.block_addsub", "pathalg", "MatricialImage", ("__add__", "__sub__"),
     (), None),
    ("pathalg.decompose", "pathalg", None, ("matricial_decompose",),
     ("max_block",), _decompose),
    ("pathalg.lift", "pathalg", None, ("matricial_lift",), (), None),
    ("regularity.witness", "regularity", None, ("graded_witness_constructive",),
     (), None),
    ("regularity.local_unit_left", "regularity", None, ("local_unit_left",),
     ("pairs",), _local_unit_left),
    ("regularity.idempotent_generator", "regularity", None,
     ("idempotent_generator",), ("generators",), _idempotent_generator),
    ("gradedstruct.span_solve", "gradedstruct", "GradedRingOracle",
     ("span_solve",), (), None),
    ("gradedstruct.strong", "gradedstruct", None, ("check_strong_Z",), (), None),
    ("gradedstruct.epsilon", "gradedstruct", None, ("check_epsilon_strong",),
     (), None),
    ("gradedstruct.nearly", "gradedstruct", None, ("check_nearly_epsilon",),
     (), None),
    ("gradedstruct.symmetric", "gradedstruct", None, ("check_symmetric",),
     (), None),
    ("morphisms.hom_apply", "morphisms", None, ("hom_apply",), (), None),
    ("morphisms.verify_iso", "morphisms", None, ("verify_graded_iso",), (), None),
    ("morphisms.cohn_to_leavitt", "morphisms", None, ("cohn_to_leavitt",),
     (), None),
    ("cornerlaurent.witness", "cornerlaurent", None, ("csl_graded_witness",),
     (), None),
    ("cornerlaurent.mul", "cornerlaurent", "CSLElement", ("__mul__",), (), None),
    ("cli.main", "cli", None, ("main",), ("out_bytes",), None),
)

# derived metric -> (numerator counter, denominator counter)
RATIOS = {
    "nonzero_frac": ("_nonzero", "_entries"),
    "absent_frac": ("_absent", "calls"),
}


def _gral_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "gral" or name.startswith("gral.")]


class Tracer:
    """Install with `install()`, set `item` per workload item (and `paused`
    around work that is not the workload's), then call `uninstall()`;
    `snapshot()` gives per-entry counters and self times."""

    def __init__(self):
        self.names = [e[0] for e in ENTRIES]
        self.counters = [dict.fromkeys(("calls",) + e[4], 0) for e in ENTRIES]
        self.self_s = [0.0] * len(ENTRIES)
        self.item = -1
        self.paused = False
        self.stack = []
        self._ids = itertools.count()
        self.span_id = array("q")
        self.span_entry = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_item = array("q")
        self._patches = []

    # -- installation ----------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__.split(".")[-1]: m for m in _gral_modules()}
        for idx, (_, modname, clsname, attrs, _, hook) in enumerate(ENTRIES):
            module = mods[modname]
            if clsname is not None:
                owner = getattr(module, clsname)
                for attr in attrs:
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(idx, original, hook))
                continue
            for attr in attrs:
                original = getattr(module, attr)
                wrapper = self._wrap(idx, original, hook)
                for m in mods.values():
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, name, wrapper)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def patched(self):
        """(owner, attribute) pairs currently rebound."""
        return [(owner, name) for owner, name, _ in self._patches]

    # -- spans -----------------------------------------------------------

    def _wrap(self, idx, fn, hook):
        clock = time.perf_counter
        stack = self.stack
        self_s = self.self_s
        counters = self.counters[idx]
        ids = self._ids
        out_bytes = self.names[idx] == "cli.main"
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            t_entry = clock()
            parent = stack[-1][1] if stack else -1
            frame = [0.0, next(ids)]
            stack.append(frame)
            before = sys.stdout.tell() if out_bytes else 0
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                self_s[idx] += (end - start) - frame[0]
                counters["calls"] += 1
                if ok and hook is not None:
                    hook(counters, args, result)
                if out_bytes:
                    counters["out_bytes"] += sys.stdout.tell() - before
                tracer.span_id.append(frame[1])
                tracer.span_entry.append(idx)
                tracer.span_start.append(start)
                tracer.span_end.append(end)
                tracer.span_parent.append(parent)
                tracer.span_item.append(tracer.item)
                if stack:
                    stack[-1][0] += clock() - t_entry

        wrapper.__wrapped__ = fn
        return wrapper

    def span_count(self) -> int:
        return len(self.span_id)

    def write_spans(self, path):
        """Tab-separated spans: id, parent, item, entry name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\titem\tentry\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]}\t{self.span_parent[i]}\t"
                         f"{self.span_item[i]}\t{names[self.span_entry[i]]}\t"
                         f"{self.span_start[i]!r}\t{self.span_end[i]!r}\n")

    # -- results ---------------------------------------------------------

    def snapshot(self):
        """{entry: {"counts": {...}, "self_s": float}}; counts are the public
        counters plus derived ratios, with every hidden counter dropped."""
        out = {}
        for name, c, s in zip(self.names, self.counters, self.self_s):
            counts = {k: v for k, v in c.items() if not k.startswith("_")}
            for ratio, (num, den) in RATIOS.items():
                if num in c:
                    counts[ratio] = c[num] / c[den] if c[den] else 0.0
            out[name] = {"counts": counts, "self_s": s}
        return out
