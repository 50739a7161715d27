"""gral benchmark: one command, three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload sweep|rose3|span --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; gral is imported from ./src only.
Each workload is a closed loop with one caller: items run one after another
in passes over a fixed item list built from the seed, until S seconds
of timed item work have passed (the first pass always completes).  Each
output is checked by its meaning right after its item, outside the timer.
Times in the result line are corrected for host speed (see HostSpeed).
With --trace 0 the run reports end-to-end metrics; with --trace 1 it
alternates an untraced pass with a traced pass and reports per-layer
metrics.  Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Spans and a full result record go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
GRAL_MODULES = ("coeffring", "graphs", "pathalg", "regularity", "gradedstruct",
                "morphisms", "cornerlaurent", "cli")
SETUP_REPS = 9
PERCENTILES = (50, 90, 99)
# end-to-end metrics in the result line, with their units
END_TO_END = {"pass_s": "s", "certs_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

REF_ITEMS = 8000
REF_NOMINAL_S = 0.0048  # the reference loop on an idle 2-vCPU Xeon VM
REF_REFRESH_S = 0.1
REF_BATCH = 5

clock = time.perf_counter


class SourceTreeMissing(Exception):
    pass


def use_source_tree():
    """Put ./src first on sys.path; gral must come from there."""
    if not (SRC / "gral" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no gral package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_gral():
    """Fresh import of every gral module, so each set-up is timed in full."""
    for name in [n for n in sys.modules if n == "gral" or n.startswith("gral.")]:
        del sys.modules[name]
    gral = importlib.import_module("gral")
    if Path(gral.__file__).resolve().parent != SRC / "gral":
        raise SourceTreeMissing(f"gral imported from {gral.__file__}")
    return SimpleNamespace(**{m: importlib.import_module("gral." + m)
                              for m in GRAL_MODULES})


def setup(workload, seed):
    """Import, input generation and warm-up of the lazy ring caches."""
    t0 = clock()
    mods = load_gral()
    items, rings = workloads.build(workload, mods, seed, WORKDIR)
    for ring in rings:
        mods.coeffring.is_vnr(ring)
        ring.is_field()
    return clock() - t0, mods, items


# ---------------------------------------------------------------------------
# Host speed


def reference_loop():
    """Fixed pure-Python work: tuple allocation, dict grouping and a keyed
    sort.  Of the loops tried, its slowdown on a busy host (1.55x) came
    closest to that of the rose3 and span items (1.5-1.6x); sweep items
    slow by 1.25x."""
    rows = [(i % 31, (i * 7) % 29, str(i % 50)) for i in range(REF_ITEMS)]
    groups = {}
    for row in rows:
        groups.setdefault(row[:2], []).append(row)
    return len(sorted(groups, key=lambda k: (k[1], k[0])))


class HostSpeed:
    """Correction from measured seconds to host-speed-corrected seconds.

    Other tenants of a shared host slow this process, often by 1.5x, for
    seconds to minutes at a time.  A fixed reference loop slows by about
    the same factor.  It is timed before and after each measurement,
    whenever its last timing is older than REF_REFRESH_S, about once per
    REF_REFRESH_S of elapsed time (at most REF_BATCH times in a row).  A
    measured time t is reported as t * REF_NOMINAL_S / (median reference
    time before and after).
    """

    def __init__(self):
        self.refs = []
        self._batch = []
        self._at = None

    def batch(self):
        """The latest reference timings, taken anew when stale."""
        now = clock()
        if self._at is None or now - self._at >= REF_REFRESH_S:
            n = 1 if self._at is None else min(REF_BATCH, int((now - self._at) / REF_REFRESH_S))
            self._batch = []
            for _ in range(n):
                t0 = clock()
                reference_loop()
                self._batch.append(clock() - t0)
            self.refs.extend(self._batch)
            self._at = clock()
        return self._batch

    @staticmethod
    def factor(before, after):
        refs = before if after is before else before + after
        return REF_NOMINAL_S / statistics.median(refs)


# ---------------------------------------------------------------------------
# Checks


class Checker:
    """Judges each result right after its item, outside the item's timer,
    so that results are not kept alive across the run (a growing heap would
    slow the garbage collector inside later items).  A witness equal to one
    already verified for the same item is not multiplied out again."""

    def __init__(self, items):
        self.items = items
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self._verified = {}

    def __call__(self, idx, result):
        self.attempted += 1
        item = self.items[idx]
        try:
            if isinstance(result, Exception):
                raise result
            key = None
            if item.kind == "cert" and not result.absent and result.witness is not None:
                key = result.witness.terms
            if key is None or self._verified.get(idx) != key:
                item.check(result)
                if key is not None:
                    self._verified[idx] = key
        except Exception as exc:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"item {idx} ({item.kind}): {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Timed loop


class Record:
    """Per-item latencies and the timed durations of complete passes, raw
    and corrected for host speed."""

    def __init__(self, speed):
        self.speed = speed
        self.latencies = []   # (item index, seconds, corrected seconds)
        self.passes = []
        self.passes_corrected = []

    def one_pass(self, items, checker, budget=None, tracer=None):
        """Run the items in order, checking each result untimed; stop early
        once `budget` timed seconds have been spent.  Returns the timed
        seconds of this pass."""
        spent = corrected = 0.0
        for idx, item in enumerate(items):
            if tracer is not None:
                tracer.item = idx
            before = self.speed.batch()
            t0 = clock()
            try:
                result = item.run()
            except Exception as exc:  # counted as a failed item
                result = exc
            t = clock() - t0
            f = self.speed.factor(before, self.speed.batch())
            spent += t
            corrected += t * f
            self.latencies.append((idx, t, t * f))
            if tracer is not None:
                tracer.paused = True
            checker(idx, result)
            if tracer is not None:
                tracer.paused = False
            if budget is not None and spent >= budget and idx + 1 < len(items):
                return spent
        self.passes.append(spent)
        self.passes_corrected.append(corrected)
        return spent


def measure(items, checker, seconds, speed):
    """Passes until `seconds` of timed work; the first pass always completes."""
    rec = Record(speed)
    spent = rec.one_pass(items, checker)
    while spent < seconds:
        spent += rec.one_pass(items, checker, seconds - spent)
    return rec


def measure_traced(items, checker, seconds, speed):
    """Alternate untraced and traced passes; the per-layer counts come from
    the first traced pass, which always follows exactly one untraced pass."""
    plain, traced, tracers = Record(speed), Record(speed), []
    spent = 0.0
    while not tracers or spent < seconds:
        spent += plain.one_pass(items, checker)
        tr = tracing.Tracer()
        tr.install()
        try:
            spent += traced.one_pass(items, checker, tracer=tr)
        finally:
            tr.uninstall()
        tracers.append(tr)
    return plain, traced, tracers


# ---------------------------------------------------------------------------
# Reporting


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, -(-q * len(sorted_values) // 100) - 1)
    return sorted_values[k]


def end_to_end(rec, items, setups):
    """(metrics for the result line, their notes, extra printed metrics).

    setups holds (seconds, corrected seconds) per set-up.  The result line
    carries host-speed-corrected times: a pass is the sum over items of
    each item's median corrected latency.  Raw times are printed as well.
    """
    per_item = {}
    for idx, _, corrected in rec.latencies:
        per_item.setdefault(idx, []).append(corrected)
    pass_s = sum(statistics.median(ts) for ts in per_item.values())
    runs = [len(ts) for ts in per_item.values()]
    metrics = {
        "pass_s": pass_s,
        "certs_per_s": len(items) / pass_s,
        "setup_s": statistics.median(tc for _, tc in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"pass_s": f"corrected; sum of item medians over {min(runs)}-{max(runs)} runs",
             "certs_per_s": "corrected",
             "setup_s": f"corrected; median of {len(setups)} set-ups"}
    extra = [("host_speed", REF_NOMINAL_S / statistics.median(rec.speed.refs), "x",
              f"nominal over median reference loop, {len(rec.speed.refs)} samples"),
             ("wall_s", statistics.median(rec.passes), "s",
              f"raw median of {len(rec.passes)} complete passes of {len(items)} items"),
             ("setup_raw_s", statistics.median(t for t, _ in setups), "s", "raw median")]
    lat = sorted(t for _, t, _ in rec.latencies)
    for q in PERCENTILES:
        beyond = len(lat) * (100 - q) // 100
        if beyond >= 10:
            extra.append((f"cert_p{q}_ms", percentile(lat, q) * 1e3, "ms",
                          f"raw, {len(lat)} samples, {beyond} beyond"))
    for kind in ("classify", "iso"):
        ts = [t for idx, t, _ in rec.latencies if items[idx].kind == kind]
        if ts:
            extra.append((f"{kind}_s", statistics.median(ts), "s",
                          f"raw median of {len(ts)}"))
    return metrics, notes, extra


def per_layer(plain, traced, tracers):
    """Per-layer metrics of the first traced pass (counts) and the median
    over traced passes (times), and the full table for the record."""
    snaps = [t.snapshot() for t in tracers]
    pass_s = statistics.median(traced.passes)
    metrics, units = {}, {}
    for entry, data in snaps[0].items():
        self_s = statistics.median(s[entry]["self_s"] for s in snaps)
        for stat, value in data["counts"].items():
            metrics[f"{entry}.{stat}"] = value
            units[f"{entry}.{stat}"] = "frac" if stat.endswith("_frac") else "count"
        metrics[f"{entry}.self_frac"] = self_s / pass_s
        units[f"{entry}.self_frac"] = "frac"
        metrics[f"{entry}.self_s"] = self_s
        units[f"{entry}.self_s"] = "s"
    metrics["trace.pass_s"] = pass_s
    units["trace.pass_s"] = "s"
    metrics["trace.overhead_frac"] = (statistics.median(traced.passes_corrected)
                                      / statistics.median(plain.passes_corrected) - 1)
    units["trace.overhead_frac"] = "frac"
    metrics["trace.spans"] = tracers[0].span_count()
    units["trace.spans"] = "count"
    return metrics, units


def in_result_line(name):
    """Self times go in the result line as shares of the traced pass
    (self_frac): a layer that a workload never calls would read 0 s on
    every run."""
    return not name.endswith(".self_s")


def git_sha():
    """HEAD of the checkout's .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        use_source_tree()
    except SourceTreeMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPS):
        before = speed.batch()
        t, mods, items = setup(args.workload, args.seed)
        setups.append((t, t * speed.factor(before, speed.batch())))
    env = environment()
    print(f"env git_sha={env['git_sha']} python={env['python']} nproc={env['nproc']} "
          f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} items={len(items)}")
    gc.collect()
    checker = Checker(items)
    if args.trace:
        plain, traced, tracers = measure_traced(items, checker, args.seconds, speed)
    else:
        rec = measure(items, checker, args.seconds, speed)
    attempted, failed, first_failure = checker.attempted, checker.failed, checker.first_failure
    record = {"env": env, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "items_per_pass": len(items), "attempted": attempted,
              "failed": failed, "first_failure": first_failure}
    if args.trace:
        metrics, units = per_layer(plain, traced, tracers)
        for name, value in metrics.items():
            print(f"{name} {value!r} {units[name]}")
        out = {name: {"value": value, "unit": units[name]}
               for name, value in metrics.items() if in_result_line(name)}
        tracers[0].write_spans(WORKDIR / f"spans-{args.workload}-seed{args.seed}.tsv")
        record["per_layer"] = metrics
    else:
        metrics, notes, extra = end_to_end(rec, items, setups)
        for name, value in metrics.items():
            note = f" ({notes[name]})" if name in notes else ""
            print(f"{name} {value!r} {END_TO_END[name]}{note}")
        for name, value, unit, note in extra:
            print(f"{name} {value!r} {unit} ({note})")
        out = {name: {"value": value, "unit": END_TO_END[name]}
               for name, value in metrics.items()}
        record["end_to_end"] = metrics
        record["passes"] = rec.passes
        record["passes_corrected"] = rec.passes_corrected
        record["latencies"] = rec.latencies
        record["extra"] = {name: value for name, value, _, _ in extra}
    print(f"failed_frac {failed / attempted!r} frac ({failed} of {attempted} items)")
    if first_failure:
        print(f"first failure: {first_failure}")
    (WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
