"""Self-checks of the benchmark itself (not part of the gral test suite).

    python3 -m pytest perfbench -q
"""

import json

import pytest

import run
import tracer as tracing
import workloads

run.use_source_tree()


@pytest.fixture
def mods():
    return run.load_gral()


def _failures(items, results):
    checker = run.Checker(items)
    for idx, result in results:
        checker(idx, result)
    assert checker.attempted == len(results)
    return checker.failed


def test_checker_counts_corrupted_witness_and_wrong_verdict(mods, tmp_path):
    # both the corrupted witness and the wrong verdict must count as failures
    elements = workloads.sweep_elements(mods, 0)
    x = next(e for e in elements if e.spec.ring.n == 3 and e.degree() == 1)
    good = mods.regularity.graded_witness_constructive(x)
    bad = mods.regularity.WitnessCertificate(
        x, good.degree, good.method, witness=good.witness.scale(2), verified=True)
    span, _ = workloads.span_items(mods, tmp_path)
    classify = span[0]
    rc, text = classify.run()
    wrong = text.replace("summary property=strong verdict=holds-exactly",
                         "summary property=strong verdict=fails")
    assert wrong != text
    items = [workloads.Item("cert", None, lambda cert: workloads.check_certificate(x, cert)),
             classify]
    assert _failures(items, [(0, good), (1, (rc, text))]) == 0
    assert _failures(items, [(0, bad), (1, (rc, wrong))]) == 2


def test_checker_counts_exceptions_and_rechecks_changed_witnesses(mods):
    x = workloads.rose3_elements(mods, 0)[0]
    cert = mods.regularity.graded_witness_constructive(x)
    other = mods.regularity.WitnessCertificate(
        x, cert.degree, cert.method, witness=cert.witness.scale(5) + cert.witness,
        verified=True)
    item = workloads.Item("cert", None, lambda c: workloads.check_certificate(x, c))
    results = [(0, cert), (0, cert), (0, other), (0, RuntimeError("boom"))]
    assert _failures([item], results) == 2  # the zero witness and the exception


def test_tracer_rebinds_aliases_and_restores_everything(mods):
    aliases = (("coeffring", "solve_linear_system"), ("regularity", "solve_linear_system"),
               ("gradedstruct", "solve_linear_system"), ("morphisms", "solve_linear_system"),
               ("regularity", "matrix_vnr_witness"), ("regularity", "is_vnr"),
               ("cli", "check_strong_Z"), ("cli", "verify_graded_iso"))
    originals = {(m, name): getattr(getattr(mods, m), name) for m, name in aliases}
    mul = mods.pathalg.AlgebraElement.__mul__
    tr = tracing.Tracer()
    tr.install()
    try:
        for (m, name), fn in originals.items():
            assert getattr(getattr(mods, m), name).__wrapped__ is fn
        assert mods.pathalg.AlgebraElement.__mul__.__wrapped__ is mul
        patched = tr.patched()
    finally:
        tr.uninstall()
    assert patched and not tr.patched()
    for owner, name in patched:
        assert not hasattr(getattr(owner, name), "__wrapped__")
    assert mods.pathalg.AlgebraElement.__mul__ is mul
    for (m, name), fn in originals.items():
        assert getattr(getattr(mods, m), name) is fn


def test_recursion_gives_nested_spans(mods):
    # a negative-degree element recurses through the mirror witness, and a
    # Z/2 x Z/2 solve recurses once per factor
    x = next(e for e in workloads.sweep_elements(mods, 0) if e.degree() < 0)
    ring = mods.coeffring.ProductRing([mods.coeffring.ModularRing(2)] * 2)
    tr = tracing.Tracer()
    tr.install()
    try:
        mods.regularity.graded_witness_constructive(x)
        mods.coeffring.solve_linear_system(ring, [([(None, 0, (1, 1))], (1, 0))], [0])
    finally:
        tr.uninstall()
    snap = tr.snapshot()
    assert snap["regularity.witness"]["counts"]["calls"] == 2
    assert snap["coeffring.solve"]["counts"]["calls"] == 3
    parents = dict(zip(tr.span_id, tr.span_parent))
    names = dict(zip(tr.span_id, (tr.names[e] for e in tr.span_entry)))
    nested = [s for s, p in parents.items()
              if names[s] == "regularity.witness" and p >= 0]
    assert nested and names[parents[nested[0]]] == "regularity.witness"
    assert all(v["self_s"] >= 0 for v in snap.values())


def _traced_counts(workload, seed, take):
    _, _, items = run.setup(workload, seed)
    items = items[:take]
    rec, checker = run.Record(run.HostSpeed()), run.Checker(items)
    rec.one_pass(items, checker)
    tr = tracing.Tracer()
    tr.install()
    try:
        rec.one_pass(items, checker, tracer=tr)
    finally:
        tr.uninstall()
    assert checker.failed == 0
    return {name: v["counts"] for name, v in tr.snapshot().items()}, tr.span_count()


def test_traced_counts_repeat_for_a_seed():
    run.WORKDIR.mkdir(exist_ok=True)
    for workload, take in (("sweep", 400), ("rose3", 2)):
        assert _traced_counts(workload, 7, take) == _traced_counts(workload, 7, take)


def test_item_counts_do_not_depend_on_the_seed():
    run.WORKDIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        counts = {len(run.setup(workload, seed)[2]) for seed in (1, 2, 3)}
        assert len(counts) == 1


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    rec = run.Record(run.HostSpeed())
    rec.passes = rec.passes_corrected = [1.0]
    metrics, units = run.per_layer(rec, rec, [tracing.Tracer()])
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {n: units[n] for n in metrics if run.in_result_line(n)}
