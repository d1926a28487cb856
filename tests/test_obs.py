"""Observability subsystem: metrics registry, tracing.

The acceptance differentials for :mod:`repro.obs`:

* **fixed-bucket quantiles** -- histogram quantile estimates are correct
  to within one bucket width for any distribution and volume, and the
  tail can never be under-weighted the way a bounded random-replacement
  reservoir under-weights it (``ServiceStats`` p50/p99 now come from
  these buckets);
* **concurrency** -- N threads hammering one counter/histogram lose no
  increments, and a snapshot taken mid-storm is never torn (``count``
  always equals the sum of the bucket counts);
* **catalog enforcement** -- every ``repro.*`` metric must be declared
  in :mod:`repro.obs.catalog` with the right kind and label set, which
  keeps ``docs/OBSERVABILITY.md`` exhaustive;
* **single correlated trace** -- one warm symbolic-shape service
  request produces one trace: service request -> session instantiate
  tier -> plan replay -> per-phase execution, all under a single trace
  ID, and single-flight followers *link* to their leader's span instead
  of faking ownership.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import numpy as np
import pytest

from repro import (
    CompileRequest,
    CompileService,
    CompilerOptions,
    ExecutionEnv,
    Executor,
    Machine,
    compile_program,
)
from repro.obs import (
    CATALOG,
    REGISTRY,
    SCHEMA_VERSION,
    Histogram,
    MetricSpec,
    MetricsRegistry,
    Tracer,
    exponential_buckets,
    metrics_enabled,
    set_metrics_enabled,
    metrics_disabled,
    snapshot_diff,
    top_spans,
    validate_spans,
)
from repro.obs.cli import main as obs_cli
from repro.service.service import ServiceStats
from test_symbolic import FIG1, _fig1

NPROCS = 4


def _deltas(before: dict, after: dict) -> dict:
    """Index a snapshot_diff by (name, sorted label items)."""
    return {
        (d["name"], tuple(sorted(d["labels"].items()))): d
        for d in snapshot_diff(before, after)["diff"]
    }


def _bucket_of(h: Histogram, value: float) -> tuple[float, float]:
    """(lower, upper] bounds of the bucket ``value`` lands in."""
    from bisect import bisect_left

    idx = bisect_left(h.bounds, value)
    lower = h.bounds[idx - 1] if idx > 0 else 0.0
    upper = h.bounds[idx] if idx < len(h.bounds) else float("inf")
    return lower, upper


# ---------------------------------------------------------------------------
# histograms: fixed buckets, quantile error bound, no reservoir tail loss
# ---------------------------------------------------------------------------


def test_exponential_buckets_validation():
    assert exponential_buckets(1.0, 2.0, 3) == (1.0, 2.0, 4.0)
    for bad in ((0.0, 2.0, 3), (1.0, 1.0, 3), (1.0, 2.0, 0)):
        with pytest.raises(ValueError):
            exponential_buckets(*bad)
    with pytest.raises(ValueError):
        Histogram("h", buckets=())
    with pytest.raises(ValueError):
        Histogram("h", buckets=(-1.0, 2.0))


def test_histogram_quantile_within_one_bucket():
    """The satellite pin: every quantile lands inside the bucket that
    contains the true quantile of the observed distribution."""
    h = Histogram("lat")
    values = [0.001 * (i + 1) for i in range(1000)]  # 1 ms .. 1 s, uniform
    for v in values:
        h.observe(v)
    ordered = sorted(values)
    for q in (0.05, 0.25, 0.50, 0.90, 0.99):
        true = ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]
        lower, upper = _bucket_of(h, true)
        est = h.quantile(q)
        assert lower <= est <= upper, (q, true, est, lower, upper)


def test_histogram_tail_never_underweighted():
    """9900 fast + 100 slow observations: the upper tail quantile must
    land in the slow region.  A bounded random-replacement reservoir
    would keep ~R*1% slow samples and often report a fast p99.5; fixed
    buckets count every observation deterministically."""
    h = Histogram("lat")
    for _ in range(9900):
        h.observe(1e-4)
    for _ in range(100):
        h.observe(1.0)
    assert h.quantile(0.995) >= 0.5
    assert h.quantile(0.5) <= 2e-4


def test_histogram_observe_many_equals_one_observe_each():
    """One lock acquisition, the very state N ``observe`` calls leave: same
    buckets, count, min, max and -- the floats summed in the same order --
    bit-equal sum.  The pre-binned ``add(bin(values))`` goes through the same
    bucketing and leaves the same buckets, count, min and max; its sum adds
    each chunk's total in one step, so it agrees to rel 1e-12, not bit for bit."""
    values = [0.1 * 3.0**-k for k in range(40)] + [5e9, 1e-12, 0.1]
    one_by_one, batched, prebinned = Histogram("lat"), Histogram("lat"), Histogram("lat")
    for chunk in (values[:7], (), values[7:]):
        for v in chunk:
            one_by_one.observe(v)
        batched.observe_many(chunk)
        binned = prebinned.bin(chunk)
        assert binned.count == len(chunk) and sum(n for _, n in binned.buckets) == len(chunk)
        prebinned.add(binned)
    assert batched._snapshot() == one_by_one._snapshot()
    assert batched.count == len(values) and batched.sum == one_by_one.sum
    want, got = one_by_one._snapshot(), prebinned._snapshot()
    assert got["sum"] == pytest.approx(want.pop("sum"), rel=1e-12, abs=0)
    assert {k: v for k, v in got.items() if k != "sum"} == want  # counts, count, min, max
    with metrics_disabled():
        batched.observe_many([1.0, 2.0])
        prebinned.add(prebinned.bin([1.0, 2.0]))
    assert batched._snapshot() == one_by_one._snapshot()
    assert prebinned._snapshot() == got


def test_histogram_add_rejects_values_binned_under_other_bounds():
    coarse, fine = Histogram("lat", buckets=(1.0, 10.0)), Histogram("lat")
    with pytest.raises(ValueError, match="other bucket bounds"):
        fine.add(coarse.bin([0.5, 3.0]))
    assert fine.count == 0
    # equal bounds need not be the same tuple object
    Histogram("lat", buckets=(1.0, 10.0)).add(coarse.bin([0.5, 3.0]))


def test_disabled_metrics_record_nothing_and_convert_nothing():
    """A disabled registry must not pay for its arguments either: the flag
    is tested before any value is converted to ``float`` or bucketed."""

    class Unconvertible:
        def __float__(self):
            raise AssertionError("converted although metrics are disabled")

    h = Histogram("lat")
    with metrics_disabled():
        h.observe_many([Unconvertible(), Unconvertible()])
        h.observe(Unconvertible())
    assert h._snapshot() == Histogram("lat")._snapshot()
    with pytest.raises(AssertionError, match="converted"):
        h.observe(Unconvertible())


def test_histogram_single_value_clamps_to_observed_range():
    h = Histogram("lat")
    for _ in range(10):
        h.observe(0.3)
    # min == max == 0.3: every quantile must report exactly that, not a
    # bucket bound (the clamp to [min, max])
    for q in (0.0, 0.5, 1.0):
        assert h.quantile(q) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        h.quantile(1.5)
    assert Histogram("empty").quantile(0.5) == 0.0


def test_counter_and_gauge_semantics():
    reg = MetricsRegistry()
    c = reg.counter("test.c")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)
    g = reg.gauge("test.g")
    g.set(4.0)
    g.inc(-1.5)
    assert g.value == 2.5
    g.set_max(10.0)
    g.set_max(3.0)  # not a new high-water mark
    assert g.value == 10.0


# ---------------------------------------------------------------------------
# concurrency: no lost increments, no torn snapshots
# ---------------------------------------------------------------------------


def test_concurrent_updates_no_lost_increments_no_torn_snapshots():
    reg = MetricsRegistry()
    counter = reg.counter("test.hits")
    # observations are exact binary fractions so the accumulated sum is
    # order-independent and can be compared for float equality
    hist = reg.histogram("test.lat", buckets=exponential_buckets(2.0**-10, 2.0, 8))
    n_threads, per_thread = 8, 5000
    stop = threading.Event()
    torn: list[dict] = []

    def snapshotter():
        while not stop.is_set():
            for m in reg.snapshot()["metrics"]:
                if m["kind"] == "histogram" and m["count"] != sum(m["counts"]):
                    torn.append(m)

    def writer():
        for j in range(per_thread):
            counter.inc()
            hist.observe((j % 7 + 1) * 2.0**-10)

    snap_thread = threading.Thread(target=snapshotter)
    writers = [threading.Thread(target=writer) for _ in range(n_threads)]
    snap_thread.start()
    for t in writers:
        t.start()
    for t in writers:
        t.join()
    stop.set()
    snap_thread.join()

    assert not torn, f"snapshot raced a writer: {torn[:1]}"
    total = n_threads * per_thread
    assert counter.value == total
    assert hist.count == total
    expected_sum = n_threads * sum((j % 7 + 1) * 2.0**-10 for j in range(per_thread))
    assert hist.sum == expected_sum
    final = hist._snapshot()
    assert final["count"] == sum(final["counts"]) == total
    assert final["min"] == 2.0**-10 and final["max"] == 7 * 2.0**-10


# ---------------------------------------------------------------------------
# registry: catalog enforcement, identity, disable flag
# ---------------------------------------------------------------------------


def test_registry_enforces_catalog():
    reg = MetricsRegistry(catalog=dict(CATALOG))
    with pytest.raises(KeyError, match="not in the catalog"):
        reg.counter("repro.nonsense.metric")
    with pytest.raises(TypeError, match="cataloged as counter"):
        reg.gauge("repro.mp.exchanges")
    with pytest.raises(KeyError, match="labels"):
        reg.counter("repro.store.hits")  # catalog requires a 'kind' label
    ok = reg.counter("repro.store.hits", {"kind": "program"})
    ok.inc()
    # same (name, labels) but another kind: the instrument already exists
    with pytest.raises(TypeError, match="already registered"):
        reg.histogram("repro.store.hits", {"kind": "program"})
    # names outside the repro. namespace are unrestricted (tests, apps)
    reg.counter("myapp.anything").inc()


def test_registry_get_or_create_identity():
    reg = MetricsRegistry()
    a = reg.counter("test.x")
    assert reg.counter("test.x") is a
    assert reg.counter("test.x", {"k": "v"}) is not a
    # label order does not matter for identity
    h1 = reg.histogram("test.h", {"a": "1", "b": "2"})
    h2 = reg.histogram("test.h", {"b": "2", "a": "1"})
    assert h1 is h2


def test_metrics_disabled_suppresses_writes():
    reg = MetricsRegistry()
    c = reg.counter("test.c")
    g = reg.gauge("test.g")
    h = reg.histogram("test.h", buckets=(1.0,))
    assert metrics_enabled()
    with metrics_disabled():
        assert not metrics_enabled()
        c.inc()
        g.set(9)
        g.set_max(9)
        h.observe(0.5)
    assert metrics_enabled()
    assert c.value == 0 and g.value == 0 and h.count == 0
    c.inc()
    assert c.value == 1
    # set_metrics_enabled returns the previous state (restore discipline)
    assert set_metrics_enabled(False) is True
    assert set_metrics_enabled(True) is False


def test_counts_an_owner_keeps_are_read_and_retire_with_it():
    """A read family is its live owners' counts plus what collected owners
    counted: it never goes down when an owner goes, a read gauge leaves with
    its owner, and ``metrics_disabled()`` does not touch an owner's count."""
    import gc

    class Owner:
        pass

    reg = MetricsRegistry(catalog={"test.level": MetricSpec("test.level", "gauge", "a level")})
    gone, kept = Owner(), Owner()
    counts = {"gone": 3, "kept": 0}

    def series(name):
        return lambda: {"test.events": counts[name], "test.level": counts[name]}

    reg.read(series("gone"), owner=gone)
    reg.read(series("kept"), owner=kept)

    def read():
        return {m["name"]: m["value"] for m in reg.snapshot()["metrics"]}

    assert read() == {"test.events": 3.0, "test.level": 3.0}
    del gone
    gc.collect()
    assert read() == {"test.events": 3.0, "test.level": 0.0}
    assert len(reg._readings) == 1  # the collected owner's reading retired
    with metrics_disabled():
        counts["kept"] += 2
    assert read() == {"test.events": 5.0, "test.level": 2.0}
    counts["kept"] += 1
    assert read() == {"test.events": 6.0, "test.level": 3.0}
    with pytest.raises(KeyError, match="not in the catalog"):
        MetricsRegistry(catalog=dict(CATALOG)).read(lambda: {"repro.nonsense": 1})


def test_read_families_never_go_down_while_owners_come_and_go():
    """Threads keep creating owners that count under their own locks and
    drop them into reference cycles, so the collector retires them at any
    allocation -- inside the registry's locked sections too -- while a
    snapshotter watches: the family never goes down and ends exact."""
    import gc
    import sys

    class Owner:
        pass

    reg = MetricsRegistry()
    n_threads, owners_each, events = 6, 40, 25
    stop, went_down = threading.Event(), []

    def total():
        return sum(m["value"] for m in reg.snapshot()["metrics"] if m["name"] == "test.events")

    def snapshotter():
        last = 0.0
        while not stop.is_set():
            now = total()
            if now < last:
                went_down.append((last, now))
            last = now

    def worker():
        for _ in range(owners_each):
            owner, counts, lock = Owner(), {"n": 0}, threading.Lock()
            owner.cycle = owner  # collected by the cycle collector, not on del
            reg.read(lambda counts=counts: {"test.events": counts["n"]}, owner=owner)
            for _ in range(events):
                with lock:
                    counts["n"] += 1
            del owner

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        watcher = threading.Thread(target=snapshotter)
        workers = [threading.Thread(target=worker) for _ in range(n_threads)]
        watcher.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join(60.0)
            assert not t.is_alive()
    finally:
        stop.set()
        watcher.join(60.0)
        sys.setswitchinterval(interval)
    assert not watcher.is_alive()
    gc.collect()
    assert not went_down, went_down[:3]
    assert total() == n_threads * owners_each * events
    assert reg._readings == {}


def test_counting_owners_are_not_kept_alive_by_the_registry(tmp_path):
    """What the registry reads refers to an owner's counts, never to the
    owner: a dropped session, store or service is collected, and so is
    what it cached, before the registry folds its counts."""
    import gc
    import weakref

    from repro import CompilerSession

    with CompileService(processors=NPROCS, workers=1, store=tmp_path / "s") as svc:
        assert svc.run_batch([_fig1_request(8, run=False)])[0].ok
    owners = [weakref.ref(o) for o in (svc, svc.session, svc.session.store, svc.session._cache)]
    owners.append(weakref.ref(CompilerSession(NPROCS)))
    del svc
    gc.collect()
    assert [ref() for ref in owners] == [None] * 5


# ---------------------------------------------------------------------------
# exporters: snapshot schema, Prometheus text, diffs
# ---------------------------------------------------------------------------


def test_snapshot_schema_and_prometheus_rendering():
    reg = MetricsRegistry(catalog=dict(CATALOG))
    reg.counter("repro.runtime.messages").inc(3)
    h = reg.histogram("repro.machine.phase_seconds")
    for v in (1e-5, 2e-5, 0.5):
        h.observe(v)
    snap = reg.snapshot()
    assert snap["schema"] == SCHEMA_VERSION
    for m in snap["metrics"]:
        if m["kind"] == "histogram":
            assert m["count"] == sum(m["counts"])

    text = reg.prometheus_text()
    assert "# HELP repro_runtime_messages" in text
    assert "# TYPE repro_runtime_messages counter" in text
    assert "\nrepro_runtime_messages 3\n" in text
    # labelled series: names outside ``repro.`` need no catalog entry
    private = MetricsRegistry()
    private.gauge("test.value", {"case": "c", "metric": "m"}).set(1.5)
    assert 'test_value{case="c",metric="m"} 1.5' in private.prometheus_text()
    assert "repro_machine_phase_seconds_count 3" in text
    assert "repro_machine_phase_seconds_sum" in text
    # bucket series are cumulative and end at +Inf == count
    buckets = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_machine_phase_seconds_bucket")
    ]
    assert buckets == sorted(buckets) and buckets[-1] == 3
    assert 'le="+Inf"' in text


def test_snapshot_diff():
    reg = MetricsRegistry()
    c = reg.counter("test.c")
    h = reg.histogram("test.h", buckets=(1.0,))
    c.inc(2)
    before = reg.snapshot()
    c.inc(3)
    h.observe(0.5)
    reg.counter("test.new").inc()  # present only in `after`
    d = _deltas(before, reg.snapshot())
    assert d[("test.c", ())]["delta"] == 3
    assert d[("test.h", ())]["count_delta"] == 1
    assert d[("test.h", ())]["sum_delta"] == 0.5
    assert d[("test.new", ())]["delta"] == 1


# ---------------------------------------------------------------------------
# ServiceStats: p50/p99 from fixed buckets (no reservoir)
# ---------------------------------------------------------------------------


def test_service_latency_quantiles_within_one_bucket():
    stats = ServiceStats()
    assert isinstance(stats.latency, Histogram)
    for ms in range(1, 101):  # 1..100 ms, uniform
        stats.latency.observe(ms * 1e-3)
    snap = stats.snapshot()
    # true p50 = 50 ms lives in the (32.768, 65.536] ms bucket
    assert 32.768 <= snap["p50_latency_ms"] <= 65.536
    # true p99 = 99 ms: bucket (65.536, 131.072], clamped to max 100 ms
    assert 65.536 <= snap["p99_latency_ms"] <= 100.0


def test_service_latency_tail_never_underweighted():
    stats = ServiceStats()
    for _ in range(99):
        stats.latency.observe(1e-3)
    for _ in range(3):
        stats.latency.observe(2.0)  # rare 2 s stragglers
    assert stats.snapshot()["p99_latency_ms"] >= 1000.0


# ---------------------------------------------------------------------------
# tracing: nesting, export, validation, links
# ---------------------------------------------------------------------------


def test_span_nesting_and_trace_propagation():
    tr = Tracer(enabled=True)
    with tr.span("root", key="v") as root:
        assert tr.current_span() is root
        assert root.parent_id is None
        with tr.span("child") as child:
            assert child.trace_id == root.trace_id
            assert child.parent_id == root.span_id
            with tr.span("grandchild") as grand:
                assert grand.trace_id == root.trace_id
                assert grand.parent_id == child.span_id
    assert tr.current_span() is None
    with tr.span("other") as other:
        assert other.trace_id != root.trace_id  # a fresh root, fresh trace
    spans = tr.finished_spans()
    assert [s.name for s in spans] == ["grandchild", "child", "root", "other"]
    assert root.attrs["key"] == "v"
    assert all(s.duration >= 0.0 for s in spans)


def test_disabled_tracer_is_shared_noop():
    tr = Tracer(enabled=False)
    s = tr.span("a")
    assert s is tr.span("b")  # the shared _NULL instance: zero allocation
    with s:
        assert tr.current_span() is None
        s.set_attr("k", "v")
        s.link("t", "s")
    assert tr.finished_spans() == []
    assert s.trace_id == "" and s.span_id == "" and s.parent_id is None


def test_span_records_error_and_links():
    tr = Tracer(enabled=True)
    with pytest.raises(RuntimeError):
        with tr.span("failing") as span:
            span.link("t00000001", "s00000001", kind="dedup-leader")
            raise RuntimeError("boom")
    (finished,) = tr.finished_spans()
    assert finished.attrs["error"] == "RuntimeError"
    assert finished.attrs["links"] == [
        {"kind": "dedup-leader", "trace_id": "t00000001", "span_id": "s00000001"}
    ]


def test_chrome_trace_export_shape(tmp_path, tracer):
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.001)
    path = tmp_path / "trace.json"
    trace = tracer.write_chrome_trace(path)
    assert json.loads(path.read_text()) == trace
    events = trace["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]  # sorted by ts
    for e in events:
        assert e["ph"] == "X" and e["dur"] >= 0.0
        assert {"trace_id", "span_id", "parent_id"} <= set(e["args"])
    assert validate_spans(trace) == []


def _event(name, span_id, parent_id, ts, dur, trace_id="t1"):
    return {
        "ph": "X",
        "name": name,
        "ts": ts,
        "dur": dur,
        "args": {"trace_id": trace_id, "span_id": span_id, "parent_id": parent_id},
    }


def test_validate_spans_flags_structural_problems():
    ok = {
        "traceEvents": [
            _event("root", "s1", None, 0.0, 100.0),
            _event("child", "s2", "s1", 10.0, 50.0),
        ]
    }
    assert validate_spans(ok) == []
    bad = {
        "traceEvents": [
            _event("root", "s1", None, 0.0, 100.0),
            _event("negative", "s2", "s1", 10.0, -5.0),
            _event("orphan", "s3", "s99", 10.0, 5.0),
            _event("escapee", "s4", "s1", 90.0, 50_000.0),
            _event("crossed", "s5", "s1", 10.0, 5.0, trace_id="t2"),
        ]
    }
    problems = validate_spans(bad)
    assert any("negative duration" in p for p in problems)
    assert any("parent s99 missing" in p for p in problems)
    assert any("not contained in parent" in p for p in problems)
    assert any("trace_id differs" in p for p in problems)


def test_top_spans_aggregates_total_and_self_time():
    trace = {
        "traceEvents": [
            _event("root", "s1", None, 0.0, 100.0),
            _event("leaf", "s2", "s1", 0.0, 30.0),
            _event("leaf", "s3", "s1", 40.0, 30.0),
        ]
    }
    rows = {r["name"]: r for r in top_spans(trace, 10)}
    assert rows["root"]["total_us"] == 100.0
    assert rows["root"]["self_us"] == 40.0  # 100 - two 30us children
    assert rows["leaf"]["count"] == 2 and rows["leaf"]["total_us"] == 60.0
    assert [r["name"] for r in top_spans(trace, 1)] == ["root"]


def test_tracer_buffer_bound_drops_oldest():
    reg_before = REGISTRY.counter("repro.trace.spans_dropped").value
    tr = Tracer(enabled=True, max_spans=3)
    for i in range(5):
        with tr.span(f"s{i}"):
            pass
    names = [s.name for s in tr.finished_spans()]
    assert names == ["s2", "s3", "s4"]
    assert REGISTRY.counter("repro.trace.spans_dropped").value == reg_before + 2
    tr.clear()
    assert tr.finished_spans() == []


# ---------------------------------------------------------------------------
# end-to-end: subsystems publish, stats views agree, one correlated trace
# ---------------------------------------------------------------------------


def _fig1_request(n: int, **overrides) -> CompileRequest:
    w = _fig1(n)
    return CompileRequest(
        source=w["source"],
        bindings=dict(w["bindings"]),
        conditions=dict(w["conditions"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
        **overrides,
    )


def test_service_publishes_registry_and_stats_views_agree():
    """The tentpole's thin-view contract: ServiceStats / session / executor
    counts and the global registry describe the same requests."""
    before = REGISTRY.snapshot()
    options = CompilerOptions(level=3, schedule="round-robin")
    with CompileService(processors=NPROCS, workers=1, options=options) as svc:
        results = svc.run_batch([_fig1_request(8) for _ in range(3)])
        snap = svc.stats.snapshot()
    assert all(r.ok for r in results)
    d = _deltas(before, REGISTRY.snapshot())

    def delta(name, **labels):
        return d.get((name, tuple(sorted(labels.items()))), {"delta": 0.0})["delta"]

    def count(name, **labels):
        return d.get((name, tuple(sorted(labels.items()))), {"count_delta": 0})["count_delta"]

    assert delta("repro.service.requests_submitted") == snap["submitted"] == 3
    assert delta("repro.service.requests_completed") == snap["completed"] == 3
    assert delta("repro.service.errors") == snap["errors"] == 0
    assert delta("repro.service.compile_misses") == snap["compile_misses"] == 1
    assert delta("repro.service.compile_hits") == snap["compile_hits"] == 2
    assert d[("repro.service.request_seconds", ())]["count_delta"] == 3
    # in-flight gauge returns to zero once the batch drains
    assert delta("repro.service.queue_depth") == 0.0
    # session tiers: one miss compiled, two served from memory
    assert delta("repro.session.misses") == 1
    assert delta("repro.session.hits") == 2
    assert count("repro.compiler.pass_seconds", **{"pass": "parse"}) == 1
    assert delta("repro.compiler.pipelines_run") == 1
    # executor and machine: three runs, scheduled phases on the clock
    assert count("repro.runtime.run_seconds") == 3
    assert count("repro.machine.phase_seconds") > 0
    assert delta("repro.runtime.bytes_moved") > 0


def test_every_serving_tier_is_traced_and_timed(tracer, tmp_path):
    """A warm service request is a session memory hit; it
    opens one ``session.compile`` span and lands one
    ``repro.session.compile_seconds`` sample under tier ``"memory"``, like
    every other tier, so per-tier sample counts equal the session's own
    counters."""
    eager = CompilerOptions(level=3, schedule="round-robin")
    symbolic = CompilerOptions.symbolic(level=3, schedule="round-robin")
    store = tmp_path / "store"
    with CompileService(processors=NPROCS, workers=1, store=store) as svc:
        assert svc.run_batch([_fig1_request(8, options=eager)])[0].ok
    before = REGISTRY.snapshot()
    with CompileService(processors=NPROCS, workers=1, store=store) as svc:
        batch = [
            _fig1_request(8, options=eager),
            _fig1_request(8, options=eager),
            _fig1_request(8, options=symbolic),
            _fig1_request(12, options=symbolic),
        ]
        results = svc.run_batch(batch)
        tracer.clear()
        (warm,) = svc.run_batch([_fig1_request(12, options=symbolic)])
        session = svc.session.stats
        served = svc.stats.snapshot()
    assert all(r.ok for r in results) and warm.ok
    tiers = [r.cache_source for r in results + [warm]]
    assert tiers == ["disk", "memory", "compiled", "instantiated", "memory"]
    (span,) = [s for s in tracer.finished_spans() if s.name == "session.compile"]
    assert span.attrs["tier"] == "memory"
    d = _deltas(before, REGISTRY.snapshot())

    def samples(tier):
        key = ("repro.session.compile_seconds", (("tier", tier),))
        return d.get(key, {"count_delta": 0})["count_delta"]

    assert samples("memory") == session["hits"] == 2
    assert samples("instantiated") == session["instantiations"] == 1
    assert samples("disk") == session["store_hits"] == 1
    compiled = session["misses"] - session["instantiations"] - session["store_hits"]
    assert samples("compiled") == compiled == 1
    # the service counts every tier once, in its stats and in the registry
    for tier, count in (
        ("memory", "compile_hits"),
        ("instantiated", "instantiations"),
        ("disk", "store_hits"),
        ("compiled", "compile_misses"),
    ):
        registry = d.get((f"repro.service.{count}", ()), {"delta": 0.0})["delta"]
        assert registry == served[count] == samples(tier), tier


RAISES_AFTER_ONE_REMAP = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ redistribute A(cyclic)
  compute "boom" reads A
!hpf$ redistribute A(block)
  compute reads A
end
"""


def test_failed_run_leaves_runtime_and_machine_counters_agreeing():
    """A run that raises midway has still moved what it moved: the
    ``repro.runtime.*`` mirror advances by the same ledger
    ``Machine.charge`` already fed ``repro.machine.*`` from."""

    def boom(ctx):
        raise RuntimeError("kernel failed")

    compiled = compile_program(
        RAISES_AFTER_ONE_REMAP,
        bindings={"n": 16},
        processors=NPROCS,
        options=CompilerOptions(level=3, schedule="round-robin"),
    )
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        bindings={"n": 16}, inputs={"a": np.arange(16.0)}, kernels={"boom": boom}
    )
    before = REGISTRY.snapshot()
    with pytest.raises(RuntimeError, match="kernel failed"):
        Executor(compiled, machine, env).run("main")
    d = _deltas(before, REGISTRY.snapshot())

    def delta(name):
        return d.get((name, ()), {"delta": 0.0})["delta"]

    def count(name):
        return d.get((name, ()), {"count_delta": 0})["count_delta"]

    stats = machine.stats
    assert stats.remaps_performed == 1 and stats.bytes > 0 and stats.phases > 0
    assert count("repro.machine.phase_seconds") == stats.phases
    assert delta("repro.runtime.bytes_moved") == stats.bytes
    assert delta("repro.runtime.messages") == stats.messages
    assert delta("repro.runtime.remaps_performed") == 1
    assert count("repro.runtime.run_seconds") == 0  # it did not complete


def test_warm_symbolic_request_single_correlated_trace(tracer):
    """The tentpole acceptance: one warm symbolic-shape request yields a
    single trace -- service request -> session instantiate tier -> plan
    replay (one span per plan, its phases as attributes) -- under one
    trace ID."""
    options = CompilerOptions.symbolic(level=3, schedule="round-robin")
    with CompileService(processors=NPROCS, workers=2, options=options) as svc:
        (cold,) = svc.run_batch([_fig1_request(8)])
        assert cold.ok and cold.cache_source == "compiled"
        tracer.clear()  # keep only the warm request's spans
        (warm,) = svc.run_batch([_fig1_request(12)])
    assert warm.ok and warm.cache_source == "instantiated"

    spans = tracer.finished_spans()
    roots = [s for s in spans if s.name == "service.request"]
    assert len(roots) == 1
    root = roots[0]
    # every span of the request belongs to one trace
    assert {s.trace_id for s in spans} == {root.trace_id}
    names = {s.name for s in spans}
    assert {
        "service.request",
        "service.compile",
        "session.compile",
        "template.instantiate",
        "service.run",
        "executor.run",
        "remap.plan_replay",
    } <= names
    assert "comm.phase" not in names  # phases are charged, not run one by one
    replays = [s for s in spans if s.name == "remap.plan_replay"]
    assert sum(s.attrs["phases"] for s in replays) == warm.result.stats.phases > 0
    assert sum(s.attrs["messages"] for s in replays) == warm.result.stats.messages
    assert sum(s.attrs["bytes"] for s in replays) == warm.result.stats.bytes
    (session_span,) = [s for s in spans if s.name == "session.compile"]
    assert session_span.attrs["tier"] == "instantiated"
    (compile_span,) = [s for s in spans if s.name == "service.compile"]
    assert compile_span.attrs["tier"] == "instantiated"
    # the exported tree is structurally valid: parents exist, contain
    # their children, durations nonnegative
    assert validate_spans(tracer.chrome_trace()) == []


def test_a_request_the_caller_runs_is_its_own_trace(tracer):
    """The caller's thread runs a one-request batch inside whatever
    span it has open, and the request is still a root with its own trace
    id, its spans that trace's."""
    with CompileService(processors=NPROCS, workers=1) as svc:
        with tracer.span("client.loop") as outer:
            (res,) = svc.run_batch([_fig1_request(8)])
    assert res.ok
    spans = tracer.finished_spans()
    (root,) = [s for s in spans if s.name == "service.request"]
    assert root.parent_id is None and root.trace_id != outer.trace_id
    assert root.thread == threading.current_thread().name
    inner = [s for s in spans if s is not outer]
    assert {s.trace_id for s in inner} == {root.trace_id}
    assert [s for s in spans if s.trace_id == outer.trace_id] == [outer]
    assert validate_spans(tracer.chrome_trace()) == []


def test_dedup_followers_link_to_leader_span(tracer, monkeypatch):
    """Single-flight followers must not pretend to own the leader's
    compile: their spans carry a dedup-leader *link* to the leader's
    service.compile span in the leader's trace."""
    svc = CompileService(processors=NPROCS, workers=4)
    real = svc.session._serve_miss
    started = threading.Event()

    def slow_compile(*args, **kwargs):
        started.set()
        time.sleep(0.25)  # hold the flight open while followers arrive
        return real(*args, **kwargs)

    monkeypatch.setattr(svc.session, "_serve_miss", slow_compile)
    with svc:
        futures = [
            svc.submit(FIG1, bindings={"n": 8}, run=False) for _ in range(4)
        ]
        assert started.wait(5.0)
        results = [f.result() for f in futures]
    assert all(r.ok for r in results)
    assert sum(r.deduped for r in results) == 3

    compile_spans = [s for s in tracer.finished_spans() if s.name == "service.compile"]
    assert len(compile_spans) == 4
    followers = [s for s in compile_spans if "links" in s.attrs]
    (leader,) = [s for s in compile_spans if "links" not in s.attrs]
    assert len(followers) == 3
    for f in followers:
        (link,) = f.attrs["links"]
        assert link["kind"] == "dedup-leader"
        assert link["trace_id"] == leader.trace_id
        assert link["span_id"] == leader.span_id
        # the follower kept its own trace: the leader's work is linked,
        # not absorbed
        assert f.trace_id != leader.trace_id


# ---------------------------------------------------------------------------
# CLI: python -m repro.obs snapshot / diff / top-spans
# ---------------------------------------------------------------------------


def test_cli_snapshot_current_process_and_file(tmp_path, capsys):
    assert obs_cli(["snapshot"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == SCHEMA_VERSION and isinstance(out["metrics"], list)

    reg = MetricsRegistry()
    reg.counter("test.c").inc(7)
    path = tmp_path / "snap.json"
    path.write_text(reg.to_json())
    assert obs_cli(["snapshot", str(path)]) == 0
    assert '"test.c"' in capsys.readouterr().out
    # benchmark payloads embedding a snapshot under "obs" are accepted
    wrapped = tmp_path / "bench.json"
    wrapped.write_text(json.dumps({"experiment": "x", "obs": reg.snapshot()}))
    assert obs_cli(["snapshot", str(wrapped), "--prometheus"]) == 0
    assert "test_c 7" in capsys.readouterr().out


def test_cli_diff(tmp_path, capsys):
    reg = MetricsRegistry()
    c = reg.counter("test.c")
    c.inc(2)
    before = tmp_path / "before.json"
    before.write_text(reg.to_json())
    c.inc(5)
    reg.counter("test.quiet")  # zero delta: dropped without --all
    after = tmp_path / "after.json"
    after.write_text(reg.to_json())
    assert obs_cli(["diff", str(before), str(after)]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["diff"] == [
        {"name": "test.c", "labels": {}, "kind": "counter", "delta": 5.0}
    ]
    assert obs_cli(["diff", str(before), str(after), "--all"]) == 0
    assert len(json.loads(capsys.readouterr().out)["diff"]) == 2


def test_cli_top_spans_and_validate(tmp_path, capsys):
    good = tmp_path / "trace.json"
    good.write_text(
        json.dumps(
            {
                "traceEvents": [
                    _event("root", "s1", None, 0.0, 100.0),
                    _event("leaf", "s2", "s1", 10.0, 40.0),
                ]
            }
        )
    )
    assert obs_cli(["top-spans", str(good), "-n", "5", "--validate"]) == 0
    out = capsys.readouterr().out
    assert "root" in out and "leaf" in out
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"traceEvents": [_event("orphan", "s1", "s99", 0.0, 1.0)]})
    )
    assert obs_cli(["top-spans", str(bad), "--validate"]) == 1
    assert "parent s99 missing" in capsys.readouterr().err


def test_cli_infrastructure_errors_exit_2(tmp_path, capsys):
    assert obs_cli(["snapshot", str(tmp_path / "missing.json")]) == 2
    not_snap = tmp_path / "nope.json"
    not_snap.write_text(json.dumps({"hello": 1}))
    assert obs_cli(["snapshot", str(not_snap)]) == 2
    not_trace = tmp_path / "not_trace.json"
    not_trace.write_text(json.dumps({"hello": 1}))
    assert obs_cli(["top-spans", str(not_trace)]) == 2
    capsys.readouterr()


def test_session_evictions_count_artifacts_and_templates():
    """``repro.session.evictions`` counts both tables a session bounds: a
    one-entry symbolic session compiling two renamed Fig. 16 sources evicts
    the first artifact and the first template."""
    from repro import CompilerSession
    from test_schedule import FIG16

    assert "artifact and template tables" in CATALOG["repro.session.evictions"].help
    before = REGISTRY.snapshot()
    session = CompilerSession(NPROCS, CompilerOptions.symbolic(level=3), max_entries=1)
    for name in ("first", "second"):
        session.compile(FIG16.replace("subroutine main", f"subroutine {name}"),
                        bindings={"n": 16, "t": 5})
    stats = session.stats
    assert stats["entries"] == stats["templates"] == 1
    assert stats["evictions"] == 2
    d = _deltas(before, REGISTRY.snapshot())
    assert d[("repro.session.evictions", ())]["delta"] == 2


def test_a_submit_close_raced_past_is_counted_nowhere(monkeypatch):
    """A request the executor refused (``close()`` raced past the closed
    check) leaves the service's stats, the registry and both queue depths
    as if it had never been submitted."""
    before = REGISTRY.snapshot()
    with CompileService(processors=NPROCS, workers=1) as svc:
        submit, refused = svc._executor.submit, []

        def refuse_once(*args, **kwargs):
            if not refused:
                refused.append(args)
                raise RuntimeError("cannot schedule new futures after shutdown")
            return submit(*args, **kwargs)

        monkeypatch.setattr(svc._executor, "submit", refuse_once)
        with pytest.raises(RuntimeError, match="after shutdown"):
            svc.submit(_fig1_request(8))
        assert svc.submit(_fig1_request(8)).result().ok
        snap = svc.stats.snapshot()
        after = REGISTRY.snapshot()
    d = _deltas(before, after)
    assert refused
    assert d[("repro.service.requests_submitted", ())]["delta"] == snap["submitted"] == 1
    assert d[("repro.service.requests_completed", ())]["delta"] == snap["completed"] == 1
    assert snap["queue_depth"] == d[("repro.service.queue_depth", ())]["delta"] == 0


def test_store_stats_and_registry_count_the_same_events(tmp_path):
    """``ArtifactStore.stats`` and the ``repro.store.*`` deltas describe the
    same store traffic: a concrete and a template hit, a miss, writes, a
    corrupt entry, a template its load evicts and an LRU eviction."""
    from repro import CompilerSession
    from repro.compiler.template import SymbolicTemplate
    from repro.store import ArtifactStore
    from test_schedule import FIG16

    bindings = {"n": 16, "t": 5}
    concrete = CompilerSession(NPROCS, CompilerOptions(level=3)).compile(FIG16, bindings)
    symbolic = CompilerSession(NPROCS, CompilerOptions.symbolic(level=3))
    symbolic.compile(FIG16, bindings)
    (template,) = symbolic._templates._entries.values()

    before = REGISTRY.snapshot()
    store = ArtifactStore(tmp_path / "store")
    assert store.store("concrete", concrete) and store.store("template", template)
    assert store.load("concrete") is not None
    assert isinstance(store.load("template"), SymbolicTemplate)
    assert store.load("absent") is None
    path = store.entry_path("concrete")
    blob = bytearray(path.read_bytes())
    blob[blob.index(b"\n") + 1] ^= 0xFF  # the first payload byte
    path.write_bytes(bytes(blob))
    assert store.load("concrete") is None
    structure = template.structure
    (main,) = structure.subroutines.values()
    mangled = dataclasses.replace(main, holes=main.holes[1:])
    mangled = dataclasses.replace(structure, subroutines={"main": mangled})
    assert store.store("template", dataclasses.replace(template, structure=mangled))
    assert store.load("template") is None
    assert store.store("first", concrete)
    store.max_bytes = int(store.entry_path("first").stat().st_size * 1.5)
    assert store.store("second", concrete)
    stats = store.stats
    d = _deltas(before, REGISTRY.snapshot())

    def delta(name, **labels):
        return d[(f"repro.store.{name}", tuple(sorted(labels.items())))]["delta"]

    assert delta("hits", kind="concrete") == stats["hits_concrete"] == 1
    assert delta("hits", kind="template") == stats["hits_template"] == 1
    assert delta("misses") == stats["misses"] == 3
    assert delta("writes") == stats["stores"] == 5
    assert delta("corrupt_evicted") == stats["corrupt_evicted"] == 2  # the mangled template too
    assert delta("semantic_evicted") == stats["semantic_evicted"] == 1
    assert delta("lru_evicted") == stats["lru_evicted"] == 1
    assert stats["entries"] == 1
