"""Service layer: one session cache, single-flight, concurrent cache safety.

The properties asserted here are the service's contract:

* concurrent execution is *differentially sound*: any mix of repeated and
  distinct sources spread over a worker pool produces bit-identical
  values to running the same requests serially;
* cache statistics stay consistent under concurrency (session hits +
  misses == compile calls that reached the session; service hits +
  instantiations +
  store hits + misses + dedup saves == completed requests);
* single-flight deduplication is observable: concurrent misses for one
  artifact key run the pipeline once;
* cached artifacts are frozen -- mutation raises instead of corrupting a
  concurrent run -- and one frozen artifact may be executed by many
  threads at once.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    CompileRequest,
    CompileService,
    CompilerOptions,
    CompilerSession,
    ExecutionEnv,
    Machine,
    compile_program,
    execute,
)
from repro.apps.adi import adi_kernels, adi_reference, build_adi_program
from repro.apps.workloads import random_environment, random_legal_subroutine
from repro.errors import ArtifactFrozenError, ParseError, SemanticError
from repro.lang.parser import parse_program
from repro.runtime.executor import default_kernel

FIG10 = """
subroutine remap(A, m)
  integer m, n, p
  real A(n,n), B(n,n), C(n,n)
  intent inout A
!hpf$ align with A :: B, C
!hpf$ dynamic A, B, C
!hpf$ distribute A(block, *)
  compute "init" writes B reads A
  if c1 then
!hpf$   redistribute A(cyclic, *)
    compute writes A, p reads A, B
  else
!hpf$   redistribute A(block, block)
    compute writes p reads A
  endif
  do i = 1, m
!hpf$   redistribute A(*, block)
    compute writes C reads A
!hpf$   redistribute A(block, *)
    compute writes A reads A, C
  enddo
end
"""


def _variant(i: int) -> str:
    """A family of distinct sources (digest differs per member)."""
    return FIG10.replace("subroutine remap", f"subroutine remap{i}")


# ---------------------------------------------------------------------------
# service: batches, stats consistency, error containment
# ---------------------------------------------------------------------------


def _assert_accounting_invariant(svc, n_requests):
    """``ServiceStats``: every completed request that obtained an artifact is
    exactly one of the five outcomes, and the session saw the rest's traffic."""
    snap = svc.stats.snapshot()
    assert snap["completed"] == snap["submitted"] == n_requests
    assert snap["errors"] == 0
    assert (
        snap["compile_hits"]
        + snap["instantiations"]
        + snap["store_hits"]
        + snap["compile_misses"]
        + snap["dedup_saves"]
        == n_requests
    )
    # session counters agree with the service's view of who reached it
    cache = svc.session.stats
    assert cache["hits"] + cache["misses"] == n_requests - snap["dedup_saves"]
    assert cache["hits"] == snap["compile_hits"]
    assert cache["misses"] == snap["compile_misses"]
    return snap


def test_service_serves_from_one_session():
    """The service's cache is one ``CompilerSession``: its counters are the
    service's hits and misses, its capacity is the session's own default,
    and the layered benchmark's ``shards=`` / ``max_entries_per_shard=``
    spelling sizes it to their product."""
    with CompileService(processors=4, workers=4) as svc:
        assert isinstance(svc.session, CompilerSession)
        assert svc.session.max_entries == CompilerSession().max_entries
        svc.run_batch([CompileRequest(_variant(i), bindings={"n": 8, "m": 1}) for i in range(2)])
        mixed = [
            CompileRequest(
                _variant(i % 4),
                bindings={"n": 8, "m": 1 + i % 3},
                conditions={"c1": i % 2 == 0},
                run=i % 3 != 0,
            )
            for i in range(12)
        ]
        assert all(r.ok for r in svc.run_batch(mixed))
        snap = svc.stats.snapshot()
        assert svc.session.hits == snap["compile_hits"] >= 6
        assert svc.session.misses == snap["compile_misses"] >= 2
        assert snap["compile_hits"] + snap["compile_misses"] + snap["dedup_saves"] == 14

    with CompileService(processors=4, workers=1, shards=1, max_entries_per_shard=8) as svc:
        assert svc.session.max_entries == 8
        svc.run_batch(
            [CompileRequest(_variant(i), bindings={"n": 8, "m": 1}, run=False) for i in range(10)]
        )
        assert svc.session.stats["entries"] == 8
        assert svc.session.stats["evictions"] == 2


def test_run_batch_results_in_order_and_consistent_stats():
    with CompileService(processors=4, workers=4) as svc:
        n_requests = 12
        reqs = [
            CompileRequest(
                _variant(i % 3),
                bindings={"n": 8, "m": 2},
                conditions={"c1": i % 2 == 0},
            )
            for i in range(n_requests)
        ]
        results = svc.run_batch(reqs)
        assert [r.index for r in results] == list(range(n_requests))
        assert all(r.ok for r in results)
        snap = _assert_accounting_invariant(svc, n_requests)
        assert snap["queue_depth"] == 0
        assert snap["throughput_rps"] > 0
        assert snap["p99_latency_ms"] >= snap["p50_latency_ms"] > 0


def test_accounting_invariant_holds_with_dedup_saves(monkeypatch):
    """The same invariant with single-flight followers in the mix: the
    compile is slowed, so each source's second request waits on its first."""
    svc = CompileService(processors=4, workers=4)
    real = svc.session._serve_miss

    def slow_compile(*args, **kwargs):
        time.sleep(0.25)  # hold the flight open while the follower arrives
        return real(*args, **kwargs)

    monkeypatch.setattr(svc.session, "_serve_miss", slow_compile)
    reqs = [
        CompileRequest(_variant(i % 2), bindings={"n": 8, "m": 2}, conditions={"c1": True})
        for i in range(4)
    ]
    with svc:
        cold = svc.run_batch(reqs)  # two flights, one follower each
        warm = svc.run_batch(reqs)  # four memory hits
    assert all(r.ok for r in cold + warm)
    snap = _assert_accounting_invariant(svc, 8)
    assert (snap["dedup_saves"], snap["compile_misses"], snap["compile_hits"]) == (2, 2, 4)


def test_submit_accepts_source_mapping_and_request():
    with CompileService(processors=4, workers=2) as svc:
        f1 = svc.submit(FIG10, bindings={"n": 8, "m": 1}, conditions={"c1": True})
        f2 = svc.submit({"source": FIG10, "bindings": {"n": 8, "m": 1},
                         "conditions": {"c1": True}})
        f3 = svc.submit(
            CompileRequest(FIG10, bindings={"n": 8, "m": 1}, conditions={"c1": True})
        )
        vals = [f.result() for f in (f1, f2, f3)]
        assert all(r.ok for r in vals)
        a = vals[0].value("a")
        assert all(np.array_equal(a, r.value("a")) for r in vals[1:])


def test_compile_only_request():
    with CompileService(processors=4, workers=2) as svc:
        res = svc.submit(CompileRequest(FIG10, bindings={"n": 8, "m": 1}, run=False))
        r = res.result()
        assert r.ok and r.result is None and r.compiled is not None
        assert r.compiled.frozen


def test_cache_source_provenance_per_request(tmp_path):
    """``ServiceResult.cache_source``: ``"compiled"`` then ``"memory"``
    within one service, ``"disk"`` after a restart onto the same
    persistent store -- with the accounting invariant holding across all
    four outcome classes."""
    req = {"source": FIG10, "bindings": {"n": 8, "m": 1}, "conditions": {"c1": True}}
    with CompileService(processors=4, workers=1, store=tmp_path / "store") as svc:
        first, second = svc.run_batch([req, req])
        assert first.cache_source == "compiled" and not first.cached
        assert second.cache_source == "memory" and second.cached
        ref = first.value("a")
        snap = svc.stats.snapshot()
        assert snap["compile_misses"] == 1 and snap["compile_hits"] == 1
        assert snap["store_hits"] == 0
    # a *new* service over the same store directory: no memory, disk hit
    with CompileService(processors=4, workers=1, store=tmp_path / "store") as svc2:
        (only,) = svc2.run_batch([req])
        assert only.cache_source == "disk" and only.cached and not only.deduped
        assert np.array_equal(only.value("a"), ref)
        snap = svc2.stats.snapshot()
        assert snap["store_hits"] == 1 and snap["compile_misses"] == 0
        assert (
            snap["compile_hits"]
            + snap["compile_misses"]
            + snap["store_hits"]
            + snap["dedup_saves"]
            == snap["completed"]
        )


def test_errors_are_contained_per_request():
    with CompileService(processors=4, workers=2) as svc:
        results = svc.run_batch(
            [
                {"source": FIG10, "bindings": {"n": 8, "m": 1},
                 "conditions": {"c1": True}},
                {"source": "subroutine broken(\n"},  # parse error
            ]
        )
        assert results[0].ok
        assert not results[1].ok and results[1].error is not None
        with pytest.raises(Exception):
            results[1].value("a")
        # the front end's own error, raised at first contact: the session
        # counted no miss for the source that has no key
        with pytest.raises(ParseError) as direct:
            parse_program("subroutine broken(\n")
        assert type(results[1].error) is ParseError
        assert str(results[1].error) == str(direct.value)
        assert svc.session.stats["misses"] == 1
        snap = svc.stats.snapshot()
        assert snap["errors"] == 1 and snap["completed"] == 2
        # and the service is unharmed: the next request succeeds
        (after,) = svc.run_batch(
            [{"source": FIG10, "bindings": {"n": 8, "m": 3}, "conditions": {"c1": True}}]
        )
        assert after.ok and after.cache_source == "memory"
        assert svc.stats.snapshot()["errors"] == 1


def test_closed_service_rejects_submits():
    svc = CompileService(processors=4, workers=1)
    svc.close()
    with pytest.raises(RuntimeError):
        svc.submit(FIG10, bindings={"n": 8, "m": 1})


@pytest.mark.parametrize("size", [1, 2])
def test_closed_service_rejects_batches_and_counts_nothing(size):
    svc = CompileService(processors=4, workers=2)
    svc.close()
    with pytest.raises(RuntimeError, match="closed"):
        svc.run_batch([{"source": FIG10, "bindings": {"n": 8, "m": 1}}] * size)
    snap = svc.stats.snapshot()
    assert snap["submitted"] == snap["queue_depth"] == snap["completed"] == 0
    assert svc.session.stats["misses"] == 0


FIXED = """
subroutine fixed(A)
  real A(8,8)
  intent inout A
!hpf$ dynamic A
!hpf$ distribute A(block, *)
  compute writes A reads A
!hpf$ redistribute A(cyclic, *)
  compute writes A reads A
end
"""


@pytest.mark.parametrize("size", [1, 2])
def test_batches_accept_a_bare_source_as_submit_does(size):
    with CompileService(processors=4, workers=2) as svc:
        results = svc.run_batch([FIXED] * size)
    assert [r.ok for r in results] == [True] * size


# ---------------------------------------------------------------------------
# execution slots: the caller runs a one-request batch
# ---------------------------------------------------------------------------


def _request_calling(kernel) -> CompileRequest:
    """FIG10 with ``kernel(ctx)`` run as its ``init`` compute."""

    def init(ctx):
        kernel(ctx)
        default_kernel(ctx)

    return CompileRequest(
        FIG10, bindings={"n": 8, "m": 1}, conditions={"c1": True}, kernels={"init": init}
    )


class _Overlap:
    """A kernel that holds each request ``hold`` seconds and records the
    most requests executing it at once, and the threads that ran it."""

    def __init__(self, hold: float):
        self.hold, self.lock = hold, threading.Lock()
        self.running, self.peak, self.threads = 0, 0, set()

    def __call__(self, ctx) -> None:
        with self.lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
            self.threads.add(threading.get_ident())
        time.sleep(self.hold)
        with self.lock:
            self.running -= 1


def test_one_request_batch_runs_on_the_calling_thread(monkeypatch):
    """A one-request batch runs on the caller's thread, so a fresh service
    used this way -- and a close/reopen cycle of it -- starts no pool
    thread and has none to join."""
    started, real_start = [], threading.Thread.start

    def start(thread):
        started.append(thread.name)
        return real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    ran_on = []
    for _ in range(2):  # a close/reopen cycle
        with CompileService(processors=4, workers=1) as svc:
            request = _request_calling(lambda ctx: ran_on.append(threading.get_ident()))
            (res,) = svc.run_batch([request])
            assert res.ok
            assert not [t for t in threading.enumerate() if t.name.startswith("repro-service")]
    assert ran_on == [threading.get_ident()] * 2
    assert not [name for name in started if name.startswith("repro-service")]


def test_at_most_workers_requests_execute_at_once_caller_included():
    """Five submits on a two-thread pool and a one-request batch on the
    caller's thread share the two slots: never more than two execute."""
    overlap = _Overlap(hold=0.05)
    with CompileService(processors=4, workers=2) as svc:
        futures = [svc.submit(_request_calling(overlap)) for _ in range(5)]
        (mine,) = svc.run_batch([_request_calling(overlap)])
        results = [f.result() for f in futures] + [mine]
        assert svc.stats.snapshot()["completed"] == 6
    assert all(r.ok for r in results)
    assert overlap.peak == 2
    assert threading.get_ident() in overlap.threads


def test_a_multi_request_batch_runs_on_the_pool():
    overlap = _Overlap(hold=0.05)
    with CompileService(processors=4, workers=2) as svc:
        results = svc.run_batch([_request_calling(overlap) for _ in range(6)])
    assert all(r.ok for r in results) and [r.index for r in results] == list(range(6))
    assert overlap.peak == 2
    assert threading.get_ident() not in overlap.threads


def test_an_interrupt_of_a_request_the_caller_runs_propagates():
    """A ``KeyboardInterrupt`` raised while the caller's thread runs its
    request is the caller's, not a failed request: it propagates after the
    request is counted and its slot freed."""

    def interrupt(ctx):
        raise KeyboardInterrupt

    with CompileService(processors=4, workers=1) as svc:
        with pytest.raises(KeyboardInterrupt):
            svc.run_batch([_request_calling(interrupt)])
        snap = svc.stats.snapshot()
        assert snap["completed"] == snap["errors"] == 1 and snap["queue_depth"] == 0
        (res,) = svc.run_batch([_request_calling(lambda ctx: None)])
        assert res.ok  # the slot was given back


def test_one_worker_batch_runs_in_request_order():
    order = []
    with CompileService(processors=4, workers=1) as svc:
        results = svc.run_batch(
            [_request_calling(lambda ctx, i=i: order.append(i)) for i in range(4)]
        )
        assert svc.stats.snapshot()["queue_depth"] == 0
    assert all(r.ok for r in results)
    assert order == [0, 1, 2, 3]


def test_close_waits_for_a_request_the_caller_runs():
    """``close()`` from another thread returns only after the request the
    caller's thread is running has finished, and that request succeeds."""
    entered, events = threading.Event(), []

    def slow(ctx):
        entered.set()
        time.sleep(0.2)
        events.append("request finished")

    svc = CompileService(processors=4, workers=1)

    def closer():
        assert entered.wait(30)
        svc.close()
        events.append("close returned")

    thread = threading.Thread(target=closer)
    thread.start()
    (res,) = svc.run_batch([_request_calling(slow)])
    thread.join(30)
    assert not thread.is_alive()
    assert res.ok
    assert events == ["request finished", "close returned"]


def test_concurrent_callers_share_the_slots():
    """Stress: four callers each run five one-request batches on their own
    threads while the pool serves five submits, all on three slots (more
    than this host's cores, switch interval shortened) -- never more than
    three requests execute at once, and every submit is completed and
    dequeued."""
    overlap = _Overlap(hold=0.002)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with CompileService(processors=4, workers=3) as svc:
            with ThreadPoolExecutor(max_workers=4) as callers:
                pooled = [svc.submit(_request_calling(overlap)) for _ in range(5)]
                def caller():
                    return [svc.run_batch([_request_calling(overlap)])[0] for _ in range(5)]

                batches = [callers.submit(caller) for _ in range(4)]
                results = [r for b in batches for r in b.result(timeout=120)]
                results += [f.result(timeout=120) for f in pooled]
            snap = svc.stats.snapshot()
    finally:
        sys.setswitchinterval(old)
    assert len(results) == 25 and all(r.ok for r in results)
    assert 2 <= overlap.peak <= 3
    assert snap["submitted"] == snap["completed"] == 25 and snap["queue_depth"] == 0


@pytest.mark.parametrize("run", [True, False])
def test_unknown_backend_is_rejected_before_any_compile_work(run):
    with CompileService(processors=4, workers=1) as svc:
        bad = svc.submit(
            FIG10, bindings={"n": 8, "m": 1}, conditions={"c1": True},
            backend="bogus", run=run,
        ).result()
        assert isinstance(bad.error, ValueError) and "unknown backend" in str(bad.error)
        assert bad.compiled is None and bad.result is None
        assert svc.session.stats["misses"] == 0 and svc.session.stats["hits"] == 0
        # the service is unharmed: the next request compiles and runs
        ok = svc.submit(FIG10, bindings={"n": 8, "m": 1}, conditions={"c1": True}).result()
        assert ok.ok and svc.session.stats["misses"] == 1


# ---------------------------------------------------------------------------
# single-flight deduplication
# ---------------------------------------------------------------------------


def test_single_flight_collapses_concurrent_identical_misses(monkeypatch):
    svc = CompileService(processors=4, workers=4)
    real = svc.session._serve_miss
    started = threading.Event()

    def slow_compile(*args, **kwargs):
        started.set()
        time.sleep(0.25)  # hold the flight open while followers arrive
        return real(*args, **kwargs)

    monkeypatch.setattr(svc.session, "_serve_miss", slow_compile)
    with svc:
        futures = [
            svc.submit(FIG10, bindings={"n": 8, "m": 1}, conditions={"c1": True})
            for _ in range(4)
        ]
        assert started.wait(5.0)
        results = [f.result() for f in futures]
    assert all(r.ok for r in results)
    assert sum(r.deduped for r in results) == 3
    # the pipeline ran exactly once: one session miss, zero hits
    assert svc.session.stats["misses"] == 1
    assert svc.session.stats["hits"] == 0
    assert svc.stats.snapshot()["dedup_saves"] == 3
    # followers report the leader's provenance (nothing was cached yet)
    assert all(r.cache_source == "compiled" for r in results)
    # followers share the leader's frozen artifact object
    arts = {id(r.compiled) for r in results}
    assert len(arts) == 1


def test_single_flight_follower_gets_own_bindings(monkeypatch):
    """A follower's artifact must carry the follower's runtime-only bindings.

    ``m`` is runtime-only -- known from the source at first contact, so two
    concurrent requests for a never-seen source that differ only in ``m``
    share one flight.  The follower must not inherit the leader's ``m``
    baked into the artifact's resolved subroutines.
    """
    svc = CompileService(processors=4, workers=4)
    real = svc.session._serve_miss

    def slow_compile(*args, **kwargs):
        time.sleep(0.25)
        return real(*args, **kwargs)

    monkeypatch.setattr(svc.session, "_serve_miss", slow_compile)
    opts = CompilerOptions(level=2)
    with svc:
        futures = [
            svc.submit(FIG10, bindings={"n": 8, "m": m}, options=opts,
                       conditions={"c1": True})
            for m in (3, 4)
        ]
        results = [f.result() for f in futures]
    assert all(r.ok for r in results)
    assert sum(r.deduped for r in results) == 1
    assert svc.session.stats["misses"] == 1  # one compile, not one per m
    for r, m in zip(results, (3, 4)):
        assert r.compiled.bindings.get("m") == m, (
            f"artifact for request m={m} carries bindings {r.compiled.bindings}"
        )


def test_single_flight_propagates_leader_error(monkeypatch):
    """A source that parses but fails in ``resolve`` fails inside the
    flight: the first request's error reaches the three that waited, each
    as its own copy, and the failed flight is not left behind."""
    bad = FIG10.replace("compute writes C reads A", "compute writes Z reads A")
    svc = CompileService(processors=4, workers=4)
    real = svc.session._serve_miss
    started = threading.Event()

    def slow_compile(*args, **kwargs):
        started.set()
        time.sleep(0.25)  # hold the flight open while the others arrive
        return real(*args, **kwargs)

    monkeypatch.setattr(svc.session, "_serve_miss", slow_compile)
    request = {"source": bad, "bindings": {"n": 8, "m": 1}, "conditions": {"c1": True}}
    with svc:
        futures = [svc.submit(request) for _ in range(4)]
        assert started.wait(5.0)
        results = [f.result(timeout=60) for f in futures]
        assert svc.session.stats["misses"] == 1
        errors = [r.error for r in results]
        assert all(isinstance(e, SemanticError) for e in errors)
        assert len({id(e) for e in errors}) == 4
        (first,) = [e for e in errors if e.__cause__ is None]
        assert sum(e.__cause__ is first for e in errors) == 3
        snap = svc.stats.snapshot()
        assert snap["dedup_saves"] == 0 and snap["errors"] == 4
        assert not any(r.deduped for r in results)
        # no flight left behind: the next request for the key serves it again
        assert not svc.submit(request).result(timeout=60).ok
        assert svc.session.stats["misses"] == 2


def test_request_indices_are_distinct_under_concurrent_submits():
    """Each submit's index is the count its own ``record_submit`` assigned,
    so concurrent submitters never share one."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with CompileService(processors=4, workers=2) as svc:
            request = CompileRequest(FIG10, bindings={"n": 8, "m": 1}, run=False)
            barrier = threading.Barrier(8, timeout=30)

            def client():
                barrier.wait()
                return [svc.submit(request) for _ in range(25)]

            with ThreadPoolExecutor(max_workers=8) as clients:
                batches = [clients.submit(client) for _ in range(8)]
                futures = [f for b in batches for f in b.result(timeout=60)]
            indices = [f.result(timeout=60).index for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert sorted(indices) == list(range(200))


def test_distinct_keys_do_not_dedup():
    with CompileService(processors=4, workers=4) as svc:
        results = svc.run_batch(
            [
                {"source": FIG10, "bindings": {"n": 8, "m": 1},
                 "conditions": {"c1": True}},
                # n is compile-relevant (declaration extent): different key
                {"source": FIG10, "bindings": {"n": 12, "m": 1},
                 "conditions": {"c1": True}},
            ]
        )
    assert all(r.ok for r in results)
    assert svc.session.stats["misses"] == 2


# ---------------------------------------------------------------------------
# frozen artifacts
# ---------------------------------------------------------------------------


def test_session_cached_artifacts_are_frozen():
    session = CompilerSession(processors=4)
    compiled = session.compile(FIG10, bindings={"n": 8, "m": 1})
    assert compiled.frozen
    with pytest.raises(ArtifactFrozenError):
        compiled.report = None
    with pytest.raises(ArtifactFrozenError):
        compiled.get("remap").code = None


def test_direct_compilation_stays_mutable():
    compiled = compile_program(FIG10, bindings={"n": 8, "m": 1}, processors=4)
    assert not compiled.frozen
    compiled.report = compiled.report  # plain attribute write still allowed


def test_cached_artifacts_plan_table_serves_unseen_pairs():
    """Freezing covers the artifact's content; the plans of its copies live
    in the process's memo, outside it, which keeps serving pairs it has
    never seen."""
    from repro.spmd.schedule import PLANS, obtain_plan

    opts = CompilerOptions(level=3, schedule="round-robin")
    session = CompilerSession(processors=4, options=opts)
    compiled = session.compile(FIG10, bindings={"n": 8, "m": 1})
    assert compiled.frozen and len(PLANS) == 0
    versions = compiled.get("remap").versions.versions("a")
    plan = obtain_plan(opts.schedule, versions[0], versions[1])
    assert plan.policy == "round-robin"
    assert obtain_plan(opts.schedule, versions[0], versions[1]) is plan
    with pytest.raises(ArtifactFrozenError):
        compiled.options = opts


def test_frozen_artifact_still_executes_with_binding_overlay():
    session = CompilerSession(processors=4)
    r1 = session.run(FIG10, bindings={"n": 8, "m": 1}, conditions={"c1": True})
    # different runtime-only binding: served from cache as a fresh wrapper
    r2 = session.run(FIG10, bindings={"n": 8, "m": 3}, conditions={"c1": True})
    assert session.stats["hits"] >= 1
    assert r1.value("a").shape == r2.value("a").shape


# ---------------------------------------------------------------------------
# concurrent execution of one artifact
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("schedule", [None, "round-robin"])
def test_concurrent_execution_of_one_frozen_artifact(schedule):
    opts = CompilerOptions(level=3, schedule=schedule)
    session = CompilerSession(processors=4, options=opts)
    compiled = session.compile(FIG10, bindings={"n": 8, "m": 2})
    assert compiled.frozen

    def run_once(_):
        env = ExecutionEnv(
            conditions={"c1": True},
            bindings={"n": 8, "m": 2},
            inputs={"a": np.arange(64.0).reshape(8, 8)},
        )
        res = execute(compiled, machine=Machine(compiled.processors), env=env)
        return res.value("a"), res.machine.stats.bytes

    with ThreadPoolExecutor(max_workers=8) as tp:
        outcomes = list(tp.map(run_once, range(16)))
    ref_value, ref_bytes = outcomes[0]
    for value, nbytes in outcomes[1:]:
        assert np.array_equal(ref_value, value)
        assert nbytes == ref_bytes


# ---------------------------------------------------------------------------
# threaded stress: random workloads, concurrent == serial
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stress_random_mix_bit_identical_to_serial(seed):
    rng = np.random.default_rng(seed)
    programs, envs = [], []
    for i in range(4):
        program = random_legal_subroutine(rng, n_arrays=3, length=5, depth=2)
        conditions, inputs = random_environment(rng, n_arrays=3)
        programs.append(program)
        envs.append((conditions, inputs))

    # a random mix of repeated and distinct sources, shuffled
    picks = [int(rng.integers(0, len(programs))) for _ in range(20)]

    def request(i: int) -> CompileRequest:
        conditions, inputs = envs[picks[i]]
        return CompileRequest(
            programs[picks[i]],
            conditions=dict(conditions),
            inputs={k: v.copy() for k, v in inputs.items()},
            check_invariants=True,
        )

    def values_of(result) -> dict[str, np.ndarray]:
        name = next(iter(result.compiled.subroutines))
        arrays = result.compiled.get(name).sub.arrays
        return {a: result.result.value(a) for a in arrays}

    # serial reference: same requests, one at a time, fresh cache
    with CompileService(processors=4, workers=1) as serial:
        ref = [values_of(r) for r in serial.run_batch(
            [request(i) for i in range(len(picks))]
        )]

    # concurrent run on a fresh service
    with CompileService(processors=4, workers=8) as svc:
        results = svc.run_batch([request(i) for i in range(len(picks))])
        assert all(r.ok for r in results), [r.error for r in results if not r.ok]
        for i, r in enumerate(results):
            got = values_of(r)
            assert set(got) == set(ref[i])
            for a in got:
                assert np.array_equal(got[a], ref[i][a], equal_nan=True), (
                    f"request {i} array {a} diverged from serial (seed {seed})"
                )
        snap = svc.stats.snapshot()
        cache = svc.session.stats
        # cache-stat consistency under concurrency
        assert snap["completed"] == len(picks)
        assert (
            snap["compile_hits"] + snap["compile_misses"] + snap["dedup_saves"]
            == len(picks)
        )
        assert cache["hits"] + cache["misses"] == len(picks) - snap["dedup_saves"]
        # every distinct program compiled at least once, and repeats hit
        assert cache["misses"] >= len(set(picks))


# ---------------------------------------------------------------------------
# symbolic templates under concurrency: distinct (n, P) never cross-serve
# ---------------------------------------------------------------------------

SYMBOLIC_SRC = """
subroutine shapes(a, t)
  integer n, t
  real a(n)
!hpf$ dynamic a
!hpf$ distribute a(block)
  compute "init" writes a
  do i = 1, t
!hpf$   redistribute a(cyclic)
    compute "use" reads a writes a
!hpf$   redistribute a(block)
    compute "back" reads a writes a
  enddo
end
"""

_SYMBOLIC_PAIRS = [(8, 2), (12, 3), (16, 2), (16, 4), (24, 4), (32, 4), (40, 2), (48, 4)]


def _symbolic_request(n: int, p: int) -> CompileRequest:
    return CompileRequest(
        SYMBOLIC_SRC,
        bindings={"n": n, "t": 3},
        processors=p,
        inputs={"a": np.arange(n, dtype=float)},
        check_invariants=True,
    )


def test_concurrent_shapes_share_one_template_and_never_cross_serve():
    """Concurrent requests for distinct (n, P) against one shared symbolic
    template: every result must carry its own geometry (plans from the
    shared memo must never be served across shapes), values must match a
    from-scratch eager compile, and after the warming compile every serve
    must avoid the pipeline front end."""
    opts = CompilerOptions.symbolic(level=3, schedule="round-robin")
    with CompileService(processors=2, workers=8, options=opts) as svc:
        # warm: first request builds and caches the template
        warm = svc.run_batch([_symbolic_request(*_SYMBOLIC_PAIRS[0])])
        assert warm[0].ok and warm[0].cache_source == "compiled"
        # storm: every other (n, P) pair, concurrently, twice each
        pairs = _SYMBOLIC_PAIRS[1:] * 2
        results = svc.run_batch([_symbolic_request(n, p) for n, p in pairs])
        assert all(r.ok for r in results), [r.error for r in results if not r.ok]
        eager_opts = CompilerOptions(level=3, schedule="round-robin")
        for (n, p), r in zip(pairs, results):
            # the artifact must be this request's geometry, not a neighbor's
            assert r.value("a").shape == (n,)
            grids = {
                m.processors.shape
                for cs in r.compiled.subroutines.values()
                for a in cs.construction.versions.arrays()
                for m in cs.construction.versions.versions(a)
            }
            assert grids == {(p,)}
            # no pipeline front end ran for any storm request
            assert r.cache_source in ("memory", "instantiated") or r.deduped
            # differential: bit-identical to a from-scratch eager compile
            ref = compile_program(
                SYMBOLIC_SRC, bindings={"n": n, "t": 3}, processors=p,
                options=eager_opts,
            )
            env = ExecutionEnv(
                bindings={"n": n, "t": 3},
                inputs={"a": np.arange(n, dtype=float)},
            )
            want = execute(ref, env=env)
            assert np.array_equal(r.value("a"), want.value("a"))
            assert r.result.machine.stats.bytes == want.machine.stats.bytes
            assert r.result.machine.stats.messages == want.machine.stats.messages
        snap = svc.stats.snapshot()
        assert snap["instantiations"] >= 1  # template tier visibly used
        assert svc.session.stats["instantiations"] >= 1
        # accounting: every storm request is a hit, an instantiation or a
        # dedup save -- never a fresh pipeline compile
        assert snap["compile_misses"] == 1  # the warming request only


def test_instantiated_artifacts_evict_like_any_cache_entry():
    """The instantiation cache (concrete artifacts minted from a template)
    obeys the session LRU bound; eviction never breaks later serves."""
    opts = CompilerOptions.symbolic(level=3, schedule="round-robin")
    session = CompilerSession(processors=2, options=opts, max_entries=2)
    tiers = []
    for n, p in _SYMBOLIC_PAIRS:
        _, tier = session.compile_traced(
            SYMBOLIC_SRC, bindings={"n": n, "t": 3}, processors=p
        )
        tiers.append(tier)
    assert tiers[0] == "compiled"
    assert all(t == "instantiated" for t in tiers[1:])
    stats = session.stats
    assert stats["evictions"] > 0
    assert stats["entries"] <= 2
    # an evicted shape is re-instantiated (from the retained template),
    # not recompiled
    _, tier = session.compile_traced(
        SYMBOLIC_SRC, bindings={"n": _SYMBOLIC_PAIRS[0][0], "t": 3},
        processors=_SYMBOLIC_PAIRS[0][1],
    )
    assert tier == "instantiated"
    # no full pipeline ran for the re-serve: passes_run is untouched
    assert session.stats["passes_run"] == stats["passes_run"]
    assert session.stats["instantiations"] == stats["instantiations"] + 1


def test_workers_share_one_adi_kernel_set_across_extents():
    """Two workers serve ADI at n = 32 and n = 48 interleaved, every request
    with the same kernel dict: its inverse is swapped whole, unlocked, by
    whichever sweep meets the other extent, and a sweep solves with the
    inverse it read, so every result is the sequential reference's."""
    kernels = adi_kernels(0.1)
    rng = np.random.default_rng(11)
    requests, wants = [], []
    for i in range(16):
        n = (32, 48)[i % 2]
        u0 = rng.standard_normal((n, n))
        requests.append(
            CompileRequest(
                build_adi_program(n), bindings={"t": 4}, inputs={"u": u0}, kernels=kernels
            )
        )
        wants.append(adi_reference(u0, 4, 0.1))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two sweeps' slot reads and swaps
    try:
        with CompileService(processors=4, workers=2) as svc:
            results = svc.run_batch(requests)
    finally:
        sys.setswitchinterval(old)
    for r, want in zip(results, wants):
        assert r.ok, r.error
        assert np.max(np.abs(r.result.value("u") - want)) <= 1e-8
