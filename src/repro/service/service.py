"""The concurrent compile-and-run front door.

:class:`CompileService` turns the repo's single-threaded compile/execute
machinery into a thread-safe service: requests -- ``(source, bindings,
conditions, ...)`` tuples -- are accepted individually (:meth:`submit`)
or in batches (:meth:`run_batch`), executed with at most ``workers`` at
once -- a one-request batch on the calling thread, everything else on a
worker pool -- and answered with per-request :class:`ServiceResult`
objects plus an aggregate :class:`ServiceStats` surface (throughput,
p50/p99 latency, cache hits and misses, single-flight dedup saves, queue
depth).

Two mechanisms keep concurrent serving equal to serial serving:

* **one cache, one flight** -- artifacts live in one
  :class:`~repro.compiler.session.CompilerSession` (memory, template and
  disk tiers), which serves a missed key once: concurrent misses of the
  same key wait on the first one's flight instead of racing N identical
  compiles, while compiles of distinct sources overlap.  The service
  calls the session once per request and reports a request that waited
  as ``deduped``;
* **immutable artifacts** -- cached programs are frozen
  (:meth:`~repro.compiler.artifacts.CompiledProgram.freeze`), so any
  number of threads execute the same artifact concurrently, each on its
  own simulated :class:`~repro.spmd.machine.Machine` (see the executor's
  audited concurrency contract).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from typing import Mapping as TypingMapping

import numpy as np

from repro.compiler.artifacts import CompiledProgram, CompilerOptions
from repro.compiler.session import CompilerSession, check_backend
from repro.lang.ast_nodes import Program, Subroutine
from repro.mapping.processors import ProcessorArrangement
from repro.obs.catalog import REGISTRY as _OBS
from repro.obs.metrics import SECONDS_BUCKETS, Histogram
from repro.obs.trace import TRACER as _TRACER
from repro.runtime.executor import ExecutionEnv, ExecutionResult, execute

if TYPE_CHECKING:
    from repro.runtime.mpbackend import MPBackend
    from repro.store import ArtifactStore

__all__ = [
    "CompileRequest",
    "CompileService",
    "ServiceResult",
    "ServiceStats",
]


@dataclass
class CompileRequest:
    """One compile-and-run request, as a client would submit it.

    ``source``/``bindings``/``processors``/``options`` determine the
    compiled artifact (and hence the cache/single-flight identity);
    ``conditions``/``inputs``/``kernels``/``entry`` only affect the
    execution.  ``run=False`` requests compilation alone (cache warming).
    ``backend="mp"`` opts the execution onto real forked worker ranks
    (:mod:`repro.runtime.mpbackend`); results are bit-identical to the
    default simulator, plus a measured ``result.mp`` transport report.
    The service owns those ranks: one pooled backend per processor count,
    forked on the first mp request for it, replaced when a rank dies and
    taken down by :meth:`CompileService.close`; a result owns its bytes,
    so it stays readable while later requests run on the same ranks.
    """

    source: str | Program | Subroutine
    bindings: dict[str, int] | None = None
    conditions: dict | None = None
    inputs: dict | None = None
    kernels: dict | None = None
    entry: str | None = None
    processors: ProcessorArrangement | int | None = None
    options: CompilerOptions | None = None
    check_invariants: bool = False
    dtype: object = None
    run: bool = True
    backend: str = "sim"


@dataclass
class ServiceResult:
    """Per-request outcome: the execution result or the contained error.

    ``cache_source`` is the artifact's provenance: ``"memory"`` (session
    cache hit), ``"instantiated"`` (the session's symbolic template was
    instantiated at this request's shape -- no pipeline front end ran),
    ``"disk"`` (served from the session's persistent
    :class:`~repro.store.ArtifactStore` -- no pipeline ran) or
    ``"compiled"`` (a pipeline ran for this artifact); ``None`` until an
    artifact was obtained.  ``cached`` is the derived boolean (memory,
    instantiated or disk); ``deduped`` says this request missed while
    another was serving the same artifact key, and waited for it (a dedup
    save -- the provenance is then the other request's).  Request handling
    never leaks exceptions: a failed request resolves with ``error`` set
    and ``result=None``.
    """

    index: int
    result: ExecutionResult | None = None
    compiled: CompiledProgram | None = None
    error: BaseException | None = None
    cache_source: str | None = None
    deduped: bool = False
    compile_seconds: float = 0.0
    run_seconds: float = 0.0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the request completed without an error."""
        return self.error is None

    @property
    def cached(self) -> bool:
        """True when the artifact came from a cache tier (memory, a
        symbolic-template instantiation, or disk).

        Derived from :attr:`cache_source` so the two can never diverge.
        """
        return self.cache_source in ("memory", "instantiated", "disk")

    def value(self, name: str) -> np.ndarray:
        """The named array's final global values (raises on failed requests)."""
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result.value(name)


#: Serving tier -> the :class:`ServiceStats` count it lands in, which is
#: also the name of its ``repro.service.*`` registry counter.
_TIER_COUNTS = {
    "memory": "compile_hits",
    "instantiated": "instantiations",
    "disk": "store_hits",
    "compiled": "compile_misses",
}


class ServiceStats:
    """Thread-safe service telemetry: the one count of each service event.

    Counters cover the request lifecycle (submitted / completed / errors),
    the cache interaction (hits, misses, single-flight dedup saves) and
    the queue (current depth, high-water mark), each kept once, here, under
    this object's lock; the metrics registry reads them (:meth:`series`) as
    the ``repro.service.*`` families, save ``queue_depth_max``, its own
    process-wide high-water.  :meth:`snapshot` derives throughput
    (completed requests per wall second between the first submit and the
    last completion); p50/p99 latency come from a fixed-bucket
    :class:`~repro.obs.metrics.Histogram`, within one bucket width of truth
    at any volume.

    Accounting invariant: every completed request that *obtained an
    artifact* is exactly one of ``compile_hits`` (session memory hit) /
    ``instantiations`` (a symbolic template instantiated at the request's
    shape) / ``store_hits`` (served from the persistent disk store) /
    ``compile_misses`` (a pipeline ran) / ``dedup_saves``; requests that
    failed before obtaining one count only in ``errors`` (a source that
    does not parse fails at first contact, before the session counts it;
    a compile that fails later is still a session miss, so the session's
    statistics additionally see those attempts).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.errors = 0
        self.compile_hits = 0
        self.compile_misses = 0
        self.store_hits = 0
        self.instantiations = 0
        self.dedup_saves = 0
        self.queue_depth = 0
        self.max_queue_depth = 0
        self.latency = Histogram("service.latency_seconds", buckets=SECONDS_BUCKETS)
        self._first_submit: float | None = None
        self._last_done: float | None = None

    # -- lifecycle hooks (called by the service) ---------------------------

    def record_submit(self, now: float) -> int:
        """Count one submit; return its index, the number of submits before it."""
        with self._lock:
            index = self.submitted
            self.submitted += 1
            self.queue_depth += 1
            self.max_queue_depth = max(self.max_queue_depth, self.queue_depth)
            if self._first_submit is None:
                self._first_submit = now
            depth = self.queue_depth
        _OBS.gauge("repro.service.queue_depth_max").set_max(depth)
        return index

    def record_start(self) -> None:
        with self._lock:
            self.queue_depth -= 1

    def record_submit_failed(self) -> None:
        """Undo one :meth:`record_submit` whose request never reached a worker."""
        with self._lock:
            self.submitted -= 1
            self.queue_depth -= 1

    def record_done(self, res: ServiceResult, now: float) -> None:
        # a request that waited on another's flight is a dedup save: the
        # session counted it neither a hit nor a miss
        count = None
        if res.compiled is not None:
            count = "dedup_saves" if res.deduped else _TIER_COUNTS[res.cache_source]
        with self._lock:
            self.completed += 1
            if res.error is not None:
                self.errors += 1
            if count is not None:
                setattr(self, count, getattr(self, count) + 1)
            self._last_done = now
        self.latency.observe(res.seconds)

    def series(self) -> dict:
        """The counts as ``repro.service.*`` families (each read is one int)."""
        counts = ("errors", "dedup_saves", "queue_depth", *_TIER_COUNTS.values())
        return {
            "repro.service.requests_submitted": self.submitted,
            "repro.service.requests_completed": self.completed,
            **{f"repro.service.{count}": getattr(self, count) for count in counts},
            "repro.service.request_seconds": self.latency,
        }

    # -- derived -----------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """A consistent point-in-time view of every service metric."""
        with self._lock:
            elapsed = (
                (self._last_done - self._first_submit)
                if self._first_submit is not None and self._last_done is not None
                else 0.0
            )
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "errors": self.errors,
                "compile_hits": self.compile_hits,
                "compile_misses": self.compile_misses,
                "store_hits": self.store_hits,
                "instantiations": self.instantiations,
                "dedup_saves": self.dedup_saves,
                "queue_depth": self.queue_depth,
                "max_queue_depth": self.max_queue_depth,
                "throughput_rps": (self.completed / elapsed) if elapsed > 0 else 0.0,
                "p50_latency_ms": self.latency.quantile(0.50) * 1e3,
                "p99_latency_ms": self.latency.quantile(0.99) * 1e3,
                "elapsed_seconds": elapsed,
            }


@dataclass
class _Ranks:
    """One processor count's pooled mp backend and the lock its runs hold.

    A transport is a single conversation between the parent and its ranks,
    so checkout, run and (on a fault) replacement happen under ``lock``."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    backend: MPBackend | None = None


class CompileService:
    """Thread-safe compile-and-run service over one compiler session.

    ``workers`` is the number of requests executing at once, calling
    threads included: a one-request :meth:`run_batch` runs on the calling
    thread, :meth:`submit` and longer batches hand their requests to a
    worker pool, and each execution holds one of ``workers`` slots.  A
    request waiting for a slot is queued, which :class:`ServiceStats`
    exposes as queue depth; a service used only through one-request
    batches starts no thread.  The service serves
    from ``self.session``, one
    :class:`~repro.compiler.session.CompilerSession` with the given
    ``processors``, ``options`` and ``store`` and the session's own
    capacity.  ``store`` (an
    :class:`~repro.store.ArtifactStore` or a path) gives that session a
    persistent disk tier: a restarted service warm-starts from the
    artifacts earlier processes compiled, visible per request as
    ``ServiceResult.cache_source == "disk"`` and in aggregate as
    ``store_hits`` in :class:`ServiceStats`.

    Use as a context manager (or call :meth:`close`) to shut the worker
    pool and the mp ranks down deterministically::

        with CompileService(processors=4, workers=4) as svc:
            results = svc.run_batch([{"source": SRC, "bindings": {"n": 16}}])
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
        store: "ArtifactStore | str | None" = None,
        shards: int = 1,
        max_entries_per_shard: int | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # shards= / max_entries_per_shard= survive only because the layered
        # benchmark sizes its cache with them (benchmarks/layers/workloads.py):
        # one session of their product
        sized = {}
        if max_entries_per_shard is not None:
            sized["max_entries"] = shards * max_entries_per_shard
        self.session = CompilerSession(processors, options, store=store, **sized)
        self.workers = workers
        self.stats = ServiceStats()
        _OBS.read(self.stats.series, owner=self)
        # one slot per executing request, whichever thread runs it; the
        # pool starts its threads on its first submit, not here
        self._slots = threading.BoundedSemaphore(workers)
        self._closing = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )
        # the service owns its worker ranks: one started backend per
        # processor count, forked on the first mp request for it, kept for
        # the service's life; None once close() has taken them down
        self._ranks: dict[int, _Ranks] | None = {}
        self._ranks_lock = threading.Lock()
        self._closed = False

    # -- request handling --------------------------------------------------

    @staticmethod
    def _coerce(request: CompileRequest | TypingMapping | str, **fields) -> CompileRequest:
        if isinstance(request, (str, Program, Subroutine)):
            return CompileRequest(source=request, **fields)
        if fields:
            raise TypeError("keyword fields are only allowed with a bare source")
        if isinstance(request, CompileRequest):
            return request
        if isinstance(request, TypingMapping):
            return CompileRequest(**request)
        raise TypeError(
            "a request must be a CompileRequest or a mapping of its fields, "
            f"not {type(request).__name__}"
        )

    def _handle(self, request: CompileRequest, index: int) -> ServiceResult:
        self.stats.record_start()
        t0 = time.perf_counter()
        res = ServiceResult(index=index)
        # a root span whatever the running thread has open (a caller running
        # its own request may be inside a span): it mints a fresh trace id,
        # the request's correlation id across every layer
        with _TRACER.span("service.request", root=True, index=index) as root:
            try:
                check_backend(request.backend)  # before any work is spent
                tc = time.perf_counter()
                with _TRACER.span("service.compile") as cspan:
                    compiled, res.cache_source, res.deduped = self.session.obtain(
                        request.source, request.bindings, request.processors, request.options
                    )
                    cspan.set_attr("tier", res.cache_source)
                    cspan.set_attr("deduped", res.deduped)
                res.compiled = compiled
                res.compile_seconds = time.perf_counter() - tc
                if request.run:
                    tr = time.perf_counter()
                    env = ExecutionEnv(
                        conditions=dict(request.conditions or {}),
                        bindings=dict(request.bindings or {}),
                        kernels=dict(request.kernels or {}),
                        inputs=dict(request.inputs or {}),
                        check_invariants=request.check_invariants,
                        dtype=np.float64 if request.dtype is None else request.dtype,
                    )
                    with _TRACER.span("service.run", backend=request.backend):
                        if request.backend == "mp":
                            res.result = self._execute_mp(compiled, request.entry, env)
                        else:
                            res.result = execute(compiled, entry=request.entry, env=env)
                    res.run_seconds = time.perf_counter() - tr
            except BaseException as exc:
                res.error = exc
                root.set_attr("error", type(exc).__name__)
        res.seconds = time.perf_counter() - t0
        self.stats.record_done(res, time.perf_counter())
        return res

    def _run_pooled(self, request: CompileRequest, index: int) -> ServiceResult:
        with self._slots:
            return self._handle(request, index)

    def _execute_mp(
        self, compiled: CompiledProgram, entry: str | None, env: ExecutionEnv
    ) -> ExecutionResult:
        """Run on the pooled ranks of the artifact's processor count.

        Checkout asks every rank's process whether it is alive (no round
        trip) and replaces a backend that lost one -- a transport whose
        exchange failed has already killed its ranks, so the faulted
        request's error is stored only after they are gone and the next
        request finds a fresh backend.
        """
        # imported on the first mp request: a service that never sees one
        # pays neither multiprocessing's import (~18 ms) nor its ~1 MiB
        from repro.runtime.mpbackend import MPBackend

        size = compiled.processors.size
        with self._ranks_lock:
            if self._ranks is None:
                raise RuntimeError("CompileService is closed")
            ranks = self._ranks.setdefault(size, _Ranks())
        with ranks.lock:
            if ranks.backend is not None and not ranks.backend.transport.alive():
                ranks.backend.transport.kill()
                ranks.backend = None
            if ranks.backend is None:
                ranks.backend = MPBackend(size)
            return ranks.backend.execute(compiled, entry=entry, env=env)

    def submit(
        self, request: CompileRequest | TypingMapping | str, /, **fields
    ) -> "Future[ServiceResult]":
        """Enqueue one request; the future resolves to a :class:`ServiceResult`.

        Accepts a :class:`CompileRequest`, a mapping of its fields, or the
        source plus the fields as keywords (``svc.submit(SRC, bindings=...,
        conditions=...)``).  The future never raises for request-level
        failures -- inspect ``result.error``.
        """
        if self._closed:
            raise RuntimeError("CompileService is closed")
        req = self._coerce(request, **fields)
        index = self.stats.record_submit(time.perf_counter())
        try:
            return self._executor.submit(self._run_pooled, req, index)
        except RuntimeError:
            # close() raced past the _closed check: the request will never
            # run, so take it back out of the submitted/queue gauges
            self.stats.record_submit_failed()
            raise

    def run_batch(
        self, requests: "list[CompileRequest | TypingMapping | str]"
    ) -> list[ServiceResult]:
        """Run a batch and wait; results come back in request order.

        A one-request batch runs on the calling thread, in one of the
        ``workers`` slots, so it never crosses a thread; a longer batch is
        submitted to the pool.  Concurrent misses of one artifact key across
        the batch are served once, by the session, and at most ``workers``
        requests execute at once.
        """
        if len(requests) != 1:
            futures = [self.submit(r) for r in requests]  # submit coerces
            results = [f.result() for f in futures]
        else:
            results = [self._run_here(self._coerce(requests[0]))]
        for i, r in enumerate(results):
            r.index = i  # batch position, authoritative over submit order
        return results

    def _run_here(self, request: CompileRequest) -> ServiceResult:
        """Run one request on the calling thread, in an execution slot."""
        if self._closed:
            raise RuntimeError("CompileService is closed")
        index = self.stats.record_submit(time.perf_counter())
        with self._slots:
            if self._closed:  # close() began while this caller waited for a slot
                self.stats.record_submit_failed()
                raise RuntimeError("CompileService is closed")
            res = self._handle(request, index)
        if isinstance(res.error, (KeyboardInterrupt, SystemExit)):
            raise res.error  # the caller's own interrupt, not a request failure
        return res

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool and the mp ranks; further requests raise.

        It returns once no request executes on any thread -- the pool's
        queue drained and every slot free -- and only then takes the ranks
        down.
        """
        self._closed = True
        self._executor.shutdown(wait=True)
        # all the slots at once, so two closers must not each hold some
        with self._closing:
            for _ in range(self.workers):
                self._slots.acquire()
            for _ in range(self.workers):
                self._slots.release()
        with self._ranks_lock:
            pooled, self._ranks = self._ranks or {}, None
        for ranks in pooled.values():
            with ranks.lock:  # a run still in flight finishes first
                if ranks.backend is not None:
                    ranks.backend.close()
                    ranks.backend = None

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
