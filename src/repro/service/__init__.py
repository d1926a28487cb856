"""Concurrent compile-and-run service layer.

A thin front door over one :class:`~repro.compiler.session.CompilerSession`:
concurrent requests are served from the session's artifact cache and run
to the same values, bit for bit, as the same requests served one at a
time.  It rests on the guarantees the rest of the repo establishes
(frozen immutable artifacts, plans shared from the process's table,
cost-keyed session caching):

* :class:`~repro.service.service.CompileService` -- accepts single
  requests (:meth:`~repro.service.service.CompileService.submit`) or
  batches (:meth:`~repro.service.service.CompileService.run_batch`) of
  ``(source, bindings, conditions, ...)`` and executes at most
  ``workers`` of them at once, calling threads included: a one-request
  batch runs on the calling thread, so it crosses no thread, and the rest
  run on a worker pool; its cache is ``svc.session``,
  which serves a missed artifact key once however many requests miss it
  together.
* :class:`~repro.service.service.ServiceStats` -- throughput, p50/p99
  latency, cache hits and misses, dedup saves and queue depth, as one
  snapshot.

Quickstart::

    from repro import CompileService

    with CompileService(processors=4, workers=4) as svc:
        results = svc.run_batch(
            [{"source": SOURCE, "bindings": {"n": 64}, "conditions": {"c1": True}}]
        )
        print(results[0].value("a"), svc.stats.snapshot())
"""

from repro.service.service import (
    CompileRequest,
    CompileService,
    ServiceResult,
    ServiceStats,
)

__all__ = [
    "CompileRequest",
    "CompileService",
    "ServiceResult",
    "ServiceStats",
]
