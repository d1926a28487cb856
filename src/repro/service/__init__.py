"""Concurrent compile-and-run service layer.

The north-star deployment for this compiler is *request-time* compilation:
sources arrive as traffic, and compile latency plus cache hit rate are the
product.  This subpackage is that front door, built on the guarantees the
rest of the repo establishes (frozen immutable artifacts, per-artifact
``CommPlan`` replay, cost-keyed session caching):

* :class:`~repro.service.pool.SessionPool` -- the artifact cache as N
  digest-sharded, individually locked LRU
  :class:`~repro.compiler.session.CompilerSession` shards; concurrent
  compiles of distinct sources never contend on one lock.
* :class:`~repro.service.service.CompileService` -- accepts single
  requests (:meth:`~repro.service.service.CompileService.submit`) or
  batches (:meth:`~repro.service.service.CompileService.run_batch`) of
  ``(source, bindings, conditions, ...)``, deduplicates identical
  in-flight compiles (single-flight), and executes on a bounded worker
  pool.
* :class:`~repro.service.service.ServiceStats` -- throughput, p50/p99
  latency, shard hit rates, dedup saves and queue depth, as one snapshot.

Quickstart::

    from repro import CompileService

    with CompileService(processors=4, workers=4) as svc:
        results = svc.run_batch(
            [{"source": SOURCE, "bindings": {"n": 64}, "conditions": {"c1": True}}]
        )
        print(results[0].value("a"), svc.stats.snapshot())
"""

from repro.service.pool import SessionPool
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
    "SessionPool",
]
