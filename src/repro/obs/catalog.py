"""The metric catalog: every ``repro.*`` metric the system publishes.

The default :data:`REGISTRY` refuses to create a ``repro.``-namespaced
metric that is not declared here, which makes this module the exhaustive
inventory of the observability surface.  ``docs/OBSERVABILITY.md`` embeds
:func:`metric_catalog_table` verbatim and ``tests/test_docs.py`` diffs
the two, the same way ``docs/PASSES.md`` tracks the pass registry.
"""

from __future__ import annotations

from repro.obs.metrics import MetricSpec, MetricsRegistry


def _specs() -> tuple[MetricSpec, ...]:
    c, g, h = "counter", "gauge", "histogram"
    return (
        # -- compiler pipeline ------------------------------------------------
        MetricSpec("repro.compiler.pipelines_run", c, "Pipeline.run_context invocations."),
        MetricSpec("repro.compiler.passes_run", c, "Pass executions, labeled by pass name.", ("pass",)),
        MetricSpec("repro.compiler.pass_seconds", h, "Per-pass wall time, labeled by pass name.", ("pass",)),
        # -- session tiers ----------------------------------------------------
        MetricSpec("repro.session.hits", c, "In-memory artifact cache hits."),
        MetricSpec("repro.session.misses", c, "In-memory artifact cache misses."),
        MetricSpec("repro.session.evictions", c, "LRU evictions from the in-memory artifact cache."),
        MetricSpec("repro.session.store_hits", c, "Artifacts served from the persistent store."),
        MetricSpec("repro.session.store_writes", c, "Artifacts written back to the persistent store."),
        MetricSpec("repro.session.instantiations", c, "Artifacts served by symbolic-template instantiation."),
        MetricSpec("repro.session.compile_seconds", h, "compile_traced wall time, labeled by serving tier.", ("tier",)),
        # -- schedule subsystem ----------------------------------------------
        MetricSpec("repro.schedule.plans_lowered", c, "Plans lowered to copy descriptors (first execution of a plan object)."),
        # -- service front door ----------------------------------------------
        MetricSpec("repro.service.requests_submitted", c, "Requests accepted by CompileService."),
        MetricSpec("repro.service.requests_completed", c, "Requests finished (including errors)."),
        MetricSpec("repro.service.errors", c, "Requests that raised."),
        MetricSpec("repro.service.compile_hits", c, "Requests served from warm session caches."),
        MetricSpec("repro.service.compile_misses", c, "Requests that ran the full pipeline."),
        MetricSpec("repro.service.store_hits", c, "Requests served from the persistent store."),
        MetricSpec("repro.service.instantiations", c, "Requests served by template instantiation."),
        MetricSpec("repro.service.dedup_saves", c, "Requests coalesced by single-flight dedup."),
        MetricSpec("repro.service.queue_depth", g, "Requests currently in flight."),
        MetricSpec("repro.service.queue_depth_max", g, "High-water mark of in-flight requests."),
        MetricSpec("repro.service.request_seconds", h, "End-to-end request latency."),
        # -- persistent artifact store ---------------------------------------
        MetricSpec("repro.store.hits", c, "Store loads served, labeled by artifact kind.", ("kind",)),
        MetricSpec("repro.store.misses", c, "Store lookups that found nothing usable."),
        MetricSpec("repro.store.writes", c, "Artifacts persisted to disk."),
        MetricSpec("repro.store.corrupt_evicted", c, "Entries evicted on digest/unpickle failure."),
        MetricSpec("repro.store.semantic_evicted", c, "Entries evicted by semantic verification."),
        MetricSpec("repro.store.lru_evicted", c, "Entries evicted by the capacity bound."),
        # -- simulated machine ------------------------------------------------
        MetricSpec("repro.machine.phases", c, "Communication phases executed on the phase clock."),
        MetricSpec("repro.machine.phase_seconds", h, "Modeled duration of each executed phase."),
        # -- runtime executor -------------------------------------------------
        MetricSpec("repro.runtime.runs", c, "Executor.run invocations."),
        MetricSpec("repro.runtime.run_seconds", h, "Executor.run wall time."),
        MetricSpec("repro.runtime.bytes_moved", c, "Remap bytes moved between ranks."),
        MetricSpec("repro.runtime.messages", c, "Remap messages between ranks."),
        MetricSpec("repro.runtime.remaps_performed", c, "Remap statements that moved data."),
        MetricSpec("repro.runtime.remaps_skipped", c, "Remap statements skipped (dead/unneeded)."),
        # -- multi-process transport -------------------------------------------
        MetricSpec("repro.mp.workers", g, "Live forked worker ranks of the mp transport."),
        MetricSpec("repro.mp.exchanges", c, "Remapping exchanges executed over the transport."),
        MetricSpec("repro.mp.phases", c, "Transfer rounds the worker ranks ran (every exchange's, summed)."),
        MetricSpec("repro.mp.messages", c, "Real inter-process messages carried over the pipes."),
        MetricSpec("repro.mp.bytes_moved", c, "Payload bytes carried between worker ranks."),
        MetricSpec("repro.mp.phase_wall_seconds", h, "Worker-clock span of each round: last participant's end minus first one's start."),
        MetricSpec("repro.mp.phase_port_seconds", h, "Measured one-port-clock duration of each round."),
        # -- tracing ----------------------------------------------------------
        MetricSpec("repro.trace.spans_recorded", c, "Finished spans retained in the trace buffer."),
        MetricSpec("repro.trace.spans_dropped", c, "Finished spans dropped by the buffer bound."),
    )


CATALOG: dict[str, MetricSpec] = {s.name: s for s in _specs()}
"""Name -> spec for every published ``repro.*`` metric."""

REGISTRY = MetricsRegistry(catalog=CATALOG)
"""The process-wide default registry all repro subsystems publish into."""


def metric_catalog_table() -> str:
    """Render the catalog as the markdown table embedded in docs/OBSERVABILITY.md."""
    lines = [
        "| metric | kind | labels | description |",
        "| --- | --- | --- | --- |",
    ]
    for spec in sorted(CATALOG.values(), key=lambda s: s.name):
        labels = ", ".join(f"`{label}`" for label in spec.labels) or "—"
        lines.append(f"| `{spec.name}` | {spec.kind} | {labels} | {spec.help} |")
    return "\n".join(lines) + "\n"
