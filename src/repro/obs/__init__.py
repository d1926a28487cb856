"""Unified observability: metrics registry and request tracing.

Everything the system knows about itself flows through this package
under one ``repro.<subsystem>.<name>`` namespace:

* :data:`REGISTRY` (:mod:`repro.obs.metrics`) -- the thread-safe
  process-wide metrics registry (counters, gauges, fixed-bucket
  exponential histograms) every subsystem publishes into, exportable as
  JSON (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`) or
  Prometheus text; the exhaustive metric inventory lives in
  :mod:`repro.obs.catalog` and is sync-enforced against
  ``docs/OBSERVABILITY.md``.
* :data:`TRACER` (:mod:`repro.obs.trace`) -- request-scoped structured
  tracing: per-request trace IDs propagate service → session tier →
  plan replay → per-phase execution, and single-flight followers link
  to their leader's span.  Off by default (``REPRO_TRACE=1`` or
  ``TRACER.enabled = True``); dumps self-contained Chrome
  ``trace_event`` JSON for flamegraph viewing.

``python -m repro.obs`` (:mod:`repro.obs.cli`) prints snapshots, diffs
two snapshots, and aggregates trace dumps into top-span tables.
"""

from repro.obs.catalog import CATALOG, REGISTRY, metric_catalog_table
from repro.obs.metrics import (
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricSpec,
    MetricsRegistry,
    exponential_buckets,
    metrics_disabled,
    metrics_enabled,
    prometheus_from_snapshot,
    set_metrics_enabled,
    snapshot_diff,
)
from repro.obs.trace import TRACER, Span, Tracer, top_spans, validate_spans

__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "MetricsRegistry",
    "REGISTRY",
    "SCHEMA_VERSION",
    "Span",
    "TRACER",
    "Tracer",
    "exponential_buckets",
    "metric_catalog_table",
    "metrics_disabled",
    "metrics_enabled",
    "prometheus_from_snapshot",
    "set_metrics_enabled",
    "snapshot_diff",
    "top_spans",
    "validate_spans",
]
