"""Predicted-vs-observed drift monitoring for executed remaps.

Every remapping copy carries a static prediction — the bytes, messages
and makespan of its plan's :meth:`~repro.spmd.schedule.CommSchedule.ledger`
delta — and the machine ledger measures what actually happened.  The
:class:`DriftMonitor` compares the two per executed remap and publishes
relative-error histograms and mismatch counters into the metrics registry:
an always-on, cheap runtime check of the cost-model invariants (bytes and
messages must match *exactly*; makespan within a float tolerance, since
prediction and machine clock evaluate the same ``cost.phase_time``
formula).  A future wall-clock backend reuses this monitor verbatim with
a looser makespan tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.catalog import REGISTRY
from repro.obs.metrics import REL_ERROR_BUCKETS, MetricsRegistry


def _rel_error(observed: float, predicted: float) -> float:
    if observed == predicted:
        return 0.0
    denom = abs(predicted) if predicted else 1.0
    return abs(observed - predicted) / denom


@dataclass(frozen=True)
class DriftRecord:
    """One remap's prediction-vs-observation comparison."""

    tag: str
    predicted_bytes: int
    observed_bytes: int
    predicted_messages: int
    observed_messages: int
    predicted_makespan: float
    observed_makespan: float

    @property
    def bytes_rel_error(self) -> float:
        """Relative byte drift (0.0 == exact)."""
        return _rel_error(self.observed_bytes, self.predicted_bytes)

    @property
    def messages_rel_error(self) -> float:
        """Relative message-count drift (0.0 == exact)."""
        return _rel_error(self.observed_messages, self.predicted_messages)

    @property
    def makespan_rel_error(self) -> float:
        """Relative makespan drift (0.0 == exact)."""
        return _rel_error(self.observed_makespan, self.predicted_makespan)


@dataclass
class DriftStats:
    """Aggregate drift over one run (``ExecutionResult.drift``)."""

    remaps_checked: int = 0
    byte_mismatches: int = 0
    message_mismatches: int = 0
    makespan_mismatches: int = 0
    max_bytes_rel_error: float = 0.0
    max_messages_rel_error: float = 0.0
    max_makespan_rel_error: float = 0.0
    records: list[DriftRecord] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no checked remap drifted in any dimension."""
        return (
            self.byte_mismatches == 0
            and self.message_mismatches == 0
            and self.makespan_mismatches == 0
        )

    def snapshot(self) -> dict:
        """JSON-able aggregate (records themselves are not serialized)."""
        return {
            "remaps_checked": self.remaps_checked,
            "byte_mismatches": self.byte_mismatches,
            "message_mismatches": self.message_mismatches,
            "makespan_mismatches": self.makespan_mismatches,
            "max_bytes_rel_error": self.max_bytes_rel_error,
            "max_messages_rel_error": self.max_messages_rel_error,
            "max_makespan_rel_error": self.max_makespan_rel_error,
            "clean": self.clean,
        }


class DriftMonitor:
    """Per-executor drift accumulator publishing into the global registry.

    ``makespan_tolerance`` is the *relative* slack before a makespan
    comparison counts as a mismatch; the simulator's prediction and
    ledger share one formula, so the default is float-noise tight.
    Bytes and messages are integers and must match exactly.
    """

    def __init__(
        self,
        makespan_tolerance: float = 1e-9,
        registry: MetricsRegistry = REGISTRY,
        keep_records: int = 64,
    ):
        self.makespan_tolerance = makespan_tolerance
        self.keep_records = keep_records
        self.stats = DriftStats()
        self._checked = registry.counter("repro.drift.remaps_checked")
        self._byte_mism = registry.counter("repro.drift.byte_mismatches")
        self._msg_mism = registry.counter("repro.drift.message_mismatches")
        self._mksp_mism = registry.counter("repro.drift.makespan_mismatches")
        self._bytes_err = registry.histogram(
            "repro.drift.bytes_rel_error", buckets=REL_ERROR_BUCKETS
        )
        self._msgs_err = registry.histogram(
            "repro.drift.messages_rel_error", buckets=REL_ERROR_BUCKETS
        )
        self._mksp_err = registry.histogram(
            "repro.drift.makespan_rel_error", buckets=REL_ERROR_BUCKETS
        )

    def record(self, rec: DriftRecord) -> DriftRecord:
        """Fold one remap's comparison into run stats and the registry."""
        s = self.stats
        s.remaps_checked += 1
        if len(s.records) < self.keep_records:
            s.records.append(rec)
        be, me, ke = rec.bytes_rel_error, rec.messages_rel_error, rec.makespan_rel_error
        s.max_bytes_rel_error = max(s.max_bytes_rel_error, be)
        s.max_messages_rel_error = max(s.max_messages_rel_error, me)
        s.max_makespan_rel_error = max(s.max_makespan_rel_error, ke)
        self._checked.inc()
        self._bytes_err.observe(be)
        self._msgs_err.observe(me)
        self._mksp_err.observe(ke)
        if rec.observed_bytes != rec.predicted_bytes:
            s.byte_mismatches += 1
            self._byte_mism.inc()
        if rec.observed_messages != rec.predicted_messages:
            s.message_mismatches += 1
            self._msg_mism.inc()
        if ke > self.makespan_tolerance:
            s.makespan_mismatches += 1
            self._mksp_mism.inc()
        return rec
