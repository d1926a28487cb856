"""Message records and traffic statistics.

Every remapping copy executed on the simulated machine is decomposed into
point-to-point messages; :class:`TrafficStats` aggregates them so benchmarks
can report exactly what the paper argues about -- remapping communication
volume -- plus the counters the runtime optimizations affect (remappings
performed, skipped because the target copy was live, copies elided because
the target is dead, ...).

Per-array and per-tag breakdowns record where the bytes and messages went,
and ``phases`` makes the communication-schedule subsystem's effect
observable: how many contention-managed rounds a run executed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ScheduleError
from repro.obs.catalog import REGISTRY as _OBS
from repro.obs.metrics import Binned

#: the histogram a delta's phase durations are binned for, when the delta is
#: built; :meth:`~repro.spmd.machine.Machine.charge` is what adds them
PHASE_SECONDS = _OBS.histogram("repro.machine.phase_seconds")


def one_port_problems(pairs: Iterable[tuple[int, int]]) -> list[str]:
    """Every one-port violation in a phase's (sender, receiver) pairs.

    The shared predicate behind both the runtime check
    (:func:`check_one_port`) and the compile-time proof
    (:mod:`repro.analysis.commsafety`): an empty list *is* the one-port
    property.  Reports all violations, not just the first, so static
    diagnostics can show the full damage of a bad phase.
    """
    problems: list[str] = []
    senders: set[int] = set()
    receivers: set[int] = set()
    for src, dst in pairs:
        if src == dst:
            problems.append(
                f"local copy (rank {src}) inside a phase; local transfers "
                "are not messages"
            )
            continue
        if src in senders:
            problems.append(
                f"rank {src} sends twice in one contention-free phase"
            )
        if dst in receivers:
            problems.append(
                f"rank {dst} receives twice in one contention-free phase"
            )
        senders.add(src)
        receivers.add(dst)
    return problems


def check_one_port(pairs: Iterable[tuple[int, int]]) -> None:
    """Enforce the one-port property of a contention-free phase.

    ``pairs`` are the (sender, receiver) ranks of one phase's messages;
    the single shared authority a plan's ledger
    (:meth:`~repro.spmd.schedule.CommSchedule.ledger`), the ad-hoc
    :meth:`Machine.run_phase` and the mp transport all delegate to.
    """
    problems = one_port_problems(pairs)
    if problems:
        raise ScheduleError(problems[0])


@dataclass(frozen=True)
class Message:
    """One point-to-point message of a remapping copy."""

    src: int  # linear sender rank
    dst: int  # linear receiver rank
    nbytes: int
    elements: int
    array: str = ""
    tag: str = ""


def message_of(part, itemsize: int, array: str = "", tag: str = "") -> Message:
    """The ledger entry of one lowered copy or packed message: anything with
    ``src_rank``, ``dst_rank`` and an ``elements`` count (for ad-hoc
    :meth:`Machine.transfer` callers; plans charge a :class:`LedgerDelta`)."""
    return Message(
        part.src_rank, part.dst_rank, part.elements * itemsize, part.elements, array, tag
    )


@dataclass(frozen=True)
class LedgerDelta:
    """Everything a set of messages adds to the machine's ledger: a pure
    function of the messages, the cost model and the element size, so a
    plan works it out once (:meth:`~repro.spmd.schedule.CommSchedule.ledger`)
    and every run charges it in one :meth:`~repro.spmd.machine.Machine.charge`.
    Everything ``charge`` would derive from the messages is derived here,
    once: each rank's clock increment is one sum, the barrier is
    ``makespan``, and the phase durations are already binned for the
    ``repro.machine.phase_seconds`` histogram.  Clocks and
    ``phase_seconds`` are *modeled* values: charged as sums they equal
    per-message accounting to relative 1e-12, not bit for bit; every
    integral count is exact.
    """

    messages: int
    bytes: int
    local_copies: int
    local_bytes: int
    durations: tuple[float, ...]  # one per non-empty phase
    makespan: float  # their sum: total phase-clock time, what every clock advances by
    binned: Binned  # ``durations`` in :data:`PHASE_SECONDS`' buckets
    #: (rank, the sum of its increments from the unphased transfers)
    rank_seconds: tuple[tuple[int, float], ...]
    #: (src, dst, nbytes, elements) of every message, in log order
    headers: tuple[tuple[int, int, int, int], ...]


def ledger_delta(cost, unphased=(), phases=()) -> LedgerDelta:
    """The delta of ``(src, dst, nbytes, elements)`` headers under ``cost``:
    ``unphased`` ones charged one by one on their endpoints' clocks (``src ==
    dst`` is a local copy, not a message), ``phases`` as ``(contended,
    headers)`` rounds on the phase clock, each lasting
    :meth:`~repro.spmd.cost.CostModel.phase_time` (an empty one is free)."""
    seconds_of: dict[int, float] = {}
    log: list[tuple[int, int, int, int]] = []
    local_bytes = []
    for header in unphased:
        src, dst, nbytes, _ = header
        if src == dst:
            local_bytes.append(nbytes)
            seconds_of[src] = seconds_of.get(src, 0.0) + cost.local_copy_cost(nbytes)
        else:
            log.append(header)
            seconds = cost.message_cost(nbytes)
            seconds_of[src] = seconds_of.get(src, 0.0) + seconds
            seconds_of[dst] = seconds_of.get(dst, 0.0) + seconds
    durations = []
    for contended, headers in phases:
        if headers:
            log.extend(headers)
            durations.append(cost.phase_time([h[:3] for h in headers], contended))
    return LedgerDelta(
        messages=len(log),
        bytes=sum(h[2] for h in log),
        local_copies=len(local_bytes),
        local_bytes=sum(local_bytes),
        durations=tuple(durations),
        makespan=sum(durations, 0.0),
        binned=PHASE_SECONDS.bin(durations),
        rank_seconds=tuple(seconds_of.items()),
        headers=tuple(log),
    )


@dataclass
class TrafficStats:
    """Aggregate communication and remapping counters."""

    messages: int = 0
    bytes: int = 0
    local_copies: int = 0
    local_bytes: int = 0
    remaps_performed: int = 0
    remaps_skipped_live: int = 0  # target copy was live: no communication at all
    remaps_skipped_status: int = 0  # array already mapped as required (Sec. 4.3)
    remaps_dead_copy: int = 0  # U = D: allocated without communication
    status_checks: int = 0
    allocations: int = 0
    frees: int = 0
    evictions: int = 0
    phases: int = 0  # communication phases run on the phase clock
    per_array_bytes: dict[str, int] = field(default_factory=dict)
    per_array_messages: dict[str, int] = field(default_factory=dict)
    per_tag_bytes: dict[str, int] = field(default_factory=dict)
    per_tag_messages: dict[str, int] = field(default_factory=dict)

    def record(self, delta: LedgerDelta, array: str = "", tag: str = "") -> None:
        """Add one delta's traffic, its messages filed under ``array``/``tag``."""
        self.local_copies += delta.local_copies
        self.local_bytes += delta.local_bytes
        self.phases += len(delta.durations)
        if not delta.messages:
            return
        self.messages += delta.messages
        self.bytes += delta.bytes
        if array:
            self.per_array_bytes[array] = self.per_array_bytes.get(array, 0) + delta.bytes
            self.per_array_messages[array] = self.per_array_messages.get(array, 0) + delta.messages
        if tag:
            self.per_tag_bytes[tag] = self.per_tag_bytes.get(tag, 0) + delta.bytes
            self.per_tag_messages[tag] = self.per_tag_messages.get(tag, 0) + delta.messages

    # -- breakdown accessors -------------------------------------------------

    def array_breakdown(self) -> dict[str, dict[str, int]]:
        """Per-array ``{"bytes": ..., "messages": ...}``, largest first."""
        names = sorted(
            self.per_array_bytes, key=self.per_array_bytes.get, reverse=True
        )
        return {
            name: {
                "bytes": self.per_array_bytes[name],
                "messages": self.per_array_messages.get(name, 0),
            }
            for name in names
        }

    def tag_breakdown(self) -> dict[str, dict[str, int]]:
        """Per-remapping-tag ``{"bytes": ..., "messages": ...}``, largest first."""
        tags = sorted(self.per_tag_bytes, key=self.per_tag_bytes.get, reverse=True)
        return {
            tag: {
                "bytes": self.per_tag_bytes[tag],
                "messages": self.per_tag_messages.get(tag, 0),
            }
            for tag in tags
        }

    def snapshot(self) -> dict[str, int]:
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "local_copies": self.local_copies,
            "local_bytes": self.local_bytes,
            "remaps_performed": self.remaps_performed,
            "remaps_skipped_live": self.remaps_skipped_live,
            "remaps_skipped_status": self.remaps_skipped_status,
            "remaps_dead_copy": self.remaps_dead_copy,
            "status_checks": self.status_checks,
            "allocations": self.allocations,
            "frees": self.frees,
            "evictions": self.evictions,
            "phases": self.phases,
            # derived, not counted: benchmarks/layers/probes.py still reads both
            # keys (every performed copy obtains its plan from the table)
            "plans_built": self.remaps_performed,
            "plans_reused": 0,
        }

    def diff(self, earlier: dict[str, int]) -> dict[str, int]:
        """Counter deltas since an earlier :meth:`snapshot`."""
        now = self.snapshot()
        return {k: now[k] - earlier.get(k, 0) for k in now}
