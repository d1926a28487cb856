"""The simulated machine: processors, memories, clocks, traffic log.

A :class:`Machine` is deliberately passive -- it is a ledger.  The
redistribution engine and the runtime executor tell it what happens
(messages, local copies, allocations) and it accounts simulated time per
processor, memory per processor, and global traffic statistics.

Simulated elapsed time follows the usual LogP-ish convention: each message
charges its cost to both endpoints' clocks, and :attr:`elapsed` is the
maximum processor clock, so perfectly parallel all-to-all phases cost what
the busiest processor pays, not the sum.

:meth:`charge` is the single entry: it applies a
:class:`~repro.spmd.message.LedgerDelta`, what a whole plan adds to the
ledger (:meth:`~repro.spmd.schedule.CommSchedule.ledger`, worked out once
per plan).  The delta's phases run on the one-port phase clock: a phase is
one bulk-synchronous round of messages.  A *contention-free* round (each
rank sends at most once and receives at most once -- validated when the
ledger is built, a violation raises :exc:`~repro.errors.ScheduleError`)
runs at full port speed and lasts as long as its largest message; a
*contended* round (the naive all-at-once baseline) serializes each port
and lasts as long as the busiest port.  Every processor's clock advances
by the round's duration (the barrier), and :attr:`phase_seconds`
accumulates the total phase-clock time, directly comparable with the
static :meth:`~repro.spmd.schedule.CommSchedule.makespan`.
:meth:`transfer` and :meth:`run_phase` charge an ad-hoc message or round.

Clocks and :attr:`phase_seconds` are *modeled* values.  A delta carries
one summed increment per rank and one makespan, worked out where it is
built, so a charged plan equals adding its messages one at a time to
relative 1e-12, not bit for bit; every integral count (the traffic
statistics, the message log, the histogram's buckets) is exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import OutOfMemoryError, RuntimeRemapError
from repro.mapping.processors import ProcessorArrangement
from repro.spmd.cost import CostModel
from repro.spmd.message import (
    PHASE_SECONDS as _M_PHASE_SECONDS,
    LedgerDelta,
    Message,
    TrafficStats,
    check_one_port,
    ledger_delta,
)


@dataclass
class _ProcState:
    clock: float = 0.0
    mem_used: int = 0
    mem_peak: int = 0


class Machine:
    """A P-processor distributed-memory machine."""

    def __init__(
        self,
        processors: ProcessorArrangement | int,
        cost: CostModel | None = None,
        memory_limit: int | None = None,
        log_messages: bool = False,
    ):
        if isinstance(processors, int):
            processors = ProcessorArrangement("P", (processors,))
        self.processors = processors
        self.cost = cost or CostModel()
        self.memory_limit = memory_limit  # bytes per processor, None = unlimited
        self.stats = TrafficStats()
        self.log_messages = log_messages
        self.message_log: list[Message] = []
        self.phase_seconds = 0.0  # total time spent on the phase clock
        self._procs = [_ProcState() for _ in range(processors.size)]

    # -- basic queries -------------------------------------------------------

    @property
    def size(self) -> int:
        return self.processors.size

    @property
    def elapsed(self) -> float:
        """Simulated elapsed time = busiest processor's clock."""
        return max((p.clock for p in self._procs), default=0.0)

    def mem_used(self, rank: int) -> int:
        return self._procs[rank].mem_used

    def mem_peak(self) -> int:
        return max((p.mem_peak for p in self._procs), default=0)

    # -- events --------------------------------------------------------------

    def charge(self, delta: LedgerDelta, array: str = "", tag: str = "") -> None:
        """Add one delta to the ledger: the only writer of the traffic
        counters, the clocks, :attr:`phase_seconds`, the message log and the
        ``repro.machine.*`` metrics.  ``array`` and ``tag`` label the
        delta's messages.  Nothing is derived here: each rank's unphased
        seconds are one sum, the phases advance every clock by the delta's
        makespan (the barrier) and reach the histogram already binned.
        """
        self.stats.record(delta, array, tag)
        if self.log_messages:
            self.message_log.extend(Message(*header, array, tag) for header in delta.headers)
        procs = self._procs
        for rank, seconds in delta.rank_seconds:
            procs[rank].clock += seconds
        if delta.durations:
            makespan = delta.makespan
            for proc in procs:
                proc.clock += makespan
            self.phase_seconds += makespan
            _M_PHASE_SECONDS.add(delta.binned)

    def transfer(self, msg: Message) -> None:
        """Charge one ad-hoc message (a local copy if src==dst) as a one-off delta."""
        header = (msg.src, msg.dst, msg.nbytes, msg.elements)
        self.charge(ledger_delta(self.cost, [header]), msg.array, msg.tag)

    def run_phase(
        self,
        messages: Sequence[Message],
        contended: bool = False,
        verified: bool = False,
    ) -> float:
        """Charge one ad-hoc round as a one-off delta, filed under the first
        message's array and tag; returns its duration.

        A contention-free round must satisfy the one-port property (local
        copies never belong in a phase -- use :meth:`transfer`) unless
        ``verified=True`` promises it does; a contended round
        (``contended=True``) allows arbitrary message sets.
        """
        if not messages:
            return 0.0
        if not contended and not verified:
            check_one_port((m.src, m.dst) for m in messages)
        headers = [(m.src, m.dst, m.nbytes, m.elements) for m in messages]
        delta = ledger_delta(self.cost, phases=[(contended, headers)])
        self.charge(delta, messages[0].array, messages[0].tag)
        return delta.durations[0]

    def compute(self, rank: int, seconds: float) -> None:
        """Charge local computation time to one processor."""
        self._procs[rank].clock += seconds

    def status_check(self) -> None:
        """The runtime's cheap 'is the array already mapped as required' test."""
        self.stats.status_checks += 1
        for p in self._procs:
            p.clock += self.cost.status_check_cost()

    # -- memory accounting ------------------------------------------------------

    def allocate_set(self, name: str, blocks: Sequence[tuple[int, int]]) -> None:
        """Account one array version's ``(rank, nbytes)`` blocks as a set:
        every rank must fit under the limit before any is charged, so a
        version that does not fit leaves the ledger as it was.  This is the
        one fit check: the memory manager evicts on its
        :exc:`~repro.errors.OutOfMemoryError` and retries."""
        procs = self._procs
        limit = self.memory_limit
        if limit is not None:
            for rank, nbytes in blocks:
                if procs[rank].mem_used + nbytes > limit:
                    raise OutOfMemoryError(
                        f"cannot place {name}: processor {rank}: "
                        f"{procs[rank].mem_used} + {nbytes} exceeds limit {limit}"
                    )
        for rank, nbytes in blocks:
            p = procs[rank]
            p.mem_used += nbytes
            if p.mem_used > p.mem_peak:
                p.mem_peak = p.mem_used
        self.stats.allocations += len(blocks)

    def free_set(self, blocks: Sequence[tuple[int, int]]) -> None:
        """Give back what :meth:`allocate_set` accounted.  A rank that holds
        less than its block -- a double or wrongly sized free -- raises
        :exc:`~repro.errors.RuntimeRemapError` before any rank is changed."""
        procs = self._procs
        for rank, nbytes in blocks:
            if procs[rank].mem_used < nbytes:
                raise RuntimeRemapError(
                    f"cannot free {nbytes} bytes on processor {rank}: "
                    f"only {procs[rank].mem_used} are accounted"
                )
        for rank, nbytes in blocks:
            procs[rank].mem_used -= nbytes
        self.stats.frees += len(blocks)

    def __repr__(self) -> str:
        return f"Machine({self.processors}, elapsed={self.elapsed:.3e}s, stats={self.stats.snapshot()})"
