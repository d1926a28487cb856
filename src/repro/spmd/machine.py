"""The simulated machine: processors, memories, clocks, traffic log.

A :class:`Machine` is deliberately passive -- it is a ledger.  The
redistribution engine and the runtime executor tell it what happens
(messages, local copies, allocations) and it accounts simulated time per
processor, memory per processor, and global traffic statistics.

Simulated elapsed time follows the usual LogP-ish convention: each message
charges its cost to both endpoints' clocks, and :attr:`elapsed` is the
maximum processor clock, so perfectly parallel all-to-all phases cost what
the busiest processor pays, not the sum.

:meth:`run_phase` adds the one-port phase clock the communication-schedule
subsystem (:mod:`repro.spmd.schedule`) executes against: a phase is one
bulk-synchronous round of messages.  A *contention-free* round (each rank
sends at most once and receives at most once -- validated, a violation
raises :exc:`~repro.errors.ScheduleError`) runs at full port speed and
lasts as long as its largest message; a *contended* round (the naive
all-at-once baseline) serializes each port and lasts as long as the
busiest port.  Every processor's clock advances by the round's duration
(the barrier), and :attr:`phase_seconds` accumulates the total phase-clock
time so observed makespans are directly comparable with the static
:meth:`~repro.spmd.schedule.CommSchedule.makespan` prediction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import OutOfMemoryError
from repro.mapping.processors import ProcessorArrangement
from repro.obs.catalog import REGISTRY as _OBS
from repro.spmd.cost import CostModel
from repro.spmd.message import Message, TrafficStats, check_one_port

# module-cached registry handles: run_phase is the simulator's hottest path
_M_PHASES = _OBS.counter("repro.machine.phases")
_M_PHASE_SECONDS = _OBS.histogram("repro.machine.phase_seconds")


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

    def transfer(self, msg: Message) -> None:
        """Account one point-to-point message (or a local copy if src==dst)."""
        if msg.src == msg.dst:
            self.stats.record_local_copy(msg.nbytes)
            self._procs[msg.src].clock += self.cost.local_copy_cost(msg.nbytes)
            return
        self.stats.record_message(msg)
        if self.log_messages:
            self.message_log.append(msg)
        c = self.cost.message_cost(msg.nbytes)
        self._procs[msg.src].clock += c
        self._procs[msg.dst].clock += c

    def run_phase(
        self,
        messages: Sequence[Message],
        contended: bool = False,
        verified: bool = False,
    ) -> float:
        """Run one bulk-synchronous communication round; returns its duration.

        A contention-free round must satisfy the one-port property: each
        rank sends at most one of ``messages`` and receives at most one
        (local copies never belong in a phase -- use :meth:`transfer`).
        Its duration is the largest message's cost.  A contended round
        (``contended=True``, the naive all-at-once baseline) allows
        arbitrary message sets and lasts as long as the busiest port's
        serialized send+receive work.  All processor clocks advance by the
        duration: the phase is a global step with a barrier.

        ``verified=True`` skips the O(messages) one-port re-check: the
        caller promises the phase comes from a plan whose safety was
        already *proved* at compile time
        (:func:`repro.analysis.commsafety.certify_plan` stamps such plans
        ``statically_verified``).  Phases from unverified plans always pay
        the runtime check.
        """
        if not messages:
            return 0.0
        if not contended and not verified:
            check_one_port((m.src, m.dst) for m in messages)
        duration = self.cost.phase_time(
            [(m.src, m.dst, m.nbytes) for m in messages], contended
        )
        for msg in messages:
            self.stats.record_message(msg)
            if self.log_messages:
                self.message_log.append(msg)
        for p in self._procs:
            p.clock += duration
        self.stats.phases += 1
        self.phase_seconds += duration
        _M_PHASES.inc()
        _M_PHASE_SECONDS.observe(duration)
        return duration

    def compute(self, rank: int, seconds: float) -> None:
        """Charge local computation time to one processor."""
        self._procs[rank].clock += seconds

    def status_check(self) -> None:
        """The runtime's cheap 'is the array already mapped as required' test."""
        self.stats.status_checks += 1
        for p in self._procs:
            p.clock += self.cost.status_check_cost()

    # -- memory accounting ------------------------------------------------------

    def allocate(self, rank: int, nbytes: int) -> None:
        p = self._procs[rank]
        if self.memory_limit is not None and p.mem_used + nbytes > self.memory_limit:
            raise OutOfMemoryError(
                f"processor {rank}: {p.mem_used} + {nbytes} exceeds limit "
                f"{self.memory_limit}"
            )
        p.mem_used += nbytes
        p.mem_peak = max(p.mem_peak, p.mem_used)
        self.stats.allocations += 1

    def free(self, rank: int, nbytes: int) -> None:
        p = self._procs[rank]
        p.mem_used = max(0, p.mem_used - nbytes)
        self.stats.frees += 1

    def would_fit(self, rank: int, nbytes: int) -> bool:
        if self.memory_limit is None:
            return True
        return self._procs[rank].mem_used + nbytes <= self.memory_limit

    # -- control ------------------------------------------------------------------

    def reset_stats(self) -> None:
        self.stats = TrafficStats()
        self.message_log.clear()
        self.phase_seconds = 0.0
        for p in self._procs:
            p.clock = 0.0

    def __repr__(self) -> str:
        return f"Machine({self.processors}, elapsed={self.elapsed:.3e}s, stats={self.stats.snapshot()})"
