"""The multi-process execution backend: compiled programs on real ranks.

:class:`MPExecutor` is the simulator's :class:`~repro.runtime.executor.Executor`
with exactly one thing changed: remapping bytes cross real process
boundaries.  Distributed-array blocks are placed in the transport's shared
arenas (:class:`~repro.spmd.transport.SharedDistributedArray`), and the one
movement hook -- :meth:`Executor._run_plan` -- is overridden to ship each
remapping's messages to the forked worker ranks as one exchange of
:class:`~repro.spmd.transport.TransferRound` programs, which the ranks run
among themselves, instead of copying in-process.

Differential soundness is the design invariant, enforced three ways:

* **values** -- workers gather/scatter through the index tuples of the
  same lowered copy descriptors
  (:class:`~repro.spmd.redistribution.PreparedMove`) the simulator
  executes, over the same blocks the parent verifies, so every executed
  program's results are bit-identical to the simulator's;
* **ledger** -- the modeled :class:`~repro.spmd.machine.Machine` is charged
  the *same* :class:`~repro.spmd.message.LedgerDelta` the simulator charges
  (the plan's own, one ``charge`` per copy), so traffic stats, phase
  counts and the obs counters they feed match the simulator exactly;
* **discipline** -- the transport re-validates the one-port property of
  every contention-free round and cross-checks each worker's actually
  moved message/byte counts against the round's prescription.

What the simulator cannot give -- wall time of real exchanges -- lands in
:class:`MPRunReport` (reachable as ``ExecutionResult.mp``): per-round wall
spans plus the measured *port-clock* makespan, i.e. measured per-message
costs composed by the same one-port formula the cost model uses
(:func:`~repro.spmd.transport.measured_phase_time`), which is what
``benchmarks/bench_mp.py`` calibrates against
:meth:`~repro.spmd.cost.CostModel.scheduled_time` predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TransportError
from repro.compiler.artifacts import CompiledProgram
from repro.runtime.executor import ExecutionEnv, ExecutionResult, Executor
from repro.runtime.memory import MemoryManager
from repro.spmd.darray import DistributedArray
from repro.spmd.machine import Machine
from repro.spmd.redistribution import PreparedMove
from repro.spmd.transport import (
    DEFAULT_ARENA_BYTES,
    ExchangeReport,
    MPTransport,
    SharedDistributedArray,
    TransferRound,
    WireMessage,
    WirePart,
)


# ---------------------------------------------------------------------------
# measured-run reporting
# ---------------------------------------------------------------------------


@dataclass
class MPRunReport:
    """Measured transport activity of one mp-backend run.

    ``port_seconds`` is the run's measured makespan on the one-port clock
    (per-message measured costs composed phase by phase with the cost
    model's own formula); ``wall_seconds`` is the raw wall time of the same
    exchanges, each from shipping its control frames to reading its last
    report (``phase_wall_seconds`` are the rounds' own spans on the workers'
    clocks; rounds overlap across ranks, so they do not sum to it).  On a
    time-sliced host with more ranks
    than cores the wall number mostly measures the OS scheduler, which is
    why the port-clock number is the one compared against
    :meth:`~repro.spmd.cost.CostModel.scheduled_time` predictions.
    """

    nprocs: int = 0
    exchanges: int = 0
    phases: int = 0
    messages: int = 0
    bytes_moved: int = 0
    wall_seconds: float = 0.0
    port_seconds: float = 0.0
    phase_wall_seconds: list[float] = field(default_factory=list)
    phase_port_seconds: list[float] = field(default_factory=list)

    def add(self, report: ExchangeReport) -> None:
        self.exchanges += 1
        self.phases += len(report.rounds)
        self.messages += report.messages
        self.bytes_moved += report.bytes
        self.wall_seconds += report.wall_seconds
        self.port_seconds += report.port_seconds
        for rnd in report.rounds:
            self.phase_wall_seconds.append(rnd.wall_seconds)
            self.phase_port_seconds.append(rnd.port_seconds)

    def snapshot(self) -> dict[str, int | float]:
        return {
            "nprocs": self.nprocs,
            "exchanges": self.exchanges,
            "phases": self.phases,
            "messages": self.messages,
            "bytes_moved": self.bytes_moved,
            "wall_seconds": self.wall_seconds,
            "port_seconds": self.port_seconds,
        }


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


class MPExecutor(Executor):
    """An :class:`Executor` whose remapping bytes cross process boundaries.

    Needs a *started* :class:`~repro.spmd.transport.MPTransport` whose rank
    count matches the machine; everything else (ops, kernels, status
    machinery, obs) is inherited unchanged.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        machine: Machine | None = None,
        env: ExecutionEnv | None = None,
        transport: MPTransport | None = None,
    ):
        super().__init__(compiled, machine, env)
        if transport is None:
            raise TransportError("MPExecutor requires a started MPTransport")
        if transport.nprocs != self.machine.processors.size:
            raise TransportError(
                f"transport has {transport.nprocs} worker rank(s), machine "
                f"has {self.machine.processors.size}"
            )
        self.transport = transport
        self.mp_report = MPRunReport(nprocs=transport.nprocs)
        # storage goes to the shared arenas so workers see the same bytes
        self.memory = MemoryManager(
            self.machine, self._eviction_candidates, array_factory=self._make_array
        )
        #: every arena-backed array of this run; ``None`` once the run is over
        self._shared: list[SharedDistributedArray] | None = []

    def _make_array(self, name, mapping, machine, dtype) -> DistributedArray:
        if self._shared is None:
            # the run is over and the ranks may be serving someone else: a
            # late ``ExecutionResult.value`` of a never-touched array takes
            # nothing from the arena
            return DistributedArray(name, mapping, machine, dtype)
        array = SharedDistributedArray(name, mapping, machine, self.transport, dtype)
        self._shared.append(array)
        return array

    def detach(self) -> None:
        """End of the run: the result owns its bytes.  Every still-live
        block moves out of the arena into private memory and its arena
        storage is released, so the transport is whole again for the next
        run and the values stay readable after it -- and after ``close``."""
        shared, self._shared = self._shared, None
        for array in shared or ():
            array.detach()

    # -- wire-program construction ----------------------------------------

    @staticmethod
    def _wire_part(
        move: PreparedMove,
        source: SharedDistributedArray,
        target: SharedDistributedArray,
    ) -> WirePart:
        """One descriptor's gather/scatter program over this run's blocks."""
        return WirePart(
            src_block=source.block_ref(move.src_rank),
            dst_block=target.block_ref(move.dst_rank),
            src_ix=move.src_ix,
            dst_ix=move.dst_ix,
            shape=move.shape,
            nbytes=move.elements * source.itemsize,
        )

    # -- the movement hook ---------------------------------------------------

    def _run_plan(self, plan, source, target, tag: str) -> None:
        """One remapping copy: local copies in the parent, then one exchange
        on the ranks -- the unphased messages (all of a ``policy=None``
        plan's) as one contended round, each phase as one round of its
        messages' own parts -- then the simulator's ledger charge, the
        plan's one delta (obtained first: an unprovable plan's bad phase
        raises before anything is on the wire)."""
        delta = plan.ledger(self.machine.cost, target.itemsize)
        moves, phases = plan.wire(source.layout, target.layout)
        unphased: list[WireMessage] = []
        for move in moves:
            if move.is_local:
                move.execute(source, target)
            else:
                unphased.append(
                    WireMessage(
                        move.src_rank, move.dst_rank, (self._wire_part(move, source, target),)
                    )
                )
        rounds = [TransferRound(tuple(unphased), contended=True)] if unphased else []
        rounds += [
            TransferRound(
                tuple(
                    WireMessage(
                        pt.src_rank,
                        pt.dst_rank,
                        tuple(self._wire_part(m, source, target) for m in parts),
                    )
                    for pt, parts in zip(phase.transfers, messages)
                ),
                contended=phase.contended,
            )
            for phase, messages in zip(plan.phases, phases)
        ]
        if rounds:
            self.mp_report.add(self.transport.exchange(tuple(rounds)))
        self.machine.charge(delta, target.name, tag)


# ---------------------------------------------------------------------------
# backend pool + one-call helper
# ---------------------------------------------------------------------------


class MPBackend:
    """One started transport, reusable across sequential runs.

    The differential test matrix and the benchmarks run hundreds of small
    programs; forking P workers per run would dominate, so the backend
    owns one long-lived :class:`~repro.spmd.transport.MPTransport` and
    executes any number of compiled programs (of the matching processor
    count) against it, one at a time (a transport is one conversation;
    :class:`~repro.service.service.CompileService`, which keeps one backend
    per processor count, runs each under a lock).  Every run ends --
    success or failure -- with its arrays detached from the arenas
    (:meth:`MPExecutor.detach`), so a result stays readable while later
    runs reuse the ranks and after :meth:`close`, and every arena is fully
    free between runs.  Context-manager friendly; :meth:`close` tears the
    workers down.
    """

    def __init__(
        self,
        processors: int,
        arena_bytes: int = DEFAULT_ARENA_BYTES,
        timeout: float = 120.0,
    ):
        self.transport = MPTransport(processors, arena_bytes, timeout)

    @property
    def nprocs(self) -> int:
        return self.transport.nprocs

    def __enter__(self) -> "MPBackend":
        self.transport.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.transport.close()

    def execute(
        self,
        compiled: CompiledProgram,
        entry: str | None = None,
        machine: Machine | None = None,
        env: ExecutionEnv | None = None,
    ) -> ExecutionResult:
        """Run one compiled program across the backend's worker ranks."""
        self.transport.start()
        if entry is None:
            entry = next(iter(compiled.subroutines))
        machine = machine or Machine(compiled.processors)
        executor = MPExecutor(
            compiled, machine, env or ExecutionEnv(), self.transport
        )
        try:
            return executor.run(entry)
        finally:
            executor.detach()  # success or failure: every arena is free again


def execute_mp(
    compiled: CompiledProgram,
    entry: str | None = None,
    machine: Machine | None = None,
    env: ExecutionEnv | None = None,
    arena_bytes: int = DEFAULT_ARENA_BYTES,
) -> ExecutionResult:
    """Run one compiled program on a transient mp backend (forks, runs,
    tears the workers down) -- for callers with no ``close()`` to own
    processes, such as :meth:`CompilerSession.run`.  The result owns its
    bytes, like any :meth:`MPBackend.execute` result.
    """
    with MPBackend(compiled.processors.size, arena_bytes=arena_bytes) as backend:
        return backend.execute(compiled, entry=entry, machine=machine, env=env)
