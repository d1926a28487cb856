"""Executor: interprets compiled programs on the simulated machine.

The executor is the paper's generated SPMD program, folded into one
interpreter.  The walk itself -- the structured body, the generated runtime
ops (status checks, guarded copies, liveness updates, cleanup), caller-side
argument remapping around calls with storage handoff -- is the shared
:class:`~repro.remap.walker.DescriptorWalker`; this module gives it real
data: version storage through the :class:`~repro.runtime.memory.MemoryManager`,
copies through communication plans on the simulated machine, and compute
kernels running against the *current version's* distributed storage.

Verification hooks:

* every reference checks that the runtime status equals the statically
  annotated version (a miscompiled program fails loudly, not wrongly);
* ``check_invariants=True`` additionally verifies after every remapping
  that all live copies of an array hold identical values;
* values killed by the kill directive are poisoned (NaN) when a remapping
  elides their communication, so any read-after-kill is observable;
* :meth:`ExecutionResult.observed_traffic` is the runtime half of the
  traffic oracle: the actually measured bytes/messages as a
  :class:`~repro.spmd.cost.TrafficEstimate`, directly comparable with the
  compile-time prediction of :func:`repro.spmd.traffic.predict_traffic`.

Concurrency contract (audited for the service layer)
----------------------------------------------------

Any number of :class:`Executor` instances may run the *same*
:class:`CompiledProgram` concurrently, one per thread:

* every piece of mutable run state is per-executor -- frames,
  :class:`~repro.runtime.status.ArrayRuntime` descriptors, the
  :class:`~repro.runtime.memory.MemoryManager`, the machine and its
  clocks/stats;
* the artifact is treated strictly read-only (generated ops, version
  tables, construction results, resolved subroutines); session-cached
  artifacts additionally *enforce* this by freezing.  What a run does
  write outside itself is derived state only, and none of it lives on the
  artifact: the process's thread-safe plan memo
  :data:`~repro.spmd.schedule.PLANS` (a lost first-use race returns the
  winner's plan) and each plan's memoized ledger delta and lowered forms
  (:meth:`~repro.spmd.schedule.CommSchedule.ledger`, ``lowered``) --
  idempotent first-use writes of immutable values, the same from every
  thread.

The two sharing hazards live outside the executor and are the caller's
to respect: an :class:`ExecutionEnv` must not be shared across concurrent
runs (its condition-sequence iterators are stateful -- build one env per
run, as ``CompilerSession.run`` and the service layer do), and
user-supplied kernels must not close over state mutated across requests
(:func:`default_kernel` is stateless).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.errors import RuntimeRemapError
from repro.compiler.artifacts import CompiledProgram
from repro.obs.catalog import REGISTRY as _OBS
from repro.obs.trace import TRACER as _TRACER
from repro.lang.ast_nodes import Compute
from repro.remap.walker import DEAD_COPY, PERFORMED, SKIPPED_LIVE
from repro.remap.walker import DescriptorWalker, Frame, resolve_condition
from repro.runtime.memory import MemoryManager
from repro.runtime.status import ArrayRuntime
from repro.spmd.cost import TrafficEstimate
from repro.spmd.machine import Machine
from repro.spmd.message import LedgerDelta
from repro.spmd.schedule import execute_comm_schedule, obtain_plan


# ---------------------------------------------------------------------------
# kernels and environment
# ---------------------------------------------------------------------------


class KernelContext:
    """What a compute kernel sees: the referenced arrays' current copies.

    The storage :meth:`darray` returns -- its ``data`` and its block views --
    is valid only during the kernel call: a version the run frees later
    keeps its buffer as the spare of its layout, and the run's next version
    of that layout reuses it, so a block kept past the call may come to hold
    another version's values.
    """

    def __init__(self, executor: "Executor", frame: Frame, stmt: Compute):
        self._ex = executor
        self._frame = frame
        self.stmt = stmt
        self.machine = executor.machine

    def darray(self, name: str):
        """The current version's distributed storage (for SPMD-local
        kernels), valid during this kernel call only.  Its
        :meth:`~repro.spmd.darray.DistributedArray.apply_along_local_dim`
        sweeps every holder's block in one kernel call per run of equal
        block shapes, the blocks stacked on a leading holder axis."""
        state = self._frame.arrays[name]
        self._ex._ensure(state, state.status)
        return state.insts[state.status]

    def mapping(self, name: str):
        state = self._frame.arrays[name]
        return state.versions[state.status]

    def value(self, name: str) -> np.ndarray:
        """Gathered global values of the array's current copy."""
        state = self._frame.arrays[name]
        self._ex._ensure(state, state.status)
        return state.require_current_values().gather_to_global()

    def set_value(self, name: str, arr: np.ndarray) -> None:
        state = self._frame.arrays[name]
        self._ex._ensure(state, state.status)
        state.insts[state.status].scatter_from_global(
            np.asarray(arr, dtype=self._ex.env.dtype)
        )
        state.live[state.status] = True
        state.poisoned = False

    def loop_index(self, var: str) -> int:
        return self._frame.loops.get(var, 0)


Kernel = Callable[[KernelContext], None]


def default_kernel(ctx: KernelContext) -> None:
    """Deterministic synthetic computation honouring the declared effects.

    Used for unlabelled computes (all the paper's figures): written arrays
    are updated from their own values plus a digest of the read arrays, and
    defined arrays are fully regenerated.  Deterministic in the values, so
    naive and optimized executions of the same program agree bit-for-bit.
    """
    stmt = ctx.stmt
    acc = 0.0
    for name in stmt.reads:
        if name in ctx._frame.arrays:
            acc += float(np.sum(ctx.value(name))) * 1e-3
    for name in stmt.writes:
        if name in ctx._frame.arrays:
            x = ctx.value(name)
            ctx.set_value(name, 0.5 * x + acc + 1.0)
    for name in stmt.defines:
        if name in ctx._frame.arrays:
            shape = ctx._frame.arrays[name].versions[0].shape
            n = int(np.prod(shape))
            base = np.linspace(0.0, 1.0, n).reshape(shape)
            ctx.set_value(name, base + acc)


@dataclass
class ExecutionEnv:
    """Runtime inputs: branch outcomes, loop bounds, kernels, initial values."""

    conditions: dict[str, object] = field(default_factory=dict)
    bindings: dict[str, int] = field(default_factory=dict)
    kernels: dict[str, Kernel] = field(default_factory=dict)
    inputs: dict[str, np.ndarray] = field(default_factory=dict)
    check_invariants: bool = False
    dtype: np.dtype | type = np.float64

    def __post_init__(self) -> None:
        # positions of the condition sequences: they belong to the env, so
        # an env must not be shared across concurrent runs
        self._cond_iters: dict[str, Iterator] = {}

    def condition(self, name: str) -> bool:
        return resolve_condition(
            self.conditions, self._cond_iters, name, RuntimeRemapError
        )


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

#: Fused loop replay is gone (it measured 1.00x over plain execution once
#: plans carried their copies), but ``benchmarks/layers/probes.py`` still
#: reads ``result.fusion.replays`` outside any probe guard, so results keep
#: this one constant record until a follow-up to the benchmark drops the read.
_NO_FUSION = SimpleNamespace(replays=0)


class ExecutionResult:
    """Final machine state plus accessors for the top-level arrays."""

    def __init__(self, executor: "Executor", frame: Frame):
        self._ex = executor
        self._frame = frame
        self.machine = executor.machine
        self.stats = executor.machine.stats
        self.fusion = _NO_FUSION
        #: measured multi-process transport report when the run executed on
        #: the mp backend (:mod:`repro.runtime.mpbackend`); ``None`` for
        #: simulated runs
        self.mp = getattr(executor, "mp_report", None)

    def value(self, name: str) -> np.ndarray:
        state = self._frame.arrays[name]
        self._ex._ensure(state, state.status)
        return state.insts[state.status].gather_to_global()

    def status(self, name: str) -> int:
        return self._frame.arrays[name].status

    def live_versions(self, name: str) -> list[int]:
        return self._frame.arrays[name].live_versions()

    def poisoned(self, name: str) -> bool:
        return self._frame.arrays[name].poisoned

    def observed_traffic(self) -> TrafficEstimate:
        """The run's measured traffic, shaped like a compile-time estimate.

        This is the runtime half of the traffic oracle: tests compare it
        against :func:`repro.spmd.traffic.predict_traffic` to hold the
        static estimator to the executor's ground truth.
        """
        s = self.stats
        return TrafficEstimate(
            bytes=s.bytes,
            messages=s.messages,
            local_bytes=s.local_bytes,
            local_copies=s.local_copies,
            status_checks=s.status_checks,
            phases=s.phases,
            makespan=self.machine.phase_seconds,
        )

    def traffic_by_array(self) -> dict[str, dict[str, int]]:
        """Per-array bytes/messages breakdown of the run's remapping traffic."""
        return self.stats.array_breakdown()

    def traffic_by_tag(self) -> dict[str, dict[str, int]]:
        """Per-remapping-tag bytes/messages breakdown (one tag per RemapOp)."""
        return self.stats.tag_breakdown()

    @property
    def phase_count(self) -> int:
        """Communication phases run on the machine's phase clock."""
        return self.stats.phases

    @property
    def elapsed(self) -> float:
        return self.machine.elapsed


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


class Executor(DescriptorWalker):
    """Interprets one compiled program on a simulated machine.

    The shared :class:`~repro.remap.walker.DescriptorWalker` walks the
    structured body and runs the generated runtime ops (status checks,
    guarded copies, liveness updates, cleanup); this class supplies the
    data plane: it allocates version storage, moves the values of every
    performed copy and executes compute kernels against the current
    version's distributed storage.
    One executor serves one run: instantiate a fresh one (with a fresh
    :class:`~repro.spmd.machine.Machine` and :class:`ExecutionEnv`) per
    execution -- the artifact itself may be shared across any number of
    concurrent executors (see the module docstring's concurrency
    contract)."""

    error = RuntimeRemapError

    def __init__(
        self,
        compiled: CompiledProgram,
        machine: Machine | None = None,
        env: ExecutionEnv | None = None,
    ):
        self.compiled = compiled
        self.machine = machine or Machine(compiled.processors)
        if self.machine.processors.size != compiled.processors.size:
            raise RuntimeRemapError(
                f"program compiled for {compiled.processors.size} processors, "
                f"machine has {self.machine.processors.size}"
            )
        self.env = env or ExecutionEnv()
        subs = compiled.subroutines
        super().__init__(
            {name: cs.construction for name, cs in subs.items()},
            {name: cs.code for name, cs in subs.items()},
            {**compiled.bindings, **self.env.bindings},
        )
        self.memory = MemoryManager(self.machine, self._eviction_candidates)

    # -- memory ----------------------------------------------------------------

    def descriptor(self, name: str, versions) -> ArrayRuntime:
        """A frame's descriptor of one array, whose freed versions go back
        to this run's memory manager."""
        return ArrayRuntime(name, versions, memory=self.memory)

    def _eviction_candidates(self):
        for frame in self._frames:
            for state in frame.arrays.values():
                for v in state.live_versions():
                    yield state, v

    # -- public API ---------------------------------------------------------------

    def run(self, sub_name: str) -> ExecutionResult:
        """Execute one subroutine as the program entry point."""
        stats = self.machine.stats
        before = stats.snapshot()
        t0 = time.perf_counter()
        try:
            with _TRACER.span("executor.run", sub=sub_name):
                frame = self.walk(sub_name)
        finally:
            # the spares' buffers go with the run, whether or not it returned
            self.memory.drop_spares()
            # a run that raises midway has still moved what it moved:
            # Machine.charge already fed repro.machine.*, so mirror the
            # same ledger here whether or not the walk returned
            moved = stats.diff(before)
            _OBS.counter("repro.runtime.bytes_moved").inc(moved["bytes"])
            _OBS.counter("repro.runtime.messages").inc(moved["messages"])
            _OBS.counter("repro.runtime.remaps_performed").inc(moved["remaps_performed"])
            _OBS.counter("repro.runtime.remaps_skipped").inc(
                moved["remaps_skipped_live"]
                + moved["remaps_skipped_status"]
                + moved["remaps_dead_copy"]
            )
        _OBS.histogram("repro.runtime.run_seconds").observe(time.perf_counter() - t0)
        return ExecutionResult(self, frame)

    # -- what the walker asks for ------------------------------------------------

    def _seed(self, state: ArrayRuntime) -> bool:
        init = self.env.inputs.get(state.name)
        if init is None:
            return False
        self._instantiate(state, 0).scatter_from_global(
            np.asarray(init, dtype=self.env.dtype)
        )
        return True

    def _allocate(self, state: ArrayRuntime, version: int, poison: bool):
        return self.memory.allocate(
            f"{state.name}_{version}", state.versions[version], self.env.dtype, poison
        )

    def _status_check(self) -> None:
        self.machine.status_check()

    def _condition(self, name: str) -> bool:
        return self.env.condition(name)  # the env owns the sequence positions

    def _compute(self, frame: Frame, stmt: Compute) -> None:
        kernel = self.env.kernels.get(stmt.label, default_kernel)
        kernel(KernelContext(self, frame, stmt))

    def _remapped(self, state: ArrayRuntime, outcome: str) -> None:
        """Count the remapping by outcome and, when asked, check that the
        live copies it left agree."""
        stats = self.machine.stats
        if outcome == PERFORMED:
            stats.remaps_performed += 1
        elif outcome == DEAD_COPY:
            stats.remaps_dead_copy += 1
        elif outcome == SKIPPED_LIVE:
            stats.remaps_skipped_live += 1
        else:
            stats.remaps_skipped_status += 1
        if self.env.check_invariants and not state.poisoned:
            if not state.check_live_copies_consistent():
                raise RuntimeRemapError(
                    f"live copies of {state.name!r} diverged after remapping"
                )

    def _remap_copy(
        self, state: ArrayRuntime, src: int, leaving: int, tag: str
    ) -> None:
        """Move the data of one remapping copy: obtain its plan, run it.

        The plan object owns its copy descriptors and the process's memo
        owns the plan, so only the first copy of a pair under a policy in
        the process pays any scheduling or index arithmetic.
        """
        source, target = state.insts[src], state.insts[leaving]
        assert source is not None and target is not None
        plan = obtain_plan(
            self.compiled.options.schedule, state.versions[src], state.versions[leaving]
        )
        # what the movement hook charges the run (an unprovable plan's bad
        # phase raises here, before any data moves)
        delta = plan.ledger(self.machine.cost, target.itemsize)
        with _TRACER.span(
            "remap.plan_replay",
            tag=tag,
            phases=len(delta.durations),
            messages=delta.messages,
            bytes=delta.bytes,
        ):
            self._run_plan(plan, source, target, tag, delta)

    # -- the movement hook (the mp backend overrides it) ----------------------

    def _run_plan(self, plan, source, target, tag: str, delta: LedgerDelta) -> None:
        """Move one remapping copy's plan and charge its ledger ``delta``
        (simulated here: the plan's lowered copy, one ledger charge)."""
        execute_comm_schedule(plan, source, target, self.machine, tag, delta)


# ---------------------------------------------------------------------------
# session-driven execution
# ---------------------------------------------------------------------------


def execute(
    compiled: CompiledProgram,
    entry: str | None = None,
    machine: Machine | None = None,
    env: ExecutionEnv | None = None,
) -> ExecutionResult:
    """Run a compiled program in one call (the session API's backend).

    ``entry`` defaults to the program's first subroutine; ``machine``
    defaults to a fresh machine matching the compiled processor arrangement.
    The machine stays reachable through ``result.machine``.

    Safe to call concurrently with the same ``compiled`` artifact as long
    as each call gets its own ``machine`` and ``env`` (see the module
    docstring's concurrency contract).
    """
    if entry is None:
        entry = next(iter(compiled.subroutines))
    return Executor(compiled, machine, env).run(entry)
