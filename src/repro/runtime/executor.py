"""Executor: interprets compiled programs on the simulated machine.

The executor is the paper's generated SPMD program, folded into one
interpreter: it walks the structured body, runs the generated runtime ops
(status checks, guarded copies, liveness updates, cleanup), executes
compute kernels against the *current version's* distributed storage, and
performs caller-side argument remapping around calls with real storage
handoff (the callee's dummy version 0 shares the caller's copy, matching
"the argument is the only information the callee obtains from the caller").

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
  clocks/stats, and the communication-plan *overlay* (plan-table misses
  are built into ``self._plan_overlay``, never into the shared artifact's
  frozen :class:`~repro.spmd.schedule.CommPlanTable`, which is only ever
  ``lookup``-ed; unscheduled runs keep their redistribution schedules in
  ``self._schedules`` the same way);
* the artifact is treated strictly read-only (generated ops, version
  tables, construction results, resolved subroutines); session-cached
  artifacts additionally *enforce* this by freezing.  The one thing a
  run writes through a shared plan is its memoized lowered form
  (:class:`~repro.spmd.redistribution.LoweredOnce`): an idempotent
  first-use write of an immutable value, the same from every thread.

The two sharing hazards live outside the executor and are the caller's
to respect: an :class:`ExecutionEnv` must not be shared across concurrent
runs (its condition-sequence iterators are stateful -- build one env per
run, as ``CompilerSession.run`` and the service layer do), and
user-supplied kernels must not close over state mutated across requests
(:func:`default_kernel` is stateless).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import RuntimeRemapError
from repro.compiler.artifacts import CompiledProgram, CompiledSubroutine
from repro.obs.catalog import REGISTRY as _OBS
from repro.obs.drift import DriftMonitor, DriftRecord
from repro.obs.trace import TRACER as _TRACER
from repro.ir.effects import Use
from repro.lang.ast_nodes import (
    Block,
    Call,
    Compute,
    Do,
    If,
    Kill,
    Realign,
    Redistribute,
    Stmt,
)
from repro.remap.codegen import (
    EntryOp,
    ExitOp,
    PoisonOp,
    RemapOp,
    RestoreOp,
    RuntimeOp,
    SaveStatusOp,
)
from repro.runtime.fusion import FusionStats, LoopTrace, run_fused_loop
from repro.runtime.memory import MemoryManager
from repro.runtime.status import ArrayRuntime
from repro.spmd.cost import TrafficEstimate
from repro.spmd.machine import Machine
from repro.spmd.redistribution import RedistSchedule, build_schedule, execute_schedule
from repro.spmd.schedule import CommPlanTable, execute_comm_schedule


# ---------------------------------------------------------------------------
# kernels and environment
# ---------------------------------------------------------------------------


class KernelContext:
    """What a compute kernel sees: the referenced arrays' current copies."""

    def __init__(self, executor: "Executor", frame: "_Frame", stmt: Compute):
        self._ex = executor
        self._frame = frame
        self.stmt = stmt
        self.machine = executor.machine

    def darray(self, name: str):
        """The current version's distributed storage (for SPMD-local kernels)."""
        state = self._frame.arrays[name]
        self._ex._ensure_instantiated(self._frame, state, state.status)
        return state.insts[state.status]

    def mapping(self, name: str):
        state = self._frame.arrays[name]
        return state.versions[state.status]

    def value(self, name: str) -> np.ndarray:
        """Gathered global values of the array's current copy."""
        state = self._frame.arrays[name]
        self._ex._ensure_instantiated(self._frame, state, state.status)
        return state.require_current_values().gather_to_global()

    def set_value(self, name: str, arr: np.ndarray) -> None:
        state = self._frame.arrays[name]
        self._ex._ensure_instantiated(self._frame, state, state.status)
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
    #: record-then-replay fused execution of DO loops (see
    #: :mod:`repro.runtime.fusion`); semantics-preserving, on by default,
    #: ignored when the machine enforces a memory limit
    fuse_loops: bool = True

    def __post_init__(self) -> None:
        self._cond_iters: dict[str, Iterator] = {}

    def condition(self, name: str) -> bool:
        if name not in self.conditions:
            raise RuntimeRemapError(
                f"no runtime value provided for condition {name!r} "
                "(pass conditions={...} in ExecutionEnv)"
            )
        v = self.conditions[name]
        if isinstance(v, bool):
            return v
        if callable(v):
            return bool(v())
        if isinstance(v, Sequence):
            it = self._cond_iters.setdefault(name, iter(v))
            try:
                return bool(next(it))
            except StopIteration:
                raise RuntimeRemapError(
                    f"condition sequence for {name!r} exhausted"
                ) from None
        raise RuntimeRemapError(f"bad condition value for {name!r}: {v!r}")


# ---------------------------------------------------------------------------
# execution frames
# ---------------------------------------------------------------------------


@dataclass
class _Frame:
    compiled: CompiledSubroutine
    arrays: dict[str, ArrayRuntime]
    slots: dict[str, int] = field(default_factory=dict)
    loops: dict[str, int] = field(default_factory=dict)


class ExecutionResult:
    """Final machine state plus accessors for the top-level arrays."""

    def __init__(self, executor: "Executor", frame: _Frame):
        self._ex = executor
        self._frame = frame
        self.machine = executor.machine
        self.stats = executor.machine.stats
        #: aggregate predicted-vs-observed drift over the run's scheduled
        #: remaps (see :mod:`repro.obs.drift`); clean when nothing drifted
        self.drift = executor.drift.stats
        #: fused-loop record/replay counters for the run
        #: (see :class:`repro.runtime.fusion.FusionStats`)
        self.fusion = executor.fusion
        #: measured multi-process transport report when the run executed on
        #: the mp backend (:mod:`repro.runtime.mpbackend`); ``None`` for
        #: simulated runs
        self.mp = getattr(executor, "mp_report", None)

    def value(self, name: str) -> np.ndarray:
        state = self._frame.arrays[name]
        self._ex._ensure_instantiated(self._frame, state, state.status)
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


class Executor:
    """Interprets one compiled program on a simulated machine.

    Walks the structured body, runs the generated runtime ops (status
    checks, guarded copies, liveness updates, cleanup) and executes
    compute kernels against the current version's distributed storage.
    One executor serves one run: instantiate a fresh one (with a fresh
    :class:`~repro.spmd.machine.Machine` and :class:`ExecutionEnv`) per
    execution -- the artifact itself may be shared across any number of
    concurrent executors (see the module docstring's concurrency
    contract)."""

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
        self._frames: list[_Frame] = []
        self.memory = MemoryManager(self.machine, self._eviction_candidates)
        # communication scheduling: with a policy, every remapping runs as
        # a phased plan.  Precompiled plans come from the artifact (the
        # `schedule` pass); misses are built into an executor-local overlay
        # so a session-cached artifact is never mutated (and plans_reused
        # keeps meaning "precompiled by the pass or replayed this run")
        self.policy = compiled.options.schedule
        self.plans: CommPlanTable | None = compiled.plans
        self._plan_overlay: CommPlanTable | None = (
            CommPlanTable(self.policy) if self.policy is not None else None
        )
        # the unscheduled path's overlay: one redistribution schedule (and,
        # owned by it, its lowered copy descriptors) per signature pair
        self._schedules: dict[tuple, RedistSchedule] = {}
        # per-run predicted-vs-observed accounting for scheduled remaps
        self.drift = DriftMonitor()
        # fused loop replay (repro.runtime.fusion): traces per Do statement
        # and the run's record/replay/invalidation counters.  Disabled under
        # a memory limit: eviction makes per-iteration state non-deterministic.
        self.fusion = FusionStats()
        self._loop_traces: dict[int, LoopTrace] = {}
        self._fuse = self.env.fuse_loops and self.machine.memory_limit is None

    # -- memory ----------------------------------------------------------------

    def _eviction_candidates(self):
        for frame in self._frames:
            for state in frame.arrays.values():
                for v in state.live_versions():
                    yield state, v

    def _ensure_instantiated(
        self, frame: _Frame, state: ArrayRuntime, version: int, poison: bool = False
    ) -> None:
        if state.insts[version] is None:
            inst = self.memory.allocate(
                f"{state.name}_{version}", state.versions[version], self.env.dtype
            )
            if poison:
                for rank in inst.blocks:
                    inst.blocks[rank].fill(np.nan)
            state.insts[version] = inst
        if not state.live[version]:
            # an uninitialized (or regenerated-later) copy: it becomes live
            # the moment it is the referenced current version
            if version == state.status:
                state.live[version] = True

    # -- public API ---------------------------------------------------------------

    def run(self, sub_name: str) -> ExecutionResult:
        """Execute one subroutine as the program entry point."""
        compiled = self.compiled.get(sub_name)
        stats = self.machine.stats
        before = stats.snapshot()
        fusion_before = (
            self.fusion.traces_recorded,
            self.fusion.replays,
            self.fusion.invalidations,
        )
        t0 = time.perf_counter()
        with _TRACER.span("executor.run", sub=sub_name):
            frame = self._enter_frame(compiled, args=None, caller=None)
            self._exec_ops(frame, compiled.code.entry_ops)
            self._exec_block(frame, compiled.sub.body)
            self._exec_ops(frame, compiled.code.exit_ops)
            self._frames.pop()
        _OBS.counter("repro.runtime.runs").inc()
        _OBS.histogram("repro.runtime.run_seconds").observe(time.perf_counter() - t0)
        after = stats.snapshot()
        for metric, key in (
            ("repro.runtime.bytes_moved", "bytes"),
            ("repro.runtime.messages", "messages"),
            ("repro.runtime.remaps_performed", "remaps_performed"),
            ("repro.runtime.plans_built", "plans_built"),
            ("repro.runtime.plans_reused", "plans_reused"),
        ):
            delta = after[key] - before[key]
            if delta:
                _OBS.counter(metric).inc(delta)
        skipped = (after["remaps_skipped_live"] - before["remaps_skipped_live"]) + (
            after["remaps_skipped_status"] - before["remaps_skipped_status"]
        )
        if skipped:
            _OBS.counter("repro.runtime.remaps_skipped").inc(skipped)
        fusion_after = (
            self.fusion.traces_recorded,
            self.fusion.replays,
            self.fusion.invalidations,
        )
        for metric, b, a in zip(
            (
                "repro.runtime.loop_traces_recorded",
                "repro.runtime.loop_replays",
                "repro.runtime.loop_invalidations",
            ),
            fusion_before,
            fusion_after,
        ):
            if a - b:
                _OBS.counter(metric).inc(a - b)
        return ExecutionResult(self, frame)

    # -- frames ----------------------------------------------------------------------

    def _enter_frame(
        self,
        compiled: CompiledSubroutine,
        args: dict[str, ArrayRuntime] | None,
        caller: _Frame | None,
    ) -> _Frame:
        arrays: dict[str, ArrayRuntime] = {}
        for name in compiled.sub.arrays:
            versions = compiled.versions.versions(name)
            state = ArrayRuntime(name, versions)
            arrays[name] = state
        frame = _Frame(compiled, arrays)
        if args:
            for dummy, caller_state in args.items():
                state = arrays[dummy]
                inst = caller_state.insts[caller_state.status]
                state.insts[0] = inst
                state.live[0] = caller_state.live[caller_state.status]
                state.caller_owned.add(0)
                state.poisoned = caller_state.poisoned
        elif caller is None:
            # top level: the harness acts as the caller, providing inputs
            for name, state in arrays.items():
                init = self.env.inputs.get(name)
                if init is not None:
                    inst = self.memory.allocate(
                        f"{name}_0", state.versions[0], self.env.dtype
                    )
                    inst.scatter_from_global(np.asarray(init, dtype=self.env.dtype))
                    state.insts[0] = inst
                    state.live[0] = True
                elif compiled.sub.arrays[name].is_dummy:
                    inst = self.memory.allocate(
                        f"{name}_0", state.versions[0], self.env.dtype
                    )
                    state.insts[0] = inst
                    state.live[0] = True
        self._frames.append(frame)
        return frame

    # -- ops ---------------------------------------------------------------------------

    def _exec_ops(self, frame: _Frame, ops: Sequence[RuntimeOp]) -> None:
        for op in ops:
            if isinstance(op, RemapOp):
                self._exec_remap(
                    frame,
                    frame.arrays[op.array],
                    leaving=op.leaving,
                    use=op.use,
                    keep=op.keep,
                    dead_values=op.dead_values,
                    check_status=op.check_status,
                    tag=op.label,
                )
            elif isinstance(op, SaveStatusOp):
                frame.slots[op.slot] = frame.arrays[op.array].status
            elif isinstance(op, RestoreOp):
                saved = frame.slots.get(op.slot)
                if saved is None:
                    raise RuntimeRemapError(f"restore without save: {op.slot}")
                if saved not in op.possible:
                    raise RuntimeRemapError(
                        f"saved status {saved} not among statically possible "
                        f"{sorted(op.possible)} for {op.array}"
                    )
                self._exec_remap(
                    frame,
                    frame.arrays[op.array],
                    leaving=saved,
                    use=op.use,
                    keep=op.keep | frozenset({saved}),
                    dead_values=False,
                    check_status=op.check_status,
                    tag=op.label,
                )
            elif isinstance(op, PoisonOp):
                frame.arrays[op.array].poisoned = True
            elif isinstance(op, EntryOp):
                pass  # descriptors start all-dead by construction
            elif isinstance(op, ExitOp):
                if frame is self._frames[0]:
                    continue  # the harness (caller) still reads the results
                for name in op.arrays:
                    state = frame.arrays[name]
                    for v in range(len(state.versions)):
                        if v in state.caller_owned:
                            continue
                        state.free_version(v)
            else:  # pragma: no cover - defensive
                raise TypeError(op)

    def _exec_remap(
        self,
        frame: _Frame,
        state: ArrayRuntime,
        leaving: int,
        use: Use,
        keep: frozenset[int],
        dead_values: bool,
        check_status: bool,
        tag: str,
    ) -> None:
        stats = self.machine.stats
        if check_status:
            self.machine.status_check()
        if not (check_status and state.status == leaving and state.live[leaving]):
            if state.insts[leaving] is None:
                inst = self.memory.allocate(
                    f"{state.name}_{leaving}", state.versions[leaving], self.env.dtype
                )
                if dead_values or state.poisoned:
                    for rank in inst.blocks:
                        inst.blocks[rank].fill(np.nan)
                state.insts[leaving] = inst
            if check_status and state.live[leaving]:
                # the kept copy is live: reuse without any communication
                stats.remaps_skipped_live += 1
            else:
                src = state.status
                if use is Use.D or dead_values or state.poisoned:
                    # target values are dead on arrival: allocate only
                    stats.remaps_dead_copy += 1
                elif src == leaving or state.insts[src] is None or not state.live[src]:
                    # nothing to copy from: a never-instantiated array is
                    # materialized at its first remapping (paper Sec. 5.2)
                    stats.remaps_dead_copy += 1
                else:
                    self._remap_copy(state, src, leaving, tag)
                    stats.remaps_performed += 1
                state.live[leaving] = True
            state.status = leaving
        else:
            stats.remaps_skipped_status += 1
        # the leaving copy may be modified afterwards: siblings become stale
        if use in (Use.W, Use.D):
            state.mark_stale_siblings(leaving)
        # cleanup: free copies not worth keeping (Appendix D's M set)
        for v in range(len(state.versions)):
            if v == state.status or v in keep:
                continue
            if state.live[v] or state.insts[v] is not None:
                state.free_version(v)
        if self.env.check_invariants and not state.poisoned:
            if not state.check_live_copies_consistent():
                raise RuntimeRemapError(
                    f"live copies of {state.name!r} diverged after remapping"
                )

    def _remap_copy(
        self, state: ArrayRuntime, src: int, leaving: int, tag: str
    ) -> None:
        """Move the data of one remapping copy, scheduled when opted in.

        Either way the copy runs as "look the plan up, execute its lowered
        form": the plan object owns its copy descriptors, so only the first
        execution of a plan pays any index arithmetic.
        """
        source, target = state.insts[src], state.insts[leaving]
        assert source is not None and target is not None
        src_mapping = state.versions[src]
        dst_mapping = state.versions[leaving]
        if self.policy is None:
            key = (src_mapping.signature, dst_mapping.signature)
            sched = self._schedules.get(key)
            if sched is None:
                sched = self._schedules[key] = build_schedule(
                    source.layout, target.layout
                )
            self._run_unscheduled(sched, source, target, tag)
            return
        assert self._plan_overlay is not None
        stats = self.machine.stats
        itemsize = np.dtype(self.env.dtype).itemsize
        plan = self.plans.lookup(src_mapping, dst_mapping) if self.plans else None
        if plan is None:
            plan = self._plan_overlay.lookup(src_mapping, dst_mapping)
        if plan is None:
            plan = self._plan_overlay.build(src_mapping, dst_mapping)
            stats.plans_built += 1
            reused = False
        else:
            stats.plans_reused += 1
            reused = True
        bytes_before = stats.bytes
        messages_before = stats.messages
        makespan_before = self.machine.phase_seconds
        with _TRACER.span("remap.plan_replay", tag=tag, reused=reused):
            self._run_plan(plan, source, target, tag)
        predicted = plan.lowered(source.layout, target.layout)
        self.drift.record(
            DriftRecord(
                tag=tag,
                predicted_bytes=predicted.moved_elements * itemsize,
                observed_bytes=stats.bytes - bytes_before,
                predicted_messages=predicted.message_count,
                observed_messages=stats.messages - messages_before,
                predicted_makespan=predicted.makespan(self.machine.cost, itemsize),
                observed_makespan=self.machine.phase_seconds - makespan_before,
            )
        )

    # -- movement hooks (the mp backend overrides these two) ------------------

    def _run_unscheduled(self, sched, source, target, tag: str) -> None:
        """Move one unscheduled remapping's transfers (simulated here)."""
        execute_schedule(sched, source, target, self.machine, tag=tag)

    def _run_plan(self, plan, source, target, tag: str) -> None:
        """Move one planned remapping phase by phase (simulated here)."""
        execute_comm_schedule(plan, source, target, self.machine, tag=tag)

    # -- statements -------------------------------------------------------------------------

    def _exec_block(self, frame: _Frame, block: Block) -> None:
        for stmt in block.stmts:
            self._exec_stmt(frame, stmt)

    def _resolve_extent(self, frame: _Frame, e) -> int:
        if isinstance(e, int):
            return e
        for source in (frame.loops, self.env.bindings, frame.compiled.sub.bindings):
            if e in source:
                return int(source[e])
        raise RuntimeRemapError(f"no runtime value for loop bound {e!r}")

    def _exec_stmt(self, frame: _Frame, stmt: Stmt) -> None:
        code = frame.compiled.code
        self._exec_ops(frame, code.ops_for(stmt))
        self._exec_stmt_core(frame, stmt)
        self._exec_ops(frame, code.ops_after(stmt))

    def _exec_stmt_core(self, frame: _Frame, stmt: Stmt) -> None:
        """One statement without its surrounding generated ops.

        Split out of :meth:`_exec_stmt` so fused loop replay
        (:mod:`repro.runtime.fusion`) can record the ops separately and
        still drive nested loops and calls through the interpreter.
        """
        if isinstance(stmt, Compute):
            self._exec_compute(frame, stmt)
        elif isinstance(stmt, (Realign, Redistribute, Kill)):
            pass  # fully handled by the generated ops
        elif isinstance(stmt, Call):
            self._exec_call(frame, stmt)
        elif isinstance(stmt, If):
            if self.env.condition(stmt.cond):
                self._exec_block(frame, stmt.then)
            else:
                self._exec_block(frame, stmt.orelse)
        elif isinstance(stmt, Do):
            lo = self._resolve_extent(frame, stmt.lo)
            hi = self._resolve_extent(frame, stmt.hi)
            # with >= 3 trips there is at least one replay after the two
            # recording iterations, so fusion can pay off; shorter loops
            # (and runs that opted out) take the plain interpreter
            if self._fuse and hi - lo >= 2:
                run_fused_loop(self, frame, stmt, lo, hi)
            else:
                for i in range(lo, hi + 1):
                    frame.loops[stmt.var] = i
                    self._exec_block(frame, stmt.body)
        else:  # pragma: no cover - defensive
            raise TypeError(stmt)

    def _exec_compute(self, frame: _Frame, stmt: Compute) -> None:
        ann = frame.compiled.stmt_versions.get(id(stmt), {})
        for name, version in ann.items():
            state = frame.arrays[name]
            if state.status != version:
                raise RuntimeRemapError(
                    f"compiled reference expects {name}_{version} but runtime "
                    f"status is {name}_{state.status} (compiler bug)"
                )
            self._ensure_instantiated(frame, state, version)
        kernel = self.env.kernels.get(stmt.label, default_kernel)
        kernel(KernelContext(self, frame, stmt))
        for name in stmt.writes + stmt.defines:
            if name in frame.arrays:
                frame.arrays[name].poisoned = False

    def _exec_call(self, frame: _Frame, stmt: Call) -> None:
        node = frame.compiled.construction.cfg.node_of_stmt(stmt)
        info = frame.compiled.calls.get(node.call_group or -1)
        if info is None:
            raise RuntimeRemapError(f"no call info for {stmt.callee}")
        callee = self.compiled.get(stmt.callee)
        args = {
            dummy: frame.arrays[arg] for arg, dummy in zip(info.args, info.dummies)
        }
        callee_frame = self._enter_frame(callee, args=args, caller=frame)
        self._exec_ops(callee_frame, callee.code.entry_ops)
        self._exec_block(callee_frame, callee.sub.body)
        self._exec_ops(callee_frame, callee.code.exit_ops)
        self._frames.pop()
        # poison propagates back through the shared dummy storage
        for arg, dummy in zip(info.args, info.dummies):
            if callee.sub.arrays[dummy].intent in ("out", "inout"):
                frame.arrays[arg].poisoned = callee_frame.arrays[dummy].poisoned


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
    machine = machine or Machine(compiled.processors)
    return Executor(compiled, machine, env or ExecutionEnv()).run(entry)
