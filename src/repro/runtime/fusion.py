"""Fused loop replay: record a loop body once, replay it as a step list.

The executor interprets a ``DO`` loop's body statement by statement: every
iteration pays the generated-op table lookups and the statement dispatch,
even though, at steady state, every iteration runs the same ops in the
same order.  This module implements the trace-and-replay half of the
ROADMAP's loop-execution item: the executor *records* the body's op
sequence while interpreting it, then *replays* the recording as one
flat sequence of steps for the remaining trips.

Semantics are preserved exactly -- bit-identical values, bytes, messages
and traffic-stat accounting -- because a recorded step is never trusted
beyond what is re-checked at replay time:

* every generated op, remaps included, runs through the interpreter's own
  :meth:`Executor._exec_ops` against the live runtime state, so a replayed
  remapping copy takes the same decision chain, executes the same lowered
  plan (:meth:`~repro.spmd.schedule.CommSchedule.lowered`) and emits the
  same ``comm.phase`` spans as a live one;
* branch steps re-evaluate their condition; a diverging outcome executes
  the actual arm through the ordinary interpreter and **invalidates** the
  trace (it is re-recorded on the next iteration);
* nested loops and calls are replayed through the ordinary interpreter
  (nested ``DO`` loops fuse independently with their own traces).

Fusion is an executor-local optimization: it is on by default
(:attr:`~repro.runtime.executor.ExecutionEnv.fuse_loops`), disabled
automatically when the machine has a memory limit (eviction makes the
per-iteration state non-deterministic), and never touches the shared
artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lang.ast_nodes import Block, Compute, Do, If, Kill, Realign, Redistribute
from repro.obs.trace import TRACER as _TRACER
from repro.remap.codegen import RuntimeOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.lang.ast_nodes import Stmt
    from repro.runtime.executor import Executor, _Frame


# ---------------------------------------------------------------------------
# trace steps
# ---------------------------------------------------------------------------


@dataclass
class _StepOps:
    """A statement's generated ops, replayed through ``_exec_ops``."""

    ops: tuple[RuntimeOp, ...]

    def replay(self, ex: "Executor", frame: "_Frame") -> bool:
        ex._exec_ops(frame, self.ops)
        return True


@dataclass
class _StepCompute:
    """A compute statement; the kernel itself is always executed live."""

    stmt: Compute

    def replay(self, ex: "Executor", frame: "_Frame") -> bool:
        ex._exec_compute(frame, self.stmt)
        return True


@dataclass
class _StepIf:
    """A branch with its recorded outcome, arm steps and join-point steps.

    The condition is re-evaluated every replay (consuming the environment's
    condition sequence exactly like the interpreter).  On the recorded
    outcome the arm replays fused; on divergence the actual arm runs
    through the ordinary interpreter and the step reports ``False`` so the
    caller invalidates the trace.  The join-point ops after the branch are
    replayed either way -- they are correct for both arms by construction
    (that is what the resolver's merge remaps are for).
    """

    stmt: If
    expected: bool
    arm: list["TraceStep"]
    after: list["TraceStep"]

    def replay(self, ex: "Executor", frame: "_Frame") -> bool:
        actual = ex.env.condition(self.stmt.cond)
        if actual == self.expected:
            ok = _replay_steps(ex, frame, self.arm)
        else:
            ex._exec_block(frame, self.stmt.then if actual else self.stmt.orelse)
            ok = False
        return _replay_steps(ex, frame, self.after) and ok


@dataclass
class _StepDynamic:
    """A nested loop or call, replayed through the ordinary interpreter.

    Nested ``DO`` loops fuse independently (their traces key on the inner
    statement), so an outer replay still drives inner fused replays.
    """

    stmt: "Stmt"

    def replay(self, ex: "Executor", frame: "_Frame") -> bool:
        ex._exec_stmt_core(frame, self.stmt)
        return True


TraceStep = _StepOps | _StepCompute | _StepIf | _StepDynamic
"""The step alphabet of a recorded loop iteration."""


@dataclass
class LoopTrace:
    """One loop's recorded iteration as a step tree."""

    steps: list[TraceStep] = field(default_factory=list)
    #: a trace only replays once it has been recorded at steady state
    #: (i.e. re-recorded on the iteration after its first recording)
    warm: bool = False


@dataclass
class FusionStats:
    """Per-run counters of the fused-replay machinery (see ``obs`` too)."""

    traces_recorded: int = 0
    replays: int = 0
    invalidations: int = 0


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


def _record_ops(
    ex: "Executor", frame: "_Frame", ops: list[RuntimeOp], sink: list[TraceStep]
) -> None:
    if ops:
        ex._exec_ops(frame, ops)
        sink.append(_StepOps(tuple(ops)))


def _record_stmt(
    ex: "Executor", frame: "_Frame", stmt: "Stmt", sink: list[TraceStep]
) -> None:
    code = frame.compiled.code
    _record_ops(ex, frame, code.ops_for(stmt), sink)
    if isinstance(stmt, Compute):
        ex._exec_compute(frame, stmt)
        sink.append(_StepCompute(stmt))
    elif isinstance(stmt, (Realign, Redistribute, Kill)):
        pass  # fully handled by the generated ops
    elif isinstance(stmt, If):
        taken = ex.env.condition(stmt.cond)
        arm: list[TraceStep] = []
        _record_block(ex, frame, stmt.then if taken else stmt.orelse, arm)
        after: list[TraceStep] = []
        _record_ops(ex, frame, code.ops_after(stmt), after)
        sink.append(_StepIf(stmt, taken, arm, after))
        return  # join-point ops consumed by the branch step
    else:  # nested Do / Call: interpreted, not flattened
        ex._exec_stmt_core(frame, stmt)
        sink.append(_StepDynamic(stmt))
    _record_ops(ex, frame, code.ops_after(stmt), sink)


def _record_block(
    ex: "Executor", frame: "_Frame", block: Block, sink: list[TraceStep]
) -> None:
    for stmt in block.stmts:
        _record_stmt(ex, frame, stmt, sink)


def record_iteration(ex: "Executor", frame: "_Frame", body: Block) -> LoopTrace:
    """Execute one loop iteration while recording it as a step tree."""
    trace = LoopTrace()
    _record_block(ex, frame, body, trace.steps)
    return trace


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _replay_steps(
    ex: "Executor", frame: "_Frame", steps: list[TraceStep]
) -> bool:
    ok = True
    for step in steps:
        if not step.replay(ex, frame):
            ok = False
    return ok


def run_fused_loop(
    ex: "Executor", frame: "_Frame", stmt: Do, lo: int, hi: int
) -> None:
    """Drive one ``DO`` loop with record-then-replay iteration handling.

    Iteration 1 records cold, iteration 2 re-records (capturing the steady
    state the first iteration's bootstrap copies perturb), and iterations
    3..t replay the warm trace.  A divergence -- a branch outcome flip --
    completes the iteration correctly, invalidates the trace, and
    recording starts over on the next iteration.
    """
    traces = ex._loop_traces
    key = id(stmt)
    for i in range(lo, hi + 1):
        frame.loops[stmt.var] = i
        trace = traces.get(key)
        if trace is not None and trace.warm:
            with _TRACER.span("loop.replay", var=stmt.var, index=i):
                ok = _replay_steps(ex, frame, trace.steps)
            if ok:
                ex.fusion.replays += 1
            else:
                del traces[key]
                ex.fusion.invalidations += 1
            continue
        new = record_iteration(ex, frame, stmt.body)
        new.warm = trace is not None
        traces[key] = new
        ex.fusion.traces_recorded += 1
