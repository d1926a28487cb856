"""The paper's Sec. 5 runtime, written down once: the descriptor walker.

The generated code of :mod:`repro.remap.codegen` relies on a small runtime
state machine: per-array *status* descriptors (which version is current),
per-version *live* flags, lazy instantiation, the kill directive's poison,
saved reaching statuses around calls (Fig. 15/18) and the cleanup of copies
not worth keeping (Appendix D).  Which remapping communicates depends only
on those descriptors -- never on array values -- so the same walk serves
every consumer that needs the semantics:

* :class:`~repro.runtime.executor.Executor` runs it over real NumPy storage
  on the simulated machine (and, through its movement hooks, on the
  multi-process backend);
* :class:`~repro.spmd.traffic.TrafficSimulator` runs it over nothing at all
  and prices each performed copy.  :func:`~repro.spmd.traffic.simulate_grid`
  drives it over a whole scenario grid at once -- one top-level statement
  at a time, once per group of scenarios that reach the statement in one
  descriptor state and read equal branch outcomes and loop bounds there --
  which is what the cost guard, the ``traffic-estimate`` pass, lint RPR005
  and (as a one-scenario grid) :func:`~repro.spmd.traffic.predict_traffic`
  consume.

:class:`DescriptorWalker` owns everything the two share -- op dispatch, the
Fig. 20 remap decision chain, frame entry and dummy-argument hand-off,
call/return poison propagation, the statement walk, extent and condition
resolution -- over ``(ConstructionResult, GeneratedCode)`` pairs.  It asks
its subclass only for what differs (the hooks under "what a subclass
provides" below, plus the ``error`` and ``descriptor`` classes).

The walker never asks *who* its subclass is: a semantic fix made here holds
for the executor and for every prediction by construction, and "the
estimator mirrors the executor" needs no parallel edit to stay true.  This
module therefore imports neither NumPy nor anything of ``repro.spmd``,
``repro.runtime`` or ``repro.compiler``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
    GeneratedCode,
    PoisonOp,
    RemapOp,
    RestoreOp,
    RuntimeOp,
    SaveStatusOp,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.remap.construction import ConstructionResult

#: How one remapping ended (the branch of Fig. 20's guarded code that fired).
SKIPPED_STATUS = "skipped-status"  # already mapped as required (Sec. 4.3)
SKIPPED_LIVE = "skipped-live"  # the kept copy is live: no communication
DEAD_COPY = "dead-copy"  # values dead or absent: allocated only
PERFORMED = "performed"  # a real copy moved the values


def resolve_condition(
    conditions: dict[str, object],
    iterators: dict[str, Iterator],
    name: str,
    error: type[Exception],
) -> bool:
    """One runtime branch outcome: a bool, a callable, or the next item of
    a sequence (``iterators`` remembers each sequence's position)."""
    if name not in conditions:
        raise error(f"no value provided for condition {name!r}")
    v = conditions[name]
    if isinstance(v, bool):
        return v
    if callable(v):
        return bool(v())
    if isinstance(v, Sequence):
        it = iterators.setdefault(name, iter(v))
        try:
            return bool(next(it))
        except StopIteration:
            raise error(f"condition sequence for {name!r} exhausted") from None
    raise error(f"bad condition value for {name!r}: {v!r}")


@dataclass
class ArrayDescriptor:
    """Runtime state of one (abstract) array (paper Sec. 5.1).

    The status (a version id -- at run time it is always concrete, ambiguity
    is a purely static notion), one live flag and one storage handle per
    version (``None`` until instantiated; what a handle *is* belongs to the
    walker subclass that allocated it), the caller-owned versions
    (dummy-argument storage the callee must never free) and the poisoned
    flag, the observable side of the kill directive.
    """

    name: str
    versions: Sequence  # one mapping per version
    status: int = 0
    live: list[bool] = field(default_factory=list)
    insts: list = field(default_factory=list)
    caller_owned: set[int] = field(default_factory=set)
    poisoned: bool = False

    def __post_init__(self) -> None:
        n = len(self.versions)
        if not self.live:
            self.live = [False] * n
        if not self.insts:
            self.insts = [None] * n

    def live_versions(self) -> list[int]:
        return [v for v, l in enumerate(self.live) if l]

    def mark_stale_siblings(self, keep_version: int) -> None:
        """The current copy is about to be modified: others become stale."""
        for v in range(len(self.live)):
            if v != keep_version:
                self.live[v] = False

    def free_version(self, v: int) -> None:
        """Kill one version and drop its storage (unless caller-owned)."""
        self.live[v] = False
        if v not in self.caller_owned:
            self.insts[v] = None


@dataclass
class Frame:
    """One subroutine activation: its compiled pair plus its descriptors."""

    construction: "ConstructionResult"
    code: GeneratedCode
    arrays: dict[str, ArrayDescriptor]
    slots: dict[str, int] = field(default_factory=dict)
    loops: dict[str, int] = field(default_factory=dict)


class DescriptorWalker:
    """Walks compiled subroutines maintaining the Sec. 5 runtime descriptors.

    One walker serves one walk.  ``bindings`` supplies the loop bounds the
    program text leaves symbolic.
    """

    #: the exception type a failed walk raises
    error: type[Exception]
    #: the descriptor class of a frame's arrays (a subclass may add
    #: storage-aware helpers)
    descriptor: type[ArrayDescriptor] = ArrayDescriptor

    def __init__(
        self,
        constructions: dict[str, "ConstructionResult"],
        codes: dict[str, GeneratedCode],
        bindings: dict[str, int],
    ):
        self.constructions = constructions
        self.codes = codes
        self.bindings = bindings
        self._frames: list[Frame] = []

    # -- what a subclass provides -------------------------------------------

    def _seed(self, state: ArrayDescriptor) -> bool:
        """Top level only: if the harness (acting as the caller) provides
        this array's initial values, put them in version 0 and say so."""
        raise NotImplementedError

    def _allocate(self, state: ArrayDescriptor, version: int, poison: bool):
        """Create one version's storage (NaN-filled when ``poison``: its
        values are dead on arrival) and return the handle to keep."""
        raise NotImplementedError

    def _status_check(self) -> None:
        """Account one runtime "is the array already mapped as required"."""
        raise NotImplementedError

    def _remap_copy(
        self, state: ArrayDescriptor, src: int, leaving: int, tag: str
    ) -> None:
        """Copy the values of live version ``src`` into version ``leaving``."""
        raise NotImplementedError

    def _compute(self, frame: Frame, stmt: Compute) -> None:
        """Run one compute statement on the current copies it references."""
        raise NotImplementedError

    def _condition(self, name: str) -> bool:
        """The outcome of one runtime branch (see :func:`resolve_condition`)."""
        raise NotImplementedError

    def _remapped(self, state: ArrayDescriptor, outcome: str) -> None:
        """One remapping of ``state`` just ended as ``outcome``."""

    # -- the walk -----------------------------------------------------------

    def walk(self, entry: str) -> Frame:
        """Run one subroutine as the program entry point; returns its frame."""
        return self._run_frame(entry, args=None)

    def _run_frame(self, name: str, args: dict[str, ArrayDescriptor] | None) -> Frame:
        frame = self._enter_frame(name, args)
        self._run_ops(frame, frame.code.entry_ops)
        self._run_block(frame, frame.construction.sub.body)
        self._run_ops(frame, frame.code.exit_ops)
        self._frames.pop()
        return frame

    # -- environment --------------------------------------------------------

    def _resolve_extent(self, frame: Frame, e) -> int:
        if isinstance(e, int):
            return e
        for source in (frame.loops, self.bindings):
            if e in source:
                return int(source[e])
        raise self.error(f"no value provided for loop bound {e!r}")

    # -- frames -------------------------------------------------------------

    def _enter_frame(
        self, name: str, args: dict[str, ArrayDescriptor] | None
    ) -> Frame:
        try:
            res = self.constructions[name]
            code = self.codes[name]
        except KeyError:
            raise self.error(f"no compiled subroutine {name!r}") from None
        arrays = {
            a: self.descriptor(a, res.versions.versions(a)) for a in res.sub.arrays
        }
        frame = Frame(res, code, arrays)
        if not self._frames:
            # top level: the harness acts as the caller, providing inputs
            for a, state in arrays.items():
                if self._seed(state) or res.sub.arrays[a].is_dummy:
                    self._instantiate(state, 0)
                    state.live[0] = True
        elif args:
            # the callee's dummy version 0 shares the caller's current copy:
            # "the argument is the only information the callee obtains"
            for dummy, caller_state in args.items():
                state = arrays[dummy]
                state.insts[0] = caller_state.insts[caller_state.status]
                state.live[0] = caller_state.live[caller_state.status]
                state.caller_owned.add(0)
                state.poisoned = caller_state.poisoned
        self._frames.append(frame)
        return frame

    # -- instantiation ------------------------------------------------------

    def _instantiate(self, state: ArrayDescriptor, version: int, poison: bool = False):
        """The version's storage handle, allocated on first need."""
        inst = state.insts[version]
        if inst is None:
            inst = state.insts[version] = self._allocate(state, version, poison)
        return inst

    def _ensure(self, state: ArrayDescriptor, version: int) -> None:
        """A referenced version exists, and an uninitialized (or
        regenerated-later) copy becomes live the moment it is the
        referenced current version."""
        self._instantiate(state, version)
        if not state.live[version] and version == state.status:
            state.live[version] = True

    # -- ops ----------------------------------------------------------------

    def _run_ops(self, frame: Frame, ops: Sequence[RuntimeOp]) -> None:
        for op in ops:
            if isinstance(op, RemapOp):
                self._remap(
                    frame.arrays[op.array],
                    op.leaving,
                    op.use,
                    op.keep,
                    op.dead_values,
                    op.check_status,
                    op.label,
                )
            elif isinstance(op, SaveStatusOp):
                frame.slots[op.slot] = frame.arrays[op.array].status
            elif isinstance(op, RestoreOp):
                saved = frame.slots.get(op.slot)
                if saved is None:
                    raise self.error(f"restore without save: {op.slot}")
                if saved not in op.possible:
                    raise self.error(
                        f"saved status {saved} not among statically possible "
                        f"{sorted(op.possible)} for {op.array}"
                    )
                self._remap(
                    frame.arrays[op.array],
                    saved,
                    op.use,
                    op.keep | frozenset({saved}),
                    False,  # a restored copy's values are wanted
                    op.check_status,
                    op.label,
                )
            elif isinstance(op, PoisonOp):
                frame.arrays[op.array].poisoned = True
            elif isinstance(op, EntryOp):
                pass  # descriptors start all-dead by construction
            elif isinstance(op, ExitOp):
                if frame is self._frames[0]:
                    continue  # the harness (caller) still reads the results
                for a in op.arrays:
                    state = frame.arrays[a]
                    for v in range(len(state.live)):
                        if v not in state.caller_owned:
                            state.free_version(v)
            else:  # pragma: no cover - defensive
                raise TypeError(op)

    def _remap(
        self,
        state: ArrayDescriptor,
        leaving: int,
        use: Use,
        keep: frozenset[int],
        dead_values: bool,
        check_status: bool,
        tag: str,
    ) -> None:
        """One Fig. 20 block; reports which of its branches fired."""
        if check_status:
            self._status_check()
        if check_status and state.status == leaving and state.live[leaving]:
            outcome = SKIPPED_STATUS
        else:
            self._instantiate(state, leaving, poison=dead_values or state.poisoned)
            if check_status and state.live[leaving]:
                outcome = SKIPPED_LIVE
            else:
                src = state.status
                if use is Use.D or dead_values or state.poisoned:
                    # target values are dead on arrival: allocate only
                    outcome = DEAD_COPY
                elif src == leaving or state.insts[src] is None or not state.live[src]:
                    # nothing to copy from: a never-instantiated array is
                    # materialized at its first remapping (paper Sec. 5.2)
                    outcome = DEAD_COPY
                else:
                    self._remap_copy(state, src, leaving, tag)
                    outcome = PERFORMED
                state.live[leaving] = True
            state.status = leaving
        # the leaving copy may be modified afterwards: siblings become stale
        if use in (Use.W, Use.D):
            state.mark_stale_siblings(leaving)
        # cleanup: free copies not worth keeping (Appendix D's M set)
        for v in range(len(state.live)):
            if v == state.status or v in keep:
                continue
            if state.live[v] or state.insts[v] is not None:
                state.free_version(v)
        self._remapped(state, outcome)

    # -- statements ---------------------------------------------------------

    def _run_block(self, frame: Frame, block: Block) -> None:
        for stmt in block.stmts:
            self._run_stmt(frame, stmt)

    def _run_stmt(self, frame: Frame, stmt: Stmt) -> None:
        node = frame.construction.cfg.node_of_stmt(stmt)
        code = frame.code
        self._run_ops(frame, code.before.get(node.id, ()))
        if isinstance(stmt, Compute):
            self._run_compute(frame, stmt, node.id)
        elif isinstance(stmt, (Realign, Redistribute, Kill)):
            pass  # fully handled by the generated ops
        elif isinstance(stmt, Call):
            self._run_call(frame, stmt, node.call_group)
        elif isinstance(stmt, If):
            if self._condition(stmt.cond):
                self._run_block(frame, stmt.then)
            else:
                self._run_block(frame, stmt.orelse)
        elif isinstance(stmt, Do):
            lo = self._resolve_extent(frame, stmt.lo)
            hi = self._resolve_extent(frame, stmt.hi)
            for i in range(lo, hi + 1):
                frame.loops[stmt.var] = i
                self._run_block(frame, stmt.body)
        else:  # pragma: no cover - defensive
            raise TypeError(stmt)
        self._run_ops(frame, code.after.get(node.id, ()))

    def _run_compute(self, frame: Frame, stmt: Compute, nid: int) -> None:
        # every reference checks that the runtime status equals the
        # statically annotated version: a miscompiled program fails loudly
        for name, version in frame.construction.stmt_versions.get(nid, {}).items():
            state = frame.arrays[name]
            if state.status != version:
                raise self.error(
                    f"compiled reference expects {name}_{version} but the "
                    f"status is {name}_{state.status} (compiler bug)"
                )
            self._ensure(state, version)
        self._compute(frame, stmt)
        for name in stmt.writes + stmt.defines:
            state = frame.arrays.get(name)
            if state is not None:
                state.poisoned = False

    def _run_call(self, frame: Frame, stmt: Call, group: int | None) -> None:
        info = frame.construction.calls.get(group or -1)
        if info is None:
            raise self.error(f"no call info for {stmt.callee}")
        pairs = list(zip(info.args, info.dummies))
        callee = self._run_frame(
            stmt.callee, args={dummy: frame.arrays[arg] for arg, dummy in pairs}
        )
        # poison propagates back through the shared dummy storage
        callee_arrays = callee.construction.sub.arrays
        for arg, dummy in pairs:
            if callee_arrays[dummy].intent in ("out", "inout"):
                frame.arrays[arg].poisoned = callee.arrays[dummy].poisoned
