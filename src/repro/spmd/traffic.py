"""Static traffic estimation: the runtime semantics run without any data.

The simulated machine charges communication in exactly one place -- the
remapping copies of :mod:`repro.spmd.redistribution` -- and the decision of
whether a generated :class:`~repro.remap.codegen.RemapOp` communicates
depends only on the runtime descriptors (status, liveness, poisoning), never
on array *values*.  So the same :class:`~repro.remap.walker.DescriptorWalker`
the executor is built on, run over no storage at all and pricing each
performed copy by its exact message schedule, predicts the executor's
traffic **exactly**, given the same runtime inputs (branch outcomes, loop
trip counts, which arrays hold input values).

Three layers:

* :class:`Scenario` / :func:`enumerate_scenarios` -- one concrete choice
  of runtime inputs, and the grid of them a placement decision must be
  validated against; since PR 7 these live in
  :mod:`repro.symbolic.scenarios` (the shared symbolic subsystem);
  these two names are imported here, so they still resolve from this
  module;
* :func:`simulate_grid` -- the dry-run executor over a whole scenario
  list at once, returning a :class:`GridWalk` (each scenario's
  :class:`~repro.spmd.cost.TrafficEstimate`, or the error its walk
  raised, and the branch conditions it evaluated).
  :class:`TrafficSimulator` is the hook set it drives; the cost guard,
  :func:`estimate_range` (the ``traffic-estimate`` pass) and lint RPR005
  all call it, and :func:`simulate_traffic` is its one-scenario grid;
* :func:`predict_traffic` -- the user-facing oracle half: predict the
  traffic of a compiled program for one known environment, to be checked
  against the machine's observed :class:`~repro.spmd.message.TrafficStats`.

The grid walk.  Which way a statement walks depends on the descriptor
state it starts from and on the scenario axes it reads (its branch
outcomes and loop bounds, its callees' included) -- never on anything
else of the scenario.  So :func:`simulate_grid` walks the entry frame one
top-level statement at a time over *threads*, each one descriptor state
plus the scenarios in that state: before a statement it groups a thread's
scenarios by the values of the axes that statement reads and runs the
statement once per group; afterwards threads in equal states merge.  The
inputs axis is split once, at frame entry.  Every scenario is credited
the prices of the copies its group performed, one by one and in walk
order, so each estimate is the one its own walk would sum, makespan
floats included.

Assumptions (documented, not checked): compute statements behave like the
executor's default kernel -- they touch exactly their declared effects --
and the machine runs without a memory limit (no live-copy evictions).
Custom kernels that read or write fewer arrays than declared can make real
liveness diverge from the prediction.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import ReproError, TrafficPredictionError
from repro.lang.ast_nodes import Block, Call, Compute, Do, If, Stmt, walk_statements
from repro.remap.codegen import GeneratedCode
from repro.remap.walker import ArrayDescriptor, DescriptorWalker, Frame, resolve_condition
from repro.spmd.cost import CostModel, TrafficEstimate
from repro.spmd.schedule import obtain_plan
from repro.symbolic.scenarios import SCENARIO_CAP, Scenario, enumerate_scenarios

if TYPE_CHECKING:
    from repro.remap.construction import ConstructionResult


# ---------------------------------------------------------------------------
# what one copy costs
# ---------------------------------------------------------------------------


def _copy_price(
    src_mapping, dst_mapping, policy: str | None, itemsize: int, cost: CostModel
) -> TrafficEstimate:
    """What one performed copy adds to an estimate: the ledger delta of the
    plan the executor runs for the pair (:func:`obtain_plan`)."""
    delta = obtain_plan(policy, src_mapping, dst_mapping).ledger(cost, itemsize)
    return TrafficEstimate(
        bytes=delta.bytes,
        messages=delta.messages,
        local_bytes=delta.local_bytes,
        local_copies=delta.local_copies,
        phases=len(delta.durations),
        makespan=delta.makespan,
    )


# ---------------------------------------------------------------------------
# the dry-run executor
# ---------------------------------------------------------------------------


class TrafficSimulator(DescriptorWalker):
    """The runtime semantics over no storage: counts and prices, moves nothing.

    The hook set :func:`simulate_grid` drives.  Before each step of a grid
    walk the grid points it at one scenario (:attr:`scenario`, whose
    bindings become the walk's) and at one thread's frame; the step leaves
    in :attr:`priced` the price of every copy it performed, in order, in
    :attr:`status_checks` the runtime checks it made and in
    :attr:`evaluated` the branch conditions it read.
    """

    error = TrafficPredictionError

    def __init__(
        self,
        constructions: dict[str, "ConstructionResult"],
        codes: dict[str, GeneratedCode],
        scenario: Scenario,
        policy: str | None = None,
        cost: CostModel | None = None,
    ):
        super().__init__(constructions, codes, scenario.bindings)
        self.scenario = scenario
        self._cond_iters: dict = {}  # positions of the condition sequences
        #: when set, copies are priced as the policy's scheduled executions
        self.policy = policy
        self.cost = cost or CostModel()
        self.priced: list[TrafficEstimate] = []
        self.status_checks = 0
        self.evaluated: set[str] = set()

    def run(self, entry: str) -> TrafficEstimate:
        """The traffic of ``entry`` under :attr:`scenario`: the one-scenario grid."""
        return _Grid(self, [self.scenario]).walk(entry).checked()[0]

    # -- what the walker asks for ---------------------------------------------

    def _seed(self, state: ArrayDescriptor) -> bool:
        live = self.scenario.inputs
        return live is None or state.name in live

    def _allocate(self, state: ArrayDescriptor, version: int, poison: bool):
        return True  # a version either has storage or not; there is no data

    def _status_check(self) -> None:
        self.status_checks += 1

    def _remap_copy(
        self, state: ArrayDescriptor, src: int, leaving: int, tag: str
    ) -> None:
        self.priced.append(
            _copy_price(
                state.versions[src],
                state.versions[leaving],
                self.policy,
                self.scenario.itemsize,
                self.cost,
            )
        )

    def _condition(self, name: str) -> bool:
        self.evaluated.add(name)
        return resolve_condition(self.scenario.conditions, self._cond_iters, name, self.error)

    def _compute(self, frame: Frame, stmt: Compute) -> None:
        # default-kernel effects: referenced current copies become live
        for name in stmt.reads + stmt.writes + stmt.defines:
            state = frame.arrays.get(name)
            if state is not None:
                self._ensure(state, state.status)


# ---------------------------------------------------------------------------
# the grid walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridWalk:
    """One grid walk's answers, scenario by scenario in the order given."""

    estimates: list[TrafficEstimate | None]  # None where the walk failed
    errors: list[ReproError | None]  # what each failed walk raised
    evaluated: list[frozenset[str]]  # the branch conditions each walk read
    #: top-level statements of the entry subroutine, and the runs of them
    #: the grid made (walking scenario by scenario makes scenarios x
    #: statements)
    statements: int
    executions: int

    def checked(self) -> list[TrafficEstimate]:
        """Every estimate; the first failed scenario's error is raised instead."""
        for error in self.errors:
            if error is not None:
                raise error
        return self.estimates  # type: ignore[return-value]


#: what a scenario's walk has summed so far: (the prices of its copies,
#: in walk order; its status checks; the conditions it evaluated)
_Tally = tuple[TrafficEstimate, int, frozenset]


@dataclass
class _Thread:
    """One descriptor state -- the entry frame -- and the scenarios in it."""

    frame: Frame | None  # None before frame entry
    #: the scenarios (indices into the grid's list) in cohorts: scenarios
    #: whose walks have summed equal tallies share one
    cohorts: list[tuple[_Tally, list[int]]]
    #: positions of condition sequences: only an isolated thread's are used
    cond_iters: dict
    #: one scenario with a condition that is not a bool (a sequence or a
    #: callable has a position or a side effect): never grouped or merged
    isolated: bool


#: the value of an axis a scenario does not bind
_UNSET = object()


def _axes(
    constructions: dict[str, "ConstructionResult"], stmt: Stmt
) -> Callable[[Scenario], tuple] | None:
    """What ``stmt`` can read of a scenario, as a grouping key: the
    outcomes of its ``if`` conditions and the values of its ``do`` bounds,
    those of every subroutine it can call included (``None``: nothing)."""
    if not isinstance(stmt, (If, Do, Call)):
        return None
    conds: dict[str, None] = {}
    bounds: dict[str, None] = {}
    called: set[str] = set()
    blocks = [Block((stmt,))]
    while blocks:
        for s in walk_statements(blocks.pop()):
            if isinstance(s, If):
                conds[s.cond] = None
            elif isinstance(s, Do):
                bounds.update((e, None) for e in (s.lo, s.hi) if isinstance(e, str))
            elif isinstance(s, Call) and s.callee in constructions and s.callee not in called:
                called.add(s.callee)
                blocks.append(constructions[s.callee].sub.body)
    if not (conds or bounds):
        return None

    def key(sc: Scenario, conds=tuple(conds), bounds=tuple(bounds)) -> tuple:
        outcome, bound = sc.conditions.get, sc.bindings.get
        return (*[outcome(c, _UNSET) for c in conds], *[bound(b, _UNSET) for b in bounds])

    return key


def _state(frame: Frame) -> tuple:
    """Everything of the entry frame a later step can read.  (The entry
    frame owns no caller storage, and callee frames live inside a step.)"""
    return (
        tuple(
            (s.status, s.poisoned, tuple(s.live), tuple(s.insts))
            for s in frame.arrays.values()
        ),
        frozenset(frame.slots.items()),
        frozenset(frame.loops.items()),
    )


def _clone(frame: Frame) -> Frame:
    arrays = {
        name: ArrayDescriptor(
            s.name, s.versions, s.status, list(s.live), list(s.insts),
            set(s.caller_owned), s.poisoned,
        )
        for name, s in frame.arrays.items()
    }
    return Frame(
        frame.construction, frame.code, arrays, dict(frame.slots), dict(frame.loops)
    )


class _Grid:
    """One grid walk: its threads' steps, and every scenario's error."""

    def __init__(self, sim: TrafficSimulator, scenarios: list[Scenario]):
        self.sim = sim
        self.scenarios = scenarios
        self.errors: list[ReproError | None] = [None] * len(scenarios)

    def walk(self, entry: str) -> GridWalk:
        sim = self.sim

        def enter(_: None) -> Frame:
            frame = sim._enter_frame(entry, None)
            sim._run_ops(frame, frame.code.entry_ops)
            return frame

        zero: _Tally = (TrafficEstimate.zero(), 0, frozenset())
        threads, plain = [], []
        for i, sc in enumerate(self.scenarios):
            if all(type(v) is bool for v in sc.conditions.values()):
                plain.append(i)
            else:
                threads.append(_Thread(None, [(zero, [i])], {}, isolated=True))
        if plain:
            threads.append(_Thread(None, [(zero, plain)], {}, isolated=False))
        # frame entry reads the inputs; every step prices copies by the
        # itemsize, so a thread's scenarios share one from here on
        threads, _ = self._advance(threads, enter, lambda sc: (sc.inputs, sc.itemsize))
        res = sim.constructions.get(entry)
        stmts = res.sub.body.stmts if res is not None else ()
        executions = 0
        for stmt in stmts:
            if not threads:
                break

            def run(frame: Frame, stmt: Stmt = stmt) -> Frame:
                sim._run_stmt(frame, stmt)
                return frame

            threads, runs = self._advance(threads, run, _axes(sim.constructions, stmt))
            executions += runs

        def leave(frame: Frame) -> Frame:
            sim._run_ops(frame, frame.code.exit_ops)
            return frame

        threads, _ = self._advance(threads, leave, None)
        return self._result(threads, len(stmts), executions)

    def _advance(self, threads: list[_Thread], run, key) -> tuple[list[_Thread], int]:
        """Run one step on every thread, once per group of its scenarios
        that read equal values (``key``; ``None``: the step reads nothing of
        a scenario); merge the threads it leaves in equal states."""
        out: list[_Thread] = []
        runs = 0
        for thread in threads:
            if key is None or thread.isolated:
                groups = [thread.cohorts]
            else:
                groups = self._split(thread.cohorts, key)
            runs += len(groups)
            for cohorts in groups[:-1]:
                frame = None if thread.frame is None else _clone(thread.frame)
                frame = self._run(thread, frame, cohorts, run)
                if frame is not None:
                    out.append(_Thread(frame, cohorts, thread.cond_iters, thread.isolated))
            # the last group walks the thread itself
            thread.cohorts = groups[-1]
            thread.frame = self._run(thread, thread.frame, thread.cohorts, run)
            if thread.frame is not None:
                out.append(thread)
        return (self._merge(out) if len(out) > 1 else out), runs

    def _split(self, cohorts: list, key) -> list[list]:
        """A thread's cohorts, grouped by what the step reads of each
        scenario."""
        groups: dict[tuple, list] = {}
        for tally, members in cohorts:
            parts: dict[tuple, list[int]] = {}
            for m in members:
                parts.setdefault(key(self.scenarios[m]), []).append(m)
            for value, part in parts.items():
                groups.setdefault(value, []).append((tally, part))
        return list(groups.values())

    def _merge(self, threads: list[_Thread]) -> list[_Thread]:
        """Threads in equal descriptor states (and pricing at one itemsize),
        as one; its cohorts with equal tallies, as one."""
        out: list[_Thread] = []
        by_state: dict[tuple, _Thread] = {}
        merged: list[_Thread] = []
        for thread in threads:
            if thread.isolated:
                out.append(thread)
                continue
            itemsize = self.scenarios[thread.cohorts[0][1][0]].itemsize
            state = (itemsize, _state(thread.frame))
            into = by_state.get(state)
            if into is None:
                by_state[state] = thread
                out.append(thread)
            else:
                into.cohorts.extend(thread.cohorts)
                merged.append(into)
        for thread in merged:
            pooled: dict[_Tally, list[int]] = {}
            for tally, members in thread.cohorts:
                pooled.setdefault(tally, []).extend(members)
            thread.cohorts = list(pooled.items())
        return out

    def _run(self, thread: _Thread, frame: Frame | None, cohorts: list, run) -> Frame | None:
        """One step for one group, on its first scenario's values; credits
        every cohort (in place), or records the error for every scenario."""
        sim = self.sim
        sim.scenario = scenario = self.scenarios[cohorts[0][1][0]]
        sim.bindings = scenario.bindings
        sim._cond_iters = thread.cond_iters
        sim._frames = [] if frame is None else [frame]
        sim.priced, sim.status_checks, sim.evaluated = [], 0, set()
        try:
            frame = run(frame)
        except ReproError as exc:
            for _, members in cohorts:
                for m in members:
                    self.errors[m] = exc
            return None
        priced, checks, evaluated = sim.priced, sim.status_checks, sim.evaluated
        if priced or checks or evaluated:
            for k, ((copies, n, conds), members) in enumerate(cohorts):
                for price in priced:  # one by one, in walk order
                    copies = copies + price
                cohorts[k] = ((copies, n + checks, conds | evaluated), members)
        return frame

    def _result(self, threads: list[_Thread], statements: int, executions: int) -> GridWalk:
        estimates: list[TrafficEstimate | None] = [None] * len(self.scenarios)
        evaluated: list[frozenset[str]] = [frozenset()] * len(self.scenarios)
        for thread in threads:
            for (copies, checks, conds), members in thread.cohorts:
                est = replace(copies, status_checks=checks)
                for m in members:
                    estimates[m], evaluated[m] = est, conds
        return GridWalk(estimates, self.errors, evaluated, statements, executions)


def simulate_grid(
    constructions: dict[str, "ConstructionResult"],
    codes: dict[str, GeneratedCode],
    entry: str,
    scenarios: list[Scenario],
    policy: str | None = None,
    cost: CostModel | None = None,
) -> GridWalk:
    """Predict the traffic of one subroutine under every scenario at once.

    Each scenario's estimate is ``==`` the one its own walk would sum (see
    the module docstring); a scenario whose walk raises a
    :class:`~repro.errors.ReproError` gets that error instead, and neither
    an estimate nor evaluated conditions.  With a scheduling ``policy`` the
    prediction prices the *scheduled* placement: message counts follow the
    policy's plans (aggregation coalesces pairs) and the estimates carry
    phase counts and the modelled makespan under ``cost``.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return GridWalk([], [], [], 0, 0)
    sim = TrafficSimulator(constructions, codes, scenarios[0], policy=policy, cost=cost)
    return _Grid(sim, scenarios).walk(entry)


def simulate_traffic(
    constructions: dict[str, "ConstructionResult"],
    codes: dict[str, GeneratedCode],
    entry: str,
    scenario: Scenario,
    policy: str | None = None,
    cost: CostModel | None = None,
) -> TrafficEstimate:
    """Predict the traffic of one subroutine under one scenario: the
    one-scenario :func:`simulate_grid`, whose error it raises."""
    grid = simulate_grid(constructions, codes, entry, [scenario], policy=policy, cost=cost)
    return grid.checked()[0]


@dataclass(frozen=True)
class TrafficRange:
    """Best/worst-case traffic of one subroutine over a scenario space."""

    lo: TrafficEstimate
    hi: TrafficEstimate
    scenarios: int

    def describe(self) -> str:
        if self.lo.bytes == self.hi.bytes and self.lo.messages == self.hi.messages:
            return f"{self.hi.bytes} B in {self.hi.messages} message(s)"
        return (
            f"{self.lo.bytes}..{self.hi.bytes} B in "
            f"{self.lo.messages}..{self.hi.messages} message(s) "
            f"over {self.scenarios} scenario(s)"
        )


def estimate_range(
    constructions: dict[str, "ConstructionResult"],
    codes: dict[str, GeneratedCode],
    entry: str,
    bindings: dict[str, int] | None = None,
    max_scenarios: int = SCENARIO_CAP,
    itemsize: int = 8,
    policy: str | None = None,
    cost: CostModel | None = None,
) -> TrafficRange:
    """Bound one subroutine's traffic over its runtime-unknown scenarios."""
    scenarios = enumerate_scenarios(
        constructions,
        entry,
        bindings=bindings,
        max_scenarios=max_scenarios,
        itemsize=itemsize,
    )
    estimates = simulate_grid(
        constructions, codes, entry, scenarios, policy=policy, cost=cost
    ).checked()
    lo = hi = estimates[0]
    for est in estimates[1:]:
        lo, hi = lo.meet(est), hi.join(est)
    return TrafficRange(lo=lo, hi=hi, scenarios=len(scenarios))


# ---------------------------------------------------------------------------
# the compile-time half of the traffic oracle
# ---------------------------------------------------------------------------


def predict_traffic(
    compiled,
    entry: str | None = None,
    conditions: dict | None = None,
    bindings: dict[str, int] | None = None,
    inputs: frozenset[str] | set[str] | None = None,
    itemsize: int = 8,
) -> TrafficEstimate:
    """Predict the executor's traffic for one known environment.

    ``compiled`` is a :class:`~repro.compiler.artifacts.CompiledProgram`
    (duck-typed: per-subroutine ``construction`` and ``code``, and the
    ``bindings`` the run reads, which ``bindings`` extends as the run's
    environment does).  ``inputs`` names the arrays given initial values (``None`` = all, the
    harness convention).  With default kernels and no machine memory limit
    the prediction matches :class:`~repro.spmd.message.TrafficStats` exactly;
    the runtime oracle tests hold it to within 10%.  A program compiled
    with ``CompilerOptions(schedule=...)`` is predicted as the executor
    runs it: scheduled, with phase counts and modelled makespan under the
    compile options' cost model.
    """
    subs = compiled.subroutines
    constructions = {name: cs.construction for name, cs in subs.items()}
    codes = {name: cs.code for name, cs in subs.items()}
    options = getattr(compiled, "options", None)
    policy = getattr(options, "schedule", None)
    cost = getattr(options, "cost", None)
    if entry is None:
        entry = next(iter(subs))
    scenario = Scenario(
        conditions=dict(conditions or {}),
        bindings={**compiled.bindings, **(bindings or {})},
        inputs=None if inputs is None else frozenset(inputs),
        itemsize=itemsize,
    )
    return simulate_traffic(
        constructions, codes, entry, scenario, policy=policy, cost=cost
    )
