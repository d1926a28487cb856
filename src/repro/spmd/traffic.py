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
* :func:`simulate_traffic` / :class:`TrafficSimulator` -- the dry-run
  executor, returning a :class:`~repro.spmd.cost.TrafficEstimate`;
* :func:`predict_traffic` -- the user-facing oracle half: predict the
  traffic of a compiled program for one known environment, to be checked
  against the machine's observed :class:`~repro.spmd.message.TrafficStats`.

Assumptions (documented, not checked): compute statements behave like the
executor's default kernel -- they touch exactly their declared effects --
and the machine runs without a memory limit (no live-copy evictions).
Custom kernels that read or write fewer arrays than declared can make real
liveness diverge from the prediction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import TrafficPredictionError
from repro.lang.ast_nodes import Compute
from repro.remap.codegen import GeneratedCode
from repro.remap.walker import ArrayDescriptor, DescriptorWalker, Frame, resolve_condition
from repro.spmd.cost import CostModel, TrafficEstimate
from repro.spmd.schedule import plan_redistribution
from repro.symbolic.scenarios import Scenario, enumerate_scenarios

if TYPE_CHECKING:
    from repro.remap.construction import ConstructionResult


# ---------------------------------------------------------------------------
# what one copy costs (shared cache -- layouts are static)
# ---------------------------------------------------------------------------

#: (src signature, dst signature, policy or None, itemsize, cost model) ->
#: what one performed copy adds to the estimate.  Plans depend only on the
#: two layouts and the policy; only the price is kept, never the plan.
#: Bounded, oldest dropped first; a dropped price is recomputed identically.
_COPY_PRICES: "OrderedDict[tuple, TrafficEstimate]" = OrderedDict()
_COPY_PRICES_CAP = 1024


def _copy_price(
    src_mapping, dst_mapping, policy: str | None, itemsize: int, cost: CostModel
) -> TrafficEstimate:
    key = (src_mapping.signature, dst_mapping.signature, policy, itemsize, cost)
    price = _COPY_PRICES.get(key)
    if price is None:
        # priced as the executor is charged: by the ledger delta of the
        # policy's plan (aggregation coalesces pairs; no phases under ``None``)
        delta = plan_redistribution(src_mapping, dst_mapping, policy).ledger(cost, itemsize)
        while len(_COPY_PRICES) >= _COPY_PRICES_CAP:
            _COPY_PRICES.popitem(last=False)
        price = _COPY_PRICES[key] = TrafficEstimate(
            bytes=delta.bytes,
            messages=delta.messages,
            local_bytes=delta.local_bytes,
            local_copies=delta.local_copies,
            phases=len(delta.durations),
            makespan=delta.makespan,
        )
    return price


# ---------------------------------------------------------------------------
# the dry-run executor
# ---------------------------------------------------------------------------


class TrafficSimulator(DescriptorWalker):
    """The runtime semantics over no storage: counts and prices, moves nothing."""

    error = TrafficPredictionError

    def __init__(
        self,
        constructions: dict[str, "ConstructionResult"],
        codes: dict[str, GeneratedCode],
        scenario: Scenario,
        policy: str | None = None,
        cost: CostModel | None = None,
    ):
        sub_bindings = {name: res.sub.bindings for name, res in constructions.items()}
        super().__init__(constructions, codes, scenario.bindings, sub_bindings)
        self.scenario = scenario
        self._cond_iters: dict = {}  # positions of the condition sequences
        #: when set, copies are priced as the policy's scheduled executions
        self.policy = policy
        self.cost = cost or CostModel()
        self.copies = TrafficEstimate.zero()  # summed prices of performed copies
        self.status_checks = 0

    def run(self, entry: str) -> TrafficEstimate:
        self.walk(entry)
        return replace(self.copies, status_checks=self.status_checks)

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
        self.copies += _copy_price(
            state.versions[src],
            state.versions[leaving],
            self.policy,
            self.scenario.itemsize,
            self.cost,
        )

    def _condition(self, name: str) -> bool:
        return resolve_condition(self.scenario.conditions, self._cond_iters, name, self.error)

    def _compute(self, frame: Frame, stmt: Compute) -> None:
        # default-kernel effects: referenced current copies become live
        for name in stmt.reads + stmt.writes + stmt.defines:
            state = frame.arrays.get(name)
            if state is not None:
                self._ensure(state, state.status)


def simulate_traffic(
    constructions: dict[str, "ConstructionResult"],
    codes: dict[str, GeneratedCode],
    entry: str,
    scenario: Scenario,
    policy: str | None = None,
    cost: CostModel | None = None,
) -> TrafficEstimate:
    """Predict the traffic of one subroutine under one scenario.

    With a scheduling ``policy`` the prediction prices the *scheduled*
    placement: message counts follow the policy's plans (aggregation
    coalesces pairs) and the estimate carries phase counts and the
    modelled makespan under ``cost``.
    """
    return TrafficSimulator(
        constructions, codes, scenario, policy=policy, cost=cost
    ).run(entry)


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
    max_scenarios: int = 96,
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
    lo = hi = None
    for sc in scenarios:
        est = simulate_traffic(constructions, codes, entry, sc, policy=policy, cost=cost)
        lo = est if lo is None else lo.meet(est)
        hi = est if hi is None else hi.join(est)
    assert lo is not None and hi is not None
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
    (duck-typed: anything with per-subroutine ``construction`` and ``code``).
    ``inputs`` names the arrays given initial values (``None`` = all, the
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
        bindings=dict(bindings or {}),
        inputs=None if inputs is None else frozenset(inputs),
        itemsize=itemsize,
    )
    return simulate_traffic(
        constructions, codes, entry, scenario, policy=policy, cost=cost
    )
