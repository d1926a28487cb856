"""Scenario enumeration over a program's runtime unknowns.

Promoted out of :mod:`repro.spmd.traffic` (where it grew in PR 2) into
the shared symbolic subsystem: a :class:`Scenario` is one concrete
choice of the runtime inputs that determine behaviour -- branch
outcomes, symbolic loop bounds, which top-level arrays hold input
values -- and :func:`enumerate_scenarios` spans the grid a placement or
classification decision must be validated against.  The traffic
estimator consumes scenarios to price placements; the ``symbolize``
pass's probe guard consumes them to prove a placement safe for *every*
shape a template may later be instantiated at.

:mod:`repro.spmd.traffic` imports :class:`Scenario` and
:func:`enumerate_scenarios`, so those two names still resolve there;
:func:`runtime_unknowns` lives here only.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import TrafficPredictionError
from repro.lang.ast_nodes import Do, If, reachable, walk_statements

if TYPE_CHECKING:
    from repro.remap.construction import ConstructionResult

__all__ = [
    "SCENARIO_CAP",
    "Scenario",
    "runtime_unknowns",
    "enumerate_scenarios",
]

#: Default cap on an enumerated scenario grid: the cost guard rejects a
#: sink whose grid is larger, and the traffic-estimate pass and lint RPR005
#: subsample beyond it.
SCENARIO_CAP = 96


@dataclass
class Scenario:
    """One concrete choice of the runtime inputs that determine traffic.

    ``conditions`` maps branch names to outcomes (a bool, or a sequence
    consumed one outcome per evaluation, mirroring
    :class:`~repro.runtime.executor.ExecutionEnv`); ``bindings`` supplies
    loop bounds; ``inputs`` names the top-level arrays that hold initial
    values (``None`` = all of them, matching the usual test harnesses).
    """

    conditions: dict[str, object] = field(default_factory=dict)
    bindings: dict[str, int] = field(default_factory=dict)
    inputs: frozenset[str] | None = None
    itemsize: int = 8

    def describe(self) -> str:
        conds = ",".join(f"{k}={v}" for k, v in sorted(self.conditions.items()))
        binds = ",".join(f"{k}={v}" for k, v in sorted(self.bindings.items()))
        live = "all" if self.inputs is None else ",".join(sorted(self.inputs)) or "none"
        return f"conditions[{conds}] bindings[{binds}] inputs[{live}]"


def runtime_unknowns(
    constructions: dict[str, "ConstructionResult"],
    entry: str,
    bindings: dict[str, int],
    pin_bound_trips: bool,
) -> tuple[list[str], list[str]]:
    """(branch condition names, symbolic loop-bound names to vary).

    With ``pin_bound_trips`` a bound whose value the bindings supply is
    taken at that value only; without it every symbolic bound varies (the
    cost guard's setting: bindings of declared scalars are runtime inputs a
    cached artifact may be reused across, so its placement decisions must
    hold for *any* bound value, not just the one this compile saw).
    """
    conds: list[str] = []
    free: list[str] = []
    bodies = {name: c.sub.body for name, c in constructions.items()}
    for name in reachable(bodies, entry):
        sub = constructions[name].sub
        loop_vars = {
            s.var for s in walk_statements(sub.body) if isinstance(s, Do)
        }
        for s in walk_statements(sub.body):
            if isinstance(s, If) and s.cond not in conds:
                conds.append(s.cond)
            if isinstance(s, Do):
                for e in (s.lo, s.hi):
                    if not isinstance(e, str) or e in loop_vars or e in free:
                        continue
                    if pin_bound_trips and e in bindings:
                        continue
                    free.append(e)
    return conds, free


def enumerate_scenarios(
    constructions: dict[str, "ConstructionResult"],
    entry: str,
    bindings: dict[str, int] | None = None,
    inputs: frozenset[str] | None = None,
    pin_bound_trips: bool = True,
    max_scenarios: int = SCENARIO_CAP,
    require_exhaustive: bool = False,
    itemsize: int = 8,
) -> list[Scenario]:
    """The scenario space a placement decision must hold over.

    Every branch condition takes both outcomes, every statically unknown
    loop bound takes a zero-trip, single-trip and multi-trip value, and the
    top-level arrays are tried both with and without initial input values
    (an explicit ``inputs`` set disables the variation).
    ``pin_bound_trips=False`` additionally varies bounds the bindings *do*
    supply (alongside the supplied value), so decisions generalize to any
    runtime bound -- the cost guard's setting, because compile bindings of
    declared scalars are runtime inputs that cached artifacts outlive.
    Beyond ``max_scenarios`` combinations the grid is deterministically
    strided, always keeping the first and last corner -- unless
    ``require_exhaustive`` is set, in which case an oversized grid raises
    :class:`~repro.errors.TrafficPredictionError` instead (the cost
    guard's setting: a subsampled grid cannot *prove* a placement safe).
    """
    bindings = dict(bindings or {})
    conds, free = runtime_unknowns(constructions, entry, bindings, pin_bound_trips)
    axes: list[tuple[str, tuple]] = []
    for c in conds:
        axes.append(("cond:" + c, (False, True)))
    for f in free:
        choices = [0, 1, 3]  # zero-, single- and multi-trip
        if f in bindings and bindings[f] not in choices:
            choices.append(bindings[f])  # keep the compile-time value too
        axes.append(("trip:" + f, tuple(choices)))
    if inputs is None:
        axes.append(("inputs", (None, frozenset())))
    else:
        axes.append(("inputs", (inputs,)))

    sizes = [len(choices) for _, choices in axes]
    total = 1
    for s in sizes:
        total *= s

    def decode(index: int) -> Scenario:
        conditions: dict[str, object] = {}
        trip_bindings = dict(bindings)
        live: frozenset[str] | None = inputs
        for (name, choices), size in zip(axes, sizes):
            index, digit = divmod(index, size)
            value = choices[digit]
            if name.startswith("cond:"):
                conditions[name[5:]] = value
            elif name.startswith("trip:"):
                trip_bindings[name[5:]] = value
            else:
                live = value
        return Scenario(
            conditions=conditions,
            bindings=trip_bindings,
            inputs=live,
            itemsize=itemsize,
        )

    if total <= max_scenarios:
        indices: Sequence[int] = range(total)
    elif require_exhaustive:
        raise TrafficPredictionError(
            f"scenario space of {total} combinations exceeds the "
            f"max_scenarios cap of {max_scenarios} and cannot be "
            "enumerated exhaustively"
        )
    else:
        stride = total / max_scenarios
        picked = {min(total - 1, int(j * stride)) for j in range(max_scenarios)}
        picked.update((0, total - 1))
        indices = sorted(picked)
    return [decode(i) for i in indices]
