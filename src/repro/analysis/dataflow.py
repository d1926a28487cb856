"""Generic iterative (worklist) dataflow solver.

Problems provide a join over predecessor/successor states and a transfer
function; the solver iterates to a fixpoint.  It works on any graph given as
node ids plus ``preds``/``succs`` callables.  Its callers:

* :mod:`repro.remap.construction`'s three solves over the CFG (Appendix B):
  mapping propagation (may-forward), effect summarization fused with
  ``RemappedAfter`` contraction (one may-backward gen/kill problem), and
  the kill analysis (forward);
* :mod:`repro.analysis.verify`'s version def-before-use check;
* :mod:`repro.analysis.lints`' redundant-kill rule (RPR003).

Appendix C's reaching-copy recomputation and Appendix D's may-live copies
run over G_R as hand-written loops in :mod:`repro.remap.optimize` and
:mod:`repro.remap.livecopies`, not through this solver.

The lattices are finite powersets, so termination is by monotonicity; the
solver nevertheless guards against non-monotone transfer bugs with an
iteration bound and raises
:class:`~repro.errors.DataflowDivergenceError` when it is hit, so a broken
problem statement is diagnosable instead of a silently wrong fixpoint.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

from repro.errors import DataflowDivergenceError

State = TypeVar("State")


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def solve(
    nodes: Sequence[int],
    preds: Callable[[int], Iterable[int]],
    succs: Callable[[int], Iterable[int]],
    direction: Direction,
    boundary: Callable[[int], State],
    transfer: Callable[[int, State], State],
    join: Callable[[int, list[State]], State],
    equal: Callable[[State, State], bool],
    max_iterations: int = 10_000_000,
) -> tuple[dict[int, State], dict[int, State]]:
    """Iterate to fixpoint; returns (in_states, out_states).

    For a backward problem, "in" is the state *after* the node (joined from
    successors) and "out" the state before it, mirroring the forward case so
    callers can read both directions uniformly:

    * forward: ``in = join(out[preds])``, ``out = transfer(in)``
    * backward: ``in = join(out[succs])``, ``out = transfer(in)``

    ``boundary(n)`` seeds every node's initial *out* state (usually bottom;
    entry/exit nodes get their boundary values through ``transfer`` itself).
    """
    import heapq

    flow_in = preds if direction is Direction.FORWARD else succs
    into: dict[int, State] = {}
    out: dict[int, State] = {n: boundary(n) for n in nodes}

    order = list(nodes) if direction is Direction.FORWARD else list(reversed(nodes))
    # priority worklist keyed by position in the given order: keeps transfer
    # evaluation deterministic and (for forward problems over id-ordered CFGs)
    # textual, so discovered versions are numbered in program order
    prio = {n: i for i, n in enumerate(order)}
    worklist: list[tuple[int, int]] = [(prio[n], n) for n in order]
    heapq.heapify(worklist)
    on_list: set[int] = set(order)
    flow_out = succs if direction is Direction.FORWARD else preds
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > max_iterations:
            raise DataflowDivergenceError(iterations, node=worklist[0][1])
        _, n = heapq.heappop(worklist)
        on_list.discard(n)
        incoming = [out[p] for p in flow_in(n)]
        state_in = join(n, incoming)
        into[n] = state_in
        state_out = transfer(n, state_in)
        if not equal(state_out, out[n]):
            out[n] = state_out
            for s in flow_out(n):
                if s not in on_list:
                    heapq.heappush(worklist, (prio[s], s))
                    on_list.add(s)
    # every node started on the worklist, so every node has an in-state
    return into, out
