"""Unit tests for the generic dataflow solver."""

from __future__ import annotations

import pytest

from repro.analysis.dataflow import Direction, solve
from repro.errors import DataflowDivergenceError


def diamond():
    """0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3."""
    succs = {0: [1, 2], 1: [3], 2: [3], 3: []}
    preds = {0: [], 1: [0], 2: [0], 3: [1, 2]}
    return succs, preds


def loop():
    """0 -> 1 -> 2 -> 1, 1 -> 3."""
    succs = {0: [1], 1: [2, 3], 2: [1], 3: []}
    preds = {0: [], 1: [0, 2], 2: [1], 3: [1]}
    return succs, preds


def test_forward_reaching_sets_on_diamond():
    succs, preds = diamond()
    gen = {0: {"x"}, 1: {"y"}, 2: {"z"}, 3: set()}

    into, out = solve(
        [0, 1, 2, 3],
        preds=lambda n: preds[n],
        succs=lambda n: succs[n],
        direction=Direction.FORWARD,
        boundary=lambda n: frozenset(),
        transfer=lambda n, s: frozenset(s | gen[n]),
        join=lambda n, states: frozenset().union(*states) if states else frozenset(),
        equal=lambda a, b: a == b,
    )
    assert out[0] == {"x"}
    assert into[3] == {"x", "y", "z"}
    assert out[3] == {"x", "y", "z"}


def test_backward_liveness_on_diamond():
    succs, preds = diamond()
    use = {0: set(), 1: {"a"}, 2: set(), 3: {"b"}}

    into, out = solve(
        [0, 1, 2, 3],
        preds=lambda n: preds[n],
        succs=lambda n: succs[n],
        direction=Direction.BACKWARD,
        boundary=lambda n: frozenset(),
        transfer=lambda n, s: frozenset(s | use[n]),
        join=lambda n, states: frozenset().union(*states) if states else frozenset(),
        equal=lambda a, b: a == b,
    )
    # live before node 0: everything used anywhere downstream
    assert out[0] == {"a", "b"}
    assert out[2] == {"b"}


def test_convergence_on_cycles():
    succs, preds = loop()
    gen = {0: {"init"}, 1: set(), 2: {"loopvar"}, 3: set()}
    into, out = solve(
        [0, 1, 2, 3],
        preds=lambda n: preds[n],
        succs=lambda n: succs[n],
        direction=Direction.FORWARD,
        boundary=lambda n: frozenset(),
        transfer=lambda n, s: frozenset(s | gen[n]),
        join=lambda n, states: frozenset().union(*states) if states else frozenset(),
        equal=lambda a, b: a == b,
    )
    # the back edge feeds loopvar into node 1
    assert into[1] == {"init", "loopvar"}
    assert into[3] == {"init", "loopvar"}


def test_non_monotone_transfer_detected():
    # a transfer whose output never stabilizes; the solver must bail out
    counter = {"v": 0}

    def transfer(n, s):
        counter["v"] += 1
        return counter["v"]

    with pytest.raises(DataflowDivergenceError) as exc:
        solve(
            [0, 1],
            preds=lambda n: [0] if n == 1 else [1],
            succs=lambda n: [1] if n == 0 else [0],
            direction=Direction.FORWARD,
            boundary=lambda n: 0,
            transfer=transfer,
            join=lambda n, states: max(states, default=0),
            equal=lambda a, b: a == b,
            max_iterations=100,
        )
    # the dedicated error is diagnosable: iteration count and node travel
    assert exc.value.iterations == 101
    assert exc.value.node in (0, 1)
    assert "non-monotone" in str(exc.value)


def test_empty_graph_solves_to_empty_states():
    into, out = solve(
        [],
        preds=lambda n: [],
        succs=lambda n: [],
        direction=Direction.FORWARD,
        boundary=lambda n: frozenset(),
        transfer=lambda n, s: s,
        join=lambda n, states: frozenset().union(*states) if states else frozenset(),
        equal=lambda a, b: a == b,
    )
    assert into == {}
    assert out == {}


def test_single_node_self_loop_converges():
    """One node feeding itself: the join sees the node's own output and
    the fixpoint must still be reached (monotone transfer)."""
    gen = {"x"}
    into, out = solve(
        [0],
        preds=lambda n: [0],
        succs=lambda n: [0],
        direction=Direction.FORWARD,
        boundary=lambda n: frozenset(),
        transfer=lambda n, s: frozenset(s | gen),
        join=lambda n, states: frozenset().union(*states) if states else frozenset(),
        equal=lambda a, b: a == b,
    )
    assert into[0] == {"x"}  # its own out state flows back around
    assert out[0] == {"x"}


@pytest.mark.parametrize(
    "graph",
    [
        ({}, {}),  # empty
        ({0: [0]}, {0: [0]}),  # self-loop
        (diamond()[0], diamond()[1]),
        (loop()[0], loop()[1]),
    ],
    ids=["empty", "self-loop", "diamond", "loop"],
)
@pytest.mark.parametrize("direction", list(Direction))
def test_every_node_gets_an_in_state(graph, direction):
    """Every node starts on the worklist and is popped at least once, so
    both state maps cover every node without a fill-in pass."""
    succs, preds = graph
    into, out = solve(
        list(succs),
        preds=lambda n: preds[n],
        succs=lambda n: succs[n],
        direction=direction,
        boundary=lambda n: frozenset(),
        transfer=lambda n, s: s,
        join=lambda n, states: frozenset().union(*states),
        equal=lambda a, b: a == b,
    )
    assert set(into) == set(out) == set(succs)


def test_deterministic_order_is_priority_based():
    """Nodes are processed in the given order first, so side effects in the
    transfer (version interning!) happen in textual order."""
    succs, preds = diamond()
    seen: list[int] = []

    def transfer(n, s):
        if n not in seen:
            seen.append(n)
        return s

    solve(
        [0, 1, 2, 3],
        preds=lambda n: preds[n],
        succs=lambda n: succs[n],
        direction=Direction.FORWARD,
        boundary=lambda n: 0,
        transfer=transfer,
        join=lambda n, states: 0,
        equal=lambda a, b: True,
    )
    assert seen == [0, 1, 2, 3]
