"""Cost-guarded remapping motion: the guard, its decisions, its reports.

The headline regression is workload seed 2558: a zero-trip loop whose
trailing remapping the unguarded motion pass sank past the loop, turning a
never-executed remapping into an unconditional one and pushing level-3
traffic (672 B) above the naive baseline (576 B).  With the cost guard the
sink is rejected -- recorded in :attr:`MotionReport.rejected` with its
estimated delta -- and every level stays at or below naive.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CompilerOptions,
    CostModel,
    ExecutionEnv,
    Executor,
    Machine,
    compile_program,
)
from repro.apps.workloads import random_environment, random_legal_subroutine
from repro.remap.costguard import CostGuard
from repro.remap.motion import hoist_loop_invariant_remaps
from repro.lang.parser import parse_program
from repro.spmd.cost import TrafficEstimate


def _run_bytes(program, level, conditions, inputs, bindings=None, cost=None):
    options = (
        CompilerOptions(level=level)
        if cost is None
        else CompilerOptions(level=level, cost=cost)
    )
    compiled = compile_program(program, processors=4, options=options, bindings=bindings)
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions=dict(conditions),
        inputs={k: np.asarray(v, dtype=float).copy() for k, v in inputs.items()},
        bindings=bindings or {},
        check_invariants=True,
    )
    name = next(iter(compiled.subroutines))
    Executor(compiled, machine, env).run(name)
    return machine.stats.bytes, compiled


# ---------------------------------------------------------------------------
# the seed-2558 regression
# ---------------------------------------------------------------------------


def test_seed_2558_monotone_and_rejection_recorded():
    """The ROADMAP's open item: level 3 must not lose to naive on seed 2558."""
    rng = np.random.default_rng(2558)
    program = random_legal_subroutine(rng, n_arrays=2, length=5, depth=1)
    conditions, inputs = random_environment(rng, n_arrays=2)

    byte_counts = {}
    compiled3 = None
    for level in (0, 1, 2, 3):
        byte_counts[level], compiled = _run_bytes(program, level, conditions, inputs)
        if level == 3:
            compiled3 = compiled

    naive = byte_counts[0]
    assert naive == 576  # the documented counter-example shape
    for level in (1, 2, 3):
        assert byte_counts[level] <= 576, byte_counts
    # what the guard prevents: legality-only motion, then the level-2 passes
    unguarded = program
    for sub in program.subroutines:
        unguarded = unguarded.with_subroutine(
            hoist_loop_invariant_remaps(sub, program=unguarded)[0]
        )
    assert _run_bytes(unguarded, 2, conditions, inputs)[0] == 672

    # the guard recorded the rejected hoist with its estimated cost delta
    report = compiled3.report.motion["main"]
    assert report.count == 0
    assert report.rejected_count == 1
    rejected = report.rejected[0]
    assert "sunk redistribute" in rejected.description
    assert rejected.delta_bytes > 0
    assert rejected.reason
    # ... and surfaced it as a note diagnostic
    notes = [d for d in compiled3.report.diagnostics if d.severity == "note"]
    assert any("cost guard" in d.message for d in notes)
    assert compiled3.trace.counter("motion", "rejected") == 1
    assert compiled3.report.motion_rejected_count == 1


# ---------------------------------------------------------------------------
# the guard still performs the paper's profitable motion
# ---------------------------------------------------------------------------

FIG16 = """
subroutine main(t)
  integer n, t
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  do i = 1, t
!hpf$   redistribute A(cyclic)
    compute writes A reads A
!hpf$   redistribute A(block)
  enddo
  compute reads A
end
"""


def test_guard_accepts_fig16_win():
    """The Fig. 16 sink pays off for t >= 1 and is free at t = 0: accepted."""
    _, compiled = _run_bytes(
        FIG16, 3, {}, {"a": np.ones(16)}, bindings={"n": 16, "t": 6}
    )
    report = compiled.report.motion["main"]
    assert report.count == 1
    assert report.rejected_count == 0


def test_guard_decision_is_bound_binding_independent():
    """Compile bindings of loop bounds must not change the placement.

    Cached artifacts are reused across runtime-only bindings (the session
    serves a ``t=5`` artifact for a ``t=0`` run), so the guard prices a
    symbolic bound over zero/one/many trips regardless of the binding: the
    Fig. 16 sink is accepted at every ``t``, and the artifact it yields is
    byte-safe even when executed with zero trips.
    """
    for t in (0, 6):
        _, compiled = _run_bytes(
            FIG16, 3, {}, {"a": np.ones(16)}, bindings={"n": 16, "t": t}
        )
        assert compiled.report.motion["main"].count == 1
    # the sunk remapping is a status no-op on the zero-trip execution
    nbytes, _ = _run_bytes(FIG16, 3, {}, {"a": np.ones(16)}, bindings={"n": 16, "t": 0})
    naive, _ = _run_bytes(FIG16, 0, {}, {"a": np.ones(16)}, bindings={"n": 16, "t": 0})
    assert nbytes <= naive


# a *constant* zero-trip loop: the simulator prices it exactly, and the
# trailing remapping restores the entry mapping, so sinking moves no bytes
# on any execution -- its only price is one runtime status check
CONST_ZERO_TRIP = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  do i = 1, 0
!hpf$   redistribute A(cyclic)
    compute reads A
!hpf$   redistribute A(block)
  enddo
  compute reads A
end
"""


def test_guard_rejects_constant_zero_trip_loop():
    """A provably never-iterating loop: the sink can only add overhead."""
    _, compiled = _run_bytes(CONST_ZERO_TRIP, 3, {}, {"a": np.ones(16)}, bindings={"n": 16})
    report = compiled.report.motion["main"]
    assert report.count == 0
    assert report.rejected_count == 1
    assert report.rejected[0].delta_bytes <= 0  # no byte loss, pure overhead
    assert "status-check overhead" in report.rejected[0].reason


def test_guard_decision_depends_on_cost_model():
    """Machine parameters flip marginal decisions: the status-check cost.

    The constant zero-trip sink never moves bytes either way; its only
    price is one runtime status check.  Under the default model that
    overhead rejects the sink; on a machine with free status checks it is
    accepted (a byte-neutral tie goes to the hoisted placement).
    """
    _, default_compiled = _run_bytes(
        CONST_ZERO_TRIP, 3, {}, {"a": np.ones(16)}, bindings={"n": 16}
    )
    _, free_compiled = _run_bytes(
        CONST_ZERO_TRIP, 3, {}, {"a": np.ones(16)}, bindings={"n": 16},
        cost=CostModel(delta=0.0),
    )
    assert default_compiled.report.motion["main"].count == 0
    assert free_compiled.report.motion["main"].count == 1


# ---------------------------------------------------------------------------
# direct guard API
# ---------------------------------------------------------------------------


def test_direct_guard_evaluate_matches_pipeline():
    program = parse_program(FIG16)
    sub = program.subroutines[0]
    guard = CostGuard(CompilerOptions(), {"n": 16, "t": 4}, 4)
    moved, report = hoist_loop_invariant_remaps(sub, guard=guard, program=program)
    assert report.count == 1 and report.rejected_count == 0
    assert moved != sub

    zero_program = parse_program(CONST_ZERO_TRIP)
    zero_sub = zero_program.subroutines[0]
    zero_guard = CostGuard(CompilerOptions(), {"n": 16}, 4)
    kept, report = hoist_loop_invariant_remaps(
        zero_sub, guard=zero_guard, program=zero_program
    )
    assert report.count == 0 and report.rejected_count == 1
    assert kept == zero_sub


def test_unguarded_motion_keeps_legacy_behaviour():
    program = parse_program(FIG16)
    sub = program.subroutines[0]
    moved, report = hoist_loop_invariant_remaps(sub)
    assert report.count == 1
    assert report.rejected_count == 0


def test_guard_rejects_when_scenario_grid_is_not_exhaustive():
    """A subsampled grid cannot *prove* a sink safe: oversized spaces reject.

    Eight branch conditions put the full grid (2^8 assignments x input
    variants) over the enumeration cap; the guard refuses to accept the
    otherwise profitable sink rather than check a fraction of the space.
    """
    lines = ["subroutine main()", "  integer n", "  real A(n)",
             "!hpf$ dynamic A", "!hpf$ distribute A(block)", "  compute writes A"]
    for i in range(8):
        lines += [f"  if c{i % 4}{'x' if i >= 4 else ''} then",
                  "    compute reads A", "  endif"]
    lines += ["  do i = 1, 4",
              "!hpf$   redistribute A(cyclic)", "    compute reads A",
              "!hpf$   redistribute A(block)", "  enddo", "  compute reads A", "end"]
    src = "\n".join(lines)
    compiled = compile_program(src, bindings={"n": 16}, processors=4)
    report = compiled.report.motion["main"]
    assert report.count == 0
    assert report.rejected_count == 1
    assert "not estimable" in report.rejected[0].reason


BRANCH_ON = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  if {cond} then
    compute reads A
  endif
end
"""


def test_guard_rejects_placements_priced_over_different_grids():
    """Two grids of one length are not one grid.

    A base branching on ``c1`` and a candidate branching on ``c2`` have four
    scenarios each; paired by index, ``c1=False`` would stand for
    ``c2=False`` and the byte-equal pair would be accepted.
    """
    program = parse_program(BRANCH_ON.format(cond="c1"))
    base = program.subroutines[0]
    candidate = parse_program(BRANCH_ON.format(cond="c2")).subroutines[0]
    guard = CostGuard(CompilerOptions(), {"n": 16}, 4)
    assert len(guard._price(guard.points[0], program, base).scenarios) == 4
    assert len(guard._price(guard.points[0], program, candidate).scenarios) == 4
    decision = guard.evaluate(program, base, candidate, "c1 -> c2")
    assert not decision.hoist
    assert decision.reason == "not estimable: the two placements' scenario grids differ"


def test_guard_rejects_unestimable_programs():
    """A variant the guard cannot compile or simulate keeps naive placement."""
    program = parse_program(FIG16)
    sub = program.subroutines[0]
    # no bindings and no processors: the trial resolve cannot succeed
    guard = CostGuard(CompilerOptions(), {}, None)
    kept, report = hoist_loop_invariant_remaps(sub, guard=guard, program=program)
    assert kept == sub
    assert report.count == 0
    assert report.rejected_count == 1
    assert "not estimable" in report.rejected[0].reason


# ---------------------------------------------------------------------------
# the cost model's decision procedure
# ---------------------------------------------------------------------------


def test_cost_model_compare_rules():
    cost = CostModel()
    naive = TrafficEstimate(bytes=1000, messages=10)
    cheaper = TrafficEstimate(bytes=500, messages=5, status_checks=3)
    worse = TrafficEstimate(bytes=1200, messages=8)
    assert cost.compare(naive, cheaper).hoist
    decision = cost.compare(naive, worse)
    assert not decision.hoist and decision.delta_bytes == 200

    # equal bytes but added status checks: overhead must pay for itself
    tie = TrafficEstimate(bytes=1000, messages=10, status_checks=4)
    assert not cost.compare(naive, tie).hoist
    assert CostModel(delta=0.0).compare(naive, tie).hoist


def test_cost_model_machine_parameterization():
    m = CostModel.from_machine(
        latency_us=10.0, bandwidth_mbps=100.0, copy_bandwidth_mbps=1000.0,
        status_check_ns=20.0,
    )
    assert m.alpha == pytest.approx(10e-6)
    assert m.beta == pytest.approx(1e-8)
    assert m.gamma == pytest.approx(1e-9)
    assert m.delta == pytest.approx(20e-9)
    est = TrafficEstimate(bytes=100, messages=2, local_bytes=50, status_checks=1)
    assert m.time(est) == pytest.approx(2 * 10e-6 + 100 * 1e-8 + 50 * 1e-9 + 20e-9)


def test_traffic_estimate_lattice():
    a = TrafficEstimate(bytes=100, messages=2, status_checks=1)
    b = TrafficEstimate(bytes=50, messages=5, local_bytes=8)
    assert (a + b).bytes == 150 and (a + b).messages == 7
    assert a.scaled(3).bytes == 300 and a.scaled(3).status_checks == 3
    j, m = a.join(b), a.meet(b)
    assert (j.bytes, j.messages, j.local_bytes) == (100, 5, 8)
    assert (m.bytes, m.messages, m.local_bytes) == (50, 2, 0)
    assert m.dominated_by(a) and m.dominated_by(b)
    assert a.dominated_by(j) and not j.dominated_by(a)
    assert TrafficEstimate.zero().dominated_by(m)


# ---------------------------------------------------------------------------
# guarded motion never loses across a seed batch (fast CI version of the
# 10k-seed sweep; the full property runs under hypothesis in test_soundness)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [2558, 42, 137, 901, 4242])
def test_guarded_levels_monotone_on_known_seeds(seed):
    rng = np.random.default_rng(seed)
    program = random_legal_subroutine(rng, n_arrays=2, length=5, depth=1)
    conditions, inputs = random_environment(rng, n_arrays=2)
    byte_counts = [
        _run_bytes(program, level, conditions, inputs)[0] for level in (0, 1, 2, 3)
    ]
    assert byte_counts[1] <= byte_counts[0]
    assert byte_counts[2] <= byte_counts[1]
    assert byte_counts[3] <= byte_counts[2]
