"""The communication-schedule subsystem: phases, policies, plans.

Four layers of guarantees:

* **structure** -- round-robin phases satisfy the one-port property (no
  rank sends or receives twice in a phase), schedules are exact covers,
  aggregation never increases the message count, empty transfers and
  purely local schedules produce no phases (property-tested over random
  mapping pairs);
* **differential soundness** -- on the paper figures and workload seeds
  0..200, scheduled execution produces bit-identical array values and
  identical total bytes to the unscheduled executor, under every policy;
* **performance shape** -- on the benchmarked redistribution patterns,
  round-robin makespan never exceeds the naive all-at-once makespan;
* **plan caching** -- a policy adds no pass: the process's plan table
  (:data:`~repro.spmd.schedule.PLANS`) builds each plan on first use,
  warm session hits replay them with zero scheduling work, any artifact
  performing the same pair under the same policy runs the same plan, and
  different policies never share cached artifacts or plans.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CompiledProgram,
    CompilerOptions,
    CompilerSession,
    CostModel,
    ExecutionEnv,
    Executor,
    Machine,
    compile_program,
    predict_traffic,
)
from repro.apps.workloads import random_environment, random_legal_subroutine
from repro.compiler.pipeline import PassManager
from repro.errors import ScheduleError
from repro.mapping import (
    Alignment,
    AxisAlign,
    DistFormat,
    Distribution,
    Mapping,
    ProcessorArrangement,
    Template,
)
from repro.mapping.ownership import layout_of
from repro.spmd import (
    CommPlanTable,
    DistributedArray,
    Message,
    TrafficEstimate,
    build_comm_schedule,
    build_schedule,
    plan_redistribution,
    redistribute,
)
from repro.spmd.redistribution import RedistSchedule, Transfer
from repro.spmd.schedule import PLANS, CommPhase, _pack, _round_robin_phases
from repro.util.intervals import IntervalSet

COST = CostModel()
SCHEDULED = ("naive", "round-robin", "aggregate")


def mk(shape, fmts, procs, name="A"):
    return Mapping.simple(shape, fmts, procs, name)


@pytest.fixture
def p4():
    return ProcessorArrangement("P", (4,))


# ---------------------------------------------------------------------------
# the machine's phase clock
# ---------------------------------------------------------------------------


def test_run_phase_contention_free_costs_largest_message(p4):
    mach = Machine(p4, cost=CostModel(alpha=1.0, beta=0.0))
    d = mach.run_phase(
        [Message(0, 1, nbytes=8, elements=1), Message(2, 3, nbytes=800, elements=100)]
    )
    assert d == pytest.approx(1.0)
    assert mach.elapsed == pytest.approx(1.0)
    assert mach.stats.phases == 1
    assert mach.stats.messages == 2
    assert mach.phase_seconds == pytest.approx(1.0)


def test_run_phase_contended_serializes_the_busiest_port(p4):
    mach = Machine(p4, cost=CostModel(alpha=1.0, beta=0.0))
    msgs = [Message(0, 1, 8, 1), Message(0, 2, 8, 1), Message(3, 1, 8, 1)]
    d = mach.run_phase(msgs, contended=True)
    # rank 0 sends twice and rank 1 receives twice: two serialized slots
    assert d == pytest.approx(2.0)
    assert mach.elapsed == pytest.approx(2.0)


def test_run_phase_rejects_one_port_violations(p4):
    mach = Machine(p4)
    with pytest.raises(ScheduleError):
        mach.run_phase([Message(0, 1, 8, 1), Message(0, 2, 8, 1)])
    with pytest.raises(ScheduleError):
        mach.run_phase([Message(0, 1, 8, 1), Message(2, 1, 8, 1)])
    with pytest.raises(ScheduleError):
        mach.run_phase([Message(1, 1, 8, 1)])  # local copies are not messages


def test_run_phase_empty_is_free(p4):
    mach = Machine(p4)
    assert mach.run_phase([]) == 0.0
    assert mach.stats.phases == 0
    assert mach.elapsed == 0.0


# ---------------------------------------------------------------------------
# plan construction: policies and edge cases
# ---------------------------------------------------------------------------


def test_same_mapping_has_no_phases(p4):
    m = mk((16,), (DistFormat.block(),), p4)
    for policy in SCHEDULED:
        plan = plan_redistribution(m, m, policy)
        assert plan.phase_count == 0
        assert plan.message_count == 0
        assert plan.local_count == 4  # per-rank local copies only


def test_zero_element_transfers_produce_no_phases():
    empty = Transfer(0, 1, (IntervalSet.empty(),))
    sched = RedistSchedule([empty])
    for policy in SCHEDULED:
        plan = build_comm_schedule(sched, policy)
        assert plan.phase_count == 0
        assert plan.message_count == 0
        assert plan.local_count == 0


def test_replication_aware_local_copies_produce_no_phases():
    """A receiver already holding a source replica copies locally: the
    scheduler must not synthesize phases (or messages) for it."""
    procs = ProcessorArrangement("P", (2, 2))
    t = Template("T", (8, 2))
    dist = Distribution(t, (DistFormat.block(), DistFormat.block()), procs)
    src_m = Mapping(
        Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.replicate())), dist
    )
    dst_m = Mapping(
        Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.const(1))), dist
    )
    for policy in SCHEDULED:
        plan = plan_redistribution(src_m, dst_m, policy)
        assert plan.phase_count == 0
        assert plan.message_count == 0
        assert plan.local_count > 0
        mach = Machine(procs)
        s = DistributedArray("A", src_m, mach)
        d = DistributedArray("A", dst_m, mach)
        s.scatter_from_global(np.arange(8.0))
        redistribute(s, d, mach, policy=policy, plan=plan)
        assert np.array_equal(d.gather_to_global(), np.arange(8.0))
        assert mach.stats.messages == 0
        assert mach.stats.phases == 0


def test_pinned_mapping_scheduled_delivery():
    """Remapping between pinned slices goes through real phased messages."""
    procs = ProcessorArrangement("P", (2, 2))
    t = Template("T", (8, 2))
    dist = Distribution(t, (DistFormat.block(), DistFormat.block()), procs)
    src_m = Mapping(
        Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.const(0))), dist
    )
    dst_m = Mapping(
        Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.const(1))), dist
    )
    data = np.arange(8.0)
    for policy in SCHEDULED:
        plan = plan_redistribution(src_m, dst_m, policy)
        plan.validate()
        assert plan.message_count > 0
        mach = Machine(procs)
        s = DistributedArray("A", src_m, mach)
        d = DistributedArray("A", dst_m, mach)
        s.scatter_from_global(data)
        redistribute(s, d, mach, policy=policy, plan=plan)
        assert np.array_equal(d.gather_to_global(), data)
        assert mach.stats.phases == plan.phase_count


def test_unknown_policy_rejected(p4):
    m = mk((16,), (DistFormat.block(),), p4)
    with pytest.raises(ScheduleError):
        plan_redistribution(m, m, "caterpillar-deluxe")
    with pytest.raises(ValueError):
        CompilerOptions(schedule="caterpillar-deluxe")


def test_aggregate_coalesces_pairs_into_one_message(p4):
    # block spans several cyclic(2) periods: multiple runs per pair
    src = mk((64,), (DistFormat.block(),), p4)
    dst = mk((64,), (DistFormat.cyclic(2),), p4)
    rr = plan_redistribution(src, dst, "round-robin")
    agg = plan_redistribution(src, dst, "aggregate")
    assert agg.message_count < rr.message_count
    pairs = {
        (t.src_rank, t.dst_rank)
        for p in agg.phases
        for t in p.transfers
    }
    assert agg.message_count == len(pairs)  # exactly one message per pair
    assert agg.moved_elements == rr.moved_elements


# ---------------------------------------------------------------------------
# property tests over random mapping pairs
# ---------------------------------------------------------------------------

fmt_1d = st.one_of(
    st.just(DistFormat.block()),
    st.builds(DistFormat.cyclic, st.one_of(st.none(), st.integers(1, 3))),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    f_src=fmt_1d,
    f_dst=fmt_1d,
    nprocs=st.integers(1, 5),
    policy=st.sampled_from(SCHEDULED),
)
def test_prop_schedule_structure(n, f_src, f_dst, nprocs, policy):
    """One-port rounds, exact cover, aggregation floor -- any mapping pair."""
    procs = ProcessorArrangement("P", (nprocs,))
    src = mk((n,), (f_src,), procs)
    dst = mk((n,), (f_dst,), procs)
    redist = build_schedule(layout_of(src), layout_of(dst))
    plan = build_comm_schedule(redist, policy)
    plan.validate()  # no rank sends or receives twice in any phase

    # exact cover: every element a receiver owns arrives exactly once,
    # counting both local copies and phased messages
    delivered: dict[tuple[int, int], int] = {}
    for t in plan.local_transfers:
        for i in t.index_sets[0]:
            key = (t.dst_rank, i)
            delivered[key] = delivered.get(key, 0) + 1
    for phase in plan.phases:
        for pt in phase.transfers:
            for part in pt.parts:
                for i in part.index_sets[0]:
                    key = (pt.dst_rank, i)
                    delivered[key] = delivered.get(key, 0) + 1
    dst_l = layout_of(dst)
    expected = {
        (dst_l.procs.linear_rank(q), i)
        for q in dst_l.holders()
        for i in dst_l.owned(q)[0]
    }
    assert set(delivered) == expected
    assert all(c == 1 for c in delivered.values())

    # bytes are policy-independent; aggregation only reduces messages
    assert plan.moved_elements == redist.moved_elements()
    if policy == "aggregate":
        rr = build_comm_schedule(redist, "round-robin")
        assert plan.message_count <= rr.message_count
        assert plan.moved_elements == rr.moved_elements


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    f_src=fmt_1d,
    f_dst=fmt_1d,
    nprocs=st.integers(1, 5),
    policy=st.sampled_from(SCHEDULED),
)
def test_prop_scheduled_execution_matches_unscheduled(
    n, f_src, f_dst, nprocs, policy
):
    """Scheduled data movement is bit-identical with identical bytes."""
    procs = ProcessorArrangement("P", (nprocs,))
    data = np.random.default_rng(7).normal(size=n)

    ref_mach = Machine(procs)
    s0 = DistributedArray("A", mk((n,), (f_src,), procs), ref_mach)
    d0 = DistributedArray("A", mk((n,), (f_dst,), procs), ref_mach)
    s0.scatter_from_global(data)
    redistribute(s0, d0, ref_mach)

    mach = Machine(procs)
    s = DistributedArray("A", mk((n,), (f_src,), procs), mach)
    d = DistributedArray("A", mk((n,), (f_dst,), procs), mach)
    s.scatter_from_global(data)
    redistribute(s, d, mach, policy=policy)

    assert np.array_equal(d.gather_to_global(), d0.gather_to_global())
    assert mach.stats.bytes == ref_mach.stats.bytes
    assert mach.stats.local_bytes == ref_mach.stats.local_bytes


def first_fit_by_scanning(packed):
    """The phasing oracle: largest-first first-fit that looks at every open
    phase for every message (what ``_round_robin_phases`` did before it kept
    a busy-phase bitset per port; quadratic in the message count)."""
    order = sorted(packed, key=lambda t: (-t.elements, t.src_rank, t.dst_rank))
    phases, sending, receiving = [], [], []
    for t in order:
        for k in range(len(phases)):
            if t.src_rank not in sending[k] and t.dst_rank not in receiving[k]:
                break
        else:
            k = len(phases)
            phases.append([])
            sending.append(set())
            receiving.append(set())
        phases[k].append(t)
        sending[k].add(t.src_rank)
        receiving[k].add(t.dst_rank)
    return tuple(CommPhase(tuple(msgs), contended=False) for msgs in phases)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    f_src=fmt_1d,
    f_dst=fmt_1d,
    nprocs=st.integers(1, 5),
    aggregate=st.booleans(),
)
def test_prop_round_robin_phases_equal_the_scanning_first_fit(
    n, f_src, f_dst, nprocs, aggregate
):
    """The lowest clear bit of the two ports' busy sets *is* the first phase
    a scan would find free: same messages, same phases, same order."""
    procs = ProcessorArrangement("P", (nprocs,))
    redist = build_schedule(
        layout_of(mk((n,), (f_src,), procs)), layout_of(mk((n,), (f_dst,), procs))
    )
    remote = [t for t in redist.transfers if t.elements and not t.is_local]
    packed = _pack(remote, aggregate=aggregate)
    assert _round_robin_phases(packed) == first_fit_by_scanning(packed)
    policy = "aggregate" if aggregate else "round-robin"
    if remote:
        assert build_comm_schedule(redist, policy).phases == first_fit_by_scanning(packed)


# ---------------------------------------------------------------------------
# the performance invariant, on the benchmarked redistribution family
# ---------------------------------------------------------------------------


def _benchmark_patterns(nprocs: int):
    p = ProcessorArrangement("P", (nprocs,))
    n = 16 * nprocs
    b, c1 = DistFormat.block(), DistFormat.cyclic()
    c2, c3 = DistFormat.cyclic(2), DistFormat.cyclic(3)
    star = DistFormat.star()
    return [
        (mk((n,), (b,), p), mk((n,), (c1,), p)),
        (mk((n,), (b,), p), mk((n,), (c2,), p)),
        (mk((n,), (c1,), p), mk((n,), (c3,), p)),
        (mk((n, n), (b, star), p), mk((n, n), (star, b), p)),
    ]


@pytest.mark.parametrize("nprocs", [2, 4, 8, 16])
def test_round_robin_makespan_never_exceeds_naive(nprocs):
    for src, dst in _benchmark_patterns(nprocs):
        naive = plan_redistribution(src, dst, "naive")
        rr = plan_redistribution(src, dst, "round-robin")
        agg = plan_redistribution(src, dst, "aggregate")
        assert rr.makespan(COST, 8) <= naive.makespan(COST, 8)
        assert agg.message_count <= rr.message_count
        assert agg.moved_elements == rr.moved_elements == naive.moved_elements


# ---------------------------------------------------------------------------
# differential soundness: scheduled vs unscheduled execution
# ---------------------------------------------------------------------------

FIG1 = """
subroutine main()
  integer n
  real A(n, n), B(n, n)
!hpf$ align with B :: A
!hpf$ dynamic A, B
!hpf$ distribute B(block, *)
  compute reads A, B
!hpf$ realign A(i, j) with B(j, i)
!hpf$ redistribute B(cyclic, *)
  compute reads A, B
end
"""

FIG12 = """
subroutine remap(A, m)
  integer m, n, p
  real A(n,n), B(n,n), C(n,n)
  intent inout A
!hpf$ align with A :: B, C
!hpf$ dynamic A, B, C
!hpf$ distribute A(block, *)
  compute "init" writes B reads A
  if c1 then
!hpf$   redistribute A(cyclic, *)
    compute writes A, p reads A, B
  else
!hpf$   redistribute A(block, block)
    compute writes p reads A
  endif
  do i = 1, m
!hpf$   redistribute A(*, block)
    compute writes C reads A
!hpf$   redistribute A(block, *)
    compute writes A reads A, C
  enddo
end
"""

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

N = 16

FIGURES = {
    "fig1": dict(
        source=FIG1,
        bindings={"n": N},
        conditions={},
        inputs={"a": np.arange(N * N, dtype=float).reshape(N, N), "b": np.ones((N, N))},
    ),
    "fig12-then": dict(
        source=FIG12,
        bindings={"n": N, "m": 3},
        conditions={"c1": True},
        inputs={"a": np.arange(N * N, dtype=float).reshape(N, N)},
    ),
    "fig12-else": dict(
        source=FIG12,
        bindings={"n": N, "m": 3},
        conditions={"c1": False},
        inputs={"a": np.arange(N * N, dtype=float).reshape(N, N)},
    ),
    "fig16": dict(
        source=FIG16,
        bindings={"n": N, "t": 5},
        conditions={},
        inputs={"a": np.arange(float(N))},
    ),
}


def _with_policy(compiled, policy):
    """The same artifact, executed under a scheduling policy.

    Only the execution mode changes: construction, generated code and
    therefore the remapping decisions are shared, which is exactly the
    'scheduled execution vs unscheduled executor' differential the
    soundness criterion compares.
    """
    options = dataclasses.replace(compiled.options, schedule=policy)
    return dataclasses.replace(compiled, options=options)


def _env(w):
    return ExecutionEnv(
        conditions=dict(w["conditions"]),
        bindings=dict(w["bindings"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
    )


def _run(compiled, w):
    machine = Machine(compiled.processors)
    name = next(iter(compiled.subroutines))
    result = Executor(compiled, machine, _env(w)).run(name)
    values = {a: result.value(a) for a in compiled.get(name).sub.arrays}
    return values, machine.stats


@pytest.mark.parametrize("name", sorted(FIGURES))
@pytest.mark.parametrize("level", [0, 3])
def test_figures_scheduled_equals_unscheduled(name, level):
    w = FIGURES[name]
    compiled = compile_program(
        w["source"],
        bindings=w["bindings"],
        processors=4,
        options=CompilerOptions(level=level),
    )
    ref_values, ref_stats = _run(compiled, w)
    for policy in SCHEDULED:
        values, stats = _run(_with_policy(compiled, policy), w)
        for a in ref_values:
            assert np.array_equal(values[a], ref_values[a]), (name, policy, a)
        assert stats.bytes == ref_stats.bytes, (name, policy)
        assert stats.local_bytes == ref_stats.local_bytes, (name, policy)
        if policy == "aggregate":
            # per-pair packing is exactly the ledger's message granularity
            assert stats.messages == ref_stats.messages, (name, policy)
        else:
            # unpacked policies message per contiguous rectangle
            assert stats.messages >= ref_stats.messages, (name, policy)
        assert stats.phases > 0 or stats.messages == 0


def test_workload_seeds_scheduled_equals_unscheduled():
    """Acceptance sweep: seeds 0..200, every policy, bit-identical values
    and identical total bytes to the unscheduled executor."""
    for seed in range(201):
        rng = np.random.default_rng(seed)
        program = random_legal_subroutine(rng, n_arrays=2, length=5, depth=1)
        conditions, inputs = random_environment(rng, n_arrays=2)
        w = dict(bindings={}, conditions=conditions, inputs=inputs)
        compiled = compile_program(
            program, processors=4, options=CompilerOptions(level=3)
        )
        ref_values, ref_stats = _run(compiled, w)
        for policy in SCHEDULED:
            values, stats = _run(_with_policy(compiled, policy), w)
            for a in ref_values:
                assert np.array_equal(values[a], ref_values[a]), (seed, policy, a)
            assert stats.bytes == ref_stats.bytes, (seed, policy)


# ---------------------------------------------------------------------------
# scheduled compilation: the traffic oracle and the cost guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", SCHEDULED)
def test_scheduled_prediction_matches_observed(policy):
    w = FIGURES["fig12-then"]
    compiled = compile_program(
        w["source"],
        bindings=w["bindings"],
        processors=4,
        options=CompilerOptions(level=3, schedule=policy),
    )
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions=dict(w["conditions"]),
        bindings=dict(w["bindings"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
    )
    name = next(iter(compiled.subroutines))
    result = Executor(compiled, machine, env).run(name)
    observed = result.observed_traffic()
    predicted = predict_traffic(
        compiled,
        entry=name,
        conditions=w["conditions"],
        bindings=w["bindings"],
        inputs=frozenset(w["inputs"]),
    )
    assert predicted.bytes == observed.bytes
    assert predicted.messages == observed.messages
    assert predicted.phases == observed.phases
    assert predicted.makespan == pytest.approx(observed.makespan)
    assert result.phase_count == observed.phases
    # the breakdown accessors see the same totals
    by_tag = result.traffic_by_tag()
    assert sum(v["bytes"] for v in by_tag.values()) == observed.bytes
    assert sum(v["messages"] for v in by_tag.values()) == observed.messages


def test_scheduled_compile_is_sound_end_to_end():
    """Full pipelines (guarded motion prices the scheduled placement)
    still produce level-0-identical values and monotone bytes."""
    w = FIGURES["fig16"]
    naive = compile_program(
        w["source"], bindings=w["bindings"], processors=4,
        options=CompilerOptions(level=0),
    )
    ref_values, ref_stats = _run(naive, w)
    for policy in SCHEDULED:
        compiled = compile_program(
            w["source"], bindings=w["bindings"], processors=4,
            options=CompilerOptions(level=3, schedule=policy),
        )
        values, stats = _run(compiled, w)
        for a in ref_values:
            assert np.array_equal(values[a], ref_values[a]), (policy, a)
        assert stats.bytes <= ref_stats.bytes


# ---------------------------------------------------------------------------
# the plan table and session caching
# ---------------------------------------------------------------------------


def test_schedule_policy_adds_no_pass():
    """A policy changes how copies run and what the cost guard prices; it is
    not a pass, and there is no second switch that turns scheduling on."""
    assert "schedule" not in PassManager.available()
    with pytest.raises(ValueError, match="unknown pass name"):
        CompilerOptions(passes=("parse", "resolve", "construction", "codegen", "schedule"))
    w = FIGURES["fig12-then"]
    for policy in SCHEDULED:
        options = CompilerOptions(level=3, schedule=policy)
        assert options.pass_names == CompilerOptions(level=3).pass_names
        start = PLANS.stats()
        compiled = compile_program(
            w["source"], bindings=w["bindings"], processors=4, options=options
        )
        # nothing is planned at compile time: the first run builds the plans
        assert PLANS.stats() == start
        _, stats = _run(compiled, w)
        table = _delta(start)
        assert table["misses"] == table["entries"] > 0
        assert table["hits"] + table["misses"] == stats.remaps_performed


def _delta(start):
    """What :data:`PLANS` counted since ``start`` (a ``stats()`` reading)."""
    return {k: v - start[k] for k, v in PLANS.stats().items()}


def ran_plans(monkeypatch):
    """The plan objects every executor runs from now on, in order."""
    ran = []
    real = Executor._run_plan

    def recording(executor, plan, source, target, tag):
        ran.append(plan)
        return real(executor, plan, source, target, tag)

    monkeypatch.setattr(Executor, "_run_plan", recording)
    return ran


def test_hand_assembled_artifact_runs_on_the_process_plans():
    """An artifact assembled by hand carries no plan table and needs none:
    its copies run on the process's plans, phased under its policy."""
    assert "plans" not in {f.name for f in dataclasses.fields(CompiledProgram)}
    w = FIGURES["fig12-then"]
    compiled = compile_program(
        w["source"], bindings=w["bindings"], processors=4,
        options=CompilerOptions(level=3),
    )
    options = dataclasses.replace(compiled.options, schedule="round-robin")
    by_hand = CompiledProgram(compiled.program, compiled.subroutines, options)
    executor = Executor(by_hand, Machine(by_hand.processors), _env(w))
    executor.run(next(iter(by_hand.subroutines)))
    assert not hasattr(executor, "plans")
    assert PLANS.stats()["misses"] == len(PLANS) > 0
    assert all(policy == "round-robin" for policy, _, _ in PLANS._plans)
    assert executor.machine.stats.phases > 0


def test_artifacts_of_different_sources_share_a_pairs_plan(monkeypatch):
    """Two never-seen sources that perform the same mapping pair -- the
    renamed-subroutine pattern of a cold-compile stream -- are two
    artifacts and one plan: the second run builds nothing and runs the
    first run's plan objects."""
    w = FIGURES["fig16"]
    renamed = w["source"].replace("subroutine main", "subroutine other")
    session = CompilerSession(4, CompilerOptions(level=3, schedule="round-robin"))
    ran = ran_plans(monkeypatch)
    kw = dict(bindings=w["bindings"], conditions=w["conditions"], inputs=w["inputs"])
    first = session.run(w["source"], **kw)
    first_plans, built = list(ran), PLANS.stats()["misses"]
    del ran[:]
    start = PLANS.stats()
    second = session.run(renamed, **kw)
    assert session.misses == 2  # two artifacts
    assert built > 0 and _delta(start)["misses"] == 0
    assert _delta(start)["hits"] == second.stats.remaps_performed > 0
    assert len(ran) == len(first_plans)
    assert all(a is b for a, b in zip(ran, first_plans))
    assert second.stats.snapshot() == first.stats.snapshot()


def test_one_pair_under_two_policies_is_two_plans(p4):
    """The policy is part of a plan's key: neither policy's plan is ever
    served for the other, in the process's table or a private one."""
    src = mk((16,), (DistFormat.block(),), p4)
    dst = mk((16,), (DistFormat.cyclic(),), p4)
    for table in (PLANS, CommPlanTable()):
        naive = table.obtain("naive", src, dst)
        aggregate = table.obtain("aggregate", src, dst)
        unscheduled = table.obtain(None, src, dst)
        assert (naive.policy, aggregate.policy, unscheduled.policy) == ("naive", "aggregate", None)
        assert len({id(naive), id(aggregate), id(unscheduled)}) == 3
        assert table.obtain("naive", src, dst) is naive
        assert table.obtain("aggregate", src, dst) is aggregate
        assert table.obtain(None, src, dst) is unscheduled
        assert table.stats()["misses"] == len(table) == 3


def test_warm_session_replays_plans_with_zero_scheduling_work():
    w = FIGURES["fig12-then"]
    for policy in (None, *SCHEDULED):
        session = CompilerSession(
            processors=4, options=CompilerOptions(level=3, schedule=policy)
        )
        kw = dict(
            bindings=w["bindings"], conditions=w["conditions"], inputs=w["inputs"]
        )
        start = PLANS.stats()
        r1 = session.run(w["source"], **kw)
        passes_after_cold = session.passes_run
        assert session.misses == 1
        session.compile(w["source"], bindings=w["bindings"])
        built = _delta(start)["misses"]
        assert built > 0
        r2 = session.run(w["source"], **kw)
        # warm: artifact served from cache, no pass ran and no plan was built
        assert session.hits == 2
        assert session.passes_run == passes_after_cold
        assert _delta(start)["misses"] == built
        assert r2.stats.remaps_performed > 0
        assert r1.stats.snapshot() == r2.stats.snapshot()


def test_policies_never_share_cached_artifacts():
    w = FIGURES["fig1"]
    session = CompilerSession(processors=4)
    a = session.compile(
        w["source"], bindings=w["bindings"],
        options=CompilerOptions(level=3, schedule="round-robin"),
    )
    b = session.compile(
        w["source"], bindings=w["bindings"],
        options=CompilerOptions(level=3, schedule="aggregate"),
    )
    c = session.compile(
        w["source"], bindings=w["bindings"], options=CompilerOptions(level=3)
    )
    assert session.misses == 3 and session.hits == 0
    assert a.options.schedule == "round-robin"
    assert b.options.schedule == "aggregate"
    assert c.options.schedule is None and len(PLANS) == 0


def test_plan_table_is_signature_keyed(p4):
    table = CommPlanTable()
    src = mk((16,), (DistFormat.block(),), p4)
    dst = mk((16,), (DistFormat.cyclic(),), p4, name="B")
    assert len(table) == 0
    plan = table.obtain("round-robin", src, dst)
    assert table.obtain("round-robin", src, dst) is plan
    # a different array with the same layouts shares the plan
    src2 = mk((16,), (DistFormat.block(),), p4, name="C")
    assert table.obtain("round-robin", src2, dst) is plan
    assert len(table) == 1
    assert table.stats()["misses"] == 1 and table.stats()["hits"] == 2


# ---------------------------------------------------------------------------
# schedule-aware cost model
# ---------------------------------------------------------------------------


def test_estimate_lattice_carries_phases_and_makespan():
    a = TrafficEstimate(bytes=8, messages=1, phases=2, makespan=3.0)
    b = TrafficEstimate(bytes=16, messages=2, phases=1, makespan=1.0)
    assert (a + b).phases == 3
    assert (a + b).makespan == pytest.approx(4.0)
    assert a.scaled(3).makespan == pytest.approx(9.0)
    assert a.join(b).phases == 2 and a.join(b).makespan == pytest.approx(3.0)
    assert a.meet(b).phases == 1 and a.meet(b).makespan == pytest.approx(1.0)
    assert not a.dominated_by(b)  # larger makespan
    assert a.snapshot()["phases"] == 2


def test_scheduled_time_prices_makespan_not_endpoint_sums():
    cost = CostModel(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0)
    est = TrafficEstimate(bytes=80, messages=10, phases=2, makespan=2.0)
    assert cost.time(est) == pytest.approx(10.0)
    assert cost.scheduled_time(est) == pytest.approx(2.0)
    # the scheduled comparison can accept what the serialized one rejects
    naive = TrafficEstimate(bytes=80, messages=4, phases=1, makespan=4.0)
    hoisted = TrafficEstimate(bytes=80, messages=6, phases=2, makespan=3.0)
    assert not cost.compare(naive, hoisted).hoist
    assert cost.compare(naive, hoisted, scheduled=True).hoist
