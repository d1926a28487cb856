"""Static communication-safety proofs and the verified-plan fast path.

The plan table proves exact-cover and one-port safety for every phased
plan it builds (:mod:`repro.analysis.commsafety`) and stamps what it
proves; the plan's ledger then skips the O(messages) re-validation.
The differential criterion: stamped plans execute bit-identically to
unstamped ones, and only genuinely safe plans ever get the stamp.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.spmd.schedule as schedule_mod
from repro import CompilerOptions, ExecutionEnv, Executor, Machine, compile_program
from repro.analysis.commsafety import certify_plan, prove_plan
from repro.apps.workloads import random_environment, random_legal_subroutine
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
from repro.errors import ScheduleError
from repro.obs import REGISTRY
from repro.spmd import (
    DistributedArray,
    build_comm_schedule,
    build_schedule,
    execute_comm_schedule,
    plan_redistribution,
)
from repro.spmd.redistribution import Transfer
from repro.spmd.schedule import (
    PLANS,
    CommPhase,
    PackedTransfer,
    obtain_plan,
    rectangles,
)
from repro.util.intervals import IntervalSet
from repro.util.memo import Memo
from test_lowering import counted
from test_schedule import fmt_1d, mk
from test_symbolic import CASES, PAIRS

SCHEDULED = ("naive", "round-robin", "aggregate")


def _pair(nprocs=4, n=32):
    p = ProcessorArrangement("P", (nprocs,))
    return (
        Mapping.simple((n,), (DistFormat.block(),), p),
        Mapping.simple((n,), (DistFormat.cyclic(),), p),
    )


def _plan(src, dst, policy="round-robin"):
    return build_comm_schedule(build_schedule(layout_of(src), layout_of(dst)), policy)


def _run(compiled, w):
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions=dict(w["conditions"]),
        bindings=dict(w["bindings"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
    )
    name = next(iter(compiled.subroutines))
    result = Executor(compiled, machine, env).run(name)
    values = {a: result.value(a) for a in compiled.get(name).sub.arrays}
    return values, machine.stats


# ---------------------------------------------------------------------------
# the proof itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", SCHEDULED)
def test_honest_plans_prove_clean(policy):
    src, dst = _pair()
    plan = _plan(src, dst, policy)
    assert prove_plan(src, dst, plan) == []
    certified = certify_plan(src, dst, plan)
    assert certified.statically_verified
    # idempotent: re-certification returns the already-stamped plan
    assert certify_plan(src, dst, certified) is certified


def test_double_send_phase_fails_the_proof():
    """Mutation: duplicating a message breaks one-port AND exact cover."""
    src, dst = _pair()
    plan = _plan(src, dst, "round-robin")
    phase = plan.phases[0]
    bad_phase = dataclasses.replace(
        phase, transfers=phase.transfers + (phase.transfers[0],)
    )
    bad = dataclasses.replace(plan, phases=(bad_phase,) + plan.phases[1:])
    problems = prove_plan(src, dst, bad)
    assert problems, "double-send plan must not prove clean"
    assert any("twice" in p or "surplus" in p for p in problems), problems
    assert not certify_plan(src, dst, bad).statically_verified


def test_missing_transfer_fails_exact_cover():
    src, dst = _pair()
    plan = _plan(src, dst, "round-robin")
    phase = plan.phases[0]
    bad_phase = dataclasses.replace(phase, transfers=phase.transfers[1:])
    bad = dataclasses.replace(plan, phases=(bad_phase,) + plan.phases[1:])
    problems = prove_plan(src, dst, bad)
    assert any("missing" in p for p in problems), problems


def test_wrong_mapping_pair_fails_the_proof():
    """A plan proved against the wrong (src, dst) must not certify."""
    src, dst = _pair()
    other_src, other_dst = _pair(n=64)
    plan = _plan(src, dst)
    assert prove_plan(other_src, other_dst, plan) != []
    assert not certify_plan(other_src, other_dst, plan).statically_verified


# ---------------------------------------------------------------------------
# the oracle: the proof this module had until PR 22, which re-derives the
# schedule with ``build_schedule`` and compares the plan with that second
# copy.  It cannot see a defect ``build_schedule`` itself wrote (pinned
# below); on honest and hand-mutated plans its verdict is the reference
# the position-counting proof is held to.
# ---------------------------------------------------------------------------


def _canonical(t):
    return t.src_rank, t.dst_rank, tuple(tuple(s.intervals) for s in t.index_sets)


def reference_is_clean(src, dst, plan) -> bool:
    moved: Counter = Counter()
    one_port = True
    for t in plan.local_transfers:
        moved.update(_canonical(r) for r in rectangles(t))
    for phase in plan.phases:
        pairs = [(pt.src_rank, pt.dst_rank) for pt in phase.transfers]
        senders, receivers = [s for s, _ in pairs], [d for _, d in pairs]
        if any(s == d for s, d in pairs) or any(pt.elements == 0 for pt in phase.transfers):
            one_port = False
        if not phase.contended and (
            len(set(senders)) < len(senders) or len(set(receivers)) < len(receivers)
        ):
            one_port = False
        for pt in phase.transfers:
            for part in pt.parts:
                moved.update(_canonical(r) for r in rectangles(part))
    needed = [t for t in build_schedule(layout_of(src), layout_of(dst)).transfers if t.elements]
    required: Counter = Counter()
    for t in needed:
        required.update(_canonical(r) for r in rectangles(t))
    return (
        one_port
        and plan.policy in SCHEDULED
        and Counter(map(_canonical, plan.transfers)) == Counter(map(_canonical, needed))
        and moved == required
    )


def _mutated_plan(src, dst, policy, mutate):
    """The plan ``build_comm_schedule`` makes of a tampered redistribution."""
    redist = build_schedule(layout_of(src), layout_of(dst))
    redist.transfers = mutate([t for t in redist.transfers if t.elements])
    return build_comm_schedule(redist, policy)


def _pair3(nprocs=4, n=32):
    p = ProcessorArrangement("P", (nprocs,))
    return mk((n,), (DistFormat.block(),), p), mk((n,), (DistFormat.cyclic(3),), p)


@pytest.mark.parametrize("policy", SCHEDULED)
def test_schedule_that_drops_a_transfer_fails_the_proof(policy, monkeypatch):
    """Seeded defect (i): ``build_schedule`` itself loses the 0 -> 1
    rectangle {3, 4, 5}.  The proof names rank 1 and what it never
    receives; the oracle, re-deriving the schedule with the same function,
    compares the plan with an equally wrong copy and passes it."""
    src, dst = _pair3()
    honest_build = build_schedule

    def lossy(src_lay, dst_lay):
        redist = honest_build(src_lay, dst_lay)
        redist.transfers = [t for t in redist.transfers if (t.src_rank, t.dst_rank) != (0, 1)]
        return redist

    monkeypatch.setattr(schedule_mod, "build_schedule", lossy)
    monkeypatch.setitem(globals(), "build_schedule", lossy)
    plan = plan_redistribution(src, dst, policy)
    problems = prove_plan(src, dst, plan)
    assert problems == [
        "exact-cover violation: 3 of rank 1's 9 owned element(s) never written, "
        "first at global index (3,)"
    ]
    assert reference_is_clean(src, dst, plan), "the old proof did not see it"
    assert not obtain_plan(policy, src, dst).statically_verified


@pytest.mark.parametrize("policy", SCHEDULED)
def test_transfer_outside_its_senders_block_fails_the_proof(policy):
    """Seeded defect (ii): the 0 -> 2 transfer {6, 7} shifted to {7, 8}.
    Rank 2 owns both in ``dst``; rank 0 does not own 8 in ``src``."""
    src, dst = _pair3()

    def shift(transfers):
        k = next(i for i, t in enumerate(transfers) if (t.src_rank, t.dst_rank) == (0, 2))
        assert transfers[k].index_sets == (IntervalSet(((6, 8),)),)
        transfers[k] = Transfer(0, 2, (IntervalSet(((7, 9),)),))
        return transfers

    bad = _mutated_plan(src, dst, policy, shift)
    problems = prove_plan(src, dst, bad)
    assert len(problems) == 1 and "leaves its sender's or receiver's block" in problems[0]
    assert not reference_is_clean(src, dst, bad)
    assert not certify_plan(src, dst, bad).statically_verified


@pytest.mark.parametrize("policy", SCHEDULED)
def test_duplicated_transfer_fails_the_proof(policy):
    """Seeded defect (iii): one whole transfer twice -- messages and whole
    transfers agree with each other, three positions are written twice."""
    src, dst = _pair3()
    bad = _mutated_plan(
        src, dst, policy, lambda ts: ts + [t for t in ts if (t.src_rank, t.dst_rank) == (0, 1)]
    )
    problems = prove_plan(src, dst, bad)
    assert any("3 of rank 1's 9 owned element(s) written twice" in p for p in problems), problems
    assert not reference_is_clean(src, dst, bad)
    assert not certify_plan(src, dst, bad).statically_verified


@pytest.mark.parametrize("policy", SCHEDULED)
def test_sending_what_the_receiver_holds_fails_the_proof(policy):
    """Seeded defect (iv): under a replicated source every receiver holds
    a replica and the honest plan is local copies only; one of them turned
    into a message from the other replica still covers exactly."""
    procs = ProcessorArrangement("P", (2, 2))
    t = Template("T", (8, 2))
    dist = Distribution(t, (DistFormat.block(), DistFormat.block()), procs)
    src = Mapping(Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.replicate())), dist)
    dst = Mapping(Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.const(1))), dist)
    honest = plan_redistribution(src, dst, policy)
    assert prove_plan(src, dst, honest) == [] and not honest.phases
    local = honest.transfers[0]
    replica = next(
        h.rank
        for h in layout_of(src).table
        if h.rank != local.dst_rank and h.owned == layout_of(src).holder(local.dst_rank).owned
    )
    remote = Transfer(replica, local.dst_rank, local.index_sets)
    bad = dataclasses.replace(
        honest,
        phases=(CommPhase((PackedTransfer(replica, local.dst_rank, (remote,)),)),),
        local_transfers=honest.local_transfers[1:],
        transfers=(remote,) + honest.transfers[1:],
    )
    problems = prove_plan(src, dst, bad)
    assert problems == [
        f"replication violation: {replica}->{local.dst_rank} sends what rank "
        f"{local.dst_rank} already holds in the source mapping"
    ]
    assert not certify_plan(src, dst, bad).statically_verified


def test_the_proof_never_rebuilds_the_schedule(monkeypatch):
    calls = counted(monkeypatch, schedule_mod, "build_schedule")
    src, dst = _pair3()
    for policy in SCHEDULED:
        plan = plan_redistribution(src, dst, policy)
        del calls[:]
        assert prove_plan(src, dst, plan) == []
        assert certify_plan(src, dst, plan).statically_verified
        assert calls == []
    import repro.analysis.commsafety as proof_mod

    assert not hasattr(proof_mod, "build_schedule")


@pytest.mark.parametrize("policy", SCHEDULED)
@pytest.mark.parametrize("name", sorted(CASES))
def test_figure_plans_prove_clean_across_the_shape_sweep(name, policy):
    """Fig. 1/12/16 over the (n, P) sweep of ``tests/test_symbolic.py``:
    every plan a run obtains is stamped, and proves clean on its own."""
    for n, p in PAIRS:
        w = CASES[name](n)
        PLANS.clear()  # the plans of this shape only
        compiled = compile_program(
            w["source"],
            bindings=w["bindings"],
            processors=p,
            options=CompilerOptions(level=3, schedule=policy),
        )
        _run(compiled, w)
        plans = dict(PLANS._entries)
        assert plans and all(plan.statically_verified for plan in plans.values())
        for (_, src_sig, dst_sig), plan in plans.items():
            unstamped = dataclasses.replace(plan, statically_verified=False)
            src, dst = _mappings_of(compiled, src_sig, dst_sig)
            assert prove_plan(src, dst, unstamped) == [], (name, policy, n, p)
            assert reference_is_clean(src, dst, unstamped)


def _mappings_of(compiled, *signatures):
    by_signature = {
        m.signature: m
        for cs in compiled.subroutines.values()
        for a in cs.construction.versions.arrays()
        for m in cs.construction.versions.versions(a)
    }
    return [by_signature[s] for s in signatures]


# ---------------------------------------------------------------------------
# property: random mapping pairs x policies (the ``tests-random`` CI leg)
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    f_src=fmt_1d,
    f_dst=fmt_1d,
    nprocs=st.integers(1, 5),
    policy=st.sampled_from(SCHEDULED),
    data=st.data(),
)
def test_prop_proof_agrees_with_the_rederiving_oracle(n, f_src, f_dst, nprocs, policy, data):
    """Honest plans prove clean; a plan with one rectangle deleted or
    duplicated -- from the messages, or from the redistribution itself --
    never does; and on every plan the verdict is the oracle's."""
    procs = ProcessorArrangement("P", (nprocs,))
    src, dst = mk((n,), (f_src,), procs), mk((n,), (f_dst,), procs)
    honest = plan_redistribution(src, dst, policy)
    assert prove_plan(src, dst, honest) == []
    assert reference_is_clean(src, dst, honest)

    whole = [r for t in honest.transfers for r in rectangles(t)]
    victim = whole[data.draw(st.integers(0, len(whole) - 1))]
    duplicate = data.draw(st.booleans())

    def tamper(transfers):
        out = []
        for t in transfers:
            for r in rectangles(t):
                if r != victim:
                    out.append(r)
                elif duplicate:
                    out += [r, r]
        return out

    in_schedule = _mutated_plan(src, dst, policy, tamper)
    assert prove_plan(src, dst, in_schedule) != []
    assert not reference_is_clean(src, dst, in_schedule)

    # the same rectangle tampered with in the messages only
    packed = PackedTransfer(victim.src_rank, victim.dst_rank, (victim,))
    if victim.is_local:
        kept = tuple(r for t in honest.local_transfers for r in rectangles(t) if r != victim)
        in_messages = dataclasses.replace(
            honest, local_transfers=kept + ((victim, victim) if duplicate else ())
        )
    elif duplicate:
        in_messages = dataclasses.replace(
            honest, phases=honest.phases + (CommPhase((packed,), honest.phases[0].contended),)
        )
    else:
        phases = tuple(
            dataclasses.replace(
                phase,
                transfers=tuple(
                    dataclasses.replace(
                        pt,
                        parts=tuple(
                            r for part in pt.parts for r in rectangles(part) if r != victim
                        ),
                    )
                    for pt in phase.transfers
                ),
            )
            for phase in honest.phases
        )
        in_messages = dataclasses.replace(honest, phases=phases)
    assert prove_plan(src, dst, in_messages) != []
    assert not reference_is_clean(src, dst, in_messages)


# ---------------------------------------------------------------------------
# runtime integration: the plans an artifact executes arrive stamped
# ---------------------------------------------------------------------------


def _run_unstamped(compiled, w, monkeypatch, runs=1):
    """Run the same artifact over a fresh plan memo whose proofs all fail:
    ``certify_plan`` leaves every plan unstamped, as for an unprovable one.
    The stamped run before it obtained the same pairs from :data:`PLANS`.
    Returns the last run's ``(values, stats)`` and the plans it ran."""
    table = Memo(PLANS.cap)
    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.analysis.commsafety.prove_plan", lambda src, dst, plan: ["unproved"]
        )
        patch.setattr("repro.spmd.schedule.PLANS", table)
        for _ in range(runs):
            out = _run(compiled, w)
    assert len(table) > 0 and table._entries.keys() <= PLANS._entries.keys()
    assert not any(p.statically_verified for p in table._entries.values())
    return out, list(table._entries.values())


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

W16 = dict(
    bindings={"n": 16, "t": 5},
    conditions={},
    inputs={"a": np.arange(16.0)},
)


@pytest.mark.parametrize("policy", SCHEDULED)
def test_schedule_pass_stamps_every_plan(policy):
    compiled = compile_program(
        FIG16,
        bindings=W16["bindings"],
        processors=4,
        options=CompilerOptions(level=3, schedule=policy),
    )
    # what the compile planned -- the pairs the cost guard priced -- is proved
    assert all(p.statically_verified for p in PLANS._entries.values())
    _run(compiled, W16)
    plans = list(PLANS._entries.values())
    assert plans, "fig16 must perform at least one copy"
    assert all(p.statically_verified for p in plans)


@pytest.mark.parametrize("policy", SCHEDULED)
def test_stamp_keeps_the_lowering_the_proof_paid_for(policy, monkeypatch):
    """``dataclasses.replace`` copies fields only; the stamped copy must
    carry the derived forms across.  A newly obtained plan is lowered
    exactly once -- by its proof -- and its first execution lowers nothing:
    the run makes the ``prepare_move`` calls of a run whose plans nobody
    proved (one lowering per plan, at execution: the parent's count)."""
    src, dst = _pair()
    plan = _plan(src, dst, policy)
    plan.ledger(Machine(src.processors).cost, 8)
    plan.wire(layout_of(src), layout_of(dst))
    stamped = certify_plan(src, dst, plan)
    assert stamped is not plan and stamped.statically_verified
    for slot in ("_ledger", "_lowered", "_wire"):
        assert getattr(stamped, slot) is getattr(plan, slot) is not None, slot

    calls = counted(monkeypatch, schedule_mod, "prepare_move")
    lowered = REGISTRY.counter("repro.schedule.plans_lowered")
    before = lowered.value
    # the cost guard prices the pairs it can, so their proofs run here
    compiled = compile_program(
        FIG16,
        bindings=W16["bindings"],
        processors=4,
        options=CompilerOptions(level=3, schedule=policy),
    )
    _run(compiled, W16)
    proved_calls = len(calls)
    assert len(PLANS) == 2 and lowered.value - before == 2
    del calls[:]
    _run(compiled, W16)
    assert calls == [] and lowered.value - before == 2
    _run_unstamped(compiled, W16, monkeypatch)
    assert len(calls) == proved_calls > 0 and lowered.value - before == 4


def test_first_use_of_a_plan_is_three_spans_and_a_hit_is_none(tracer):
    """A miss of the plan memo shows in a trace as ``remap.plan_build`` and
    ``remap.prove`` under the caller's span, the proof's lowering as a
    ``remap.lower`` under ``remap.prove``; a hit opens nothing, an
    unscheduled plan proves nothing, a disabled tracer records nothing."""
    src, dst = _pair()

    def obtained(policy="round-robin"):
        tracer.clear()
        with tracer.span("caller") as caller:
            obtain_plan(policy, src, dst)
        spans = {s.name: s for s in tracer.finished_spans()}
        assert len(spans) == len(tracer.finished_spans())
        del spans["caller"]
        return caller, spans

    caller, spans = obtained()
    assert sorted(spans) == ["remap.lower", "remap.plan_build", "remap.prove"]
    assert spans["remap.plan_build"].parent_id == caller.span_id
    assert spans["remap.prove"].parent_id == caller.span_id
    assert spans["remap.lower"].parent_id == spans["remap.prove"].span_id
    assert obtained()[1] == {}

    assert sorted(obtained(None)[1]) == ["remap.plan_build"]

    tracer.enabled = False
    tracer.clear()
    obtain_plan("naive", src, dst)
    assert tracer.finished_spans() == []


def test_verified_plans_skip_runtime_validation(monkeypatch):
    """The stamp is what gates the fast path: stamped plans never call the
    one-port re-check; unstamped plans call it when their ledger is built,
    once per plan however often they run."""
    import repro.spmd.schedule as schedule_mod

    calls = {"n": 0}
    real = schedule_mod.check_one_port

    def counting(pairs):
        calls["n"] += 1
        return real(pairs)

    monkeypatch.setattr(schedule_mod, "check_one_port", counting)

    compiled = compile_program(
        FIG16,
        bindings=W16["bindings"],
        processors=4,
        options=CompilerOptions(level=3, schedule="round-robin"),
    )
    calls["n"] = 0
    stamped_values, stamped_stats = _run(compiled, W16)
    assert calls["n"] == 0, "stamped plans must skip the runtime re-check"

    (overlay_values, overlay_stats), ran = _run_unstamped(compiled, W16, monkeypatch, runs=3)
    phases = sum(len(p.phases) for p in ran)
    assert calls["n"] == phases > 0, "one check per phase per plan, not per run"

    for a in stamped_values:
        assert np.array_equal(stamped_values[a], overlay_values[a])
    assert stamped_stats.bytes == overlay_stats.bytes
    assert stamped_stats.messages == overlay_stats.messages


def test_double_send_plan_raises_before_any_data_moves():
    """A hand-built double-send plan is unprovable, so it stays unstamped and
    its ledger re-checks it: ``ScheduleError``, the target untouched."""
    src, dst = _pair()
    plan = _plan(src, dst, "round-robin")
    phase = plan.phases[0]
    bad = dataclasses.replace(
        plan,
        phases=(dataclasses.replace(phase, transfers=phase.transfers * 2),) + plan.phases[1:],
    )
    bad = certify_plan(src, dst, bad)
    assert not bad.statically_verified
    machine = Machine(src.processors)
    source = DistributedArray("A", src, machine)
    target = DistributedArray("A", dst, machine)
    source.scatter_from_global(np.arange(32.0))
    target.scatter_from_global(np.full(32, -1.0))
    with pytest.raises(ScheduleError, match="twice"):
        execute_comm_schedule(bad, source, target, machine)
    assert np.array_equal(target.gather_to_global(), np.full(32, -1.0))
    assert machine.stats.messages == 0 and machine.elapsed == 0.0


# ---------------------------------------------------------------------------
# the acceptance differential: seeds 0..200, every policy
# ---------------------------------------------------------------------------


def test_workload_seeds_verified_equals_unverified(monkeypatch):
    """Bit-identical values, bytes and messages between the stamped plans
    and the same plans left unstamped."""
    for seed in range(201):
        rng = np.random.default_rng(seed)
        program = random_legal_subroutine(rng, n_arrays=2, length=5, depth=1)
        conditions, inputs = random_environment(rng, n_arrays=2)
        w = dict(bindings={}, conditions=conditions, inputs=inputs)
        for policy in SCHEDULED:
            compiled = compile_program(
                program, processors=4, options=CompilerOptions(level=3, schedule=policy)
            )
            PLANS.clear()  # the plans of this run only
            v1, s1 = _run(compiled, w)
            stamped = [p.statically_verified for p in PLANS._entries.values()]
            assert all(stamped), (seed, policy)
            if not stamped:
                continue  # no copy performed: nothing to compare
            (v2, s2), _ = _run_unstamped(compiled, w, monkeypatch)
            for a in v1:
                assert np.array_equal(v1[a], v2[a]), (seed, policy, a)
            assert s1.bytes == s2.bytes, (seed, policy)
            assert s1.messages == s2.messages, (seed, policy)
