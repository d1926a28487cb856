"""Static communication-safety proofs and the verified-plan fast path.

The plan table proves exact-cover and one-port safety for every phased
plan it builds (:mod:`repro.analysis.commsafety`) and stamps what it
proves; the plan's ledger then skips the O(messages) re-validation.
The differential criterion: stamped plans execute bit-identically to
unstamped ones, and only genuinely safe plans ever get the stamp.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import CompilerOptions, ExecutionEnv, Executor, Machine, compile_program
from repro.analysis.commsafety import certify_plan, prove_plan
from repro.apps.workloads import random_environment, random_legal_subroutine
from repro.mapping import DistFormat, Mapping, ProcessorArrangement
from repro.mapping.ownership import layout_of
from repro.errors import ScheduleError
from repro.spmd import (
    CommPlanTable,
    DistributedArray,
    build_comm_schedule,
    build_schedule,
    execute_comm_schedule,
)

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
# runtime integration: the plans an artifact executes arrive stamped
# ---------------------------------------------------------------------------


def _run_unstamped(compiled, w, monkeypatch, runs=1):
    """Run the same artifact over a fresh table whose proofs all fail:
    ``certify_plan`` leaves every plan unstamped, as for an unprovable one."""
    table = CommPlanTable(compiled.options.schedule)
    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.analysis.commsafety.prove_plan", lambda src, dst, plan: ["unproved"]
        )
        for _ in range(runs):
            out = _run(dataclasses.replace(compiled, plans=table), w)
    assert len(table) == len(compiled.plans) > 0
    assert not any(p.statically_verified for p in table._plans.values())
    return out


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
    assert len(compiled.plans) == 0  # nothing is planned before the first run
    _run(compiled, W16)
    plans = list(compiled.plans._plans.values())
    assert plans, "fig16 must perform at least one copy"
    assert all(p.statically_verified for p in plans)


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

    overlay_values, overlay_stats = _run_unstamped(compiled, W16, monkeypatch, runs=3)
    phases = sum(len(p.phases) for p in compiled.plans._plans.values())
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
            v1, s1 = _run(compiled, w)
            stamped = [
                p.statically_verified for p in compiled.plans._plans.values()
            ]
            assert all(stamped), (seed, policy)
            if not stamped:
                continue  # no copy performed: nothing to compare
            v2, s2 = _run_unstamped(compiled, w, monkeypatch)
            for a in v1:
                assert np.array_equal(v1[a], v2[a]), (seed, policy, a)
            assert s1.bytes == s2.bytes, (seed, policy)
            assert s1.messages == s2.messages, (seed, policy)
