"""Lowered copy descriptors: one lowering per plan, one data-movement primitive.

A plan (:class:`~repro.spmd.schedule.CommSchedule`, under a policy or the
degenerate ``policy=None`` one) lowers itself on first execution to
:class:`~repro.spmd.redistribution.PreparedMove` descriptors and keeps
them.  Pinned here:

* **values** -- lowered execution, unscheduled and under every policy,
  equals a reference built from ``gather_to_global`` ->
  ``scatter_from_global``, which never calls ``positions_in``;
* **descriptor shape** -- slices where positions are arithmetic
  progressions, open-mesh vectors otherwise, never a mix;
* **ledger** -- charging a plan's ledger delta equals, bit for bit, the
  per-message accounting it replaced (a reference written out here);
* **once** -- a warm ``session.run`` makes zero ``positions_in`` calls,
  opens no ``remap.lower`` span, builds no ``Message`` and copies at most
  once per whole transfer;
* **derived state only** -- pickles, ``repr`` and equality see neither a
  plan's lowered form nor a table's plans;
* **first-use race** -- two threads first-executing one frozen artifact
  agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompilerOptions, CompilerSession, ExecutionEnv, Machine, execute
from repro.mapping import DistFormat, Mapping, ProcessorArrangement
from repro.mapping.ownership import layout_of
from repro.obs import REGISTRY
from repro.spmd import (
    CommPlanTable,
    DistributedArray,
    build_schedule,
    execute_comm_schedule,
    plan_redistribution,
)
from repro.spmd import redistribution
from repro.spmd.message import Message, message_of
from repro.spmd.redistribution import PreparedMove, prepare_move
from repro.spmd.schedule import POLICIES

WAYS = (None, *POLICIES)  # None: the unscheduled path

LOOP = """
subroutine remap(t)
  integer n, t
  real a(n)
!hpf$ dynamic a
!hpf$ distribute a(block)
  do i = 1, t
!hpf$   redistribute a(cyclic)
    compute writes a
!hpf$   redistribute a(block)
    compute writes a
  enddo
end
"""

B, C1, C3, STAR = (
    DistFormat.block(),
    DistFormat.cyclic(),
    DistFormat.cyclic(3),
    DistFormat.star(),
)


def mk(shape, fmts, nprocs):
    return Mapping.simple(shape, fmts, ProcessorArrangement("P", (nprocs,)))


def moves_of(plan, src, dst):
    """Every descriptor of a plan: the simulator's copies, then the mp
    backend's unphased moves and per-message wire parts."""
    unphased, phases = plan.wire(src, dst)
    wire = [*unphased, *(m for messages in phases for parts in messages for m in parts)]
    return [*plan.lowered(src, dst).moves, *wire]


# ---------------------------------------------------------------------------
# (a) values against a positions_in-free reference
# ---------------------------------------------------------------------------

fmt = st.one_of(
    st.just(B), st.builds(DistFormat.cyclic, st.one_of(st.none(), st.integers(1, 3)))
)
pair_1d = st.tuples(st.integers(1, 40), fmt, fmt).map(
    lambda a: ((a[0],), (a[1],), (a[2],))
)
pair_2d = st.tuples(
    st.integers(1, 12), st.integers(1, 12), fmt, fmt, st.booleans(), st.booleans()
).map(
    lambda a: (
        (a[0], a[1]),
        (a[2], STAR) if a[4] else (STAR, a[2]),
        (a[3], STAR) if a[5] else (STAR, a[3]),
    )
)


@settings(max_examples=80, deadline=None)
@given(
    pair=st.one_of(pair_1d, pair_2d),
    nprocs=st.integers(1, 5),
    way=st.sampled_from(WAYS),
)
def test_prop_lowered_execution_matches_gather_scatter(pair, nprocs, way):
    shape, f_src, f_dst = pair
    src, dst = mk(shape, f_src, nprocs), mk(shape, f_dst, nprocs)
    machine = Machine(src.processors)
    source = DistributedArray("A", src, machine)
    target = DistributedArray("A", dst, machine)
    expected = DistributedArray("A", dst, machine)
    source.scatter_from_global(np.random.default_rng(3).normal(size=shape))
    expected.scatter_from_global(source.gather_to_global())

    plan = plan_redistribution(src, dst, way)
    execute_comm_schedule(plan, source, target, machine)
    for rank, block in expected.blocks.items():
        assert np.array_equal(target.blocks[rank], block)

    # the memo replays: same descriptors, same values into fresh storage
    lowered = plan.lowered(source.layout, target.layout)
    assert plan.lowered(source.layout, target.layout) is lowered
    again = DistributedArray("A", dst, machine)
    execute_comm_schedule(plan, source, again, machine)
    for rank, block in expected.blocks.items():
        assert np.array_equal(again.blocks[rank], block)
    moved = sum(m.elements for m in lowered.moves if not m.is_local)
    assert machine.stats.bytes == 2 * moved * source.itemsize


@settings(max_examples=80, deadline=None)
@given(pair=st.one_of(pair_1d, pair_2d), nprocs=st.integers(1, 5))
def test_prop_unscheduled_plan_charges_like_the_transfer_loop(pair, nprocs):
    """The ``policy=None`` plan against the loop it replaced: each transfer
    of ``build_schedule`` lowered, executed and charged on its own."""
    shape, f_src, f_dst = pair
    src, dst = mk(shape, f_src, nprocs), mk(shape, f_dst, nprocs)
    data = np.random.default_rng(5).normal(size=shape)

    def fresh():
        machine = Machine(src.processors, log_messages=True)
        source = DistributedArray("A", src, machine)
        source.scatter_from_global(data)
        return machine, source, DistributedArray("A", dst, machine)

    ref_machine, source, ref_target = fresh()
    for t in build_schedule(source.layout, ref_target.layout).transfers:
        move = prepare_move(t, source.layout, ref_target.layout)
        move.execute(source, ref_target)
        ref_machine.transfer(message_of(move, ref_target.itemsize, "A", "tag"))

    machine, source, target = fresh()
    plan = plan_redistribution(src, dst, None)
    execute_comm_schedule(plan, source, target, machine, tag="tag")
    assert plan.phases == () and machine.phase_seconds == 0.0
    assert machine.stats.snapshot() == ref_machine.stats.snapshot()
    assert machine.elapsed == ref_machine.elapsed  # bit-equal, not approx
    assert machine.message_log == ref_machine.message_log
    for rank, block in ref_target.blocks.items():
        assert np.array_equal(target.blocks[rank], block)


def reference_ledger(plan, nprocs, cost, itemsize, array, tag, times):
    """The per-message accounting a plan's ledger delta replaced, written
    out: each unphased transfer on its endpoints' clocks, then each phase's
    messages recorded one by one and its duration added to every clock."""
    clocks, log, phase_seconds = [0.0] * nprocs, [], 0.0
    count = dict.fromkeys(("messages", "bytes", "local_copies", "local_bytes", "phases"), 0)

    def message(m):  # a Transfer or a PackedTransfer; returns what it costs
        nbytes = m.elements * itemsize
        count["messages"] += 1
        count["bytes"] += nbytes
        log.append(Message(m.src_rank, m.dst_rank, nbytes, m.elements, array, tag))
        return cost.alpha + cost.beta * nbytes

    for _ in range(times):
        for t in plan.local_transfers:
            if t.is_local:
                count["local_copies"] += 1
                count["local_bytes"] += t.elements * itemsize
                clocks[t.src_rank] += cost.gamma * (t.elements * itemsize)
            else:
                seconds = message(t)
                clocks[t.src_rank] += seconds
                clocks[t.dst_rank] += seconds
        for phase in plan.phases:
            costs = [(pt.src_rank, pt.dst_rank, message(pt)) for pt in phase.transfers]
            port: dict[int, float] = {}
            for src, dst, seconds in costs:
                port[src] = port.get(src, 0.0) + seconds
                port[dst] = port.get(dst, 0.0) + seconds
            busiest, largest = max(port.values()), max(c for _, _, c in costs)
            duration = busiest if phase.contended else largest
            clocks = [clock + duration for clock in clocks]
            phase_seconds += duration
            count["phases"] += 1
    return count, log, max(clocks), phase_seconds


@settings(max_examples=80, deadline=None)
@given(
    pair=st.one_of(pair_1d, pair_2d),
    nprocs=st.integers(1, 5),
    way=st.sampled_from(WAYS),
)
def test_prop_charged_ledger_equals_per_message_accounting(pair, nprocs, way):
    """``charge(plan.ledger(...))`` -- twice, so it accumulates -- against
    :func:`reference_ledger`: every counter, both breakdowns, the message
    log and both clocks ``==``, floats included."""
    shape, f_src, f_dst = pair
    src, dst = mk(shape, f_src, nprocs), mk(shape, f_dst, nprocs)
    plan = plan_redistribution(src, dst, way)
    machine = Machine(src.processors, log_messages=True)
    delta = plan.ledger(machine.cost, 8)
    assert plan.ledger(machine.cost, 8) is delta  # worked out once
    for _ in range(2):
        machine.charge(delta, "A", "tag")

    count, log, elapsed, phase_seconds = reference_ledger(
        plan, nprocs, machine.cost, 8, "A", "tag", times=2
    )
    stats = machine.stats
    assert {key: stats.snapshot()[key] for key in count} == count
    assert (delta.messages, delta.bytes) == (plan.message_count, plan.moved_bytes(8))
    filed = {"bytes": count["bytes"], "messages": count["messages"]}
    assert stats.array_breakdown() == ({"A": filed} if log else {})
    assert stats.tag_breakdown() == ({"tag": filed} if log else {})
    assert machine.message_log == log
    assert machine.elapsed == elapsed and machine.phase_seconds == phase_seconds
    assert delta.makespan * 2 == pytest.approx(phase_seconds)


# ---------------------------------------------------------------------------
# (b) descriptor shape
# ---------------------------------------------------------------------------


def index_kinds(src, dst, way):
    """The set of element types over every index of every descriptor."""
    kinds = set()
    for move in moves_of(plan_redistribution(src, dst, way), layout_of(src), layout_of(dst)):
        for ix in (move.src_ix, move.dst_ix):
            types = {type(part) for part in ix}
            assert len(types) == 1, "an index is all slices or all vectors"
            kinds |= types
    return kinds


@pytest.mark.parametrize("way", WAYS)
def test_block_cyclic_lowers_to_slices(way):
    src, dst = mk((64,), (B,), 4), mk((64,), (C1,), 4)
    assert index_kinds(src, dst, way) == {slice}
    assert index_kinds(dst, src, way) == {slice}


@pytest.mark.parametrize("way", WAYS)
def test_2d_transpose_lowers_to_slices(way):
    src, dst = mk((16, 16), (B, STAR), 4), mk((16, 16), (STAR, B), 4)
    assert index_kinds(src, dst, way) == {slice}


@pytest.mark.parametrize("way", [None, "aggregate"])
def test_block_cyclic3_lowers_to_vectors(way):
    # a pair's cyclic(3) runs sit 12 apart in the block but back to back in
    # the cyclic(3) owner: vectors on one side, a slice on the other
    src, dst = mk((64,), (B,), 4), mk((64,), (C3,), 4)
    assert index_kinds(src, dst, way) == {slice, np.ndarray}


@pytest.mark.parametrize("policy", ["naive", "round-robin"])
def test_unpacked_messages_always_lower_to_slices(policy):
    # an unpacked message is one contiguous run, contiguous in both blocks
    # (local copies are not split into runs and may still need vectors)
    # -- on the wire and, the pair's whole index not being a progression,
    # in the simulator too: run slices, never the pair's np.ix_ mesh
    src, dst = mk((64,), (B,), 4), mk((64,), (C3,), 4)
    plan = plan_redistribution(src, dst, policy)
    _, phases = plan.wire(layout_of(src), layout_of(dst))
    parts = [m for messages in phases for parts in messages for m in parts]
    assert len(parts) == plan.message_count and all(m.is_basic for m in parts)
    moves = [m for m in plan.lowered(layout_of(src), layout_of(dst)).moves if not m.is_local]
    assert len(moves) > 12 and all(m.is_basic for m in moves)  # 12 pairs, some in runs


# ---------------------------------------------------------------------------
# (c) lowered once: warm runs do no index arithmetic
# ---------------------------------------------------------------------------


@pytest.fixture
def counted_positions_in(monkeypatch):
    calls = []
    real = redistribution.positions_in

    def counting(owned, subset):
        calls.append(1)
        return real(owned, subset)

    monkeypatch.setattr(redistribution, "positions_in", counting)
    return calls


def span_names(tracer):
    names = [s.name for s in tracer.finished_spans()]
    tracer.clear()
    return names


@pytest.fixture
def counted_build_schedule(monkeypatch):
    calls = []
    real = redistribution.build_schedule

    def counting(src, dst):
        calls.append(1)
        return real(src, dst)

    # plans are built through the schedule module's reference to it
    monkeypatch.setattr("repro.spmd.schedule.build_schedule", counting)
    return calls


def test_warm_run_makes_zero_positions_in_calls(
    counted_positions_in, counted_build_schedule, tracer
):
    for policy in WAYS:
        check_warm_run(policy, counted_positions_in, counted_build_schedule, tracer)


def check_warm_run(policy, counted_positions_in, counted_build_schedule, tracer):
    session = CompilerSession(4, CompilerOptions(level=3, schedule=policy))
    lowered = REGISTRY.counter("repro.schedule.plans_lowered")
    kwargs = dict(bindings={"n": 64, "t": 4}, inputs={"a": np.arange(64.0)})

    del counted_positions_in[:]
    before = lowered.value
    cold = session.run(LOOP, **kwargs)
    assert cold.stats.remaps_performed == 8
    assert len(counted_positions_in) > 0
    assert lowered.value - before == 2  # block->cyclic and cyclic->block
    assert span_names(tracer).count("remap.lower") == 2

    plans = session.compile(LOOP, bindings=kwargs["bindings"]).plans
    assert plans.stats()["misses"] == 2
    del counted_positions_in[:], counted_build_schedule[:]
    warm = session.run(LOOP, **kwargs)
    assert warm.stats.remaps_performed == 8
    assert plans.stats()["misses"] == 2 and plans.stats()["hits"] == 14
    assert counted_positions_in == [] and counted_build_schedule == []
    assert lowered.value - before == 2
    assert "remap.lower" not in span_names(tracer)
    assert np.array_equal(warm.value("a"), cold.value("a"))
    assert warm.stats.snapshot() == cold.stats.snapshot()


def test_warm_run_charges_plans_and_copies_transfers(monkeypatch):
    """Against the per-message loop coming back: a warm run of the
    benchmark's ``remap_fine`` loop kind builds no ``Message``, re-checks no
    phase and makes at most one NumPy assignment per whole transfer."""
    session = CompilerSession(4, CompilerOptions(level=3, schedule="round-robin"))
    kwargs = dict(bindings={"n": 256, "t": 16}, inputs={"a": np.arange(256.0)})
    cold = session.run(LOOP, **kwargs)
    compiled = session.compile(LOOP, bindings=kwargs["bindings"])
    plans = list(compiled.plans._plans.values())
    assert len(plans) == 2 and all(len(plan.transfers) == 16 for plan in plans)

    made, checks, copies = [], [], []
    for module in ("repro.spmd.machine", "repro.spmd.message"):
        monkeypatch.setattr(
            f"{module}.Message", lambda *a, **kw: made.append(1) or Message(*a, **kw)
        )
    monkeypatch.setattr("repro.spmd.schedule.check_one_port", checks.append)
    real = PreparedMove.execute
    monkeypatch.setattr(
        PreparedMove, "execute", lambda move, src, dst: copies.append(1) or real(move, src, dst)
    )
    warm = session.run(LOOP, **kwargs)
    assert warm.stats.remaps_performed == 32
    assert warm.stats.snapshot() == cold.stats.snapshot()
    assert warm.stats.messages == 32 * sum(p.message_count for p in plans) // 2 > 32 * 16
    assert made == [] and checks == []
    assert 0 < len(copies) <= 32 * 16

    # the log is the one consumer of Message objects: one per message, on ask
    machine = Machine(compiled.processors, log_messages=True)
    logged = execute(compiled, machine=machine, env=ExecutionEnv(**kwargs))
    assert len(made) == len(machine.message_log) == logged.stats.messages
    assert np.array_equal(logged.value("a"), warm.value("a"))


def test_binding_wrappers_share_the_artifacts_plan_memo(
    counted_positions_in, counted_build_schedule
):
    """A different runtime-only ``t`` is served by a ``with_bindings``
    wrapper over the cached artifact: same plan table, same plans."""
    from repro.service import CompileService

    with CompileService(workers=1, processors=4) as svc:
        first = svc.submit(LOOP, bindings={"n": 64, "t": 2}, inputs={"a": np.arange(64.0)})
        first = first.result()
        assert first.error is None and first.result.stats.remaps_performed == 4
        assert counted_positions_in and counted_build_schedule

        del counted_positions_in[:], counted_build_schedule[:]
        other = svc.submit(LOOP, bindings={"n": 64, "t": 3}, inputs={"a": np.arange(64.0)})
        other = other.result()
        assert other.error is None and other.cache_source == "memory"
        assert other.compiled is not first.compiled
        assert other.compiled.plans is first.compiled.plans
        assert other.result.stats.remaps_performed == 6
        assert other.compiled.plans.stats()["misses"] == 2
        assert counted_positions_in == [] and counted_build_schedule == []


# ---------------------------------------------------------------------------
# (d) lowered forms and tables are derived state: invisible to pickles,
#     repr and equality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("way", WAYS)
def test_execution_leaves_pickle_digest_and_equality_alone(way):
    src, dst = mk((48,), (B,), 4), mk((48,), (C3,), 4)
    table = CommPlanTable(way)
    empty = pickle.dumps(table), repr(table)
    plan = table.obtain(src, dst)
    twin = plan_redistribution(src, dst, way)
    before = pickle.dumps(plan), repr(plan)

    machine = Machine(src.processors)
    source = DistributedArray("A", src, machine)
    target = DistributedArray("A", dst, machine)
    execute_comm_schedule(plan, source, target, machine)
    assert plan._lowered is not None and twin._lowered is None
    assert (pickle.dumps(plan), repr(plan)) == before
    assert plan.statically_verified == (way is not None and bool(plan.phases))
    assert dataclasses.replace(plan, statically_verified=False) == twin
    restored = pickle.loads(pickle.dumps(plan))
    assert restored == plan and restored._lowered is None
    # ... and so are the table's plans: its pickle, repr and equality see
    # the policy only, whatever it has served
    assert table.obtain(dst, src) is table.obtain(dst, src)
    assert table.obtain(src, dst) is plan
    assert len(table) == 2 and table == CommPlanTable(way)
    assert table != CommPlanTable(None if way else "naive")
    assert (pickle.dumps(table), repr(table)) == empty
    revived = pickle.loads(pickle.dumps(table))
    assert revived == table and len(revived) == 0 and revived.stats()["misses"] == 0


@pytest.mark.parametrize("way", WAYS)
def test_artifact_pickles_the_same_before_and_after_it_executed(way):
    session = CompilerSession(4, CompilerOptions(level=3, schedule=way))
    compiled = session.compile(LOOP, bindings={"n": 64, "t": 2})
    # a Mapping keeps its normal form in its (pickled) __dict__ once asked,
    # and the first run asks (the plan table keys by signature)
    versions = compiled.subroutines["remap"].versions
    assert all(m.signature for m in versions.versions("a"))
    before = pickle.dumps(compiled)
    assert len(compiled.plans) == 0
    env = ExecutionEnv(bindings={"n": 64, "t": 2}, inputs={"a": np.arange(64.0)})
    execute(compiled, env=env)
    assert len(compiled.plans) == 2
    assert pickle.dumps(compiled) == before


# ---------------------------------------------------------------------------
# (e) first-use race on a frozen artifact
# ---------------------------------------------------------------------------


def test_concurrent_first_execution_of_a_frozen_artifact(monkeypatch):
    obtained = []  # (table, pair, plan) of every obtain, from every thread
    real = CommPlanTable.obtain

    def recording(table, src, dst):
        plan = real(table, src, dst)
        obtained.append((table, (src.signature, dst.signature), plan))
        return plan

    monkeypatch.setattr(CommPlanTable, "obtain", recording)
    for policy in (None, "round-robin"):
        check_concurrent_first_execution(
            CompilerOptions(level=3, schedule=policy), obtained, monkeypatch
        )


def check_concurrent_first_execution(options, obtained, monkeypatch):
    data = np.arange(96.0)
    builds = []
    real_plan = plan_redistribution

    def counting(src, dst, policy):
        builds.append(1)
        return real_plan(src, dst, policy)

    def run_once(compiled):
        env = ExecutionEnv(bindings={"n": 96, "t": 3}, inputs={"a": data})
        res = execute(compiled, machine=Machine(compiled.processors), env=env)
        return res.value("a"), res.stats.snapshot()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):  # a fresh, never-executed artifact every time
            compiled = CompilerSession(4, options).compile(
                LOOP, bindings={"n": 96, "t": 3}
            )
            assert compiled.frozen
            # from here on only the artifact's table builds plans (the cost
            # guard priced its candidates during the compile above)
            monkeypatch.setattr("repro.spmd.schedule.plan_redistribution", counting)
            del builds[:]
            gate = threading.Barrier(3)
            outcomes = [None] * 3

            def racer(k, compiled=compiled, gate=gate, outcomes=outcomes):
                gate.wait(10.0)
                outcomes[k] = run_once(compiled)

            threads = [threading.Thread(target=racer, args=(k,)) for k in range(3)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(30.0)
                assert not th.is_alive()
            serial = run_once(compiled)
            for value, stats in outcomes:
                assert np.array_equal(value, serial[0])
                assert stats == serial[1]
            # every thread got the same plan object per pair, and the table
            # counted every build, the ones that lost the insertion race too
            mine = [(pair, plan) for table, pair, plan in obtained if table is compiled.plans]
            assert len({pair for pair, _ in mine}) == len({id(plan) for _, plan in mine}) == 2
            table = compiled.plans.stats()
            assert table["hits"] + table["misses"] == len(mine) == 4 * 6
            assert table["misses"] == len(builds) >= 2
            monkeypatch.setattr("repro.spmd.schedule.plan_redistribution", real_plan)
    finally:
        sys.setswitchinterval(interval)
