"""Lowered copy descriptors: one lowering per plan, one data-movement primitive.

A plan (:class:`~repro.spmd.redistribution.RedistSchedule` or
:class:`~repro.spmd.schedule.CommSchedule`) lowers itself on first
execution to :class:`~repro.spmd.redistribution.PreparedMove` descriptors
and keeps them.  Pinned here:

* **values** -- lowered execution, unscheduled and under every policy,
  equals a reference built from ``gather_to_global`` ->
  ``scatter_from_global``, which never calls ``positions_in``;
* **descriptor shape** -- slices where positions are arithmetic
  progressions, open-mesh vectors otherwise, never a mix;
* **once** -- a warm ``session.run`` makes zero ``positions_in`` calls and
  opens no ``remap.lower`` span;
* **derived state only** -- pickles, table digests and equality do not see
  the memo;
* **first-use race** -- two threads first-executing one frozen artifact
  agree bit for bit.
"""

from __future__ import annotations

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
    execute_schedule,
    plan_redistribution,
)
from repro.spmd import redistribution
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


def plan_for(src, dst, way):
    if way is None:
        return build_schedule(layout_of(src), layout_of(dst))
    return plan_redistribution(src, dst, way)


def run_copy(plan, way, source, target, machine):
    run = execute_schedule if way is None else execute_comm_schedule
    run(plan, source, target, machine)


def moves_of(lowered):
    """Every descriptor of a lowered plan, whichever kind of plan it was."""
    if isinstance(lowered, tuple):
        return list(lowered)
    return [*lowered.local, *(m for ph in lowered.phases for msg in ph.messages for m in msg.parts)]


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

    plan = plan_for(src, dst, way)
    run_copy(plan, way, source, target, machine)
    for rank, block in expected.blocks.items():
        assert np.array_equal(target.blocks[rank], block)

    # the memo replays: same descriptors, same values into fresh storage
    lowered = plan.lowered(source.layout, target.layout)
    assert plan.lowered(source.layout, target.layout) is lowered
    again = DistributedArray("A", dst, machine)
    run_copy(plan, way, source, again, machine)
    for rank, block in expected.blocks.items():
        assert np.array_equal(again.blocks[rank], block)
    moved = sum(m.elements for m in moves_of(lowered) if not m.is_local)
    assert machine.stats.bytes == 2 * moved * source.itemsize


# ---------------------------------------------------------------------------
# (b) descriptor shape
# ---------------------------------------------------------------------------


def index_kinds(src, dst, way):
    """The set of element types over every index of every descriptor."""
    lowered = plan_for(src, dst, way).lowered(layout_of(src), layout_of(dst))
    kinds = set()
    for move in moves_of(lowered):
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
    src, dst = mk((64,), (B,), 4), mk((64,), (C3,), 4)
    lowered = plan_redistribution(src, dst, policy).lowered(layout_of(src), layout_of(dst))
    parts = [m for ph in lowered.phases for msg in ph.messages for m in msg.parts]
    assert parts and all(
        isinstance(part, slice) for m in parts for ix in (m.src_ix, m.dst_ix) for part in ix
    )


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


def test_warm_run_makes_zero_positions_in_calls(counted_positions_in, tracer):
    session = CompilerSession(4, CompilerOptions(level=3, schedule="round-robin"))
    lowered = REGISTRY.counter("repro.schedule.plans_lowered")
    kwargs = dict(bindings={"n": 64, "t": 4}, inputs={"a": np.arange(64.0)})

    before = lowered.value
    cold = session.run(LOOP, **kwargs)
    assert cold.stats.remaps_performed == 8
    assert len(counted_positions_in) > 0
    assert lowered.value - before == 2  # block->cyclic and cyclic->block
    assert span_names(tracer).count("remap.lower") == 2

    del counted_positions_in[:]
    warm = session.run(LOOP, **kwargs)
    assert warm.stats.plans_reused == warm.stats.remaps_performed == 8
    assert counted_positions_in == []
    assert lowered.value - before == 2
    assert "remap.lower" not in span_names(tracer)
    assert np.array_equal(warm.value("a"), cold.value("a"))
    assert warm.stats.snapshot() == cold.stats.snapshot()


# ---------------------------------------------------------------------------
# (d) the memo is derived state: invisible to pickles, digests and equality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("way", WAYS)
def test_execution_leaves_pickle_digest_and_equality_alone(way):
    src, dst = mk((48,), (B,), 4), mk((48,), (C3,), 4)
    table = CommPlanTable(way or "round-robin")
    plan = table.build(src, dst) if way else plan_for(src, dst, None)
    twin = plan_for(src, dst, way)
    before = pickle.dumps(plan), repr(plan), table.content_digest()

    machine = Machine(src.processors)
    source = DistributedArray("A", src, machine)
    target = DistributedArray("A", dst, machine)
    run_copy(plan, way, source, target, machine)
    assert plan._lowered is not None and twin._lowered is None

    assert (pickle.dumps(plan), repr(plan), table.content_digest()) == before
    assert plan == twin
    restored = pickle.loads(pickle.dumps(plan))
    assert restored == plan and restored._lowered is None


# ---------------------------------------------------------------------------
# (e) first-use race on a frozen artifact
# ---------------------------------------------------------------------------


def test_concurrent_first_execution_of_a_frozen_artifact():
    options = CompilerOptions(level=3, schedule="round-robin")
    data = np.arange(96.0)

    def run_once(compiled):
        env = ExecutionEnv(bindings={"n": 96, "t": 3}, inputs={"a": data})
        res = execute(compiled, machine=Machine(compiled.processors), env=env)
        return res.value("a"), res.stats.snapshot(), res.drift.clean

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):  # a fresh, never-executed artifact every time
            compiled = CompilerSession(4, options).compile(
                LOOP, bindings={"n": 96, "t": 3}
            )
            assert compiled.frozen
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
            for value, stats, clean in outcomes:
                assert np.array_equal(value, serial[0])
                assert stats == serial[1]
                assert clean and serial[2]
    finally:
        sys.setswitchinterval(interval)
