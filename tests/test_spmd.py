"""Tests for the simulated SPMD machine, distributed arrays and redistribution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError, RuntimeRemapError, ShapeError
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
    CostModel,
    DistributedArray,
    Machine,
    Message,
    build_schedule,
)
from repro.spmd.darray import members_array, positions_in
from repro.spmd.schedule import redistribute
from repro.util.intervals import IntervalSet


def mk(shape, fmts, procs, name="A"):
    return Mapping.simple(shape, fmts, procs, name)


@pytest.fixture
def p4():
    return ProcessorArrangement("P", (4,))


@pytest.fixture
def machine4(p4):
    return Machine(p4, log_messages=True)


# ---------------------------------------------------------------------------
# machine bookkeeping
# ---------------------------------------------------------------------------


def test_machine_from_int():
    m = Machine(3)
    assert m.size == 3
    assert m.elapsed == 0.0


def test_transfer_charges_both_endpoints(machine4):
    machine4.transfer(Message(src=0, dst=2, nbytes=800, elements=100))
    assert machine4.stats.messages == 1
    assert machine4.stats.bytes == 800
    c = machine4.cost.message_cost(800)
    assert machine4.elapsed == pytest.approx(c)


def test_local_transfer_is_not_a_message(machine4):
    machine4.transfer(Message(src=1, dst=1, nbytes=800, elements=100))
    assert machine4.stats.messages == 0
    assert machine4.stats.local_copies == 1
    assert machine4.stats.local_bytes == 800


def test_memory_accounting_and_limit(p4):
    m = Machine(p4, memory_limit=100)
    m.allocate(0, 60)
    assert m.mem_used(0) == 60
    with pytest.raises(OutOfMemoryError):
        m.allocate(0, 50)
    m.free(0, 60)
    assert m.mem_used(0) == 0
    assert m.mem_peak() == 60


def test_one_rank_over_the_limit_places_nothing(p4):
    """A version's blocks are accounted as one set: rank 2 is over the limit,
    so no rank's memory moves and nothing is counted allocated."""
    m = Machine(p4, memory_limit=100)
    m.allocate_set("seed", [(2, 60)])
    before = m.stats.snapshot()
    with pytest.raises(OutOfMemoryError, match="cannot place A: processor 2: 60 \\+ 50"):
        m.allocate_set("A", [(0, 50), (1, 50), (2, 50), (3, 50)])
    assert [m.mem_used(r) for r in range(4)] == [0, 0, 60, 0]
    assert m.stats.snapshot() == before and m.mem_peak() == 60
    m.allocate_set("A", [(0, 50), (1, 50), (2, 40), (3, 50)])
    assert [m.mem_used(r) for r in range(4)] == [50, 50, 100, 50]
    assert m.stats.allocations == 5 and m.mem_peak() == 100
    m.free_set([(0, 50), (1, 50), (2, 40), (3, 50)])
    assert [m.mem_used(r) for r in range(4)] == [0, 0, 60, 0]
    assert m.stats.frees == 4 and m.mem_peak() == 100


def test_stats_snapshot_diff(machine4):
    before = machine4.stats.snapshot()
    machine4.transfer(Message(src=0, dst=1, nbytes=8, elements=1))
    d = machine4.stats.diff(before)
    assert d["messages"] == 1 and d["bytes"] == 8


# ---------------------------------------------------------------------------
# positions_in / members_array
# ---------------------------------------------------------------------------


def test_members_array():
    s = IntervalSet([(0, 3), (5, 7)])
    assert members_array(s).tolist() == [0, 1, 2, 5, 6]
    assert members_array(IntervalSet.empty()).size == 0


def test_positions_in_matches_scalar():
    owned = IntervalSet([(2, 6), (10, 15)])
    subset = IntervalSet([(3, 5), (11, 13)])
    got = positions_in(owned, subset)
    want = [owned.position(x) for x in subset]
    assert got.tolist() == want


def test_positions_in_rejects_non_subset():
    with pytest.raises(ShapeError):
        positions_in(IntervalSet([(0, 3)]), IntervalSet([(2, 5)]))


# ---------------------------------------------------------------------------
# distributed array storage
# ---------------------------------------------------------------------------


def test_scatter_gather_roundtrip(p4, machine4):
    m = mk((10, 12), (DistFormat.block(), DistFormat.star()), p4)
    a = DistributedArray("A", m, machine4)
    data = np.arange(120, dtype=np.float64).reshape(10, 12)
    a.scatter_from_global(data)
    assert np.array_equal(a.gather_to_global(), data)


def test_get_set_elements(p4, machine4):
    m = mk((10,), (DistFormat.cyclic(),), p4)
    a = DistributedArray("A", m, machine4)
    a.set((7,), 3.5)
    assert a.get((7,)) == 3.5
    assert a.gather_to_global()[7] == 3.5


def test_replicated_set_updates_all_replicas(machine4, p4):
    t = Template("T", (8, 4))
    dist = Distribution(t, (DistFormat.block(), DistFormat.block()), p4_2d())
    align = Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.replicate()))
    mach = Machine(p4_2d())
    a = DistributedArray("A", Mapping(align, dist), mach)
    a.set((3,), 9.0)
    assert a.check_replicas_consistent()
    assert a.get((3,)) == 9.0


def p4_2d():
    return ProcessorArrangement("P", (2, 2))


def test_memory_accounted_per_holder(p4):
    mach = Machine(p4)
    m = mk((16,), (DistFormat.block(),), p4)
    a = DistributedArray("A", m, mach)
    # 4 elements * 8 bytes on each of 4 procs
    assert all(mach.mem_used(r) == 32 for r in range(4))
    a.free()
    assert all(mach.mem_used(r) == 0 for r in range(4))
    a.free()  # idempotent
    assert mach.stats.frees == 4


def test_failed_construction_leaves_the_machine_as_it_was(p4):
    """A block that does not fit on rank 2 is found before ranks 0-1 are
    charged, not after."""
    mach = Machine(p4, memory_limit=200)
    mach.allocate(2, 100)
    before = mach.stats.snapshot()
    with pytest.raises(OutOfMemoryError):
        DistributedArray("A", mk((64,), (DistFormat.block(),), p4), mach)
    assert [mach.mem_used(r) for r in range(4)] == [0, 0, 100, 0]
    assert mach.stats.snapshot() == before  # allocations 1, frees 0


def test_freed_array_refuses_scatter_and_gather(p4, machine4):
    a = DistributedArray("A", mk((8,), (DistFormat.block(),), p4), machine4)
    a.free()
    for use in (lambda: a.scatter_from_global(np.zeros(8)), a.gather_to_global):
        with pytest.raises(RuntimeRemapError, match="A has been freed"):
            use()
    assert a.freed and a.blocks == {}


def test_apply_along_local_dim_requires_local(p4, machine4):
    m = mk((8, 8), (DistFormat.block(), DistFormat.star()), p4)
    a = DistributedArray("A", m, machine4)
    a.scatter_from_global(np.ones((8, 8)))
    a.apply_along_local_dim(lambda b, axis: np.cumsum(b, axis=axis), 1)
    assert np.array_equal(a.gather_to_global()[0], np.arange(1, 9))
    with pytest.raises(ShapeError):
        a.apply_along_local_dim(lambda b, axis: b, 0)


def test_mapping_machine_mismatch(p4):
    mach = Machine(ProcessorArrangement("Q", (2,)))
    m = mk((8,), (DistFormat.block(),), p4)
    with pytest.raises(ShapeError):
        DistributedArray("A", m, mach)


# ---------------------------------------------------------------------------
# redistribution schedules
# ---------------------------------------------------------------------------


def test_block_to_cyclic_moves_data_correctly(p4, machine4):
    src = DistributedArray("A", mk((16,), (DistFormat.block(),), p4), machine4)
    dst = DistributedArray("A", mk((16,), (DistFormat.cyclic(),), p4), machine4)
    data = np.arange(16, dtype=np.float64)
    src.scatter_from_global(data)
    sched = redistribute(src, dst)
    assert np.array_equal(dst.gather_to_global(), data)
    # every proc keeps exactly one of its 4 elements (the diagonal), sends 3
    assert sched.local_count == 4
    assert sched.message_count == 12
    assert machine4.stats.messages == 12
    # closed form: every element whose owner changes moves exactly once,
    # the (P-1)/P fraction of the array
    assert machine4.stats.bytes == 16 * 3 // 4 * 8


def test_identity_redistribution_is_all_local(p4, machine4):
    m = mk((16,), (DistFormat.block(),), p4)
    src = DistributedArray("A", m, machine4)
    dst = DistributedArray("A", m, machine4)
    src.scatter_from_global(np.arange(16.0))
    sched = redistribute(src, dst)
    assert sched.message_count == 0
    assert machine4.stats.messages == 0
    assert np.array_equal(dst.gather_to_global(), np.arange(16.0))


def test_transpose_remap_2d(machine4, p4):
    # (block, *) -> (*, block): the ADI / FFT transpose pattern
    src = DistributedArray(
        "A", mk((8, 8), (DistFormat.block(), DistFormat.star()), p4), machine4
    )
    dst = DistributedArray(
        "A", mk((8, 8), (DistFormat.star(), DistFormat.block()), p4), machine4
    )
    data = np.arange(64, dtype=np.float64).reshape(8, 8)
    src.scatter_from_global(data)
    sched = redistribute(src, dst)
    assert np.array_equal(dst.gather_to_global(), data)
    # all-to-all: each of 4 procs exchanges with 3 others
    assert sched.message_count == 12
    assert sched.local_count == 4


def test_replicated_target_receives_everywhere():
    procs = ProcessorArrangement("P", (2, 2))
    mach = Machine(procs)
    t = Template("T", (8, 8))
    dist = Distribution(t, (DistFormat.block(), DistFormat.block()), procs)
    src = DistributedArray("A", Mapping(Alignment.identity((8, 8), t), dist), mach)
    t2 = Template("T2", (8, 2))
    dist2 = Distribution(t2, (DistFormat.block(), DistFormat.block()), procs)
    align2 = Alignment((8,), t2, (AxisAlign.dim(0), AxisAlign.replicate()))
    # 1-D slice? no: remap a 2-D (8,8) to replicated needs same shape; use 1-D src
    mach2 = Machine(procs)
    src1 = DistributedArray(
        "B",
        Mapping(
            Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.const(0))), dist
        ),
        mach2,
    )
    dst1 = DistributedArray("B", Mapping(align2, dist2), mach2)
    data = np.arange(8.0)
    src1.scatter_from_global(data)
    redistribute(src1, dst1)
    assert np.array_equal(dst1.gather_to_global(), data)
    assert dst1.check_replicas_consistent()


def test_replicated_source_prefers_local_copy():
    procs = ProcessorArrangement("P", (2, 2))
    mach = Machine(procs)
    t = Template("T", (8, 2))
    dist = Distribution(t, (DistFormat.block(), DistFormat.block()), procs)
    align = Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.replicate()))
    src = DistributedArray("A", Mapping(align, dist), mach)
    src.scatter_from_global(np.arange(8.0))
    # target: same dim-0 block distribution, pinned to column 1
    align2 = Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.const(1)))
    dst = DistributedArray("A", Mapping(align2, dist), mach)
    sched = redistribute(src, dst)
    assert np.array_equal(dst.gather_to_global(), np.arange(8.0))
    # receivers already hold replicas: zero messages
    assert sched.message_count == 0


def test_schedule_is_exact_cover(p4):
    src_l = layout_of(mk((15,), (DistFormat.cyclic(2),), p4))
    dst_l = layout_of(mk((15,), (DistFormat.block(),), p4))
    sched = build_schedule(src_l, dst_l)
    received: dict[tuple[int, int], int] = {}
    for t in sched.transfers:
        for i in t.index_sets[0]:
            key = (t.dst_rank, i)
            received[key] = received.get(key, 0) + 1
    procs = p4
    for q in dst_l.holders():
        rank = procs.linear_rank(q)
        for i in dst_l.owned(q)[0]:
            assert received.get((rank, i)) == 1, (rank, i)


def test_shape_mismatch_rejected(p4):
    a = layout_of(mk((8,), (DistFormat.block(),), p4))
    b = layout_of(mk((9,), (DistFormat.block(),), p4))
    with pytest.raises(ShapeError):
        build_schedule(a, b)


def test_elapsed_time_uses_max_clock(p4):
    mach = Machine(p4, cost=CostModel(alpha=1.0, beta=0.0))
    mach.transfer(Message(src=0, dst=1, nbytes=8, elements=1))
    mach.transfer(Message(src=2, dst=3, nbytes=8, elements=1))
    # two disjoint messages proceed in parallel: elapsed is 1, not 2
    assert mach.elapsed == pytest.approx(1.0)
    mach.transfer(Message(src=0, dst=1, nbytes=8, elements=1))
    assert mach.elapsed == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# property-based: redistribution preserves values, any mapping pair
# ---------------------------------------------------------------------------

fmt_1d = st.one_of(
    st.just(DistFormat.block()),
    st.builds(DistFormat.cyclic, st.one_of(st.none(), st.integers(1, 3))),
)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 20),
    f_src=fmt_1d,
    f_dst=fmt_1d,
    nprocs=st.integers(1, 5),
)
def test_prop_1d_redistribution_roundtrip(n, f_src, f_dst, nprocs):
    procs = ProcessorArrangement("P", (nprocs,))
    mach = Machine(procs)
    src = DistributedArray("A", mk((n,), (f_src,), procs), mach)
    dst = DistributedArray("A", mk((n,), (f_dst,), procs), mach)
    data = np.random.default_rng(0).normal(size=n)
    src.scatter_from_global(data)
    redistribute(src, dst)
    assert np.allclose(dst.gather_to_global(), data)


@settings(max_examples=30, deadline=None)
@given(
    n0=st.integers(1, 10),
    n1=st.integers(1, 10),
    f0=fmt_1d,
    f1=fmt_1d,
    g0=fmt_1d,
    g1=fmt_1d,
)
def test_prop_2d_redistribution_roundtrip(n0, n1, f0, f1, g0, g1):
    procs = ProcessorArrangement("P", (2, 2))
    mach = Machine(procs)
    src = DistributedArray("A", mk((n0, n1), (f0, f1), procs), mach)
    dst = DistributedArray("A", mk((n0, n1), (g0, g1), procs), mach)
    data = np.random.default_rng(1).normal(size=(n0, n1))
    src.scatter_from_global(data)
    redistribute(src, dst)
    assert np.allclose(dst.gather_to_global(), data)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 24),
    f_src=fmt_1d,
    f_dst=fmt_1d,
)
def test_prop_same_mapping_zero_messages(n, f_src, f_dst):
    procs = ProcessorArrangement("P", (3,))
    mach = Machine(procs)
    m1 = mk((n,), (f_src,), procs)
    src = DistributedArray("A", m1, mach)
    dst = DistributedArray("A", m1, mach)
    src.scatter_from_global(np.arange(float(n)))
    sched = redistribute(src, dst)
    assert sched.message_count == 0
