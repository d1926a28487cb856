"""Tests for the simulated SPMD machine, distributed arrays and redistribution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.adi import ConstantTridiagonal, thomas_constant
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
    m.allocate_set("A", [(0, 60)])
    assert m.mem_used(0) == 60
    with pytest.raises(OutOfMemoryError):
        m.allocate_set("B", [(0, 50)])
    m.free_set([(0, 60)])
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
    mach.allocate_set("seed", [(2, 100)])
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


def _array(kind, mapping, machine, transport, dtype=np.float64):
    if kind == "shared":
        from repro.spmd.transport import SharedDistributedArray

        return SharedDistributedArray("A", mapping, machine, transport, dtype)
    return DistributedArray("A", mapping, machine, dtype)


def _views(a, base) -> bool:
    """Every block of ``a`` is a view of ``base``."""
    return all(np.shares_memory(block, base) for block in a.blocks.values() if block.size)


@pytest.fixture
def small_transport(monkeypatch):
    """A never-started transport (its arena only) of 16 KiB a rank."""
    from repro.spmd import transport as transport_module

    monkeypatch.setattr(transport_module, "ARENA_BYTES_PER_RANK", 1 << 14)
    transport = transport_module.MPTransport(4)
    yield transport
    transport.close()


def _in_arena(a, arena) -> bool:
    """``a.data`` is the view of ``arena`` at ``a.offset``."""
    at = arena.view(a.offset, a.data.shape, a.dtype)
    return a.data.ctypes.data == at.ctypes.data and np.shares_memory(a.data, at)


@pytest.mark.parametrize("kind", ["sim", "shared"])
def test_blocks_are_views_a_kernel_writes_through_and_cannot_rebind(kind, p4, small_transport):
    """An array's blocks are views of its one buffer, each at its holder's
    offset; a shared array's buffer is a view of the transport's arena.  The
    mapping cannot be assigned into, and a local sweep writes through, so
    the blocks stay those views."""
    transport = small_transport
    machine = Machine(p4)
    m = mk((8, 6), (DistFormat.block(), DistFormat.star()), p4)
    a = _array(kind, m, machine, transport)
    values = np.arange(48.0).reshape(8, 6)
    a.scatter_from_global(values)
    assert a.data.shape == (a.layout.size,) == (48,)
    for h in a.layout.table:
        flat = a.data[h.offset : h.offset + h.elements]
        assert np.shares_memory(a.blocks[h.rank], flat)
        assert np.array_equal(a.blocks[h.rank].ravel(), flat)
    if kind == "shared":
        assert _in_arena(a, transport.arena)
    before = dict(a.blocks)
    with pytest.raises(TypeError):
        a.blocks[0] = np.zeros((2, 6))
    a.apply_along_local_dim(lambda block, axis: np.cumsum(block, axis=axis), axis=1)
    assert all(a.blocks[r] is before[r] for r in before)
    assert _views(a, a.data)
    assert np.array_equal(a.gather_to_global(), np.cumsum(values, axis=1))
    with pytest.raises(ShapeError, match="changed the local shape"):
        a.apply_along_local_dim(lambda block, axis: block.sum(axis=axis), axis=1)
    if kind == "shared":  # detaching moves the buffer into private memory
        a.detach()
        assert a.offset is None and _views(a, a.data)
        assert not np.shares_memory(a.data, np.frombuffer(transport.arena.buf))
        assert np.array_equal(a.gather_to_global(), np.cumsum(values, axis=1))
        assert transport.arena.free_bytes() == transport.arena.nbytes
    a.free()
    assert a.data is None and a.blocks == {}


def _replicated_mapping():
    t = Template("T", (8, 4))
    dist = Distribution(t, (DistFormat.block(), DistFormat.block()), p4_2d())
    return Mapping(Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.replicate())), dist)


ONE_LAYOUT_MAPPINGS = {
    "block": lambda p4: mk((19,), (DistFormat.block(),), p4),
    "cyclic": lambda p4: mk((19,), (DistFormat.cyclic(),), p4),
    "cyclic(3)": lambda p4: mk((19,), (DistFormat.cyclic(3),), p4),
    "block(6)": lambda p4: mk((19,), (DistFormat.block(6),), p4),
    "(block,*)": lambda p4: mk((9, 5), (DistFormat.block(), DistFormat.star()), p4),
    "(*,block)": lambda p4: mk((5, 9), (DistFormat.star(), DistFormat.block()), p4),
    "(block,block)": lambda p4: mk((7, 6), (DistFormat.block(), DistFormat.block()), p4_2d()),
    "replicated": lambda p4: _replicated_mapping(),
}


@pytest.mark.parametrize("name", sorted(ONE_LAYOUT_MAPPINGS))
def test_shared_array_has_the_simulator_layout(name, p4, small_transport):
    """One layout on every backend: after the same scatter a shared array's
    buffer equals a simulator array's bit for bit, its blocks are views of
    it and it is the arena's bytes at its offset; detaching keeps the values
    and frees the arena."""
    transport = small_transport
    mapping = ONE_LAYOUT_MAPPINGS[name](p4)
    machine = Machine(mapping.processors)
    sim = DistributedArray("A", mapping, machine)
    shared = _array("shared", mapping, machine, transport)
    values = np.random.default_rng(7).standard_normal(mapping.shape)
    sim.scatter_from_global(values)
    shared.scatter_from_global(values)
    assert shared.data.tobytes() == sim.data.tobytes()
    assert _views(shared, shared.data) and _in_arena(shared, transport.arena)
    assert transport.arena.free_bytes() < transport.arena.nbytes
    shared.detach()
    assert shared.data.tobytes() == sim.data.tobytes() and _views(shared, shared.data)
    assert np.array_equal(shared.gather_to_global(), values)
    assert transport.arena.free_bytes() == transport.arena.nbytes


def test_apply_along_local_dim_requires_local(p4, machine4):
    m = mk((8, 8), (DistFormat.block(), DistFormat.star()), p4)
    a = DistributedArray("A", m, machine4)
    a.scatter_from_global(np.ones((8, 8)))
    a.apply_along_local_dim(lambda b, axis: np.cumsum(b, axis=axis), 1)
    assert np.array_equal(a.gather_to_global()[0], np.arange(1, 9))
    with pytest.raises(ShapeError):
        a.apply_along_local_dim(lambda b, axis: b, 0)


def p4_1d():
    return ProcessorArrangement("P", (4,))


def _rows(fmt):
    """19 rows, which four ranks cannot share evenly, of 6 local columns."""
    return mk((19, 6), (fmt, DistFormat.star()), p4_1d())


def _replicated_rows_mapping():
    """(8, 5) rows block over a 2x2 grid's first dimension, replicated
    along its second: four holders of one (4, 5) block each."""
    t = Template("T", (8, 4))
    dist = Distribution(t, (DistFormat.block(), DistFormat.block()), p4_2d())
    return Mapping(Alignment((8, 5), t, (AxisAlign.dim(0), AxisAlign.replicate())), dist)


#: sweep kernels: each acts along ``axis`` and on every other index alone
SWEEP_KERNELS = {
    "cumsum": lambda x, axis: np.cumsum(x, axis=axis),
    "thomas": lambda x, axis: thomas_constant(x, axis, 0.1),
    "inverse": lambda x, axis: ConstantTridiagonal(x.shape[axis], 0.1).solve(x, axis),
    "fft": lambda x, axis: np.fft.irfft(np.fft.rfft(x, axis=axis), n=x.shape[axis], axis=axis),
}

#: (mapping over four ranks, swept axis, kernel calls per sweep: one per
#: run of equal block shapes, none for a run of empty blocks)
SWEEP_MAPPINGS = {
    "block": (lambda: _rows(DistFormat.block()), 1, 2),  # 5 5 5 4 rows
    "cyclic": (lambda: _rows(DistFormat.cyclic()), 1, 2),  # 5 5 5 4
    "cyclic(3)": (lambda: _rows(DistFormat.cyclic(3)), 1, 3),  # 6 6 4 3
    "block(10)": (lambda: _rows(DistFormat.block(10)), 1, 2),  # 10 9 0 0
    "(block,*)": (
        lambda: mk((48, 50), (DistFormat.block(), DistFormat.star()), p4_1d()), 1, 1,
    ),
    "(*,block)": (
        lambda: mk((48, 50), (DistFormat.star(), DistFormat.block()), p4_1d()), 0, 2,
    ),  # 13 13 13 11 columns
    "(cyclic(3),*)": (
        lambda: mk((50, 48), (DistFormat.cyclic(3), DistFormat.star()), p4_1d()), 1, 2,
    ),  # 14 12 12 12 rows
    "replicated": (_replicated_rows_mapping, 1, 1),
}  # fmt: skip


def _counted(fn, calls: list):
    def kernel(x, axis):
        calls.append(x.shape[0])
        return fn(x, axis)

    return kernel


@pytest.mark.parametrize("kind", ["sim", "shared"])
@pytest.mark.parametrize("kernel", sorted(SWEEP_KERNELS))
@pytest.mark.parametrize("name", sorted(SWEEP_MAPPINGS))
def test_stacked_sweep_equals_each_block_swept_alone(name, kernel, kind, small_transport):
    """A sweep stacks the holders' blocks, one kernel call per run of equal
    block shapes; every block ends up bit for bit what the kernel makes of
    a copy of that block alone, on heap and on shared arrays alike."""
    build, axis, calls_per_sweep = SWEEP_MAPPINGS[name]
    mapping = build()
    a = _array(kind, mapping, Machine(mapping.processors), small_transport)
    a.scatter_from_global(np.random.default_rng(3).standard_normal(mapping.shape))
    fn = SWEEP_KERNELS[kernel]
    want = {r: fn(b.copy(), axis) if b.size else b.copy() for r, b in a.blocks.items()}
    calls: list[int] = []
    a.apply_along_local_dim(_counted(fn, calls), axis)
    assert len(calls) == calls_per_sweep
    assert sum(calls) == sum(1 for block in a.blocks.values() if block.size)
    for r, block in a.blocks.items():
        assert block.tobytes() == want[r].tobytes(), r
    a.free()


def test_shape_changing_kernel_names_the_array_and_its_ranks():
    a = DistributedArray("U", _rows(DistFormat.block()), Machine(p4_1d()))
    with pytest.raises(ShapeError, match=r"changed the local shape of U on ranks \[0, 1, 2\]"):
        a.apply_along_local_dim(lambda x, axis: x.sum(axis=axis), 1)


@pytest.mark.parametrize("end", ["free", "retire"])
def test_sweep_of_a_freed_or_retired_version_raises(end):
    """A freed version has no buffer to sweep; a retired one keeps its
    buffer and views for the run's next version of the layout, so a sweep
    must not write into it either: both raise, and the kernel never runs."""
    a = DistributedArray("A", _rows(DistFormat.block()), Machine(p4_1d()))
    a.scatter_from_global(np.ones((19, 6)))
    kept = getattr(a, end)()
    calls: list[int] = []
    with pytest.raises(RuntimeRemapError, match="A has been freed"):
        a.apply_along_local_dim(_counted(SWEEP_KERNELS["cumsum"], calls), 1)
    assert calls == []
    if end == "retire":
        assert np.array_equal(kept, np.ones(114)) and a.blocks


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
