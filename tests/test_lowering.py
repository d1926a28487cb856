"""Lowered copy descriptors: one lowering per plan, one data-movement primitive.

A plan (:class:`~repro.spmd.schedule.CommSchedule`, under a policy or the
degenerate ``policy=None`` one) lowers itself on first execution to
:class:`~repro.spmd.redistribution.PreparedMove` descriptors and keeps
them.  Pinned here:

* **values** -- lowered execution, unscheduled and under every policy,
  equals a reference built from ``gather_to_global`` ->
  ``scatter_from_global``, which never calls ``positions_in``;
* **descriptor shape** -- slices where positions are arithmetic
  progressions, a position vector in the one dimension where they are
  not, open-mesh vectors where several are not;
* **descriptor identity** -- ``prepare_move``'s integer arithmetic
  produces the very descriptors of the ``positions_in`` + ``block_index``
  reference (written out here), rejects what it rejects, and on a
  progression layout calls no NumPy helper at all;
* **ledger** -- charging a plan's ledger delta equals, bit for bit, the
  per-message accounting it replaced (a reference written out here);
* **once** -- a warm ``session.run`` makes zero ``prepare_move`` (and so
  zero ``positions_in``) calls, opens no ``remap.lower`` span, builds no
  ``Message`` and copies at most once per whole transfer;
* **derived state only** -- pickles, ``repr`` and equality never see a
  plan's lowered form, and no artifact carries a plan;
* **first-use race** -- two threads first-executing one frozen artifact
  agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CompilerOptions,
    CompilerSession,
    ExecutionEnv,
    Machine,
    compile_program,
    execute,
)
from repro.analysis.commsafety import prove_plan
from repro.apps.adi import adi_kernels, build_adi_program
from repro.apps.fft2d import build_fft2d_program, fft2d_kernels
from repro.apps.lu import build_lu_program, lu_kernels
from repro.apps.sar import build_sar_program, chirp, sar_kernels
from repro.errors import ShapeError
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
from repro.obs import REGISTRY
from repro.runtime import mpbackend
from repro.runtime.mpbackend import MPExecutor
from repro.spmd import (
    DistributedArray,
    build_schedule,
    execute_comm_schedule,
    plan_redistribution,
)
from repro.spmd import darray, redistribution, schedule
from repro.spmd.darray import block_index, positions_in
from repro.spmd.message import Message, message_of
from repro.spmd.redistribution import PreparedMove, Transfer, prepare_move
from repro.spmd.schedule import PLANS, POLICIES, LoweredPlan, obtain_plan
from repro.spmd.transport import TransferRound, WireMessage, WirePart
from repro.util.intervals import IntervalSet
from test_schedule import FIGURES
from test_schedule import _run as run_figure

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


def arrays_of(src, dst):
    """A source and a target array over two layouts, on one machine."""
    machine = Machine(src.mapping.processors)
    return DistributedArray("A", src.mapping, machine), DistributedArray("A", dst.mapping, machine)


def wire_moves(plan, src, dst):
    """Every part of the rounds the mp backend builds for a plan
    (:meth:`MPExecutor._wire_rounds`), as the move its message makes."""
    source, target = arrays_of(src, dst)
    rounds, _, _ = MPExecutor._wire_rounds(plan, source, target)
    return [
        PreparedMove(msg.src, msg.dst, p.src_ix, p.dst_ix, p.shape, p.nbytes // source.itemsize)
        for rnd in rounds
        for msg in rnd.messages
        for p in msg.parts
    ]


def moves_of(plan, src, dst):
    """Every descriptor of a plan: the simulator's copies, then the parts
    the mp backend puts on the wire."""
    return [*plan.lowered(src, dst).moves, *wire_moves(plan, src, dst)]


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
    :func:`reference_ledger`: every counter, both breakdowns and the message
    log ``==``.  The two floats are held to the decision PR 23 named:
    "clocks and ``phase_seconds`` are *modeled* values and equal per-message
    accounting to relative 1e-12, no longer bit for bit" -- a delta carries
    one summed increment per rank and one makespan, not the ordered terms."""
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
    assert machine.elapsed == pytest.approx(elapsed, rel=1e-12, abs=0)
    assert machine.phase_seconds == pytest.approx(phase_seconds, rel=1e-12, abs=0)
    assert delta.makespan * 2 == pytest.approx(phase_seconds)


# ---------------------------------------------------------------------------
# (b) descriptor shape
# ---------------------------------------------------------------------------


def index_kinds(src, dst, way):
    """The set of element types over every index of every descriptor."""
    kinds = set()
    for move in moves_of(plan_redistribution(src, dst, way), layout_of(src), layout_of(dst)):
        for ix in (move.src_ix, move.dst_ix):
            vectors = [part for part in ix if type(part) is not slice]
            # all slices, one 1-D vector among slices, or the open mesh
            assert len(vectors) <= 1 or len(vectors) == len(ix)
            assert len(vectors) != 1 or vectors[0].ndim == 1
            kinds |= {type(part) for part in ix}
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


@pytest.mark.parametrize("way", WAYS)
def test_one_irregular_dimension_lowers_to_one_vector(way):
    # (block, *) -> (cyclic(3), *): a pair's rows are runs of 3 in the
    # block, its columns all of them -- a row vector beside a column slice,
    # not a mesh over every column; on 2 x 2 ranks both dimensions are
    # irregular and the index is the mesh
    src, dst = mk((96, 8), (B, STAR), 4), mk((96, 8), (C3, STAR), 4)
    for move in moves_of(plan_redistribution(src, dst, way), layout_of(src), layout_of(dst)):
        for ix in (move.src_ix, move.dst_ix):
            assert type(ix[1]) is slice and (type(ix[0]) is slice or ix[0].ndim == 1)
    assert index_kinds(src, dst, way) == {slice, np.ndarray}
    grid = ProcessorArrangement("P", (2, 2))
    src, dst = (Mapping.simple((24, 24), (f, f), grid) for f in (B, C3))
    meshes = [
        ix
        for move in moves_of(plan_redistribution(src, dst, way), layout_of(src), layout_of(dst))
        for ix in (move.src_ix, move.dst_ix)
        if type(ix[0]) is not slice
    ]
    assert meshes and all(part.ndim == 2 for ix in meshes for part in ix)


def test_a_proof_builds_no_gather():
    # the gather is the simulator's alone: proving a fine-grained plan
    # reads its moves and leaves the gather unbuilt until an execute
    src, dst = mk((64,), (B,), 4), mk((64,), (C3,), 4)
    plan = plan_redistribution(src, dst, "naive")
    assert prove_plan(src, dst, plan) == []
    lowered = plan.lowered(layout_of(src), layout_of(dst))
    assert lowered.gathers and "gather" not in vars(lowered)
    machine = Machine(src.processors)
    source, target = DistributedArray("A", src, machine), DistributedArray("A", dst, machine)
    source.scatter_from_global(np.arange(64.0))
    lowered.execute(source, target)
    assert "gather" in vars(lowered)
    assert np.array_equal(target.gather_to_global(), np.arange(64.0))


@pytest.mark.parametrize("policy", ["naive", "round-robin"])
def test_unpacked_messages_always_lower_to_slices(policy):
    # an unpacked message is one contiguous run, contiguous in both blocks:
    # on the wire every part is a run slice.  The simulator copies whole
    # transfers instead -- one move per pair, the pair's np.ix_ mesh where
    # its index is not a progression -- and, the plan being fine-grained,
    # moves all of them in one gather over the 64 elements
    src, dst = mk((64,), (B,), 4), mk((64,), (C3,), 4)
    plan = plan_redistribution(src, dst, policy)
    parts = wire_moves(plan, layout_of(src), layout_of(dst))
    assert len(parts) == plan.message_count and all(m.is_basic for m in parts)
    lowered = plan.lowered(layout_of(src), layout_of(dst))
    assert [(m.src_rank, m.dst_rank) for m in lowered.moves] == [
        (t.src_rank, t.dst_rank) for t in plan.transfers
    ]
    remote = [m for m in lowered.moves if not m.is_local]
    assert len(remote) == 12 and not all(m.is_basic for m in remote)
    assert len(parts) > len(remote)
    assert lowered.gathers and [len(ix) for ix in lowered.gather] == [64, 64]


# ---------------------------------------------------------------------------
# (b') descriptor identity: the closed forms against the general path
# ---------------------------------------------------------------------------


def reference_move(t, src_lay, dst_lay):
    """``prepare_move`` by the general path alone: every member of every
    index set located by ``positions_in``, the index canonicalised by
    ``block_index``."""
    src_ix, dst_ix = (
        block_index(tuple(positions_in(o, s) for o, s in zip(h.owned, t.index_sets)))
        for h in (src_lay.holder(t.src_rank), dst_lay.holder(t.dst_rank))
    )
    shape = tuple(len(s) for s in t.index_sets)
    return PreparedMove(t.src_rank, t.dst_rank, src_ix, dst_ix, shape, math.prod(shape))


def same_index(x, y):
    """Two index tuples are equal: slices by ``==``, open-mesh vectors by
    value, dtype and shape."""
    return len(x) == len(y) and all(
        type(p) is type(q)
        and (p == q if type(p) is slice else p.dtype == q.dtype and p.shape == q.shape)
        and np.array_equal(p, q)
        for p, q in zip(x, y)
    )


def same_descriptor(a, b):
    """``a == b``, with open-mesh vectors compared by value and dtype."""
    return (
        (a.src_rank, a.dst_rank, a.shape, a.elements)
        == (b.src_rank, b.dst_rank, b.shape, b.elements)
        and same_index(a.src_ix, b.src_ix)
        and same_index(a.dst_ix, b.dst_ix)
    )


def aligned(shape, axes, fmts, pshape, t_shape=None):
    template = Template("T", t_shape or shape)
    return Mapping(
        Alignment(shape, template, axes),
        Distribution(template, fmts, ProcessorArrangement("P", pshape)),
    )


def transposed(shape, f, nprocs):
    """A(i, j) WITH T(j, i), the template's first dimension distributed."""
    axes = (AxisAlign.dim(1), AxisAlign.dim(0))
    return aligned(shape, axes, (f, STAR), (nprocs,), t_shape=shape[::-1])


def strided(n, f, nprocs, stride):
    """A(i) WITH T(stride*i + 1) (reversed for a negative stride)."""
    span = abs(stride) * (n - 1)
    axes = (AxisAlign.dim(0, stride, 1 + (span if stride < 0 else 0)),)
    return aligned((n,), axes, (f,), (nprocs,), t_shape=(span + 3,))


extent = st.integers(1, 40)
mapping_pairs = st.one_of(
    st.tuples(st.one_of(pair_1d, pair_2d), st.integers(1, 5)).map(
        lambda a: (mk(a[0][0], a[0][1], a[1]), mk(a[0][0], a[0][2], a[1]))
    ),
    st.tuples(st.integers(1, 12), st.integers(1, 12), fmt, fmt, st.integers(1, 4)).map(
        lambda a: (mk(a[:2], (a[2], STAR), a[4]), transposed(a[:2], a[3], a[4]))
    ),
    st.tuples(extent, fmt, fmt, st.integers(1, 5), st.sampled_from([1, -1, 2, -3])).map(
        lambda a: (strided(a[0], a[1], a[3], a[4]), mk((a[0],), (a[2],), a[3]))
    ),
    st.tuples(extent, fmt, st.booleans()).map(  # fully replicated on a 2x2 grid
        lambda a: (
            Mapping.replicated((a[0],), ProcessorArrangement("P", (2, 2))),
            mk((a[0],), (a[1],), 4),
        )[:: -1 if a[2] else 1]
    ),
)


@settings(max_examples=150, deadline=None)
@given(pair=mapping_pairs, way=st.sampled_from(WAYS))
def test_prop_descriptors_equal_the_positions_in_reference(pair, way):
    """Every move of ``lowered()`` and every part the mp backend puts on
    the wire is the descriptor the general path builds -- same slices, same
    vectors."""
    src, dst = pair
    plan, reference = plan_redistribution(src, dst, way), plan_redistribution(src, dst, way)
    got = moves_of(plan, layout_of(src), layout_of(dst))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schedule, "prepare_move", reference_move)
        patch.setattr(mpbackend, "prepare_move", reference_move)
        want = moves_of(reference, layout_of(src), layout_of(dst))
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert same_descriptor(a, b), (a, b)


def test_transfer_outside_the_layouts_raises_on_every_path():
    block, cyclic, cyclic3 = (layout_of(mk((64,), (f,), 4)) for f in (B, C1, C3))

    def refused(index_set, src, dst):
        t = Transfer(0, 0, (index_set,))
        for move in (prepare_move, reference_move):
            with pytest.raises(ShapeError, match="not contained"):
                move(t, src, dst)

    # one interval: it crosses the first block's end / holds an unowned cell
    refused(IntervalSet([(10, 20)]), block, block)
    refused(IntervalSet([(3, 4)]), cyclic3, cyclic3)
    refused(IntervalSet([(1, 4)]), cyclic3, cyclic3)
    # ... or has both ends owned and a gap between them
    refused(IntervalSet([(1, 14)]), cyclic3, cyclic3)
    refused(IntervalSet([(0, 5)]), cyclic, cyclic)
    # a progression: off the owner's by one, then a step the owner's does not divide
    refused(IntervalSet.from_indices(range(1, 16, 4)), block, cyclic)
    refused(IntervalSet.from_indices(range(0, 16, 6)), block, cyclic)
    # neither: runs of the cyclic(3) owner plus one cell of its neighbour
    refused(IntervalSet([(0, 4), (12, 15)]), block, cyclic3)
    # a rank that holds nothing has nothing to copy
    with pytest.raises(ShapeError):
        prepare_move(Transfer(0, 7, (IntervalSet([(0, 1)]),)), block, block)


def test_progression_layouts_lower_and_index_without_numpy_helpers(monkeypatch):
    """On a progression layout neither the holder table, nor the
    scatter/gather indexers, nor ``prepare_move`` (whole transfers, run
    rectangles and wire parts alike) enumerates a member."""
    calls = [
        counted(monkeypatch, module, name)
        for module, name in (
            (darray, "members_array"),
            (redistribution, "positions_in"),
            (redistribution, "block_index"),
            (darray, "block_index"),
        )
    ]
    n = 4096
    src, dst = mk((n,), (B,), 4), mk((n,), (C1,), 4)
    machine = Machine(src.processors)
    source, target = DistributedArray("A", src, machine), DistributedArray("A", dst, machine)
    source.scatter_from_global(np.arange(float(n)))
    for way in WAYS:
        plan = plan_redistribution(src, dst, way)
        assert all(m.is_basic for m in moves_of(plan, source.layout, target.layout))
        execute_comm_schedule(plan, source, target, machine)
        assert np.array_equal(target.gather_to_global(), np.arange(float(n)))
    assert calls == [[], [], [], []]
    # ... and under cyclic(3), whose whole transfers take the general path,
    # every run rectangle is still located by dim_position alone
    cyclic3 = mk((n,), (C3,), 4)
    plan = plan_redistribution(src, cyclic3, None)
    rects = [r for t in plan.transfers for r in schedule.rectangles(t)]
    assert len(rects) > n // 4
    assert all(prepare_move(r, source.layout, layout_of(cyclic3)).is_basic for r in rects)
    assert calls == [[], [], [], []]


# ---------------------------------------------------------------------------
# (f) the gather: one fancy-indexed assignment for a fine-grained plan
# ---------------------------------------------------------------------------

block_k_pairs = st.tuples(extent, st.integers(1, 5), st.integers(0, 4), fmt).map(
    # block(k) holds n on P ranks iff k * P >= n
    lambda a: (
        mk((a[0],), (DistFormat.block(-(-a[0] // a[1]) + a[2]),), a[1]),
        mk((a[0],), (a[3],), a[1]),
    )
)


@settings(max_examples=200, deadline=None)
@given(
    pair=st.one_of(mapping_pairs, block_k_pairs),
    way=st.sampled_from(WAYS),
    dtype=st.sampled_from([np.float64, np.complex128]),
    flip=st.booleans(),
)
def test_prop_gather_and_moves_leave_bit_identical_targets(pair, way, dtype, flip):
    """Whatever the crossover decides, a plan's gather and its moves leave
    the same bytes in a fresh target, and the gather writes every position
    of the target's buffer exactly once, from inside the source's."""
    src, dst = pair[::-1] if flip else pair
    src_lay, dst_lay = layout_of(src), layout_of(dst)
    plan = plan_redistribution(src, dst, way)
    lowered = plan.lowered(src_lay, dst_lay)
    gather = schedule._gather(lowered.moves, src_lay, dst_lay)
    elements = sum(m.elements for m in lowered.moves)
    assert lowered.gathers == (elements < schedule.GATHER_BELOW * len(lowered.moves))
    if lowered.gathers:
        assert all(np.array_equal(a, b) for a, b in zip(lowered.gather, gather))

    machine = Machine(src.processors)
    rng = np.random.default_rng(11)
    values = rng.normal(size=src.shape).astype(dtype)
    if dtype is np.complex128:
        values += 1j * rng.normal(size=src.shape)
    source = DistributedArray("A", src, machine, dtype)
    source.scatter_from_global(values)
    by_moves, by_gather = (DistributedArray("A", dst, machine, dtype) for _ in range(2))
    LoweredPlan(lowered.moves, src_lay, dst_lay, False).execute(source, by_moves)
    LoweredPlan(lowered.moves, src_lay, dst_lay, True).execute(source, by_gather)
    assert by_moves.data.tobytes() == by_gather.data.tobytes()
    assert np.array_equal(by_gather.gather_to_global(), values)
    assert by_gather.check_replicas_consistent()

    src_pos, dst_pos = gather
    assert len(src_pos) == len(dst_pos) == elements == dst_lay.size
    assert np.array_equal(np.sort(dst_pos), np.arange(dst_lay.size))
    assert 0 <= src_pos.min() and src_pos.max() < src_lay.size


# ---------------------------------------------------------------------------
# (b'') the wire parts: the mp backend's lowering against the plan-side one
# ---------------------------------------------------------------------------


def plan_side_wire_rounds(plan, source, target):
    """The oracle: the rounds the mp backend built while plans lowered their
    own wire form (``CommSchedule.wire``) -- that lowering and
    ``_wire_rounds`` as they were, copied."""
    src, dst, itemsize = source.layout, target.layout, source.itemsize
    moves = tuple(prepare_move(t, src, dst) for t in plan.local_transfers)
    phases = tuple(
        tuple(tuple(prepare_move(r, src, dst) for r in pt.parts) for pt in phase.transfers)
        for phase in plan.phases
    )

    def part(move):
        return WirePart(move.src_ix, move.dst_ix, move.shape, move.elements * itemsize)

    unphased = tuple(
        WireMessage(m.src_rank, m.dst_rank, (part(m),)) for m in moves if not m.is_local
    )
    rounds = [TransferRound(unphased, contended=True)] if unphased else []
    rounds += [
        TransferRound(
            tuple(
                WireMessage(pt.src_rank, pt.dst_rank, tuple(part(m) for m in parts))
                for pt, parts in zip(phase.transfers, messages)
            ),
            contended=phase.contended,
        )
        for phase, messages in zip(plan.phases, phases)
    ]
    sources = {r: block.shape for r, block in source.blocks.items()}
    targets = {r: block.shape for r, block in target.blocks.items()}
    return rounds, sources, targets


def assert_same_rounds(plan, source, target):
    """``MPExecutor._wire_rounds`` builds the oracle's rounds: the same
    messages in the same order, each with the same parts in the same order
    -- index tuples, shapes and byte counts."""
    got, got_src, got_dst = MPExecutor._wire_rounds(plan, source, target)
    want, want_src, want_dst = plan_side_wire_rounds(plan, source, target)
    assert (got_src, got_dst) == (want_src, want_dst)
    assert [(r.contended, len(r.messages)) for r in got] == [
        (r.contended, len(r.messages)) for r in want
    ]
    for a, b in zip(got, want):
        for m, n in zip(a.messages, b.messages):
            assert (m.src, m.dst, len(m.parts)) == (n.src, n.dst, len(n.parts))
            for p, q in zip(m.parts, n.parts):
                assert (p.shape, p.nbytes) == (q.shape, q.nbytes)
                assert same_index(p.src_ix, q.src_ix) and same_index(p.dst_ix, q.dst_ix)
    return sum(len(m.parts) for r in got for m in r.messages)


@settings(max_examples=120, deadline=None)
@given(pair=mapping_pairs, way=st.sampled_from(WAYS))
def test_prop_wire_rounds_equal_the_plan_side_lowering(pair, way):
    src, dst = pair
    assert_same_rounds(plan_redistribution(src, dst, way), *arrays_of(layout_of(src), layout_of(dst)))


@pytest.mark.parametrize("way", WAYS)
def test_figure_wire_rounds_equal_the_plan_side_lowering(way, monkeypatch):
    """Fig. 1/12/16: every pair a run performs puts the oracle's parts on the wire."""
    performed = []

    def recording(policy, src, dst):
        plan = obtain_plan(policy, src, dst)
        performed.append((plan, src, dst))
        return plan

    monkeypatch.setattr("repro.runtime.executor.obtain_plan", recording)
    parts = 0
    for name, w in sorted(FIGURES.items()):
        compiled = compile_program(
            w["source"], bindings=w["bindings"], processors=4,
            options=CompilerOptions(level=3, schedule=way),
        )  # fmt: skip
        del performed[:]
        run_figure(compiled, w)
        assert performed, name
        for plan, src, dst in performed:
            parts += assert_same_rounds(plan, *arrays_of(layout_of(src), layout_of(dst)))
    assert parts > 0


# ---------------------------------------------------------------------------
# (c) lowered once: warm runs do no index arithmetic
# ---------------------------------------------------------------------------


def counted(monkeypatch, module, name):
    """The list every call of ``module.name`` appends to from now on."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.fixture
def counted_positions_in(monkeypatch):
    return counted(monkeypatch, redistribution, "positions_in")


@pytest.fixture
def counted_prepare_move(monkeypatch):
    # the lowering entry point, called through the schedule module's reference
    return counted(monkeypatch, schedule, "prepare_move")


def span_names(tracer):
    names = [s.name for s in tracer.finished_spans()]
    tracer.clear()
    return names


@pytest.fixture
def counted_build_schedule(monkeypatch):
    # plans are built through the schedule module's reference to it
    return counted(monkeypatch, schedule, "build_schedule")


def test_warm_run_makes_zero_positions_in_calls(
    counted_positions_in, counted_prepare_move, counted_build_schedule, tracer
):
    for policy in WAYS:
        check_warm_run(policy, counted_prepare_move, counted_build_schedule, tracer)
    # block <-> cyclic lowers in closed form: no member was ever enumerated
    assert counted_positions_in == []


def check_warm_run(policy, counted_prepare_move, counted_build_schedule, tracer):
    session = CompilerSession(4, CompilerOptions(level=3, schedule=policy))
    lowered = REGISTRY.counter("repro.schedule.plans_lowered")
    kwargs = dict(bindings={"n": 64, "t": 4}, inputs={"a": np.arange(64.0)})

    del counted_prepare_move[:]
    before = lowered.value
    start = PLANS.stats()
    cold = session.run(LOOP, **kwargs)
    assert cold.stats.remaps_performed == 8
    assert len(counted_prepare_move) > 0
    assert lowered.value - before == 2  # block->cyclic and cyclic->block
    assert span_names(tracer).count("remap.lower") == 2

    def built():
        now = PLANS.stats()
        return now["misses"] - start["misses"], now["hits"] - start["hits"]

    assert built()[0] == 2
    del counted_prepare_move[:], counted_build_schedule[:]
    warm = session.run(LOOP, **kwargs)
    assert warm.stats.remaps_performed == 8
    assert built() == (2, 14)
    assert counted_prepare_move == [] and counted_build_schedule == []
    assert lowered.value - before == 2
    assert "remap.lower" not in span_names(tracer)
    assert np.array_equal(warm.value("a"), cold.value("a"))
    assert warm.stats.snapshot() == cold.stats.snapshot()


def app_requests(n):
    lu_prog, steps = build_lu_program(n, block=8)
    rng = np.random.default_rng(0)
    real, cplx = rng.normal(size=(n, n)), rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return {
        "adi": dict(source=build_adi_program(n), bindings={"t": 2}, kernels=adi_kernels(alpha=0.1),
                    inputs={"u": real}),
        "fft2d": dict(source=build_fft2d_program(n), kernels=fft2d_kernels(), inputs={"x": cplx},
                      dtype=np.complex128),
        "lu": dict(source=lu_prog, bindings={"steps": steps}, kernels=lu_kernels(n, block=8),
                   inputs={"a": real + n * np.eye(n)}),
        "sar": dict(source=build_sar_program(n), bindings={"looks": 1},
                    kernels=sar_kernels(chirp(n, 7.0), chirp(n, 3.0)), inputs={"img": cplx},
                    dtype=np.complex128),
    }  # fmt: skip


def test_app_runs_cold_without_positions_in_and_warm_without_any_geometry(
    monkeypatch, counted_positions_in, counted_prepare_move
):
    """The four applications remap between progression layouts: the first
    run lowers every plan in closed form, the second finds plans lowered
    and layouts indexed -- no ``prepare_move``, no ``members_array``."""
    members = counted(monkeypatch, darray, "members_array")
    for name, request in app_requests(64).items():
        PLANS.clear()  # each application cold, as in a fresh process
        session = CompilerSession(4)
        cold = session.run(**request)
        assert cold.stats.remaps_performed > 0 and counted_prepare_move, name
        del counted_prepare_move[:]
        warm = session.run(**request)
        assert warm.stats.snapshot() == cold.stats.snapshot()
        array = next(iter(request["inputs"]))
        assert np.array_equal(warm.value(array), cold.value(array))
        assert counted_prepare_move == [] and counted_positions_in == [] and members == [], name


def test_warm_run_charges_plans_and_copies_transfers(monkeypatch):
    """Against the per-message loop coming back: a warm run of the
    benchmark's ``remap_fine`` loop kind builds no ``Message``, re-checks no
    phase and makes at most one NumPy assignment per whole transfer."""
    session = CompilerSession(4, CompilerOptions(level=3, schedule="round-robin"))
    kwargs = dict(bindings={"n": 256, "t": 16}, inputs={"a": np.arange(256.0)})
    cold = session.run(LOOP, **kwargs)
    compiled = session.compile(LOOP, bindings=kwargs["bindings"])
    plans = list(PLANS._entries.values())
    assert len(plans) == 2 and all(len(plan.transfers) == 16 for plan in plans)

    made, checks, copies = [], [], []
    for module in ("repro.spmd.machine", "repro.spmd.message"):
        monkeypatch.setattr(
            f"{module}.Message", lambda *a, **kw: made.append(1) or Message(*a, **kw)
        )
    monkeypatch.setattr("repro.spmd.schedule.check_one_port", checks.append)
    real = LoweredPlan.execute

    def counting(lowered, source, target):  # NumPy assignments of one copy
        copies.append(1 if lowered.gathers else len(lowered.moves))
        real(lowered, source, target)

    monkeypatch.setattr(LoweredPlan, "execute", counting)
    warm = session.run(LOOP, **kwargs)
    assert warm.stats.remaps_performed == 32
    assert warm.stats.snapshot() == cold.stats.snapshot()
    assert warm.stats.messages == 32 * sum(p.message_count for p in plans) // 2 > 32 * 16
    assert made == [] and checks == []
    assert len(copies) == 32 and 0 < sum(copies) <= 32 * 16

    # the log is the one consumer of Message objects: one per message, on ask
    machine = Machine(compiled.processors, log_messages=True)
    logged = execute(compiled, machine=machine, env=ExecutionEnv(**kwargs))
    assert len(made) == len(machine.message_log) == logged.stats.messages
    assert np.array_equal(logged.value("a"), warm.value("a"))


def test_warm_run_bins_and_sums_nothing_inside_charge(monkeypatch):
    """A delta is summed and binned where it is built: a warm run of Fig. 16
    makes no ``bisect_left`` call inside ``Machine.charge`` under any policy,
    and what it charges carries one float per rank, no per-message terms."""
    from test_schedule import FIGURES

    from repro.obs import metrics
    from repro.spmd.message import LedgerDelta

    assert "rank_terms" not in {f.name for f in dataclasses.fields(LedgerDelta)}
    charging, bisects, charged = [], [], []
    real_bisect, real_charge = metrics.bisect_left, Machine.charge
    monkeypatch.setattr(
        metrics, "bisect_left", lambda *a: bisects.append(len(charging)) or real_bisect(*a)
    )

    def charge(machine, delta, array="", tag=""):
        charging.append(1)
        try:
            real_charge(machine, delta, array, tag)
        finally:
            charging.pop()
        charged.append(delta)

    monkeypatch.setattr(Machine, "charge", charge)
    w = FIGURES["fig16"]
    for policy in WAYS:
        session = CompilerSession(4, CompilerOptions(level=3, schedule=policy))
        cold = session.run(w["source"], bindings=w["bindings"], inputs=w["inputs"])
        assert not any(bisects), policy  # binned, if at all, where the ledger was built
        del bisects[:], charged[:]
        warm = session.run(w["source"], bindings=w["bindings"], inputs=w["inputs"])
        assert warm.stats.snapshot() == cold.stats.snapshot()
        assert len(charged) == warm.stats.remaps_performed > 0
        assert not any(bisects), policy  # depth 0: whatever else was observed
        for delta in charged:
            ranks = [rank for rank, _ in delta.rank_seconds]
            assert len(set(ranks)) == len(ranks)
            assert all(type(seconds) is float for _, seconds in delta.rank_seconds)
            assert delta.binned.count == len(delta.durations)
            assert (policy is None) == (not delta.durations)


def test_binding_wrappers_share_the_artifacts_plan_memo(
    counted_prepare_move, counted_build_schedule
):
    """A different runtime-only ``t`` is served by a ``with_bindings``
    wrapper over the cached artifact: it builds no plan, it runs the
    first request's."""
    from repro.service import CompileService

    with CompileService(workers=1, processors=4) as svc:
        first = svc.submit(LOOP, bindings={"n": 64, "t": 2}, inputs={"a": np.arange(64.0)})
        first = first.result()
        assert first.error is None and first.result.stats.remaps_performed == 4
        assert counted_prepare_move and counted_build_schedule

        assert PLANS.stats()["misses"] == 2
        del counted_prepare_move[:], counted_build_schedule[:]
        other = svc.submit(LOOP, bindings={"n": 64, "t": 3}, inputs={"a": np.arange(64.0)})
        other = other.result()
        assert other.error is None and other.cache_source == "memory"
        assert other.compiled is not first.compiled
        assert other.result.stats.remaps_performed == 6
        assert PLANS.stats()["misses"] == 2
        assert counted_prepare_move == [] and counted_build_schedule == []


# ---------------------------------------------------------------------------
# (d) lowered forms are derived state, invisible to pickles, repr and
#     equality; artifacts carry no plans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("way", WAYS)
def test_execution_leaves_pickle_digest_and_equality_alone(way):
    src, dst = mk((48,), (B,), 4), mk((48,), (C3,), 4)
    plan = obtain_plan(way, src, dst)
    twin = plan_redistribution(src, dst, way)
    before = pickle.dumps(plan), repr(plan)

    machine = Machine(src.processors)
    source = DistributedArray("A", src, machine)
    target = DistributedArray("A", dst, machine)
    execute_comm_schedule(plan, source, target, machine)
    assert plan._lowered is not None and twin._lowered is None
    assert (pickle.dumps(plan), repr(plan)) == before
    assert plan == twin
    restored = pickle.loads(pickle.dumps(plan))
    assert restored == plan and restored._lowered is None
    # the memo serves the plan it built, lowering and all
    assert obtain_plan(way, dst, src) is obtain_plan(way, dst, src)
    assert obtain_plan(way, src, dst) is plan
    assert len(PLANS) == 2 and PLANS.stats()["misses"] == 2


@pytest.mark.parametrize("way", WAYS)
def test_artifact_pickles_the_same_before_and_after_it_executed(way):
    session = CompilerSession(4, CompilerOptions(level=3, schedule=way))
    compiled = session.compile(LOOP, bindings={"n": 64, "t": 2})
    # a Mapping keeps its normal form in its (pickled) __dict__ once asked,
    # and the first run asks (the plan table keys by signature)
    versions = compiled.subroutines["remap"].versions
    assert all(m.signature for m in versions.versions("a"))
    before = pickle.dumps(compiled)
    assert len(PLANS) == 0
    env = ExecutionEnv(bindings={"n": 64, "t": 2}, inputs={"a": np.arange(64.0)})
    execute(compiled, env=env)
    assert len(PLANS) == 2
    assert pickle.dumps(compiled) == before


# ---------------------------------------------------------------------------
# (e) first-use race on a frozen artifact
# ---------------------------------------------------------------------------


def test_concurrent_first_execution_of_a_frozen_artifact(monkeypatch):
    obtained = []  # (pair, plan) of every plan an executor obtains, from every thread

    def recording(policy, src, dst):
        plan = obtain_plan(policy, src, dst)
        obtained.append(((src.signature, dst.signature), plan))
        return plan

    monkeypatch.setattr("repro.runtime.executor.obtain_plan", recording)
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
            # from here on only the executors obtain plans (the cost guard
            # priced its candidates during the compile above), and the
            # process's memo starts empty, so all three threads race on the
            # first use
            PLANS.clear()
            monkeypatch.setattr("repro.spmd.schedule.plan_redistribution", counting)
            del builds[:], obtained[:]
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
            # every thread got the same plan object per pair, and the memo
            # counted every build, the ones that lost the insertion race too
            pairs = {pair for pair, _ in obtained}
            assert len(pairs) == len({id(plan) for _, plan in obtained}) == 2
            table = PLANS.stats()
            assert table["hits"] + table["misses"] == len(obtained) == 4 * 6
            assert table["misses"] == len(builds) >= 2
            monkeypatch.setattr("repro.spmd.schedule.plan_redistribution", real_plan)
    finally:
        sys.setswitchinterval(interval)
