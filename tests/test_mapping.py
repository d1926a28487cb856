"""Unit and property tests for the HPF mapping substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError, ShapeError
from repro.mapping import (
    Alignment,
    AxisAlign,
    DistFormat,
    DistKind,
    Distribution,
    Mapping,
    ProcessorArrangement,
    Template,
)
from repro.mapping.mapping import DimMap
from repro.mapping.ownership import affine_preimage, dim_owned, layout_of
from repro.util.intervals import IntervalSet


# ---------------------------------------------------------------------------
# processors
# ---------------------------------------------------------------------------


def test_processor_linear_rank_roundtrip():
    p = ProcessorArrangement("P", (2, 3, 4))
    assert p.size == 24
    for lin in range(p.size):
        assert p.linear_rank(p.coords(lin)) == lin


def test_processor_bad_shape():
    with pytest.raises(ShapeError):
        ProcessorArrangement("P", ())
    with pytest.raises(ShapeError):
        ProcessorArrangement("P", (0,))


def test_processor_bad_coords():
    p = ProcessorArrangement("P", (2, 2))
    with pytest.raises(ShapeError):
        p.linear_rank((2, 0))
    with pytest.raises(ShapeError):
        p.linear_rank((0,))
    with pytest.raises(ShapeError):
        p.coords(4)


# ---------------------------------------------------------------------------
# templates / alignment
# ---------------------------------------------------------------------------


def test_identity_alignment():
    t = Template("T", (10, 10))
    a = Alignment.identity((10, 10), t)
    assert a.aligned_dims == {0: 0, 1: 1}
    assert a.collapsed_dims == ()
    assert a.template_cells((3, 7)) == [3, 7]


def test_transpose_alignment():
    t = Template("T", (10, 10))
    a = Alignment((10, 10), t, (AxisAlign.dim(1), AxisAlign.dim(0)))
    assert a.template_cells((3, 7)) == [7, 3]


def test_offset_stride_alignment():
    t = Template("T", (25,))
    a = Alignment((10,), t, (AxisAlign.dim(0, stride=2, offset=3),))
    assert a.template_cells((4,)) == [11]


def test_collapse_and_replicate():
    t = Template("T", (10, 5))
    # A(i, j) aligned with T(i, *): dim 1 collapsed, template dim 1 replicated
    a = Alignment((10, 8), t, (AxisAlign.dim(0), AxisAlign.replicate()))
    assert a.aligned_dims == {0: 0}
    assert a.collapsed_dims == (1,)
    assert a.template_cells((2, 6)) == [2, None]


def test_const_alignment():
    t = Template("T", (10, 5))
    a = Alignment((10,), t, (AxisAlign.dim(0), AxisAlign.const(3)))
    assert a.template_cells((2,)) == [2, 3]


def test_alignment_image_out_of_template_raises():
    t = Template("T", (10,))
    with pytest.raises(ShapeError):
        Alignment((11,), t, (AxisAlign.dim(0),))
    with pytest.raises(ShapeError):
        Alignment((6,), t, (AxisAlign.dim(0, stride=2),))


def test_alignment_double_use_raises():
    t = Template("T", (10, 10))
    with pytest.raises(MappingError):
        Alignment((10,), t, (AxisAlign.dim(0), AxisAlign.dim(0)))


def test_alignment_composition_affine():
    # B(k) aligned WITH T(2k+1); A(i) aligned WITH B(3i) => A WITH T(6i+1)
    t = Template("T", (64,))
    b_align = Alignment((20,), t, (AxisAlign.dim(0, stride=2, offset=1),))
    a_align = b_align.compose((7,), (AxisAlign.dim(0, stride=3),))
    assert a_align.template == t
    ax = a_align.axes[0]
    assert (ax.stride, ax.offset) == (6, 1)
    assert a_align.template_cells((2,)) == [13]


def test_alignment_composition_replicate():
    t = Template("T", (10, 10))
    b_align = Alignment.identity((10, 10), t)
    a_align = b_align.compose((10,), (AxisAlign.dim(0), AxisAlign.replicate()))
    assert a_align.axes[1].kind.value == "replicate"


# ---------------------------------------------------------------------------
# distribution formats
# ---------------------------------------------------------------------------


def test_block_default_size():
    f = DistFormat.block()
    assert f.resolve_block(10, 4) == 3  # ceil(10/4)
    assert f.resolve_block(12, 4) == 3


def test_block_explicit_too_small_raises():
    f = DistFormat.block(2)
    with pytest.raises(ShapeError):
        f.resolve_block(10, 4)  # 2*4 < 10


def test_cyclic_default_is_one():
    assert DistFormat.cyclic().resolve_block(10, 4) == 1
    assert DistFormat.cyclic(3).resolve_block(10, 4) == 3


def test_bad_block_sizes():
    with pytest.raises(MappingError):
        DistFormat.block(0)
    with pytest.raises(MappingError):
        DistFormat.cyclic(-1)


def test_distribution_dim_count_mismatch():
    t = Template("T", (10, 10))
    p = ProcessorArrangement("P", (4,))
    with pytest.raises(ShapeError):
        Distribution(t, (DistFormat.block(),), p)
    with pytest.raises(ShapeError):
        # two distributed dims but 1-D processor grid
        Distribution(t, (DistFormat.block(), DistFormat.block()), p)


def test_distribution_proc_dim_assignment():
    t = Template("T", (10, 10, 10))
    p = ProcessorArrangement("P", (2, 3))
    d = Distribution(t, (DistFormat.block(), DistFormat.star(), DistFormat.cyclic()), p)
    assert d.proc_dim_of(0) == 0
    assert d.proc_dim_of(1) is None
    assert d.proc_dim_of(2) == 1
    kind, block, pd, n = d.resolved(2)
    assert (kind, block, pd, n) == (DistKind.CYCLIC, 1, 1, 3)


# ---------------------------------------------------------------------------
# normalized mappings
# ---------------------------------------------------------------------------


def mk_simple(shape, fmts, pshape=(4,), name="A"):
    return Mapping.simple(shape, fmts, ProcessorArrangement("P", pshape), name)


def test_simple_block_mapping_dim_maps():
    m = mk_simple((16,), (DistFormat.block(),))
    (dm,) = m.dim_maps
    assert dm.is_distributed
    assert dm.kind is DistKind.BLOCK and dm.block == 4 and dm.nprocs == 4
    assert dm.owner_coordinate(0) == 0
    assert dm.owner_coordinate(15) == 3


def test_simple_cyclic_mapping_owner():
    m = mk_simple((16,), (DistFormat.cyclic(),))
    (dm,) = m.dim_maps
    assert [dm.owner_coordinate(i) for i in range(6)] == [0, 1, 2, 3, 0, 1]


def test_mapping_equality_by_signature():
    a = mk_simple((16, 16), (DistFormat.block(), DistFormat.star()), name="A")
    b = mk_simple((16, 16), (DistFormat.block(), DistFormat.star()), name="B")
    c = mk_simple((16, 16), (DistFormat.star(), DistFormat.block()), name="A")
    assert a.same_layout(b)  # template names differ, layout identical
    assert not a.same_layout(c)


def test_block_vs_cyclic_same_when_block_covers_everything():
    # CYCLIC(4) on 4 procs over 16 elements == BLOCK: same ownership
    blk = mk_simple((16,), (DistFormat.block(),))
    cyc = mk_simple((16,), (DistFormat.cyclic(4),))
    la, lb = layout_of(blk), layout_of(cyc)
    for q in blk.processors.all_coords():
        assert la.owned(q) == lb.owned(q)


def test_transposed_alignment_changes_layout():
    t = Template("T", (8, 8))
    p = ProcessorArrangement("P", (2,))
    dist = Distribution(t, (DistFormat.block(), DistFormat.star()), p)
    ident = Mapping(Alignment.identity((8, 8), t), dist)
    trans = Mapping(
        Alignment((8, 8), t, (AxisAlign.dim(1), AxisAlign.dim(0))), dist
    )
    assert not ident.same_layout(trans)
    # identity: rows split; transpose: columns split
    li, lt = layout_of(ident), layout_of(trans)
    assert li.owned((0,))[0].intervals == ((0, 4),)
    assert li.owned((0,))[1].intervals == ((0, 8),)
    assert lt.owned((0,))[0].intervals == ((0, 8),)
    assert lt.owned((0,))[1].intervals == ((0, 4),)


def test_alignment_distribution_mismatch_raises():
    t1, t2 = Template("T1", (8,)), Template("T2", (8,))
    p = ProcessorArrangement("P", (2,))
    with pytest.raises(ShapeError):
        Mapping(Alignment.identity((8,), t1), Distribution(t2, (DistFormat.block(),), p))


# ---------------------------------------------------------------------------
# layouts / ownership
# ---------------------------------------------------------------------------


def test_affine_preimage_identity():
    cells = IntervalSet([(4, 8)])
    assert affine_preimage(cells, 1, 0, 10).intervals == ((4, 8),)
    assert affine_preimage(cells, 1, 2, 10).intervals == ((2, 6),)


def test_affine_preimage_stride2():
    cells = IntervalSet([(0, 10)])
    got = affine_preimage(cells, 2, 1, 10)  # 2i+1 in [0,10) -> i in 0..4
    assert list(got) == [0, 1, 2, 3, 4]


def test_affine_preimage_negative_stride():
    cells = IntervalSet([(0, 4)])
    got = affine_preimage(cells, -1, 9, 10)  # 9-i in [0,4) -> i in 6..9
    assert list(got) == [6, 7, 8, 9]


def test_block_ownership_partition():
    m = mk_simple((10,), (DistFormat.block(),))  # block=3 on 4 procs
    lay = layout_of(m)
    assert list(lay.owned((0,))[0]) == [0, 1, 2]
    assert list(lay.owned((3,))[0]) == [9]
    total = set()
    for q in m.processors.all_coords():
        s = set(lay.owned(q)[0])
        assert not (total & s)
        total |= s
    assert total == set(range(10))


def test_cyclic2_ownership():
    m = mk_simple((14,), (DistFormat.cyclic(2),), pshape=(3,))
    lay = layout_of(m)
    assert list(lay.owned((1,))[0]) == [2, 3, 8, 9]


def test_owner_coords_and_primary_owner():
    m = mk_simple((10, 10), (DistFormat.block(), DistFormat.cyclic()), pshape=(2, 2))
    lay = layout_of(m)
    owners = lay.owner_coords((7, 3))
    assert owners == [(1, 1)]
    assert lay.primary_owner((7, 3)) == (1, 1)


def test_replicated_array_has_multiple_owners():
    t = Template("T", (8, 4))
    p = ProcessorArrangement("P", (2, 4))
    dist = Distribution(t, (DistFormat.block(), DistFormat.block()), p)
    align = Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.replicate()))
    m = Mapping(align, dist)
    lay = layout_of(m)
    owners = lay.owner_coords((0,))
    assert len(owners) == 4  # replicated across the 4 procs of grid dim 1
    assert lay.primary_owner((0,)) == (0, 0)
    assert lay.replication_degree == 4


def test_pinned_array_lives_on_slice():
    t = Template("T", (8, 8))
    p = ProcessorArrangement("P", (2, 2))
    dist = Distribution(t, (DistFormat.block(), DistFormat.block()), p)
    # A(i) WITH T(i, 6): pinned to grid coordinate owning cell 6 => coord 1
    align = Alignment((8,), t, (AxisAlign.dim(0), AxisAlign.const(6)))
    m = Mapping(align, dist)
    lay = layout_of(m)
    assert lay.holders() == [(0, 1), (1, 1)]
    assert lay.owned((0, 0)) is None


def test_local_numbering_roundtrip():
    m = mk_simple((10, 12), (DistFormat.cyclic(3), DistFormat.block()), pshape=(2, 3))
    lay = layout_of(m)
    for q in m.processors.all_coords():
        owned = lay.owned(q)
        shape = lay.local_shape(q)
        for i in owned[0]:
            for j in owned[1]:
                loc = lay.global_to_local(q, (i, j))
                assert all(0 <= c < s for c, s in zip(loc, shape))
                assert lay.local_to_global(q, loc) == (i, j)


def test_dim_is_local():
    m = mk_simple((8, 8), (DistFormat.block(), DistFormat.star()))
    lay = layout_of(m)
    assert not lay.dim_is_local(0)
    assert lay.dim_is_local(1)


# ---------------------------------------------------------------------------
# property-based: ownership partitions the index space
# ---------------------------------------------------------------------------

fmt_strategy = st.one_of(
    st.just(DistFormat.star()),
    st.builds(DistFormat.cyclic, st.one_of(st.none(), st.integers(1, 4))),
    st.just(DistFormat.block()),
)


@settings(max_examples=60, deadline=None)
@given(
    extent=st.integers(1, 24),
    fmt=fmt_strategy,
    nprocs=st.integers(1, 5),
)
def test_prop_1d_ownership_partitions(extent, fmt, nprocs):
    pshape = () if not fmt.is_distributed else (nprocs,)
    if not fmt.is_distributed:
        # wrap in a 1-proc arrangement to satisfy validation
        pshape = (1,)
        fmts = (fmt, DistFormat.block())
        m = Mapping.simple((extent, 2), fmts, ProcessorArrangement("P", pshape))
        dims = [0]
    else:
        m = Mapping.simple((extent,), (fmt,), ProcessorArrangement("P", pshape))
        dims = [0]
    lay = layout_of(m)
    seen: dict[int, int] = {}
    for q in m.processors.all_coords():
        owned = lay.owned(q)
        assert owned is not None
        for i in owned[dims[0]]:
            seen[i] = seen.get(i, 0) + 1
    # every index owned exactly once per holder count along other dims
    assert set(seen) == set(range(extent))
    assert len(set(seen.values())) == 1


@settings(max_examples=300, deadline=None)
@given(
    extent=st.integers(1, 24),
    fmt=fmt_strategy,
    nprocs=st.integers(1, 5),
    stride=st.sampled_from([1, -1, 2, -2, 3, -3]),
    pad_lo=st.integers(0, 4),
    pad_hi=st.integers(0, 4),
)
def test_prop_dim_owned_matches_per_element_owner(
    extent, fmt, nprocs, stride, pad_lo, pad_hi
):
    """The interval arithmetic of ``dim_owned`` against the per-element
    formula, through every alignment stride and offset."""
    if not fmt.is_distributed:
        dm = DimMap(extent=extent)
    else:
        # the array's image, padded by ``pad_lo``/``pad_hi`` template cells
        offset = pad_lo + (-stride * (extent - 1) if stride < 0 else 0)
        t_extent = pad_lo + abs(stride) * (extent - 1) + 1 + pad_hi
        dm = DimMap(
            extent=extent,
            proc_dim=0,
            kind=fmt.kind,
            block=fmt.resolve_block(t_extent, nprocs),
            nprocs=nprocs,
            stride=stride,
            offset=offset,
            template_extent=t_extent,
        )
    coords = range(nprocs) if dm.is_distributed else (None,)
    for c in coords:
        want = {i for i in range(extent) if dm.owner_coordinate(i) == c}
        assert set(dim_owned(dm, c)) == want, (dm, c)


@settings(max_examples=40, deadline=None)
@given(
    n0=st.integers(1, 12),
    n1=st.integers(1, 12),
    f0=fmt_strategy,
    f1=fmt_strategy,
    p0=st.integers(1, 3),
    p1=st.integers(1, 3),
)
def test_prop_2d_every_element_has_primary_owner(n0, n1, f0, f1, p0, p1):
    nd = sum(1 for f in (f0, f1) if f.is_distributed)
    pshape = tuple(s for f, s in ((f0, p0), (f1, p1)) if f.is_distributed)
    if nd == 0:
        pshape = (1,)
        f1 = DistFormat.block()
        pshape = (1,)
    m = Mapping.simple(
        (n0, n1), (f0, f1), ProcessorArrangement("P", pshape or (1,))
    )
    lay = layout_of(m)
    for i in range(0, n0, max(1, n0 // 3)):
        for j in range(0, n1, max(1, n1 // 3)):
            q = lay.primary_owner((i, j))
            owned = lay.owned(q)
            assert owned is not None
            assert i in owned[0] and j in owned[1]
