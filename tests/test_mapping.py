"""Unit and property tests for the HPF mapping substrate."""

from __future__ import annotations

from math import prod

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
from repro.mapping import ownership
from repro.mapping.mapping import DimMap, GridConstraint, GridConstraintKind
from repro.mapping.ownership import (
    Layout,
    affine_preimage,
    dim_owned,
    dim_position,
    dim_progression,
    layout_of,
)
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


# ---------------------------------------------------------------------------
# property-based: the closed forms and the holder table against dim_owned
# ---------------------------------------------------------------------------


@st.composite
def dim_maps(draw):
    """A ``DimMap`` of any kind whose affine image stays inside its template
    (what a validated alignment guarantees), padded on both sides."""
    extent = draw(st.integers(0, 24))
    if draw(st.integers(0, 5)) == 0:
        return DimMap(extent=extent)
    fmt = draw(
        st.one_of(
            st.builds(DistFormat.cyclic, st.one_of(st.none(), st.integers(1, 4))),
            st.builds(DistFormat.block, st.one_of(st.none(), st.integers(20, 40))),
        )
    )
    nprocs = draw(st.integers(1, 8))
    stride = draw(st.sampled_from([1, -1, 2, -2, 3, -3]))
    pad_lo, pad_hi = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    span = abs(stride) * max(extent - 1, 0)
    t_extent = pad_lo + span + 1 + pad_hi
    if fmt.kind is DistKind.BLOCK and fmt.block is not None and fmt.block * nprocs < t_extent:
        fmt = DistFormat.block()
    return DimMap(
        extent=extent,
        proc_dim=0,
        kind=fmt.kind,
        block=fmt.resolve_block(t_extent, nprocs),
        nprocs=nprocs,
        stride=stride,
        offset=pad_lo + (span if stride < 0 else 0),
        template_extent=t_extent,
    )


@settings(max_examples=300, deadline=None)
@given(dm=dim_maps())
def test_prop_closed_forms_match_dim_owned(dm):
    """``dim_progression`` is ``None`` or has exactly ``dim_owned``'s members;
    ``dim_position`` is ``IntervalSet.position`` on owned indices and refuses
    the others; both agree with the per-element ``owner_coordinate``."""
    for c in range(dm.nprocs):
        owned = dim_owned(dm, c)
        own = dim_progression(dm, c)
        if own is not None:
            assert list(own) == list(owned), (dm, c)
        else:  # several runs of a block-cyclic format meet the image, nothing less
            assert dm.kind is DistKind.CYCLIC and dm.block > 1 and dm.nprocs > 1
            assert abs(dm.stride) > 1 or len(owned.intervals) > 1
        for i in range(-1, dm.extent + 1):
            mine = 0 <= i < dm.extent and dm.owner_coordinate(i) in (c, None)
            assert mine == (i in owned)
            if own is None and abs(dm.stride) > 1:
                assert dim_position(dm, c, i) is None
            elif mine:
                assert dim_position(dm, c, i) == owned.position(i), (dm, c, i)
            else:
                with pytest.raises(ValueError):
                    dim_position(dm, c, i)


def replicated_pinned(n, cell, pshape=(2, 3)):
    """A(i) WITH T(*, cell): replicated along grid dim 0, pinned along dim 1."""
    t = Template("T", (4, 6))
    dist = Distribution(
        t, (DistFormat.block(), DistFormat.cyclic()), ProcessorArrangement("P", pshape)
    )
    align = Alignment((n,), t, (AxisAlign.replicate(), AxisAlign.const(cell)))
    return Mapping(align, dist)


def contradictory_pins():
    """Two constants pinning one grid dimension differently: held nowhere.
    (No directive spells this; the layout models it as an empty pin.)"""
    m = replicated_pinned(5, 2)
    vars(m)["grid_constraints"] = (
        GridConstraint(1, GridConstraintKind.PINNED, 0),
        GridConstraint(1, GridConstraintKind.PINNED, 2),
    )
    return m


def two_dim(n0, n1, f0, f1, p0, p1, transpose):
    """A 2-D array on a 1- or 2-D grid, identity- or transpose-aligned."""
    template = Template("T", (n1, n0) if transpose else (n0, n1))
    axes = (AxisAlign.dim(1), AxisAlign.dim(0)) if transpose else (AxisAlign.dim(0), AxisAlign.dim(1))
    pshape = tuple(p for f, p in ((f0, p0), (f1, p1)) if f.is_distributed)
    return Mapping(
        Alignment((n0, n1), template, axes),
        Distribution(template, (f0, f1), ProcessorArrangement("P", pshape)),
    )


table_mappings = st.one_of(
    st.builds(
        two_dim,
        st.integers(1, 12),
        st.integers(1, 12),
        fmt_strategy.filter(lambda f: f.is_distributed),
        fmt_strategy,
        st.integers(1, 3),
        st.integers(1, 3),
        st.booleans(),
    ),
    st.builds(replicated_pinned, st.integers(1, 9), st.integers(0, 5)),
    st.builds(
        lambda n: Mapping.replicated((n,), ProcessorArrangement("P", (2, 2))), st.integers(1, 9)
    ),
    st.builds(contradictory_pins),
)


@settings(max_examples=120, deadline=None)
@given(m=table_mappings)
def test_prop_holder_table_matches_layout_queries(m):
    """The holder table against the per-coordinate arithmetic it replaced."""
    lay = Layout(m)  # a fresh one: nothing answered from an earlier example's memo
    procs = m.processors
    holding = [q for q in procs.all_coords() if lay.holds(q)]
    assert lay.holders() == holding == [h.coords for h in lay.table]
    for q in procs.all_coords():
        h = lay.holder_at(q)
        assert lay.holder(procs.linear_rank(q)) is h
        if q not in holding:
            assert h is None and lay.owned(q) is None
            assert lay.local_shape(q) == (0,) * len(m.shape) and lay.owned_count(q) == 0
            continue
        owned = tuple(
            dim_owned(dm, 0 if dm.proc_dim is None else q[dm.proc_dim]) for dm in m.dim_maps
        )
        assert (h.coords, h.rank, h.owned) == (q, procs.linear_rank(q), owned)
        assert h.local_shape == lay.local_shape(q) == tuple(len(s) for s in owned)
        assert h.elements == lay.owned_count(q) == prod(h.local_shape)
        assert lay.owned(q) is h.owned
        for own, s in zip(h.progressions, owned):
            assert own is None or list(own) == list(s)
    if not holding:
        assert lay.table == () and lay.holder(0) is None


def test_layout_touched_again_survives_a_cap_full_of_insertions():
    """``layout_of`` refreshes an entry on a hit: the layouts every request
    uses are not the first dropped at the cap."""
    hot = mk_simple((7,), (DistFormat.block(),))
    cold = mk_simple((7,), (DistFormat.cyclic(),))
    kept, dropped = layout_of(hot), layout_of(cold)
    for n in range(8, 8 + ownership._LAYOUTS.cap):
        layout_of(mk_simple((n,), (DistFormat.block(),)))
        assert layout_of(hot) is kept
    assert len(ownership._LAYOUTS) <= ownership._LAYOUTS.cap
    assert layout_of(cold) is not dropped
