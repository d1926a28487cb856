"""Exact ownership computation for mapped arrays.

One arithmetic, on the concrete integers of a
:class:`~repro.mapping.mapping.DimMap`, in three spellings:

* :func:`dim_owned` -- the owned indices of one dimension as an
  :class:`~repro.util.intervals.IntervalSet` (one interval per run; what
  the redistribution-schedule generator intersects);
* :func:`dim_progression` -- the same set as a ``range`` in O(1), whenever
  it is one arithmetic progression (local, ``BLOCK``, ``CYCLIC(1)``, a
  single run of ``CYCLIC(k)``; any alignment stride);
* :func:`dim_position` -- the dense local number of one owned index in
  O(1) (additionally: several runs of ``CYCLIC(k)`` under a unit stride).

A :class:`Layout` answers, for a given :class:`~repro.mapping.mapping.Mapping`:

* which processors hold the array at all (grid constraints), and for each
  of them its row of the **holder table** (:class:`Holder`): grid
  coordinates, linear rank, owned sets, progressions, local shape and
  element count -- what array storage, memory accounting, scatter/gather
  and copy lowering read instead of recomputing;
* the dense local numbering used to store owned elements contiguously;
* the owner(s) of any global element (several owners under replication).

Layouts are shared per mapping signature (:func:`layout_of`), so what is
a pure function of the signature is computed once per layout, not once
per array version.
"""

from __future__ import annotations

from collections import OrderedDict
from math import gcd, prod

from repro.errors import ShapeError
from repro.mapping.distribute import DistKind, owned_cells
from repro.mapping.mapping import GridConstraintKind, Mapping
from repro.util.intervals import IntervalSet


def _preimage(lo: int, hi: int, stride: int, offset: int, extent: int) -> tuple[int, int]:
    """Bounds ``(a, b)`` of the indices ``i in [0, extent)`` with
    ``stride*i + offset in [lo, hi)``: under any non-zero stride the
    preimage of an interval is an interval (empty when ``a >= b``)."""
    if stride > 0:
        a, b = -((offset - lo) // stride), (hi - 1 - offset) // stride + 1
    else:
        a, b = -((hi - 1 - offset) // -stride), (offset - lo) // -stride + 1
    return max(a, 0), min(b, extent)


def affine_preimage(cells: IntervalSet, stride: int, offset: int, extent: int) -> IntervalSet:
    """Array indices ``i in [0, extent)`` with ``stride*i + offset in cells``."""
    return IntervalSet(_preimage(lo, hi, stride, offset, extent) for lo, hi in cells.intervals)


def dim_owned(m, coord: int) -> IntervalSet:
    """Owned array indices of one dimension for grid coordinate ``coord``.

    The one ownership arithmetic every layout, plan and copy is built
    from: the template cells of ``coord`` under the dimension's
    block-cyclic format, pulled back through the alignment's affine map.
    :func:`dim_progression` and :func:`dim_position` are its closed forms.
    """
    if m.proc_dim is None:
        return IntervalSet.range(0, m.extent)
    cells = owned_cells(m.kind, m.block, coord, m.nprocs, m.template_extent)
    return affine_preimage(cells, m.stride, m.offset, m.extent)


def dim_progression(m, coord: int) -> range | None:
    """:func:`dim_owned` as a ``range``, from the ``DimMap`` integers alone,
    whenever the owned indices form one arithmetic progression; else ``None``.

    A progression: a local dimension or a single processor (everything);
    ``BLOCK`` under any stride (the preimage of one interval);
    ``CYCLIC(1)`` under any stride (the solutions of ``stride*i + offset
    = coord (mod nprocs)``, every ``nprocs / gcd(stride, nprocs)``-th index
    or none); ``CYCLIC(k)`` when at most one of the coordinate's runs meets
    the array's image.  A validated alignment keeps that image inside the
    template, so ``template_extent`` is never read.
    """
    if m.proc_dim is None or m.nprocs == 1 or m.extent == 0:
        return range(m.extent)
    k, stride, offset, extent = m.block, m.stride, m.offset, m.extent
    if m.kind is DistKind.BLOCK:
        return range(*_preimage(coord * k, (coord + 1) * k, stride, offset, extent))
    if k == 1:
        s = stride % m.nprocs
        g = gcd(s, m.nprocs)
        need = (coord - offset) % m.nprocs
        if need % g:
            return range(0)
        step = m.nprocs // g
        return range(need // g * pow(s // g, -1, step) % step, extent, step)
    ends = (offset, stride * (extent - 1) + offset)
    period = k * m.nprocs
    # the coordinate's first run ending above the image's low end
    run = coord * k + ((min(ends) - coord * k - k) // period + 1) * period
    if run + period > max(ends):
        return range(*_preimage(run, run + k, stride, offset, extent))
    return None


def _cells_below(m, coord: int, cell: int) -> int:
    """Template cells below ``cell`` that ``CYCLIC(k)`` gives ``coord``."""
    k, period = m.block, m.block * m.nprocs
    return cell // period * k + min(max(cell % period - coord * k, 0), k)


def dim_position(m, coord: int, i: int) -> int | None:
    """Local position of owned index ``i`` (its rank among
    ``dim_owned(m, coord)``) in O(1); ``ValueError`` if ``i`` is not owned,
    ``None`` where there is no closed form (``CYCLIC(k)``, ``k > 1``, under
    a non-unit stride with several runs in the image).

    Under a unit stride the position is a count of owned template cells:
    below cell ``t`` the coordinate owns ``k`` per full period plus what
    the last, partial period reaches into its run.
    """
    if m.kind is not DistKind.CYCLIC or abs(m.stride) != 1:
        own = dim_progression(m, coord)
        return None if own is None else own.index(i)
    t = m.stride * i + m.offset
    if not 0 <= i < m.extent or t // m.block % m.nprocs != coord:
        raise ValueError(f"{i} is not owned by coordinate {coord}")
    if m.stride == 1:  # owned cells in [offset, t)
        return _cells_below(m, coord, t) - _cells_below(m, coord, m.offset)
    # owned cells in (t, offset]
    return _cells_below(m, coord, m.offset + 1) - _cells_below(m, coord, t + 1)


class Holder:
    """One holding processor's share of a layout: a row of the holder table.

    ``dims`` pairs each array dimension's ``DimMap`` with the holder's grid
    coordinate along it (0 for a local dimension); ``progressions`` are
    :func:`dim_progression` of each pair, ``local_shape``/``elements`` the
    extent of the local block.  Everything but ``owned`` is worked out
    from the mapping's integers in time independent of the extent when
    every dimension is a progression; the owned *sets* (one interval per
    member under ``CYCLIC``) are built when first asked for.  ``indexer``
    is :func:`repro.spmd.darray.holder_index`'s memo.
    """

    __slots__ = (
        "coords", "rank", "dims", "progressions", "local_shape", "elements", "_owned", "indexer",
    )  # fmt: skip

    def __init__(self, coords: tuple[int, ...], rank: int, dims: tuple) -> None:
        self.coords = coords
        self.rank = rank
        self.dims = dims
        self.progressions = tuple(dim_progression(m, c) for m, c in dims)
        self._owned: tuple[IntervalSet, ...] | None = None
        self.indexer: tuple | None = None
        sizes = self.owned if None in self.progressions else self.progressions
        self.local_shape = tuple(len(s) for s in sizes)
        self.elements = prod(self.local_shape)

    @property
    def owned(self) -> tuple[IntervalSet, ...]:
        """Owned global indices per array dimension."""
        owned = self._owned
        if owned is None:
            owned = self._owned = tuple(dim_owned(m, c) for m, c in self.dims)
        return owned


class Layout:
    """Ownership oracle for one mapping.

    Layouts are shared per mapping signature (:func:`layout_of`) and carry
    everything that is a pure function of that signature, each worked out
    on first use and read from here by every array version, plan and copy:
    the holder table (:attr:`table`, one :class:`Holder` per holding
    processor) and, on each holder, its scatter/gather indexer.  For a
    layout whose ownership is a progression in every dimension that is a
    handful of integers per holder; otherwise a holder also keeps its
    interval sets and one ``np.ix_`` position vector per dimension -- the
    sum of the local extents x 8 bytes.  :data:`_LAYOUTS_CAP` bounds how many
    layouts stay reachable from the shared cache.  Memo writes are
    idempotent and lock-free: a lost race recomputes an equal value.
    """

    def __init__(self, mapping: Mapping):
        self.mapping = mapping
        self.procs = mapping.processors
        self._replicated_dims: set[int] = set()
        self._pinned: dict[int, int] = {}
        #: (holders, the same by linear rank), built on first use
        self._table: tuple[tuple[Holder, ...], dict[int, Holder]] | None = None
        for c in mapping.grid_constraints:
            if c.kind is GridConstraintKind.REPLICATED:
                self._replicated_dims.add(c.proc_dim)
            else:
                prev = self._pinned.get(c.proc_dim)
                if prev is not None and prev != c.coord:
                    # two constants pinning the same grid dim differently:
                    # the array exists nowhere; model as empty pin
                    self._pinned[c.proc_dim] = -1
                else:
                    self._pinned[c.proc_dim] = c.coord

    # -- which processors hold the array -------------------------------------

    def holds(self, coords: tuple[int, ...]) -> bool:
        """True iff the processor at ``coords`` stores (part of) the array."""
        for pd, pin in self._pinned.items():
            if coords[pd] != pin:
                return False
        return True

    def _holder_table(self) -> tuple[tuple[Holder, ...], dict[int, Holder]]:
        table = self._table
        if table is None:
            dim_maps = self.mapping.dim_maps
            # all_coords() is row-major, so a coordinate's place in it is its linear rank
            holders = tuple(
                Holder(q, rank, tuple((m, 0 if m.proc_dim is None else q[m.proc_dim]) for m in dim_maps))
                for rank, q in enumerate(self.procs.all_coords())
                if self.holds(q)
            )
            table = self._table = (holders, {h.rank: h for h in holders})
        return table

    @property
    def table(self) -> tuple[Holder, ...]:
        """The holder table, in increasing linear rank."""
        return self._holder_table()[0]

    def holder(self, rank: int) -> Holder | None:
        """The table row of linear ``rank``, or None if it holds nothing."""
        return self._holder_table()[1].get(rank)

    def holder_at(self, coords: tuple[int, ...]) -> Holder | None:
        """The table row of the processor at ``coords``, or None."""
        return self.holder(self.procs.linear_rank(tuple(coords)))

    def holders(self) -> list[tuple[int, ...]]:
        return [h.coords for h in self.table]

    @property
    def consumed_proc_dims(self) -> tuple[int, ...]:
        """Grid dimensions that array dimensions are actually distributed over."""
        return tuple(
            sorted({m.proc_dim for m in self.mapping.dim_maps if m.proc_dim is not None})
        )

    def class_key(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Coordinates along consumed dims: holders with equal keys own equal sets."""
        return tuple(coords[d] for d in self.consumed_proc_dims)

    def sender_for(
        self, class_coords: tuple[int, ...], receiver: tuple[int, ...]
    ) -> tuple[int, ...]:
        """A holder in the ownership class ``class_coords`` (keyed on consumed
        dims) chosen *nearest* to ``receiver``: non-consumed replicated dims
        copy the receiver's coordinates so that a receiver which already holds
        a replica gets a zero-cost local copy instead of a message."""
        coords = list(receiver)
        for d, c in zip(self.consumed_proc_dims, class_coords):
            coords[d] = c
        for d, pin in self._pinned.items():
            coords[d] = pin
        return tuple(coords)

    @property
    def replication_degree(self) -> int:
        deg = 1
        for pd in self._replicated_dims:
            deg *= self.procs.shape[pd]
        return deg

    # -- per-processor owned index sets ---------------------------------------

    def owned(self, coords: tuple[int, ...]) -> tuple[IntervalSet, ...] | None:
        """Owned global indices per array dimension, or None if not a holder."""
        h = self.holder_at(coords)
        return None if h is None else h.owned

    def local_shape(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        h = self.holder_at(coords)  # a non-holder owns nothing in any dimension
        return (0,) * len(self.mapping.shape) if h is None else h.local_shape

    def owned_count(self, coords: tuple[int, ...]) -> int:
        return prod(self.local_shape(coords))

    # -- owner lookup ----------------------------------------------------------

    def owner_coords(self, index: tuple[int, ...]) -> list[tuple[int, ...]]:
        """All grid coordinates holding element ``index`` (several if replicated)."""
        if len(index) != len(self.mapping.shape):
            raise ShapeError(f"index rank {len(index)} != array rank {len(self.mapping.shape)}")
        candidates: list[list[int]] = []
        fixed: dict[int, int] = dict(self._pinned)
        for a, m in enumerate(self.mapping.dim_maps):
            if m.proc_dim is not None:
                fixed[m.proc_dim] = m.owner_coordinate(index[a])
        for pd in range(self.procs.rank):
            if pd in fixed:
                if fixed[pd] < 0:
                    return []
                candidates.append([fixed[pd]])
            elif pd in self._replicated_dims:
                candidates.append(list(range(self.procs.shape[pd])))
            else:
                # grid dim not constrained by this array: HPF leaves the copy
                # on every coordinate (replication by omission)
                candidates.append(list(range(self.procs.shape[pd])))
        out: list[tuple[int, ...]] = []

        def rec(i: int, acc: tuple[int, ...]) -> None:
            if i == len(candidates):
                out.append(acc)
                return
            for c in candidates[i]:
                rec(i + 1, acc + (c,))

        rec(0, ())
        return out

    def primary_owner(self, index: tuple[int, ...]) -> tuple[int, ...]:
        """Lowest-rank owner; the canonical sender under replication."""
        owners = self.owner_coords(index)
        if not owners:
            raise ShapeError(f"element {index} has no owner")
        return min(owners, key=self.procs.linear_rank)

    # -- local numbering ---------------------------------------------------------

    def global_to_local(
        self, coords: tuple[int, ...], index: tuple[int, ...]
    ) -> tuple[int, ...]:
        owned = self.owned(coords)
        if owned is None:
            raise ShapeError(f"processor {coords} does not hold the array")
        return tuple(s.position(i) for s, i in zip(owned, index))

    def local_to_global(
        self, coords: tuple[int, ...], local: tuple[int, ...]
    ) -> tuple[int, ...]:
        owned = self.owned(coords)
        if owned is None:
            raise ShapeError(f"processor {coords} does not hold the array")
        return tuple(s.nth(k) for s, k in zip(owned, local))

    # -- properties used by kernels -----------------------------------------------

    def dim_is_local(self, a: int) -> bool:
        """True iff array dimension ``a`` is entirely local on each holder."""
        return not self.mapping.dim_maps[a].is_distributed

    def total_elements(self) -> int:
        n = 1
        for e in self.mapping.shape:
            n *= e
        return n


#: Most layouts kept by :func:`layout_of`; the least recently used is dropped first.
_LAYOUTS_CAP = 1024

_LAYOUTS: "OrderedDict[tuple, Layout]" = OrderedDict()


def layout_of(mapping: Mapping) -> Layout:
    """Shared per-signature layout cache.

    Bounded, and lock-free: a layout is a pure function of its signature,
    so a rebuilt one answers every query identically (holders of the old
    object keep it alive; identity memos simply re-derive).  A hit
    refreshes the entry -- a layout carries its holder table and indexers,
    so the ones every request uses must not be the first dropped.
    """
    key = mapping.signature
    lay = _LAYOUTS.get(key)
    if lay is None:
        while len(_LAYOUTS) >= _LAYOUTS_CAP:
            _LAYOUTS.popitem(last=False)
        lay = _LAYOUTS[key] = Layout(mapping)
    else:
        try:
            _LAYOUTS.move_to_end(key)
        except KeyError:  # dropped by another thread since the get
            pass
    return lay
