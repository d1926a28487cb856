"""Exact ownership computation for mapped arrays.

A :class:`Layout` answers, for a given :class:`~repro.mapping.mapping.Mapping`:

* which processors hold the array at all (grid constraints);
* the exact set of global indices each processor owns, per dimension, as
  :class:`~repro.util.intervals.IntervalSet` in *array index space*;
* the dense local numbering used to store owned elements contiguously;
* the owner(s) of any global element (several owners under replication).

These are the primitives both the redistribution-schedule generator and the
distributed-array storage build on.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ShapeError
from repro.mapping.distribute import owned_cells
from repro.mapping.mapping import GridConstraintKind, Mapping
from repro.util.intervals import IntervalSet


def affine_preimage(cells: IntervalSet, stride: int, offset: int, extent: int) -> IntervalSet:
    """Array indices ``i in [0, extent)`` with ``stride*i + offset in cells``."""
    if stride == 1:
        shifted = IntervalSet((lo - offset, hi - offset) for lo, hi in cells.intervals)
        return shifted & IntervalSet.range(0, extent)
    if stride == -1:
        mirrored = IntervalSet((offset - hi + 1, offset - lo + 1) for lo, hi in cells.intervals)
        return mirrored & IntervalSet.range(0, extent)
    # general stride: enumerate members of each interval (exact, used rarely)
    idx = []
    for lo, hi in cells.intervals:
        # find t in [lo, hi) with (t - offset) % stride == 0
        if stride > 0:
            first = lo + ((offset - lo) % stride)
            ts = range(first, hi, stride)
        else:
            s = -stride
            first = lo + ((offset - lo) % s)
            ts = range(first, hi, s)
        for t in ts:
            i = (t - offset) // stride
            if 0 <= i < extent and stride * i + offset == t:
                idx.append(i)
    return IntervalSet.from_indices(idx)


def dim_owned(m, coord: int) -> IntervalSet:
    """Owned array indices of one dimension for grid coordinate ``coord``.

    The one ownership arithmetic every layout, plan and copy is built
    from: the template cells of ``coord`` under the dimension's
    block-cyclic format, pulled back through the alignment's affine map.
    """
    if m.proc_dim is None:
        return IntervalSet.range(0, m.extent)
    cells = owned_cells(m.kind, m.block, coord, m.nprocs, m.template_extent)
    return affine_preimage(cells, m.stride, m.offset, m.extent)


class Layout:
    """Ownership oracle for one mapping.

    Layouts are cached per mapping signature; constructing one is cheap but
    they are queried in inner loops of the redistribution engine.
    """

    def __init__(self, mapping: Mapping):
        self.mapping = mapping
        self.procs = mapping.processors
        self._replicated_dims: set[int] = set()
        self._pinned: dict[int, int] = {}
        #: holder coords -> owned sets; on the instance (at most one entry
        #: per grid coordinate) so a dropped layout takes its memo with it
        self._owned: dict[tuple[int, ...], tuple[IntervalSet, ...]] = {}
        self._local_shapes: dict[tuple[int, ...], tuple[int, ...]] = {}
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

    def holders(self) -> list[tuple[int, ...]]:
        return [q for q in self.procs.all_coords() if self.holds(q)]

    @property
    def replicated_proc_dims(self) -> frozenset[int]:
        return frozenset(self._replicated_dims)

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
        if not self.holds(coords):
            return None
        coords = tuple(coords)
        owned = self._owned.get(coords)
        if owned is None:
            owned = self._owned[coords] = tuple(
                dim_owned(m, coords[m.proc_dim] if m.proc_dim is not None else 0)
                for m in self.mapping.dim_maps
            )
        return owned

    def local_shape(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        coords = tuple(coords)
        shape = self._local_shapes.get(coords)
        if shape is None:  # a non-holder owns nothing in any dimension
            owned = self.owned(coords) or ((),) * len(self.mapping.shape)
            shape = self._local_shapes[coords] = tuple(len(s) for s in owned)
        return shape

    def owned_count(self, coords: tuple[int, ...]) -> int:
        n = 1
        for e in self.local_shape(coords):
            n *= e
        return n

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


#: Most layouts kept by :func:`layout_of`; the oldest is dropped first.
_LAYOUTS_CAP = 1024

_LAYOUTS: "OrderedDict[tuple, Layout]" = OrderedDict()


def layout_of(mapping: Mapping) -> Layout:
    """Shared per-signature layout cache.

    Bounded, and lock-free: a layout is a pure function of its signature,
    so a rebuilt one answers every query identically (holders of the old
    object keep it alive; identity memos simply re-derive).
    """
    key = mapping.signature
    lay = _LAYOUTS.get(key)
    if lay is None:
        while len(_LAYOUTS) >= _LAYOUTS_CAP:
            _LAYOUTS.popitem(last=False)
        lay = _LAYOUTS[key] = Layout(mapping)
    return lay
