"""Distributed array storage: one real NumPy block per holding processor.

A :class:`DistributedArray` is the runtime instance of one *array version*
(one statically mapped copy in the paper's scheme).  Each holding processor
stores exactly its owned elements, densely packed in the local numbering
defined by the layout.  Which ranks hold a block, of what shape and how
many bytes, and where each block's elements sit in the global array
(:func:`holder_index`) are read from the shared layout's holder table:
an array version adds the storage, nothing else.  Scatter/gather against
a global NumPy array are provided for initialization and verification;
they are bookkeeping operations and deliberately do not touch the traffic
statistics -- only remapping copies (the paper's subject) are accounted
as communication.

:func:`members_array`, :func:`positions_in` and :func:`block_index` are
the general, member-enumerating index arithmetic: what ownership that is
not an arithmetic progression needs, and the reference the closed forms
of :mod:`repro.mapping.ownership` are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RuntimeRemapError, ShapeError
from repro.mapping.mapping import Mapping
from repro.mapping.ownership import Holder, Layout, layout_of
from repro.spmd.machine import Machine
from repro.util.intervals import IntervalSet


def members_array(s: IntervalSet) -> np.ndarray:
    """All members of an interval set as an int64 vector (vectorized: a
    constant number of NumPy calls however many intervals)."""
    ivs = s.intervals
    if not ivs:
        return np.empty(0, dtype=np.int64)
    if len(ivs) == 1:
        return np.arange(*ivs[0], dtype=np.int64)
    bounds = np.array(ivs, dtype=np.int64)
    starts, lengths = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    before = np.cumsum(lengths) - lengths  # members in earlier intervals
    return np.arange(before[-1] + lengths[-1]) + np.repeat(starts - before, lengths)


def positions_in(owned: IntervalSet, subset: IntervalSet) -> np.ndarray:
    """Local positions of every member of ``subset`` within ``owned``.

    ``subset`` must be contained in ``owned``.  Vectorized equivalent of
    ``[owned.position(x) for x in subset]``: the general path of
    :func:`~repro.spmd.redistribution.prepare_move` and the reference its
    closed forms are tested against.
    """
    if not subset:
        return np.empty(0, dtype=np.int64)
    starts = np.array([lo for lo, _ in owned.intervals], dtype=np.int64)
    ends = np.array([hi for _, hi in owned.intervals], dtype=np.int64)
    cum = np.concatenate(([0], np.cumsum(ends - starts)))[:-1]
    xs = members_array(subset)
    k = np.searchsorted(starts, xs, side="right") - 1
    if np.any(k < 0) or np.any(xs >= ends[k]):
        raise ShapeError("subset not contained in owned index set")
    return cum[k] + (xs - starts[k])


def block_index(positions: tuple[np.ndarray, ...]) -> tuple:
    """An index selecting ``positions`` (one sorted vector per dimension).

    A tuple of basic ``slice`` objects when every dimension's positions
    form an arithmetic progression (always so for block and cyclic
    ownership), the ``np.ix_`` open mesh of the vectors otherwise -- never
    a mix, so an index is either all-basic (a view on read) or all-fancy.
    """
    slices = []
    for pos in positions:
        if len(pos) == 0:
            slices.append(slice(0, 0))
            continue
        step = int(pos[1] - pos[0]) if len(pos) > 1 else 1
        if len(pos) > 2 and np.any(np.diff(pos) != step):
            return np.ix_(*positions)
        slices.append(slice(int(pos[0]), int(pos[-1]) + 1, step))
    return tuple(slices)


def progression_slice(positions: range) -> slice:
    """:func:`block_index`'s slice for positions known as a ``range``."""
    if not positions:
        return slice(0, 0)
    return slice(positions[0], positions[-1] + 1, positions.step if len(positions) > 1 else 1)


def holder_index(h: Holder) -> tuple:
    """Index of a holder's owned elements in the global array, worked out
    once per layout (memoised on the shared holder table): slices straight
    from the progressions, the ``np.ix_`` mesh of the members only where
    ownership is not a progression."""
    index = h.indexer
    if index is None:
        if None in h.progressions:
            index = block_index(tuple(members_array(s) for s in h.owned))
        else:
            index = tuple(progression_slice(p) for p in h.progressions)
        h.indexer = index
    return index


class DistributedArray:
    """One statically mapped array version living on the machine."""

    def __init__(
        self,
        name: str,
        mapping: Mapping,
        machine: Machine,
        dtype: np.dtype | type = np.float64,
    ):
        if mapping.processors.size != machine.processors.size:
            raise ShapeError(
                f"mapping uses {mapping.processors.size} processors, machine has "
                f"{machine.processors.size}"
            )
        self.name = name
        self.mapping = mapping
        self.machine = machine
        self.dtype = np.dtype(dtype)
        self.layout: Layout = layout_of(mapping)
        self.blocks: dict[int, np.ndarray] = {}
        self._freed = False
        table = self.layout.table
        #: the ``(rank, nbytes)`` set the machine accounts for this version;
        #: all ranks or none: nothing is placed unless every rank fits
        itemsize = self.dtype.itemsize
        self._accounted = tuple((h.rank, h.elements * itemsize) for h in table)
        machine.allocate_set(name, self._accounted)
        try:
            for h in table:
                self.blocks[h.rank] = self._new_block(h.rank, h.local_shape)
        except BaseException:  # a placement failed: give back what was placed
            self.free()
            raise

    # -- storage hooks (subclasses may place blocks elsewhere) ----------------

    def _new_block(self, rank: int, shape: tuple[int, ...]) -> np.ndarray:
        """Create one rank's zeroed local block (private heap storage here;
        :class:`~repro.spmd.transport.SharedDistributedArray` overrides both
        hooks to place blocks in the transport's shared arenas)."""
        return np.zeros(shape, dtype=self.dtype)

    def _release_block(self, rank: int, block: np.ndarray) -> None:
        """Release whatever :meth:`_new_block` acquired (no-op for the heap)."""

    # -- lifetime ------------------------------------------------------------

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mapping.shape

    def free(self) -> None:
        """Release storage and memory accounting (idempotent)."""
        if self._freed:
            return
        self.machine.free_set(self._accounted)
        for rank, block in self.blocks.items():
            self._release_block(rank, block)
        self.blocks.clear()
        self._freed = True

    @property
    def freed(self) -> bool:
        return self._freed

    def total_local_bytes(self) -> int:
        return sum(b.nbytes for b in self.blocks.values())

    # -- scatter / gather (bookkeeping, not counted as traffic) -----------------

    def _live_blocks(self) -> list[tuple[np.ndarray, tuple]]:
        """``(block, index of its elements in the global array)`` per holder."""
        if self._freed:
            raise RuntimeRemapError(f"array {self.name} has been freed")
        return [(self.blocks[h.rank], holder_index(h)) for h in self.layout.table]

    def scatter_from_global(self, arr: np.ndarray) -> None:
        if tuple(arr.shape) != self.shape:
            raise ShapeError(f"expected shape {self.shape}, got {arr.shape}")
        for block, idx in self._live_blocks():
            block[...] = arr[idx]

    def gather_to_global(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        for block, idx in self._live_blocks():
            out[idx] = block
        return out

    # -- element access ----------------------------------------------------------

    def get(self, index: tuple[int, ...]):
        q = self.layout.primary_owner(index)
        rank = self.layout.procs.linear_rank(q)
        return self.blocks[rank][self.layout.global_to_local(q, index)]

    def set(self, index: tuple[int, ...], value) -> None:
        # writes update every replica so the array stays consistent
        for q in self.layout.owner_coords(index):
            rank = self.layout.procs.linear_rank(q)
            self.blocks[rank][self.layout.global_to_local(q, index)] = value

    # -- computation helpers -------------------------------------------------------

    def apply_along_local_dim(self, fn, axis: int) -> None:
        """Apply ``fn(block, axis=...)`` independently on every processor.

        This is genuine SPMD-local computation: it requires the swept
        dimension to be local (undistributed), which is exactly the property
        remappings exist to establish (e.g. ADI sweeps, FFT stages).
        """
        if not self.layout.dim_is_local(axis):
            raise ShapeError(
                f"dimension {axis} of {self.name} is distributed; remap first "
                f"(this is what the paper's remappings are for)"
            )
        for rank, block in self.blocks.items():
            if block.size:
                self.blocks[rank] = np.ascontiguousarray(fn(block, axis))

    def apply_global(self, fn) -> None:
        """Gather, apply ``fn(global_array) -> global_array``, scatter back.

        Models an owner-computes compute phase whose internal communication is
        out of the paper's scope; not charged to the traffic statistics.
        """
        self.scatter_from_global(np.asarray(fn(self.gather_to_global()), dtype=self.dtype))

    def check_replicas_consistent(self) -> bool:
        """True iff all replicas of every element agree (test invariant)."""
        ref = self.gather_to_global()
        return all(np.array_equal(ref[idx], block) for block, idx in self._live_blocks())

    def __repr__(self) -> str:
        return (
            f"DistributedArray({self.name}, shape={self.shape}, "
            f"mapping={self.mapping.short()}, holders={len(self.blocks)})"
        )
