"""Distributed array storage: one zeroed buffer per array version.

A :class:`DistributedArray` is the runtime instance of one *array version*
(one statically mapped copy in the paper's scheme).  Each holding processor
stores exactly its owned elements, densely packed in the local numbering
defined by the layout, as one block of the version's buffer
(:attr:`DistributedArray.data`): the holders' blocks back to back in the
holder table's order, each at its holder's ``offset``.  ``blocks[rank]`` is
that block as a view, in a read-only mapping, so a kernel writes through
it and cannot rebind it.  Which ranks hold a block, of what shape, where it
starts in the buffer and where its elements sit in the global array
(:func:`holder_index`) are read from the shared layout's holder table: an
array version adds the storage, nothing else.  Scatter/gather against
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

from types import MappingProxyType

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
    ownership); the one dimension's vector among the others' slices when
    only it is not one, so NumPy takes whole rows of the rest rather than
    every element of a mesh (at 2048 x 2048 on four ranks, a
    (block, *) -> (cyclic(3), *) copy takes 14 ms so against 28 ms as the
    mesh on a 2-core x86-64 host); the ``np.ix_`` open mesh of the vectors when several are not.
    Either way the selection has the shape of ``positions``, in C order.
    """
    parts: list = []
    for pos in positions:
        if len(pos) == 0:
            parts.append(slice(0, 0))
            continue
        step = int(pos[1] - pos[0]) if len(pos) > 1 else 1
        if len(pos) > 2 and np.any(np.diff(pos) != step):
            parts.append(pos)
        else:
            parts.append(slice(int(pos[0]), int(pos[-1]) + 1, step))
    vectors = sum(1 for part in parts if type(part) is not slice)
    if vectors == 0 or vectors == 1:
        return tuple(parts)
    return np.ix_(*positions)


def progression_slice(positions: range) -> slice:
    """:func:`block_index`'s slice for positions known as a ``range``."""
    if not positions:
        return slice(0, 0)
    return slice(positions[0], positions[-1] + 1, positions.step if len(positions) > 1 else 1)


def holder_index(h: Holder) -> tuple:
    """Index of a holder's owned elements in the global array, worked out
    once per layout (memoised on the shared holder table): slices straight
    from the progressions, :func:`block_index` of the members only where
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
        self._blocks: dict[int, np.ndarray] = {}
        #: rank -> its local block; read-only, so a block is written, never rebound
        self.blocks = MappingProxyType(self._blocks)
        self._freed = False
        table = self.layout.table
        #: the ``(rank, nbytes)`` set the machine accounts for this version;
        #: all ranks or none: nothing is placed unless every rank fits
        itemsize = self.dtype.itemsize
        self._accounted = tuple((h.rank, h.elements * itemsize) for h in table)
        machine.allocate_set(name, self._accounted)
        #: the version's one buffer, every holder's block at its offset
        #: (``None`` where a subclass places the blocks elsewhere)
        self.data: np.ndarray | None = None
        try:
            self.data = self._new_buffer()
            for h in table:
                self._blocks[h.rank] = self._new_block(h)
        except BaseException:  # an allocation failed: give back what was placed
            self.free()
            raise

    # -- storage hooks (subclasses may place blocks elsewhere) ----------------

    def _new_buffer(self) -> np.ndarray | None:
        """The zeroed buffer the blocks view (private heap storage here;
        :class:`~repro.spmd.transport.SharedDistributedArray` has none and
        overrides the block hooks to place blocks in the transport's shared
        arenas)."""
        return np.zeros(self.layout.size, dtype=self.dtype)

    def _new_block(self, h: Holder) -> np.ndarray:
        """Holder ``h``'s zeroed local block: its view of the buffer."""
        return self.data[h.offset : h.offset + h.elements].reshape(h.local_shape)

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
        for rank, block in self._blocks.items():
            self._release_block(rank, block)
        self._blocks.clear()
        self.data = None
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
        """Apply ``fn(block, axis=...)`` independently on every processor,
        writing the result through into the block.

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
                out = fn(block, axis)
                if np.shape(out) != block.shape:
                    raise ShapeError(
                        f"kernel changed the local shape of {self.name} on rank "
                        f"{rank}: {block.shape} -> {np.shape(out)}"
                    )
                block[...] = out

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
