"""Distributed array storage: one buffer per array version.

A :class:`DistributedArray` is the runtime instance of one *array version*
(one statically mapped copy in the paper's scheme).  Each holding processor
stores exactly its owned elements, densely packed in the local numbering
defined by the layout, as one block of the version's buffer
(:attr:`DistributedArray.data`): the holders' blocks back to back in the
holder table's order, each at its holder's ``offset`` -- on every
backend: private heap memory here, one region of the transport's shared
arena for :class:`~repro.spmd.transport.SharedDistributedArray`, which
changes only where the buffer lives.  ``blocks[rank]`` is
that block as a view, in a read-only mapping, so a kernel writes through
it and cannot rebind it.  A new version's buffer is zeroed.  A heap
version a run frees is retired instead (:meth:`~DistributedArray.retire`:
the accounting goes back, the buffer and views stay) and revived
(:meth:`~DistributedArray.revive`: accounted again and refilled) as the
run's next version of the same layout and dtype --
:class:`~repro.runtime.memory.MemoryManager` keeps a stack of such
spares per layout -- so a block view is valid only while its version lives.  Which
ranks hold a block, of what shape, where it
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
        #: the ``(rank, nbytes)`` set the machine accounts for this version;
        #: all ranks or none, before any storage is placed
        itemsize = self.dtype.itemsize
        self._accounted = tuple((h.rank, h.elements * itemsize) for h in self.layout.table)
        self._nbytes = sum(nbytes for _, nbytes in self._accounted)
        machine.allocate_set(name, self._accounted)
        try:
            #: the version's one buffer, zeroed when new, every holder's block
            #: at its offset; ``None`` once :meth:`free` dropped it or
            #: :meth:`retire` took it
            self.data: np.ndarray | None = self._new_buffer()
        except BaseException:  # nothing was placed: give the accounting back
            machine.free_set(self._accounted)
            raise
        self._view_blocks()

    def _view_blocks(self) -> None:
        """Set every holder's block to its view of :attr:`data`."""
        data = self.data
        for h in self.layout.table:
            self._blocks[h.rank] = data[h.offset : h.offset + h.elements].reshape(h.local_shape)

    # -- storage hooks (a subclass may place the buffer elsewhere) -------------

    def _new_buffer(self) -> np.ndarray:
        """A zeroed buffer for the blocks to view: private heap storage here,
        the transport's shared arena for
        :class:`~repro.spmd.transport.SharedDistributedArray`."""
        return np.zeros(self.layout.size, dtype=self.dtype)

    def _release_buffer(self) -> None:
        """Give back what :meth:`_new_buffer` acquired (nothing for the heap)."""

    # -- lifetime ------------------------------------------------------------

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mapping.shape

    def free(self) -> None:
        """Release storage and memory accounting (idempotent)."""
        if self.data is not None:
            self._release_buffer()
            self._blocks.clear()
            self.retire()

    def retire(self) -> np.ndarray | None:
        """Free the version but keep its storage: the machine accounting
        goes back and :attr:`data` reads ``None``, while the block views
        stay.  Returns the buffer (``None`` if already freed), which
        :meth:`revive` takes back."""
        data = self.data
        if data is not None:
            self.machine.free_set(self._accounted)
            self.data = None
        return data

    def revive(self, name: str, mapping: Mapping, data: np.ndarray, fill: float) -> None:
        """Make this retired version ``name``, of ``mapping`` (same
        signature), on its kept buffer ``data``, every element ``fill``.
        The machine accounts it first -- the one fit check -- so an
        :exc:`~repro.errors.OutOfMemoryError` leaves it retired."""
        self.machine.allocate_set(name, self._accounted)
        data.fill(fill)
        self.name = name
        self.mapping = mapping
        self.data = data

    @property
    def freed(self) -> bool:
        return self.data is None

    def total_local_bytes(self) -> int:
        """The bytes the machine accounts for this version, over all ranks."""
        return self._nbytes

    # -- scatter / gather (bookkeeping, not counted as traffic) -----------------

    def _live_blocks(self) -> list[tuple[np.ndarray, tuple]]:
        """``(block, index of its elements in the global array)`` per holder."""
        if self.data is None:
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
        """Apply ``fn`` along array dimension ``axis`` of every holder's block,
        writing the result through into the version's buffer.

        This is genuine SPMD-local computation: it requires the swept
        dimension to be local (undistributed), which is exactly the property
        remappings exist to establish (e.g. ADI sweeps, FFT stages).  The
        holders' blocks are stacked, not visited one by one: for each of the
        layout's :attr:`~repro.mapping.ownership.Layout.runs` -- consecutive
        holders whose blocks have one shape, adjacent in :attr:`data` -- one
        call ``fn(stack, axis + 1)`` on the ``(holders, *local_shape)`` view
        of the run, so a layout whose blocks all have one shape is one call
        per sweep and a ragged one a call per run (an empty run, none).
        ``fn(x, axis)`` must return an array of ``x``'s shape, acting along
        ``axis`` and treating every other index -- the leading holder index
        among them -- independently, as ``np.fft.fft`` and ``np.cumsum`` do:
        each holder's block is then swept exactly as on its own.
        """
        if not self.layout.dim_is_local(axis):
            raise ShapeError(
                f"dimension {axis} of {self.name} is distributed; remap first "
                f"(this is what the paper's remappings are for)"
            )
        data = self.data
        if data is None:
            raise RuntimeRemapError(f"array {self.name} has been freed")
        for start, stop, shape in self.layout.runs:
            if start == stop:
                continue
            stack = data[start:stop].reshape(shape)
            out = fn(stack, axis + 1)
            if np.shape(out) != shape:
                ranks = [h.rank for h in self.layout.table if start <= h.offset < stop]
                raise ShapeError(
                    f"kernel changed the local shape of {self.name} on ranks {ranks}: "
                    f"{shape} -> {np.shape(out)}"
                )
            stack[...] = out

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
