"""Remapping copies: exact message schedules between two mappings.

Given source and target layouts of the same index space, the schedule
enumerates, for every (sender, receiver) processor pair, the rectangular
index sets (per-dimension interval-set intersections of block-cyclic
ownership) the pair must exchange.  This is the classical efficient
block-cyclic redistribution computation (Prylli & Tourancheau, Euro-Par'96,
cited as [19] in the paper) generalized to affine alignments, replication
and pinning.

Properties the tests enforce:

* **exact cover** -- each receiver receives each of its owned elements
  exactly once;
* **locality** -- when an element's sender and receiver coincide the
  transfer is a local copy (no message), so remapping to the *same* mapping
  generates zero messages;
* **replication awareness** -- a receiver that already holds a source
  replica copies locally instead of receiving a message;
* **descriptor identity** -- :func:`prepare_move` lowers a transfer to
  block positions by integer arithmetic on the two mappings wherever the
  index sets and the ownership are intervals or progressions, and
  by locating every member (:func:`~repro.spmd.darray.positions_in`)
  elsewhere; both produce the same descriptor and reject the same
  transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ShapeError
from repro.mapping.ownership import Holder, Layout, dim_position
from repro.spmd.darray import DistributedArray, block_index, positions_in
from repro.util.intervals import IntervalSet


@dataclass(frozen=True)
class Transfer:
    """One (sender, receiver) exchange of a rectangular index set."""

    src_rank: int
    dst_rank: int
    index_sets: tuple[IntervalSet, ...]  # per array dimension, global indices

    @property
    def elements(self) -> int:
        n = 1
        for s in self.index_sets:
            n *= len(s)
        return n

    @property
    def is_local(self) -> bool:
        return self.src_rank == self.dst_rank


@dataclass(frozen=True, slots=True)
class PreparedMove:
    """One copy descriptor: a transfer lowered to block positions.

    Everything about a remapping copy except the data is a pure function
    of the (source, target) mapping pair; a descriptor is that function's
    value for one rectangle, worked out once by :func:`prepare_move`.  Its
    two index tuples are the only form data moves in: :meth:`execute`
    (one NumPy assignment per descriptor), a fine-grained plan's gather
    (the tuples of all its descriptors as positions in the two array
    versions' buffers, :class:`~repro.spmd.schedule.LoweredPlan`), and the
    mp backend's local copies in the parent and wire parts in the workers.

    Each index is a tuple of basic ``slice`` objects when every
    dimension's positions form an arithmetic progression (always for
    block <-> cyclic), else :func:`~repro.spmd.darray.block_index`'s: a
    position vector in the one dimension that is not one, the ``np.ix_``
    open mesh of position vectors where several are not.
    """

    src_rank: int
    dst_rank: int
    src_ix: tuple
    dst_ix: tuple
    shape: tuple[int, ...]  # elements per dimension
    elements: int

    @property
    def is_local(self) -> bool:
        return self.src_rank == self.dst_rank

    @property
    def is_basic(self) -> bool:
        """True when both indices are basic slices: one strided copy."""
        return all(type(ix) is slice for ix in self.src_ix + self.dst_ix)

    def execute(self, source: DistributedArray, target: DistributedArray) -> None:
        target.blocks[self.dst_rank][self.dst_ix] = source.blocks[self.src_rank][
            self.src_ix
        ]


def _dim_slice(m, coord: int, own: range | None, sub: range | None) -> slice | None:
    """One dimension of :func:`_located` by integer arithmetic: the slice
    of index set ``sub`` inside the owned set (``own`` when that is a
    progression), ``None`` where there is no closed form;
    :exc:`~repro.errors.ShapeError` if ``sub`` is not owned."""
    if sub is None or (own is None and sub.step > 1):
        return None
    if not sub:
        return slice(0, 0)
    try:
        if own is not None:
            first, last = own.index(sub[0]), own.index(sub[-1])
            # both ends are members: so is everything between iff the steps nest
            step = 1 if len(sub) == 1 else sub.step // own.step
            contained = len(sub) == 1 or sub.step % own.step == 0
        else:
            first, last = dim_position(m, coord, sub[0]), dim_position(m, coord, sub[-1])
            if first is None:
                return None
            # an interval, ends owned: all of it is iff the positions are as far apart
            step, contained = 1, last - first == len(sub) - 1
    except ValueError:
        contained = False
    if not contained:
        raise ShapeError("subset not contained in owned index set")
    return slice(first, last + 1, step)


def _located(h: Holder, index_sets: tuple[IntervalSet, ...], subsets: tuple) -> tuple:
    """Index of the ``index_sets`` (``subsets``: each as a progression, or
    None) inside holder ``h``'s block: slices by :func:`_dim_slice` when
    every dimension has a closed form, else the general path -- every
    member located by :func:`~repro.spmd.darray.positions_in`.  The slices
    are :func:`~repro.spmd.darray.block_index`'s whichever path built them.
    """
    slices = []
    for (m, coord), own, sub in zip(h.dims, h.progressions, subsets):
        located = _dim_slice(m, coord, own, sub)
        if located is None:
            return block_index(tuple(positions_in(o, s) for o, s in zip(h.owned, index_sets)))
        slices.append(located)
    return tuple(slices)


def prepare_move(t: Transfer, src_lay: Layout, dst_lay: Layout) -> PreparedMove:
    """Lower one non-empty transfer to its copy descriptor.

    The only place block positions are worked out: the global index sets
    are located inside the sender's and the receiver's owned sets (see
    :func:`_located`), and a transfer the two layouts do not support is
    rejected with :exc:`~repro.errors.ShapeError`.
    """
    src, dst = src_lay.holder(t.src_rank), dst_lay.holder(t.dst_rank)
    if src is None or dst is None:
        raise ShapeError(f"rank {t.src_rank if src is None else t.dst_rank} holds nothing to copy")
    subsets = tuple(s.progression() for s in t.index_sets)
    shape = tuple(len(s if p is None else p) for s, p in zip(t.index_sets, subsets))
    return PreparedMove(
        t.src_rank,
        t.dst_rank,
        _located(src, t.index_sets, subsets),
        _located(dst, t.index_sets, subsets),
        shape,
        math.prod(shape),
    )


@dataclass
class RedistSchedule:
    """The transfers of one remapping copy: a pure enumeration.

    *Which* index sets move between *which* ranks, local copies and
    messages interleaved in receiver order.  Executing them is a plan's
    job (:func:`~repro.spmd.schedule.build_comm_schedule` turns the
    enumeration into one, under a policy or under ``None``).
    """

    transfers: list[Transfer]

    @property
    def message_count(self) -> int:
        return sum(1 for t in self.transfers if not t.is_local)

    @property
    def local_count(self) -> int:
        return sum(1 for t in self.transfers if t.is_local)

    def moved_elements(self) -> int:
        return sum(t.elements for t in self.transfers if not t.is_local)


def build_schedule(src: Layout, dst: Layout) -> RedistSchedule:
    """Compute the exact transfer schedule for a copy ``dst = src``."""
    if src.mapping.shape != dst.mapping.shape:
        raise ShapeError(
            f"redistribution between different shapes {src.mapping.shape} vs "
            f"{dst.mapping.shape}"
        )
    # the two mappings may view the same linear processors through grids of
    # different rank (e.g. (4,) vs (2,2)); transfers are keyed by linear rank
    if dst.procs.size != src.procs.size:
        raise ShapeError("source and target mappings use different machines")

    # distinct source ownership classes: key = coords along consumed dims
    classes: dict[tuple[int, ...], tuple[IntervalSet, ...]] = {}
    for h in src.table:
        key = src.class_key(h.coords)
        if key not in classes:
            classes[key] = h.owned

    transfers: list[Transfer] = []
    for receiver in dst.table:
        if not receiver.elements:
            continue
        # the receiver's identity viewed through the source grid, so that a
        # receiver already holding a source replica copies locally
        qd_in_src = src.procs.coords(receiver.rank)
        for key, src_owned in classes.items():
            isect = tuple(a & b for a, b in zip(src_owned, receiver.owned))
            if any(len(s) == 0 for s in isect):
                continue
            sender = src.holder_at(src.sender_for(key, qd_in_src))
            transfers.append(Transfer(sender.rank, receiver.rank, isect))
    return RedistSchedule(transfers)
