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
  replica copies locally instead of receiving a message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ShapeError
from repro.mapping.ownership import Layout
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
    value for one rectangle, worked out once by :func:`prepare_move`.
    :meth:`execute` -- one NumPy assignment -- is the only data-movement
    primitive: the simulator (under every policy, ``None`` included) and
    the mp backend (local copies in the parent, wire parts in the workers)
    both move data through it or through its two index tuples.

    Each index is a tuple of basic ``slice`` objects when every
    dimension's positions form an arithmetic progression (always for
    block <-> cyclic), the ``np.ix_`` open mesh of position vectors
    otherwise -- never a mix.
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


def prepare_move(t: Transfer, src_lay: Layout, dst_lay: Layout) -> PreparedMove:
    """Lower one non-empty transfer to its copy descriptor.

    The only place block positions are worked out: the global index sets
    are located inside the sender's and the receiver's owned sets by
    :func:`~repro.spmd.darray.positions_in`, whose containment check
    rejects a transfer the two layouts do not support.
    """
    src_owned = src_lay.owned(src_lay.procs.coords(t.src_rank))
    dst_owned = dst_lay.owned(dst_lay.procs.coords(t.dst_rank))
    assert src_owned is not None and dst_owned is not None
    src_pos, dst_pos = (
        tuple(positions_in(o, s) for o, s in zip(owned, t.index_sets))
        for owned in (src_owned, dst_owned)
    )
    shape = tuple(len(pos) for pos in src_pos)
    return PreparedMove(
        t.src_rank,
        t.dst_rank,
        block_index(src_pos),
        block_index(dst_pos),
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

    def total_elements(self) -> int:
        return sum(t.elements for t in self.transfers)

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
    for q in src.holders():
        key = src.class_key(q)
        if key not in classes:
            owned = src.owned(q)
            assert owned is not None
            classes[key] = owned

    transfers: list[Transfer] = []
    for qd in dst.holders():
        dst_owned = dst.owned(qd)
        assert dst_owned is not None
        if any(len(s) == 0 for s in dst_owned):
            continue
        dst_rank = dst.procs.linear_rank(qd)
        # the receiver's identity viewed through the source grid, so that a
        # receiver already holding a source replica copies locally
        qd_in_src = src.procs.coords(dst_rank)
        for key, src_owned in classes.items():
            isect = tuple(a & b for a, b in zip(src_owned, dst_owned))
            if any(len(s) == 0 for s in isect):
                continue
            sender = src.sender_for(key, qd_in_src)
            transfers.append(
                Transfer(src.procs.linear_rank(sender), dst_rank, isect)
            )
    return RedistSchedule(transfers)
