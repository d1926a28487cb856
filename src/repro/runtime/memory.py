"""Memory manager with live-copy eviction (paper Sec. 5.2).

"Another benefit from this dynamic live mapping management is that the
runtime can decide to free a live copy if not enough memory is available
and to change the corresponding liveness status.  If required later on the
copy will be regenerated."

Allocation builds the new version; its one fit check is the machine's
(:meth:`~repro.spmd.machine.Machine.allocate_set`, every rank's block
accounted before any storage is placed).  When it raises
:exc:`~repro.errors.OutOfMemoryError`, nothing was placed, so the largest
live non-current copy is evicted and the allocation retried, until the
version fits or nothing is left to evict.  The evicted copy's live flag flips
to false, so a later remapping back to it simply regenerates it with
communication -- the generated code already handles that case because it
never assumes a kept copy is live (Fig. 19's ``liveA`` tests).

A remapping loop swaps each array between the same few layouts, so a
freed heap version is not dropped: its accounting goes back to the machine
(:meth:`MemoryManager.release`) and its buffer and block views stay as a
spare of the run, stacked under its ``(mapping signature, dtype)``.  The
next allocation of that key revives the latest spare -- the same fit
check, eviction retry and error, the buffer refilled -- instead of
building a version.  A stack of up to :data:`SPARES_PER_LAYOUT`, not one
slot: two arrays of one extent that swap layouts in lockstep each leave a
spare of the layout the other takes next.  A version freed onto a full
stack is freed outright, so a phase that frees many versions of one layout
leaves no more than that many buffers behind.
The spares hold no reference back to the manager, and the executor drops
them when its run ends (:meth:`MemoryManager.drop_spares`), so their
buffers go with the run, not with a later cyclic collection.  The mp
backend's arena arrays have their own allocator and get no spares.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.errors import OutOfMemoryError
from repro.mapping.mapping import Mapping
from repro.runtime.status import ArrayRuntime
from repro.spmd.darray import DistributedArray
from repro.spmd.machine import Machine

#: the most spares kept per ``(mapping signature, dtype)``: enough for two
#: arrays swapping one pair of layouts in lockstep
SPARES_PER_LAYOUT = 2


class MemoryManager:
    """Allocates array versions on the machine, evicting live copies if needed."""

    def __init__(
        self,
        machine: Machine,
        candidates: Callable[[], Iterable[tuple[ArrayRuntime, int]]] | None = None,
        array_factory: Callable[..., DistributedArray] | None = None,
    ):
        self.machine = machine
        # enumerate (descriptor, version) pairs that may be evicted
        self._candidates = candidates or (lambda: ())
        # how to build storage: the mp backend substitutes shared-arena
        # arrays here, everything else gets the heap-backed DistributedArray
        self._factory = array_factory or DistributedArray
        #: (mapping signature, dtype) -> the retired heap versions of that
        #: layout and their buffers, the latest last; kept only for heap
        #: storage
        self._spares: dict[tuple, list[tuple[DistributedArray, np.ndarray]]] = {}
        self._recycles = array_factory is None

    def _evict_one(self) -> bool:
        best: tuple[ArrayRuntime, int] | None = None
        best_size = -1
        for state, v in self._candidates():
            if v == state.status or v in state.caller_owned:
                continue
            inst = state.insts[v]
            if inst is None or not state.live[v]:
                continue
            size = inst.total_local_bytes()
            if size > best_size:
                best, best_size = (state, v), size
        if best is None:
            return False
        state, v = best
        state.free_version(v)
        self.machine.stats.evictions += 1
        return True

    def allocate(
        self, name: str, mapping: Mapping, dtype=np.float64, poison: bool = False
    ) -> DistributedArray:
        """A version ``name`` of ``mapping``: zeroed, or NaN-filled when
        ``poison`` (its values are dead on arrival)."""
        dtype = np.dtype(dtype)
        fill = np.nan if poison else 0
        key = (mapping.signature, dtype)
        while True:
            try:
                # read each try: an eviction may have left a spare of this key
                spares = self._spares.get(key)
                spare = spares.pop() if spares else None
                if spare is None:
                    inst = self._factory(name, mapping, self.machine, dtype)
                    if poison:
                        inst.data.fill(fill)
                    return inst
                inst, data = spare
                try:
                    inst.revive(name, mapping, data, fill)
                except OutOfMemoryError:
                    spares.append(spare)  # still retired: keep it
                    raise
                return inst
            except OutOfMemoryError as exc:
                if not self._evict_one():
                    raise OutOfMemoryError(
                        f"cannot allocate {name}: memory limit reached and no live "
                        "copy is evictable"
                    ) from exc

    def release(self, inst: DistributedArray) -> None:
        """Free one version; a heap version's storage goes on the spares of
        its layout, unless :data:`SPARES_PER_LAYOUT` are kept already."""
        if self._recycles:
            spares = self._spares.setdefault((inst.mapping.signature, inst.dtype), [])
            if len(spares) < SPARES_PER_LAYOUT:
                data = inst.retire()
                if data is not None:
                    spares.append((inst, data))
                return
        inst.free()

    def drop_spares(self) -> None:
        """Let every spare go (the end of the run)."""
        self._spares.clear()
