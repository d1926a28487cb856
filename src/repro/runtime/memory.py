"""Memory manager with live-copy eviction (paper Sec. 5.2).

"Another benefit from this dynamic live mapping management is that the
runtime can decide to free a live copy if not enough memory is available
and to change the corresponding liveness status.  If required later on the
copy will be regenerated."

Allocation first checks whether the new version's per-processor blocks fit
under the machine's memory limit (a machine without one has nothing to
check, so the per-rank map is not even built); if not, live non-current
copies are evicted (largest first) until it does.  The evicted copy's live flag flips
to false, so a later remapping back to it simply regenerates it with
communication -- the generated code already handles that case because it
never assumes a kept copy is live (Fig. 19's ``liveA`` tests).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.errors import OutOfMemoryError
from repro.mapping.mapping import Mapping
from repro.mapping.ownership import layout_of
from repro.runtime.status import ArrayRuntime
from repro.spmd.darray import DistributedArray
from repro.spmd.machine import Machine


def blocks_needed(mapping: Mapping, machine: Machine, itemsize: int) -> dict[int, int]:
    """Bytes the mapping's storage needs on each linear rank."""
    return {h.rank: h.elements * itemsize for h in layout_of(mapping).table}


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
        # how to build storage once the budget check passes; the mp backend
        # substitutes shared-arena arrays here, everything else gets the
        # plain heap-backed DistributedArray
        self._factory = array_factory or DistributedArray

    def _fits(self, needed: dict[int, int]) -> bool:
        return all(self.machine.would_fit(rank, b) for rank, b in needed.items())

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
        self, name: str, mapping: Mapping, dtype=np.float64
    ) -> DistributedArray:
        if self.machine.memory_limit is not None:  # else everything fits
            needed = blocks_needed(mapping, self.machine, np.dtype(dtype).itemsize)
            while not self._fits(needed):
                if not self._evict_one():
                    raise OutOfMemoryError(
                        f"cannot allocate {name}: memory limit reached and no live "
                        "copy is evictable"
                    )
        return self._factory(name, mapping, self.machine, dtype)
