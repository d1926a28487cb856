"""Per-array runtime descriptors (paper Sec. 5.1).

"Some data structure must be managed at run time to store the needed
information, namely the current status of the array (which array version is
the current one and may be referenced) and the live copies."

The descriptor itself -- status, live flags, per-version storage handles,
caller-owned versions, the poisoned flag -- is
:class:`repro.remap.walker.ArrayDescriptor`, shared with every consumer of
the runtime semantics.  :class:`ArrayRuntime` is that descriptor over real
:class:`~repro.spmd.darray.DistributedArray` storage: freeing a version
releases its blocks, and the values themselves can be checked.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeadCopyError
from repro.remap.walker import ArrayDescriptor
from repro.spmd.darray import DistributedArray


class ArrayRuntime(ArrayDescriptor):
    """Runtime state of one (abstract) array: all its versions, with storage."""

    # -- queries -------------------------------------------------------------

    def check_live_copies_consistent(self) -> bool:
        """Invariant: every live copy holds the same values (test hook)."""
        refs = [
            self.insts[v].gather_to_global()
            for v in self.live_versions()
            if self.insts[v] is not None
        ]
        return all(np.array_equal(refs[0], r, equal_nan=True) for r in refs[1:])

    def require_current_values(self) -> DistributedArray:
        inst = self.insts[self.status]
        if inst is None or not self.live[self.status]:
            raise DeadCopyError(
                f"array {self.name!r}: current copy {self.name}_{self.status} "
                "holds no values"
            )
        if self.poisoned:
            raise DeadCopyError(
                f"array {self.name!r} read after kill: its values are dead "
                "(the program violates its own kill assertion)"
            )
        return inst

    # -- mutation helpers ------------------------------------------------------

    def free_version(self, v: int) -> int:
        """Free one version's storage (unless caller-owned); returns bytes freed."""
        inst = self.insts[v]
        self.live[v] = False
        if inst is None or v in self.caller_owned:
            return 0
        nbytes = inst.total_local_bytes()
        inst.free()
        self.insts[v] = None
        return nbytes
