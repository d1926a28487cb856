"""Distribution formats (HPF ``DISTRIBUTE`` directive).

Each template dimension is distributed with one format:

* ``BLOCK``        -- contiguous chunks of ``ceil(N/P)`` cells per processor;
* ``BLOCK(k)``     -- contiguous chunks of exactly ``k`` (requires k*P >= N);
* ``CYCLIC``       -- round-robin single cells (= ``CYCLIC(1)``);
* ``CYCLIC(k)``    -- round-robin chunks of ``k`` (block-cyclic);
* ``*``            -- dimension not distributed (whole extent on every
                      processor along no grid dimension).

Non-``*`` formats consume processor-grid dimensions left to right, exactly
as in HPF.  ``BLOCK`` is represented canonically as ``BLOCK(ceil(N/P))`` and
``CYCLIC`` as ``CYCLIC(1)`` so that mapping equality is structural.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import MappingError, ShapeError
from repro.mapping.processors import ProcessorArrangement
from repro.mapping.template import Template
from repro.util.intervals import IntervalSet


class DistKind(enum.Enum):
    BLOCK = "block"
    CYCLIC = "cyclic"
    STAR = "*"


@dataclass(frozen=True)
class DistFormat:
    """One template dimension's distribution format."""

    kind: DistKind
    #: the ``k`` of ``BLOCK(k)``/``CYCLIC(k)``; None = default (ceil(N/P)
    #: for BLOCK, 1 for CYCLIC)
    size: int | None = None

    @classmethod
    def block(cls, k: int | None = None) -> "DistFormat":
        if k is not None and k <= 0:
            raise MappingError("BLOCK(k) requires k > 0")
        return cls(DistKind.BLOCK, k)

    @classmethod
    def cyclic(cls, k: int | None = None) -> "DistFormat":
        if k is not None and k <= 0:
            raise MappingError("CYCLIC(k) requires k > 0")
        return cls(DistKind.CYCLIC, k)

    @classmethod
    def star(cls) -> "DistFormat":
        return cls(DistKind.STAR)

    @property
    def is_distributed(self) -> bool:
        return self.kind is not DistKind.STAR

    def resolve_block(self, extent: int, procs: int) -> int:
        """Concrete chunk size for this format on ``extent`` cells / ``procs`` procs."""
        if self.kind is DistKind.BLOCK:
            b = self.size if self.size is not None else -(-extent // procs)
            if b * procs < extent:
                raise ShapeError(
                    f"BLOCK({b}) cannot hold extent {extent} on {procs} processors"
                )
            return b
        if self.kind is DistKind.CYCLIC:
            return self.size if self.size is not None else 1
        raise MappingError("'*' format has no block size")

    def __str__(self) -> str:
        if self.kind is DistKind.STAR:
            return "*"
        name = self.kind.value.upper()
        return f"{name}({self.size})" if self.size is not None else name


def owned_cells(
    kind: DistKind, block: int, proc: int, nprocs: int, extent: int
) -> IntervalSet:
    """Template cells of one dimension owned by grid coordinate ``proc``.

    For ``BLOCK(b)`` processor p owns ``[p*b, (p+1)*b)``; for ``CYCLIC(b)``
    it owns runs of ``b`` every ``nprocs*b`` starting at ``p*b``.  Both are
    clipped to ``[0, extent)``.
    """
    if kind is DistKind.STAR:
        return IntervalSet.range(0, extent)
    if kind is DistKind.BLOCK:
        return IntervalSet.range(proc * block, (proc + 1) * block) & IntervalSet.range(0, extent)
    if kind is DistKind.CYCLIC:
        return IntervalSet.strided_runs(proc * block, block, nprocs * block, 0, extent)
    raise MappingError(f"unknown distribution kind {kind}")


def owner_coord(kind: DistKind, block: int, nprocs: int, cell: int) -> int:
    """Grid coordinate owning template ``cell`` (STAR dims own everywhere)."""
    if kind is DistKind.STAR:
        raise MappingError("'*' dimension has no single owner coordinate")
    if kind is DistKind.BLOCK:
        return cell // block
    return (cell // block) % nprocs


@dataclass(frozen=True)
class Distribution:
    """A template distributed onto a processor arrangement."""

    template: Template
    formats: tuple[DistFormat, ...]
    processors: ProcessorArrangement

    def __post_init__(self) -> None:
        if len(self.formats) != self.template.rank:
            raise ShapeError(
                f"distribution of {self.template.name} needs {self.template.rank} "
                f"formats, got {len(self.formats)}"
            )
        ndist = sum(1 for f in self.formats if f.is_distributed)
        if ndist != self.processors.rank:
            raise ShapeError(
                f"{ndist} distributed dimensions but processor arrangement "
                f"{self.processors.name} has rank {self.processors.rank}"
            )
        # force block-size resolution now so errors surface at declaration
        for d, f in enumerate(self.formats):
            if f.is_distributed:
                f.resolve_block(self.template.shape[d], self._proc_extent(d))

    def _proc_dim(self, template_dim: int) -> int | None:
        """Processor-grid dimension consumed by a template dimension."""
        if not self.formats[template_dim].is_distributed:
            return None
        return sum(1 for f in self.formats[:template_dim] if f.is_distributed)

    def _proc_extent(self, template_dim: int) -> int:
        pd = self._proc_dim(template_dim)
        return 1 if pd is None else self.processors.shape[pd]

    def proc_dim_of(self, template_dim: int) -> int | None:
        return self._proc_dim(template_dim)

    def resolved(self, template_dim: int) -> tuple[DistKind, int, int | None, int]:
        """(kind, block, proc_dim, nprocs) with defaults resolved, per dimension."""
        f = self.formats[template_dim]
        pd = self._proc_dim(template_dim)
        n = 1 if pd is None else self.processors.shape[pd]
        if f.kind is DistKind.STAR:
            return (DistKind.STAR, 0, None, 1)
        return (f.kind, f.resolve_block(self.template.shape[template_dim], n), pd, n)

    def __str__(self) -> str:
        body = ", ".join(str(f) for f in self.formats)
        return f"DISTRIBUTE {self.template.name}({body}) ONTO {self.processors.name}"
