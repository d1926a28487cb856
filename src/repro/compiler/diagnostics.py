"""Unified compile-time diagnostics.

One :class:`CompileReport` per compilation aggregates what used to be
scattered per-subroutine fields: front-end warnings, loop-invariant motion
results (:class:`~repro.remap.motion.MotionReport`), useless-remapping
removal results (:class:`~repro.remap.optimize.RemovalReport`), and the
pipeline's per-pass trace.  The textual ``compilation_report`` renderer and
the session API both read from this surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lang.ast_nodes import (
    ArrayDecl,
    Call,
    Compute,
    DynamicDecl,
    Kill,
    Program,
    Realign,
    Redistribute,
    walk_statements,
)
from repro.remap.motion import MotionReport, alignment_families
from repro.remap.optimize import RemovalReport

if TYPE_CHECKING:
    from repro.compiler.pipeline import PipelineTrace
    from repro.spmd.traffic import TrafficRange


@dataclass(frozen=True)
class Diagnostic:
    """One compiler message: a warning or an informational note."""

    severity: str  # "warning" | "note"
    message: str
    subroutine: str | None = None
    pass_name: str | None = None

    def __str__(self) -> str:
        where = f" [{self.subroutine}]" if self.subroutine else ""
        return f"{self.severity}{where}: {self.message}"


@dataclass
class CompileReport:
    """Everything the compiler has to say about one compilation."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    motion: dict[str, MotionReport] = field(default_factory=dict)
    removal: dict[str, RemovalReport] = field(default_factory=dict)
    #: per-subroutine predicted traffic over the runtime-unknown scenario
    #: space, filled by the ``traffic-estimate`` pass when it runs
    traffic: dict[str, "TrafficRange"] = field(default_factory=dict)
    trace: "PipelineTrace | None" = None

    # -- collection ----------------------------------------------------------

    def add(
        self,
        severity: str,
        message: str,
        subroutine: str | None = None,
        pass_name: str | None = None,
    ) -> None:
        self.diagnostics.append(Diagnostic(severity, message, subroutine, pass_name))

    # -- aggregate queries ---------------------------------------------------

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def removed_count(self) -> int:
        """Useless remappings removed, summed over all subroutines."""
        return sum(r.removed_count for r in self.removal.values())

    @property
    def motion_count(self) -> int:
        """Loop-invariant remappings sunk, summed over all subroutines."""
        return sum(r.count for r in self.motion.values())

    @property
    def motion_rejected_count(self) -> int:
        """Legal sinks the cost guard refused, summed over all subroutines."""
        return sum(r.rejected_count for r in self.motion.values())

    def summary(self) -> str:
        lines = [
            f"diagnostics: {len(self.warnings)} warning(s)",
            f"useless remappings removed: {self.removed_count}",
            f"loop-invariant remappings sunk: {self.motion_count}"
            + (
                f" ({self.motion_rejected_count} rejected by the cost guard)"
                if self.motion_rejected_count
                else ""
            ),
        ]
        for d in self.diagnostics:
            lines.append(f"  {d}")
        for name, rng in sorted(self.traffic.items()):
            lines.append(f"predicted traffic [{name}]: {rng.describe()}")
        if self.trace is not None:
            lines.append(self.trace.summary())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# front-end warnings
# ---------------------------------------------------------------------------


def frontend_warnings(program: Program) -> list[Diagnostic]:
    """Static lint over the parsed AST, run by the resolve pass.

    * ``dynamic`` arrays that no remapping statement can ever touch (not
      even through their alignment family) pay versioning for nothing;
    * arrays never referenced and never remapped are dead weight.
    """
    out: list[Diagnostic] = []
    for sub in program.subroutines:
        dynamic: set[str] = set()
        declared: set[str] = set()
        for d in sub.decls:
            if isinstance(d, DynamicDecl):
                dynamic.update(d.names)
            if isinstance(d, ArrayDecl):
                declared.add(d.name)

        families = alignment_families(sub)

        def family_of(name: str) -> frozenset[str]:
            for fam in families.values():
                if name in fam:
                    return fam
            return frozenset({name})

        remapped: set[str] = set()
        referenced: set[str] = set()
        for s in walk_statements(sub.body):
            if isinstance(s, Realign):
                remapped.update(family_of(s.alignee))
            elif isinstance(s, Redistribute):
                remapped.update(family_of(s.target))
            elif isinstance(s, Compute):
                referenced.update(s.reads + s.writes + s.defines)
            elif isinstance(s, Call):
                referenced.update(s.args)
            elif isinstance(s, Kill):
                referenced.update(s.names)

        for name in sorted(dynamic - remapped):
            out.append(
                Diagnostic(
                    "warning",
                    f"array {name!r} is declared dynamic but never remapped",
                    subroutine=sub.name,
                    pass_name="resolve",
                )
            )
        for name in sorted(declared - referenced - remapped):
            out.append(
                Diagnostic(
                    "warning",
                    f"array {name!r} is never referenced",
                    subroutine=sub.name,
                    pass_name="resolve",
                )
            )
    return out
