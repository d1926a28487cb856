"""Compiled-program containers and compiler options.

``CompilerOptions`` is the stable user-facing knob.  An optimization
``level`` is sugar: it desugars to a *pass set* (see :data:`PASS_ORDER` and
:func:`passes_for_level`), and a custom pass list can be given directly via
``passes=...``, in which case ``level`` is ignored.  The pipeline machinery
itself lives in :mod:`repro.compiler.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ArtifactFrozenError
from repro.lang.semantics import ResolvedProgram, ResolvedSubroutine
from repro.remap.codegen import GeneratedCode
from repro.remap.construction import CallInfo, ConstructionResult
from repro.remap.graph import RemappingGraph, VersionTable
from repro.remap.motion import MotionReport
from repro.spmd.cost import CostModel
from repro.spmd.schedule import POLICIES

if TYPE_CHECKING:  # avoid cycles: pipeline/diagnostics import this module
    from repro.compiler.diagnostics import CompileReport
    from repro.compiler.pipeline import PipelineTrace


# ---------------------------------------------------------------------------
# pass names and level desugaring
# ---------------------------------------------------------------------------

#: Serialized-artifact schema version.  Bump whenever the *shape* of the
#: pickled :class:`CompiledProgram` graph changes (fields added/removed/
#: re-typed on any artifact dataclass, freeze machinery): the persistent
#: store (:mod:`repro.store`) mixes it into its schema fingerprint, so old
#: on-disk entries become invisible instead of being unpickled into a
#: mismatched object graph.
ARTIFACT_SCHEMA_VERSION = 7

#: Canonical pass order.  A pass set is always run in this order; which
#: sets are legal is decided by :class:`CompilerOptions` alone.
PASS_ORDER: tuple[str, ...] = (
    "parse",
    "motion",
    "symbolize",
    "resolve",
    "construction",
    "remove-useless",
    "live-copies",
    "status-checks",
    "codegen",
    "codegen-naive",
    "traffic-estimate",
    "verify",
)

#: Where each pass comes from in the paper (or which extension added it).
#: Rendered into ``docs/PASSES.md`` by
#: :func:`repro.compiler.report.pass_reference_table` and kept in sync by
#: ``tests/test_docs.py``.
PASS_ANCHORS: dict[str, str] = {
    "parse": "Sec. 2 (input language, Fig. 4/10 syntax)",
    "motion": "Fig. 16/17 (loop-invariant remapping motion)",
    "symbolize": "extension: PR 7 (symbolic-shape templates)",
    "resolve": "Sec. 2 (mapping semantics, restrictions 1-3)",
    "construction": "Appendix B (remapping-graph construction)",
    "remove-useless": "Appendix C (useless remapping removal)",
    "live-copies": "Appendix D (dynamic live copies M_A(v))",
    "status-checks": "Fig. 20 (runtime status guard)",
    "codegen": "Fig. 19/20 (copy code generation)",
    "codegen-naive": "Sec. 4 (naive always-copy baseline)",
    "traffic-estimate": "extension: PR 2 (static traffic oracle)",
    "verify": "extension: PR 6 (static artifact verifier)",
}


def passes_for_level(level: int) -> tuple[str, ...]:
    """Desugar an optimization level (paper Sec. 4) into a pass set.

    * ``0`` -- naive baseline: every remapping is an unconditional copy;
    * ``1`` -- + useless remapping removal (Appendix C) and runtime status
      checks (skip remappings whose target is already current);
    * ``2`` -- + dynamic live copies (Appendix D);
    * ``3`` -- + loop-invariant remapping motion (Fig. 16/17).
    """
    if level <= 0:
        names = {"parse", "resolve", "construction", "codegen-naive"}
    else:
        names = {
            "parse",
            "resolve",
            "construction",
            "remove-useless",
            "status-checks",
            "codegen",
        }
        if level >= 2:
            names.add("live-copies")
        if level >= 3:
            names.add("motion")
    return tuple(n for n in PASS_ORDER if n in names)


@dataclass(frozen=True)
class CompilerOptions:
    """Optimization levels (sugar) or a first-class custom pass list.

    * ``0`` -- naive baseline: every remapping is an unconditional copy;
    * ``1`` -- + useless remapping removal (Appendix C) and runtime status
      checks (skip remappings whose target is already current);
    * ``2`` -- + dynamic live copies (Appendix D): superseded copies worth
      keeping are kept and reused without communication;
    * ``3`` -- + loop-invariant remapping motion (Fig. 16/17).  Default.

    ``passes``, when given, overrides ``level`` entirely; the names must be
    drawn from :data:`PASS_ORDER` and are run in canonical order.  The
    options are the one place that decides which pass sets are legal:
    ``parse``, ``resolve`` and ``construction`` are mandatory, exactly one
    of ``codegen``/``codegen-naive`` generates the code, and
    ``status-checks`` cannot take effect under ``codegen-naive``.  Any
    other set raises ``ValueError`` here.

    ``cost`` supplies the machine's communication cost model.  It is a
    *compile-relevant* knob: the motion pass consults it to decide whether
    a remapping sink can pay for its status check, so two compilations with
    different cost models may produce different code (and must not share
    cached artifacts -- :class:`~repro.compiler.session.CompilerSession`
    keys on it).

    ``schedule`` opts into the communication-schedule subsystem: a policy
    name (``"naive"``, ``"round-robin"``, ``"aggregate"``) makes the
    executor run every remapping as a phased plan on the machine's phase
    clock and makes the cost guard and traffic estimator price the
    *scheduled* placement.  ``None`` (the default) runs every remapping as
    the degenerate plan: no phases, each transfer charged on its own (the
    unphased ledger).  It adds no pass -- plans are built on first use by
    the process's :data:`~repro.spmd.schedule.PLANS` -- but like ``cost``
    it is compile-relevant and part of session cache keys.
    """

    level: int = 3
    passes: tuple[str, ...] | None = None
    cost: CostModel = CostModel()
    schedule: str | None = None

    def __post_init__(self) -> None:
        if self.schedule is not None and self.schedule not in POLICIES:
            raise ValueError(
                f"unknown schedule policy {self.schedule!r}; "
                f"known: {list(POLICIES)}"
            )
        if self.passes is not None:
            names = tuple(self.passes)
            unknown = [n for n in names if n not in PASS_ORDER]
            if unknown:
                raise ValueError(
                    f"unknown pass name(s) {unknown}; known: {list(PASS_ORDER)}"
                )
            missing = [n for n in ("parse", "resolve", "construction") if n not in names]
            if missing:
                raise ValueError(f"pass list {list(names)} is missing mandatory passes {missing}")
            if ("codegen" in names) == ("codegen-naive" in names):
                raise ValueError(
                    "exactly one of 'codegen' and 'codegen-naive' must generate the code"
                )
            if "status-checks" in names and "codegen-naive" in names:
                raise ValueError(
                    "'status-checks' has no effect with 'codegen-naive' "
                    "(the naive baseline always copies unconditionally)"
                )
            # normalize: canonical order, no duplicates (hash/eq friendly)
            object.__setattr__(
                self, "passes", tuple(n for n in PASS_ORDER if n in set(names))
            )

    @classmethod
    def symbolic(
        cls,
        level: int = 3,
        schedule: str | None = None,
        cost: CostModel | None = None,
    ) -> "CompilerOptions":
        """Options for shape-generic compilation: ``level`` + ``symbolize``.

        The ``symbolize`` pass is opt-in (no level includes it): it
        classifies bindings shape-symbolic vs compile-relevant, makes the
        motion cost guard prove placements over a *grid* of shapes, and
        lets sessions build one :class:`SymbolicTemplate` per program
        that instantiates every concrete (n, P) at request time.
        """
        passes = passes_for_level(level) + ("symbolize",)
        return cls(
            passes=passes,
            cost=cost if cost is not None else CostModel(),
            schedule=schedule,
        )

    @property
    def symbolize(self) -> bool:
        """True iff this compilation builds a shape-generic template."""
        return "symbolize" in self.pass_names

    @property
    def pass_names(self) -> tuple[str, ...]:
        """The effective pass set, whichever way it was specified."""
        if self.passes is not None:
            return self.passes
        return passes_for_level(self.level)

    # -- derived flags (backward-compatible surface) -------------------------

    @property
    def naive(self) -> bool:
        return "codegen-naive" in self.pass_names

    @property
    def remove_useless(self) -> bool:
        return "remove-useless" in self.pass_names

    @property
    def status_checks(self) -> bool:
        return "status-checks" in self.pass_names

    @property
    def live_copies(self) -> bool:
        return "live-copies" in self.pass_names

    @property
    def motion(self) -> bool:
        return "motion" in self.pass_names

    def describe(self) -> str:
        """Human-readable spelling, for reports and logs."""
        if self.passes is not None:
            base = "passes [" + ", ".join(self.passes) + "]"
        else:
            base = f"optimization level {self.level}"
        if self.schedule is not None:
            base += f" scheduled [{self.schedule}]"
        if self.cost != CostModel():
            base += f" with {self.cost}"
        return base


class _Freezable:
    """Opt-in immutability: after :meth:`freeze`, attribute writes raise.

    Compiled artifacts are built mutably (the pipeline assembles them
    field by field) but become *shared* the moment a session caches them:
    any number of concurrent executors may then read the same object.
    Freezing turns the sharing contract into an enforced invariant --
    an accidental in-place mutation fails loudly with
    :class:`~repro.errors.ArtifactFrozenError` instead of corrupting a
    concurrent run.  ``dataclasses.replace`` keeps working: it builds a
    *new, unfrozen* object, which is exactly how the session serves
    per-caller binding wrappers over a frozen artifact.
    """

    @property
    def frozen(self) -> bool:
        return self.__dict__.get("_frozen", False)

    def _freeze_self(self) -> None:
        self.__dict__["_frozen"] = True

    def __setattr__(self, name: str, value) -> None:
        if self.__dict__.get("_frozen", False):
            raise ArtifactFrozenError(
                f"cannot set {name!r}: this {type(self).__name__} is frozen "
                "(cached artifacts are shared across threads; use "
                "dataclasses.replace to derive a mutable copy)"
            )
        super().__setattr__(name, value)


def _rebase_statement_keys(cs: "CompiledSubroutine") -> None:
    """Re-key the ``id(stmt)``-addressed maps after deserialization.

    Three artifact structures index by AST-statement *object identity*
    (fast and unambiguous in the compiling process): the CFG's
    ``stmt_nodes``, the construction's ``stmt_versions`` and the generated
    code's before/after op lists.  Unpickling rebuilds the statement
    objects with fresh ids, which would silently orphan every entry --
    the executor would find no ops and run remapping-free.  The CFG
    itself carries the cure: each keyed node references its statement
    object, so ``old id -> node -> statement -> new id`` rebuilds the
    association exactly.  Invoked from
    :meth:`CompiledSubroutine.__setstate__`, i.e. on every unpickle
    (:mod:`repro.store` loads included); keys already current map to
    themselves, so the rebase is idempotent.
    """
    cfg = cs.construction.cfg
    rebase: dict[int, int] = {}
    for old_id, nid in cfg.stmt_nodes.items():
        node = cfg.nodes.get(nid)
        if node is not None and node.stmt is not None:
            rebase[old_id] = id(node.stmt)
    cfg.stmt_nodes = {rebase.get(k, k): v for k, v in cfg.stmt_nodes.items()}
    cs.construction.stmt_versions = {
        rebase.get(k, k): v for k, v in cs.construction.stmt_versions.items()
    }
    cs.code.before = {rebase.get(k, k): v for k, v in cs.code.before.items()}
    cs.code.after = {rebase.get(k, k): v for k, v in cs.code.after.items()}


@dataclass
class CompiledSubroutine(_Freezable):
    """One subroutine after the full pass pipeline."""

    name: str
    sub: ResolvedSubroutine
    construction: ConstructionResult
    code: GeneratedCode
    motion: MotionReport

    def freeze(self) -> None:
        """Make this subroutine immutable (see :class:`_Freezable`)."""
        self._freeze_self()

    def __setstate__(self, state: dict) -> None:
        # restore, then rebase identity-keyed maps (see the helper above);
        # the direct __dict__ update also bypasses the freeze guard, so
        # frozen artifacts deserialize frozen without tripping it
        self.__dict__.update(state)
        _rebase_statement_keys(self)

    @property
    def graph(self) -> RemappingGraph:
        return self.construction.graph

    @property
    def versions(self) -> VersionTable:
        return self.construction.versions

    @property
    def stmt_versions(self) -> dict[int, dict[str, int]]:
        return self.construction.stmt_versions

    @property
    def calls(self) -> dict[int, CallInfo]:
        return self.construction.calls


@dataclass
class CompiledProgram(_Freezable):
    """All compiled subroutines plus shared metadata.

    Pipeline compilations additionally attach a per-pass :class:`PipelineTrace`
    (wall time and counters) and an aggregated :class:`CompileReport`
    (diagnostics, motion and removal summaries).  Both are ``None`` for
    artifacts built by other means, so direct construction keeps working.

    A cached (session-held) artifact is :meth:`frozen <freeze>`: it is
    shared by every thread that hits the cache, the executor treats it as
    read-only, and attribute writes raise
    :class:`~repro.errors.ArtifactFrozenError`.
    """

    program: ResolvedProgram
    subroutines: dict[str, CompiledSubroutine]
    options: CompilerOptions = field(default_factory=CompilerOptions)
    trace: "PipelineTrace | None" = None
    report: "CompileReport | None" = None

    def freeze(self) -> None:
        """Make the artifact immutable for sharing.

        Called by :class:`~repro.compiler.session.CompilerSession` before
        the artifact enters the cache.  Freezing is shallow but covers the
        surfaces concurrency exercises: the program/subroutine containers
        reject attribute writes.  Idempotent.
        """
        for cs in self.subroutines.values():
            cs.freeze()
        self._freeze_self()

    def get(self, name: str) -> CompiledSubroutine:
        return self.subroutines[name]

    @property
    def processors(self):
        return self.program.processors
