"""Symbolic-shape templates: compile once, instantiate every ``(n, P)``.

A :class:`SymbolicTemplate` is what a symbolized compile cuts from its one
pipeline run.  Where a :class:`~repro.compiler.artifacts.CompiledProgram`
bakes one concrete geometry into its version mappings, a template keeps
what no shape changes:

* the **post-motion AST** -- motion already ran under a
  :class:`~repro.remap.costguard.CostGuard` priced at the shape probes, not
  the request's shape, so its decisions are valid for every shape and must
  not be re-derived per instantiation.  The binding classification -- which
  names are shape-symbolic (erased from the artifact key, re-supplied per
  request) and which are compile-relevant (part of the key) -- is read
  from it (:attr:`SymbolicTemplate.classification`), not stored;
* the **fixed bindings** -- the compile-relevant values the template was
  built under (shape-symbolic values are erased);
* the **front's report** -- motion's reports and the notes it added;
* the **compiled structure** (:class:`TemplateStructure`) -- what the code
  passes built: per subroutine the CFG and the remapping graph (neither
  holds a mapping), the version annotations, the call infos, the generated
  code and the *holes* -- how construction made each version's mapping
  (:data:`~repro.remap.construction.Hole`) -- plus the removal reports and
  the front-end warnings.  It holds no resolved subroutine, mapping,
  layout or plan.

``symbolize`` records the first three where the front ends; the code
passes of the same run then build the compile's own artifact, and the
template is built with that artifact's structure
(:meth:`~repro.compiler.pipeline.Pipeline.serve`).  Every
:meth:`SymbolicTemplate.instantiate` is a patch: it resolves the program
at the request's ``(n, P)``, evaluates the holes against the resolved
declarations (:func:`~repro.remap.construction.patch_versions`; a shape
the spellings cannot hold raises the :class:`~repro.errors.ShapeError` a
compile would) and assembles the artifact from the shared structure, a
fresh version table and the fresh resolved subroutines.  The analyses the
options name (``traffic-estimate``, ``verify``) run on the patched
artifact.  If two of an array's versions coincide at the request's shape
-- interning would have merged them -- the instantiation runs the code
passes instead.  Either way the artifact is the one a from-scratch
compile at that shape builds, and its trace records what ran: ``patch``
(resolve and patch), then the code passes if the patch fell back, then
the analyses.  Instantiations run their copies on the process's plans
(:data:`~repro.spmd.schedule.PLANS`), so a repeated shape -- or an eager
compile of the same shape -- reuses them.

A template is checked once, where stored bytes become one
(:meth:`~repro.store.ArtifactStore.load` and the store's offline
``verify``), by :func:`~repro.analysis.verify.verify_template`: every
patch shares the structure's CFGs, graphs, annotations and code and has
one version per hole, so the checks a patched artifact would pass are run
on the structure, at no shape; each hole is held to the CFG node it names
and to the graph's labels, and the stored AST to the structure.  A
template that passes is trusted like a compile: no instantiation is
checked again (unless its options name the ``verify`` pass, as for any
compile), and what one raises is the error a compile at that shape raises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.compiler.artifacts import CompiledProgram, CompilerOptions, _Freezable
from repro.compiler.diagnostics import CompileReport, Diagnostic
from repro.ir.cfg import CFG
from repro.lang.ast_nodes import Decl, Program, Subroutine
from repro.lang.semantics import ResolvedProgram, ResolvedSubroutine
from repro.mapping.processors import ProcessorArrangement
from repro.remap.codegen import GeneratedCode
from repro.remap.construction import CallInfo, ConstructionResult, Hole, patch_versions
from repro.remap.graph import RemappingGraph
from repro.remap.optimize import RemovalReport
from repro.symbolic.classify import BindingClassification, classify_bindings


@dataclass(frozen=True)
class SubroutineStructure:
    """One subroutine as the code passes built it, minus its geometry."""

    cfg: CFG
    graph: RemappingGraph
    holes: tuple[Hole, ...]
    stmt_versions: dict[int, dict[str, int]]
    calls: dict[int, CallInfo]
    code: GeneratedCode
    #: the declarations it was built over (the body it was built over is
    #: the CFG's)
    declarations: tuple[Decl, ...]

    @classmethod
    def of(
        cls, res: ConstructionResult, code: GeneratedCode, sub: Subroutine
    ) -> "SubroutineStructure":
        """The structure built as ``res`` and ``code`` over AST ``sub``."""
        return cls(res.cfg, res.graph, res.holes, res.stmt_versions, res.calls, code, sub.decls)

    def patch(
        self, sub: ResolvedSubroutine, program: ResolvedProgram
    ) -> ConstructionResult | None:
        """The construction at ``sub``'s shape; ``None`` if versions merge there."""
        versions = patch_versions(self.holes, self.cfg.nodes, sub, program)
        if versions is None:
            return None
        if sub.body is not self.cfg.body:  # an AST with a repeated statement object
            sub = replace(sub, body=self.cfg.body)
        return ConstructionResult(
            sub, self.cfg, self.graph, versions, self.stmt_versions, self.calls, self.holes
        )


@dataclass(frozen=True)
class TemplateStructure:
    """What a template's code passes built once, shared by its instantiations."""

    subroutines: dict[str, SubroutineStructure]
    removal: dict[str, RemovalReport]
    #: the resolve pass's front-end warnings (they read the AST only)
    warnings: tuple[Diagnostic, ...]

    @classmethod
    def of(cls, compiled: CompiledProgram, program: Program) -> "TemplateStructure":
        """The structure of an artifact the code passes built over ``program``."""
        return cls(
            {
                name: SubroutineStructure.of(cs.construction, cs.code, program.get(name))
                for name, cs in compiled.subroutines.items()
            },
            dict(compiled.report.removal),
            tuple(d for d in compiled.report.diagnostics if d.pass_name == "resolve"),
        )


@dataclass
class SymbolicTemplate(_Freezable):
    """One shape-erased compilation, instantiable at any ``(n, P)``."""

    #: post-motion AST (motion decisions baked in, shape-generic)
    program: Program
    #: the originating options -- instantiations inherit them verbatim, so
    #: an instantiated artifact is indistinguishable from an eager compile
    options: CompilerOptions
    #: compile-relevant binding values baked into the template (part of
    #: its identity; shape-symbolic names are deliberately absent)
    fixed_bindings: dict[str, int]
    #: the front's report: motion's reports and notes, which every
    #: instantiation reports as its own
    report: CompileReport
    #: what the code passes built, patched by every instantiation
    structure: TemplateStructure

    def freeze(self) -> None:
        """Make the template immutable for cache sharing."""
        self._freeze_self()

    @property
    def classification(self) -> BindingClassification:
        """Shape-symbolic vs compile-relevant split of the binding names,
        read from the AST (a session keys on the same split at first
        contact, so its requests never ask for it)."""
        return classify_bindings(self.program)

    def instantiate(
        self,
        bindings: dict[str, int] | None = None,
        processors: "ProcessorArrangement | int | None" = None,
    ) -> CompiledProgram:
        """A concrete :class:`CompiledProgram` for one ``(bindings, P)``.

        Patches the carried structure at that shape (where versions merge
        there, runs the code passes instead), then the analyses.  A
        request missing a shape binding raises the
        :class:`~repro.errors.SemanticError` its compile would.  The caller
        freezes the result before sharing it, exactly as for an eager
        compile.
        """
        from repro.compiler.pipeline import Pipeline

        merged = dict(self.fixed_bindings)
        merged.update(bindings or {})
        return Pipeline(self.options).resume(self, merged, processors)
