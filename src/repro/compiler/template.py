"""Symbolic-shape templates: compile once, instantiate every ``(n, P)``.

A :class:`SymbolicTemplate` is a symbolized compile paused after its
front: the ``symbolize`` pass cuts it from the pipeline's context once
``parse`` and ``motion`` have run.  Where a :class:`~repro.compiler.
artifacts.CompiledProgram` bakes one concrete geometry into every
structure (version mappings, remapping graph, generated code), a template
keeps what no shape changes:

* the **post-motion AST** -- motion already ran under a
  :class:`~repro.remap.costguard.CostGuard` priced at the shape probes, not
  the request's shape, so its decisions are valid for every shape and must
  not be re-derived per instantiation;
* the **binding classification** -- which names are shape-symbolic
  (erased from the artifact key, re-supplied per request) and which are
  compile-relevant (part of the key);
* the **fixed bindings** -- the compile-relevant values the template was
  built under (shape-symbolic values are erased);
* the **front's report** -- motion's reports and the notes it added;
* the **compiled structure** (:class:`TemplateStructure`) -- what the code
  passes built, minus the geometry: per subroutine the CFG's nodes and
  edges, the remapping graph's vertices (with their M, removed and
  dead-value sets) and edges, the version annotations, the call infos,
  the generated code and the *holes* -- how construction made each
  version's mapping (:data:`~repro.remap.construction.Hole`) -- plus the
  removal reports and the front-end warnings.  It holds no resolved
  subroutine, mapping, layout or plan.

The structure is built once, by the code passes of the instantiation the
cutting compile makes at its own request's shape
(:meth:`~repro.compiler.pipeline.Pipeline.serve`).  Every later
:meth:`SymbolicTemplate.instantiate` is a patch: it resolves the program
at the request's ``(n, P)``, evaluates the holes against the resolved
declarations (:func:`~repro.remap.construction.patch_versions`; a shape
the spellings cannot hold raises the :class:`~repro.errors.ShapeError` a
compile would) and assembles the artifact from the shared structure, a
fresh version table and the fresh resolved subroutines.  The analyses the
options name (``traffic-estimate``, ``verify``) run on the patched
artifact.  If two of an array's versions coincide at the request's shape
-- interning would have merged them -- the instantiation runs the code
passes instead, exactly as the cutting compile did.  Either way the
artifact is the one a from-scratch compile at that shape builds, and its
trace records what ran: ``patch`` (resolve and patch), then the code
passes if the patch fell back, then the analyses.  Instantiations run
their copies on the process's plans (:data:`~repro.spmd.schedule.PLANS`),
so a repeated shape -- or an eager compile of the same shape -- reuses
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.compiler.artifacts import CompiledProgram, CompilerOptions, _Freezable
from repro.compiler.diagnostics import CompileReport, Diagnostic
from repro.ir.cfg import CFG, CFGNode
from repro.lang.ast_nodes import Block, Program
from repro.lang.semantics import ResolvedProgram, ResolvedSubroutine
from repro.mapping.processors import ProcessorArrangement
from repro.remap.codegen import GeneratedCode
from repro.remap.construction import CallInfo, ConstructionResult, Hole, patch_versions
from repro.remap.graph import GRVertex, RemappingGraph
from repro.remap.optimize import RemovalReport
from repro.symbolic.classify import BindingClassification


@dataclass(frozen=True)
class SubroutineStructure:
    """One subroutine as the code passes built it, minus its geometry."""

    #: the resolved body whose statements the CFG's nodes carry
    body: Block
    nodes: dict[int, CFGNode]
    succs: dict[int, list[int]]
    preds: dict[int, list[int]]
    entry: int
    exit: int
    vertices: dict[int, GRVertex]
    edges: dict[tuple[int, int], set[str]]
    #: the remapping graph's ``v_c``, ``v_0`` and ``v_e``
    boundary: tuple[int, int, int]
    holes: tuple[Hole, ...]
    stmt_versions: dict[int, dict[str, int]]
    calls: dict[int, CallInfo]
    code: GeneratedCode

    @classmethod
    def of(cls, res: ConstructionResult, code: GeneratedCode) -> "SubroutineStructure":
        cfg, graph = res.cfg, res.graph
        return cls(
            res.sub.body,
            cfg.nodes,
            cfg.succs,
            cfg.preds,
            cfg.entry,
            cfg.exit,
            graph.vertices,
            graph.edges,
            (graph.v_c, graph.v_0, graph.v_e),
            res.holes,
            res.stmt_versions,
            res.calls,
            code,
        )

    def patch(
        self, sub: ResolvedSubroutine, program: ResolvedProgram
    ) -> ConstructionResult | None:
        """The construction at ``sub``'s shape; ``None`` if versions merge there."""
        versions = patch_versions(self.holes, self.nodes, sub, program)
        if versions is None:
            return None
        if sub.body is not self.body:  # an AST with a repeated statement object
            sub = replace(sub, body=self.body)
        return ConstructionResult(
            sub,
            CFG(sub, self.nodes, self.succs, self.preds, self.entry, self.exit),
            RemappingGraph(versions, self.vertices, self.edges, *self.boundary),
            versions,
            self.stmt_versions,
            self.calls,
            self.holes,
        )


@dataclass(frozen=True)
class TemplateStructure:
    """What a template's code passes built once, shared by its instantiations."""

    subroutines: dict[str, SubroutineStructure]
    removal: dict[str, RemovalReport]
    #: the resolve pass's front-end warnings (they read the AST only)
    warnings: tuple[Diagnostic, ...]

    @classmethod
    def of(cls, compiled: CompiledProgram) -> "TemplateStructure":
        """The structure of an artifact the code passes built."""
        return cls(
            {
                name: SubroutineStructure.of(cs.construction, cs.code)
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
    #: shape-symbolic vs compile-relevant split of the binding names
    classification: BindingClassification
    #: compile-relevant binding values baked into the template (part of
    #: its identity; shape-symbolic names are deliberately absent)
    fixed_bindings: dict[str, int] = field(default_factory=dict)
    #: the front's report: motion's reports and notes, which every
    #: instantiation reports as its own
    report: CompileReport = field(default_factory=CompileReport)
    #: what the code passes built, patched by every instantiation; ``None``
    #: until the compile that cut the template has built it
    structure: TemplateStructure | None = None

    def freeze(self) -> None:
        """Make the template immutable for cache sharing."""
        self._freeze_self()

    @property
    def shape_names(self) -> frozenset[str]:
        return self.classification.shape_symbolic

    def missing_shapes(self, bindings: dict[str, int] | None) -> list[str]:
        got = set(bindings or {})
        return sorted(self.shape_names - got)

    def instantiate(
        self,
        bindings: dict[str, int] | None = None,
        processors: "ProcessorArrangement | int | None" = None,
    ) -> CompiledProgram:
        """A concrete :class:`CompiledProgram` for one ``(bindings, P)``.

        Patches the carried structure at that shape (or, without one, runs
        the options' code passes over the stored AST), then the analyses.
        A request missing a shape binding raises the
        :class:`~repro.errors.SemanticError` its compile would.  The caller
        freezes the result before sharing it, exactly as for an eager
        compile.
        """
        from repro.compiler.pipeline import Pipeline

        merged = dict(self.fixed_bindings)
        merged.update(bindings or {})
        return Pipeline(self.options).resume(self, merged, processors)
