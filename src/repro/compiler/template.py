"""Symbolic-shape templates: compile once, instantiate every ``(n, P)``.

A :class:`SymbolicTemplate` is a symbolized compile paused after its
front: the ``symbolize`` pass cuts it from the pipeline's context once
``parse`` and ``motion`` have run.  Where a :class:`~repro.compiler.
artifacts.CompiledProgram` bakes one concrete geometry into every
structure (version mappings, remapping graph, generated code), a template
keeps only what the rest of the pipeline reads:

* the **post-motion AST** -- motion already ran under a
  :class:`~repro.remap.costguard.CostGuard` priced at the shape probes, not
  the request's shape, so its decisions are valid for every shape and must
  not be re-derived per instantiation;
* the **binding classification** -- which names are shape-symbolic
  (erased from the artifact key, re-supplied per request) and which are
  compile-relevant (part of the key);
* the **fixed bindings** -- the compile-relevant values the template was
  built under (shape-symbolic values are erased);
* the **front's report** -- motion's reports and the notes it added.

:meth:`SymbolicTemplate.instantiate` resumes the pipeline there
(:meth:`~repro.compiler.pipeline.Pipeline.resume`): the options' code
passes and analyses over a context seeded from the template -- no parsing,
no motion.  The compile that cut the template serves its own request the
same way, so the artifact a request gets is the same whether it was
compiled or instantiated: executors, verifiers and the differential tests
cannot tell an instantiation from a from-scratch compile.  It runs its
copies on the process's plans (:data:`~repro.spmd.schedule.PLANS`), so a
repeated shape -- or an eager compile of the same shape -- reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.artifacts import CompiledProgram, CompilerOptions, _Freezable
from repro.compiler.diagnostics import CompileReport
from repro.lang.ast_nodes import Program
from repro.mapping.processors import ProcessorArrangement
from repro.symbolic.classify import BindingClassification


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

        Runs the options' code passes and analyses over the stored AST.  A
        request missing a shape binding raises the
        :class:`~repro.errors.SemanticError` its compile would.  The caller
        freezes the result before sharing it, exactly as for an eager
        compile.
        """
        from repro.compiler.pipeline import Pipeline

        merged = dict(self.fixed_bindings)
        merged.update(bindings or {})
        return Pipeline(self.options).resume(self, merged, processors)
