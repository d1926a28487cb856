"""Symbolic-shape templates: compile once, instantiate every ``(n, P)``.

A :class:`SymbolicTemplate` is the shape-erased artifact form the opt-in
``symbolize`` pass enables.  Where a :class:`~repro.compiler.artifacts.
CompiledProgram` bakes one concrete geometry into every structure (version
mappings, remapping graph, generated code), a template keeps only what
instantiation uses:

* the **post-motion AST** -- motion already ran under the shape-generic
  :class:`~repro.remap.costguard.ShapeGenericGuard`, so its decisions are
  valid for every shape and must not be re-derived per instantiation;
* the **binding classification** -- which names are shape-symbolic
  (erased from the artifact key, re-supplied per request) and which are
  compile-relevant (part of the key);
* the **fixed bindings** -- the compile-relevant values the template was
  built under (shape-symbolic values are erased).

:meth:`SymbolicTemplate.instantiate` runs only the cheap structural tail
of the pipeline (resolve through codegen) on the stored AST with concrete
bindings -- no parsing, no motion.  The result is a plain
:class:`CompiledProgram`: executors, verifiers and the differential tests
cannot tell it from a from-scratch compile (and the test suite proves they
cannot, bit for bit).  It runs its copies on the process's plans
(:data:`~repro.spmd.schedule.PLANS`), so a repeated shape -- or an eager
compile of the same shape -- reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.artifacts import CompiledProgram, CompilerOptions, _Freezable
from repro.errors import SymbolicBindingError
from repro.lang.ast_nodes import Program
from repro.mapping.processors import ProcessorArrangement
from repro.symbolic.classify import BindingClassification

#: Passes a template instantiation must *not* run: motion is baked into the
#: stored AST (re-running it could diverge from the decisions the template
#: was certified with) and ``symbolize`` already happened.  ``parse`` runs,
#: but handed a ``Program`` it only installs it.
_SKIPPED_AT_INSTANTIATION = frozenset({"motion", "symbolize", "traffic-estimate"})


# ---------------------------------------------------------------------------
# the template artifact
# ---------------------------------------------------------------------------


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

    def freeze(self) -> None:
        """Make the template immutable for cache sharing."""
        self._freeze_self()

    # -- derived ------------------------------------------------------------

    @property
    def shape_names(self) -> frozenset[str]:
        return self.classification.shape_symbolic

    def instantiation_pass_names(self) -> tuple[str, ...]:
        return tuple(
            n
            for n in self.options.pass_names
            if n not in _SKIPPED_AT_INSTANTIATION
        )

    def missing_shapes(self, bindings: dict[str, int] | None) -> list[str]:
        got = set(bindings or {})
        return sorted(self.shape_names - got)

    # -- instantiation ------------------------------------------------------

    def instantiate(
        self,
        bindings: dict[str, int] | None = None,
        processors: "ProcessorArrangement | int | None" = None,
    ) -> CompiledProgram:
        """A concrete :class:`CompiledProgram` for one ``(bindings, P)``.

        Runs only the structural tail of the pipeline (resolve through
        codegen, plus ``verify`` when the template's options include it)
        over the stored AST.  The caller freezes the result before sharing
        it, exactly as for an eager compile.
        """
        from repro.compiler.pipeline import PassManager

        missing = self.missing_shapes(bindings)
        if missing:
            raise SymbolicBindingError(
                f"template instantiation is missing shape binding(s) {missing}: "
                f"this template is parameterized over {sorted(self.shape_names)}"
            )
        merged = dict(self.fixed_bindings)
        merged.update(bindings or {})
        pipeline = PassManager.build(self.instantiation_pass_names())
        return pipeline.compile(self.program, merged, processors, options=self.options)


def build_template(
    program: Program,
    options: CompilerOptions,
    classification: BindingClassification,
    bindings: dict[str, int] | None = None,
) -> SymbolicTemplate:
    """Build a :class:`SymbolicTemplate` from a symbolized compilation.

    ``program`` is the post-motion AST recorded by the ``symbolize`` pass;
    ``bindings`` is the triggering request's binding dict, of which only
    the compile-relevant values are kept (they are part of the template's
    identity -- shape-symbolic values are erased, runtime-only ones
    dropped).
    """
    fixed = {
        k: v
        for k, v in (bindings or {}).items()
        if k in classification.compile_relevant
    }
    return SymbolicTemplate(
        program=program,
        options=options,
        classification=classification,
        fixed_bindings=fixed,
    )
