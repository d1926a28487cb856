"""Compiler: source to executable compiled program, as a pass pipeline.

The pipeline mirrors the paper, one named pass per phase, in the canonical
order :data:`PASS_ORDER`:

1. ``parse`` -- mini-HPF DSL front end (or accept a built AST);
2. ``motion`` -- loop-invariant remapping motion (Fig. 16/17), level 3,
   cost-guarded by the machine model (``CompilerOptions.cost``): a sink is
   performed only when the static traffic estimator proves it never moves
   more bytes than the unmoved placement;
3. ``symbolize`` (opt-in, ``CompilerOptions.symbolic``) -- classifies the
   bindings shape-symbolic vs compile-relevant for a shape-generic template;
4. ``resolve`` -- semantics (shapes, initial mappings, interfaces) + lint;
5. ``construction`` -- CFG and remapping-graph construction (Appendix B);
6. ``remove-useless`` -- useless remapping removal (Appendix C), level >= 1;
7. ``live-copies`` -- dynamic live copies (Appendix D), level >= 2;
8. ``status-checks`` -- runtime status guards on remappings, level >= 1;
9. ``codegen`` -- copy code generation (Fig. 19/20), levels 1-3;
10. ``codegen-naive`` -- level 0, the paper's baseline: every remapping
    directive is an unconditional copy with no status checks and no kept
    copies;
11. ``traffic-estimate`` (opt-in) -- per-subroutine predicted traffic
    ranges over all branch/trip scenarios, recorded in the compile report;
12. ``verify`` (opt-in) -- the static artifact verifier.

``CompilerOptions(level=N)`` desugars to a pass set
(:func:`passes_for_level`); custom pass lists are first-class through
``CompilerOptions(passes=...)``, which is also the one place that rejects
an illegal pass set.

Entry points, from highest to lowest level:

* :class:`CompilerSession` -- memoizing compile + run server;
* :func:`compile_program` -- stable one-shot API;
* :class:`Pipeline` -- the passes of one ``CompilerOptions``, run for
  inspection (:data:`PASSES` holds the pass objects).
"""

from repro.compiler.artifacts import (
    PASS_ORDER,
    CompiledProgram,
    CompiledSubroutine,
    CompilerOptions,
    passes_for_level,
)
from repro.compiler.diagnostics import CompileReport, Diagnostic
from repro.compiler.driver import compile_program
from repro.compiler.pipeline import (
    PASSES,
    Pass,
    PassContext,
    PassRecord,
    Pipeline,
    PipelineTrace,
)
from repro.compiler.report import compilation_report
from repro.compiler.session import CompilerSession

__all__ = [
    "PASSES",
    "PASS_ORDER",
    "CompileReport",
    "CompiledProgram",
    "CompiledSubroutine",
    "CompilerOptions",
    "CompilerSession",
    "Diagnostic",
    "Pass",
    "PassContext",
    "PassRecord",
    "Pipeline",
    "PipelineTrace",
    "compilation_report",
    "compile_program",
    "passes_for_level",
]
