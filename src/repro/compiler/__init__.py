"""Compiler: source to executable compiled program, as a pass pipeline.

The pipeline mirrors the paper, one named pass per phase (canonical order):

1. ``parse`` -- mini-HPF DSL front end (or accept a built AST);
2. ``motion`` -- loop-invariant remapping motion (Fig. 16/17), level 3,
   cost-guarded by the machine model (``CompilerOptions.cost``): a sink is
   performed only when the static traffic estimator proves it never moves
   more bytes than the unmoved placement;
3. ``resolve`` -- semantics (shapes, initial mappings, interfaces) + lint;
4. ``construction`` -- CFG and remapping-graph construction (Appendix B);
5. ``remove-useless`` -- useless remapping removal (Appendix C), level >= 1;
6. ``live-copies`` -- dynamic live copies (Appendix D), level >= 2;
7. ``status-checks`` -- runtime status guards on remappings, level >= 1;
8. ``codegen`` / ``codegen-naive`` -- copy code generation (Fig. 19/20);
9. ``traffic-estimate`` (opt-in) -- per-subroutine predicted traffic
   ranges over all branch/trip scenarios, recorded in the compile report.

``codegen-naive`` is level 0, the paper's baseline: every remapping
directive is an unconditional copy with no status checks and no kept
copies.  ``CompilerOptions(level=N)`` desugars to a pass set
(:func:`passes_for_level`); custom pass lists are first-class through
``CompilerOptions(passes=...)`` or :class:`PassManager`.

Entry points, from highest to lowest level:

* :class:`CompilerSession` -- memoizing compile + run server;
* :func:`compile_program` -- stable one-shot API;
* :class:`Pipeline` / :class:`PassManager` -- explicit pass control.
"""

from repro.compiler.artifacts import (
    MANDATORY_PASSES,
    PASS_ORDER,
    CompiledProgram,
    CompiledSubroutine,
    CompilerOptions,
    passes_for_level,
)
from repro.compiler.diagnostics import CompileReport, Diagnostic
from repro.compiler.driver import compile_program
from repro.compiler.pipeline import (
    Pass,
    PassContext,
    PassManager,
    PassRecord,
    Pipeline,
    PipelineTrace,
)
from repro.compiler.report import compilation_report
from repro.compiler.session import CompilerSession

__all__ = [
    "MANDATORY_PASSES",
    "PASS_ORDER",
    "CompileReport",
    "CompiledProgram",
    "CompiledSubroutine",
    "CompilerOptions",
    "CompilerSession",
    "Diagnostic",
    "Pass",
    "PassContext",
    "PassManager",
    "PassRecord",
    "Pipeline",
    "PipelineTrace",
    "compilation_report",
    "compile_program",
    "passes_for_level",
]
