"""The stable one-shot compile entry point.

``compile_program`` is a thin backward-compatible wrapper over the pass
pipeline (:mod:`repro.compiler.pipeline`): the options name a pass set,
the :class:`~repro.compiler.pipeline.Pipeline` runs those passes, and the
resulting :class:`~repro.compiler.artifacts.CompiledProgram`
carries the per-pass trace and the aggregated compile report.  Repeated
compile traffic should prefer :class:`~repro.compiler.session.CompilerSession`,
which memoizes these artifacts.
"""

from __future__ import annotations

from repro.compiler.artifacts import CompiledProgram, CompilerOptions
from repro.compiler.pipeline import Pipeline
from repro.lang.ast_nodes import Program, Subroutine
from repro.mapping.processors import ProcessorArrangement


def compile_program(
    source: str | Program | Subroutine,
    bindings: dict[str, int] | None = None,
    processors: ProcessorArrangement | int | None = None,
    options: CompilerOptions | None = None,
) -> CompiledProgram:
    """Compile mini-HPF source (or a built AST) into an executable program.

    ``processors`` supplies the machine when the program declares none; an
    int means a 1-D arrangement of that many processors.
    """
    return Pipeline(options or CompilerOptions()).compile(source, bindings, processors)
