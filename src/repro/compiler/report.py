"""Human-readable compilation reports and documentation renderers.

``compilation_report`` renders, per subroutine: the array versions (the
paper's ``A_0, A_1, ...`` translation of Fig. 7), the remapping graph with
its labels (Fig. 11/12), what the optimizations removed, and the generated
copy code (Fig. 20).  Used by the quickstart example and handy when
debugging programs.

``pass_reference_table`` renders the pass table
(:data:`~repro.compiler.pipeline.PASSES`) as the markdown reference table
embedded in ``docs/PASSES.md``; ``tests/test_docs.py`` diffs the doc
against this function's output so the documentation cannot drift from
the code.
"""

from __future__ import annotations

from repro.compiler.artifacts import (
    PASS_ANCHORS,
    CompiledProgram,
    CompiledSubroutine,
    passes_for_level,
)
from repro.compiler.pipeline import PASSES
from repro.remap.codegen import render_code
from repro.remap.motion import MotionReport


def subroutine_report(cs: CompiledSubroutine, motion: MotionReport) -> str:
    lines: list[str] = [f"subroutine {cs.name}", "=" * (11 + len(cs.name))]

    lines.append("\narray versions (dynamic arrays translated to static copies):")
    for array in cs.versions.arrays():
        for v, mapping in enumerate(cs.versions.versions(array)):
            lines.append(f"  {array}_{v}: {mapping.short()}")

    lines.append("\nremapping graph G_R:")
    lines.append(cs.graph.dump())

    removed = [
        (vid, a)
        for vid, v in cs.graph.vertices.items()
        for a in sorted(v.removed)
    ]
    lines.append(
        f"\nuseless remappings removed: {len(removed)}"
        + ("" if not removed else "  " + ", ".join(f"#{vid}:{a}" for vid, a in removed))
    )
    if motion.count:
        lines.append("loop-invariant remappings sunk:")
        for s in motion.sunk:
            lines.append(f"  {s}")
    if motion.rejected_count:
        lines.append("loop-invariant motion rejected by the cost guard:")
        for r in motion.rejected:
            lines.append(f"  {r}")

    lines.append("\ngenerated copy code:")
    lines.append(render_code(cs.code))
    return "\n".join(lines)


def pass_reference_table() -> str:
    """The pass table rendered as markdown (for docs/PASSES.md).

    One row per pass of :data:`~repro.compiler.pipeline.PASSES`, in
    canonical order: which ``CompilerOptions(level=N)`` pass sets include
    it, and its anchor in the paper (or the extension that introduced
    it).  Rendered from the table the pipeline runs, so it cannot silently
    disagree with the code.
    """
    level_sets = {level: set(passes_for_level(level)) for level in range(4)}
    rows = []
    for name in PASSES:
        levels = [str(lv) for lv in sorted(level_sets) if name in level_sets[lv]]
        level_cell = ", ".join(levels) if levels else "opt-in (`passes=...`)"
        rows.append((f"`{name}`", level_cell, PASS_ANCHORS[name]))
    header = ("Pass", "Levels", "Paper anchor")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]

    def fmt(cells) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    lines = [fmt(header), fmt(tuple("-" * w for w in widths))]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines)


def compilation_report(cp: CompiledProgram) -> str:
    """Render one compiled program the way the paper's figures read.

    Per subroutine: array versions (Fig. 7), the remapping graph with its
    labels (Fig. 11/12), what the optimizations removed or rejected, and
    the generated copy code (Fig. 20 style), prefixed by the options,
    machine and per-pass timings of the compilation."""
    header = [
        f"compiled with {cp.options.describe()}",
        f"machine: {cp.processors}",
    ]
    header += [str(d) for d in cp.report.warnings]
    header.append(
        "passes: "
        + ", ".join(f"{r.name} ({r.seconds * 1e3:.2f} ms)" for r in cp.trace.records)
    )
    header.append("")
    return "\n".join(header) + "\n\n".join(
        subroutine_report(cs, cp.report.motion.get(name, MotionReport()))
        for name, cs in cp.subroutines.items()
    )
