"""The compiler's pass pipeline.

The paper's phases -- remapping-graph construction (Appendix B),
useless-remapping removal (Appendix C), live copies (Appendix D),
loop-invariant motion (Fig. 16/17) and copy code generation (Fig. 19/20)
-- are named passes, run in the canonical order
:data:`~repro.compiler.artifacts.PASS_ORDER` over one shared
:class:`PassContext`.  :data:`PASSES` maps each name to its one stateless
pass object.  A compile runs exactly the passes its
:class:`~repro.compiler.artifacts.CompilerOptions` names, and the options
are the one place that decides which pass sets are legal.  Per-pass wall
time and counters are recorded into a :class:`PipelineTrace`, so
compilations are inspectable.

Typical explicit use::

    from repro.compiler.pipeline import Pipeline

    pipeline = Pipeline(CompilerOptions(level=2))
    compiled = pipeline.compile(SOURCE, bindings={"n": 64}, processors=4)
    print(compiled.trace.summary())

``compile_program`` (the stable API) is a thin wrapper over this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

from repro.compiler.artifacts import (
    CompiledProgram,
    CompiledSubroutine,
    CompilerOptions,
)
from repro.compiler.diagnostics import (
    CompileReport,
    SymbolicInfo,
    frontend_warnings,
)
from repro.ir.cfg import build_cfg
from repro.lang.ast_nodes import Call, Program, Subroutine, walk_statements
from repro.lang.parser import parse_program
from repro.lang.semantics import ResolvedProgram, resolve_program
from repro.mapping.processors import ProcessorArrangement
from repro.obs.catalog import REGISTRY as _OBS
from repro.obs.trace import TRACER as _TRACER
from repro.remap.codegen import GeneratedCode, generate_code, pin_live_sets_to_leaving
from repro.remap.construction import ConstructionResult, build_remapping_graph
from repro.remap.costguard import CostGuard, ShapeGenericGuard
from repro.remap.graph import RemappingGraph
from repro.remap.livecopies import compute_live_copies
from repro.remap.motion import MotionReport, hoist_loop_invariant_remaps
from repro.remap.optimize import remove_useless_remappings
from repro.spmd.traffic import estimate_range
from repro.symbolic.classify import classify_bindings


# ---------------------------------------------------------------------------
# context, trace, protocol
# ---------------------------------------------------------------------------


@dataclass
class PassContext:
    """Mutable state threaded through one pipeline run (or through one
    cost-guard variant compile, which runs the pipeline's passes on it)."""

    source: str | Program | Subroutine
    bindings: dict[str, int] | None
    processors: ProcessorArrangement | None
    options: CompilerOptions

    program: Program | None = None
    resolved: ResolvedProgram | None = None
    constructions: dict[str, ConstructionResult] = field(default_factory=dict)
    codes: dict[str, GeneratedCode] = field(default_factory=dict)
    #: single home for per-subroutine motion/removal reports and diagnostics
    report: CompileReport = field(default_factory=CompileReport)

    def graphs(self) -> dict[str, RemappingGraph]:
        return {name: c.graph for name, c in self.constructions.items()}


@dataclass(frozen=True)
class PassRecord:
    """One pass execution: wall time plus whatever it chose to count."""

    name: str
    seconds: float
    counters: dict[str, int]


@dataclass
class PipelineTrace:
    """Per-pass instrumentation for one compilation."""

    records: list[PassRecord] = field(default_factory=list)

    def record(self, name: str, seconds: float, counters: dict[str, int]) -> None:
        self.records.append(PassRecord(name, seconds, dict(counters)))

    @property
    def pass_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.records)

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    def counter(self, pass_name: str, key: str, default: int = 0) -> int:
        for r in self.records:
            if r.name == pass_name and key in r.counters:
                return r.counters[key]
        return default

    def summary(self) -> str:
        lines = [f"pipeline: {len(self.records)} passes, {self.total_seconds * 1e3:.3f} ms"]
        for r in self.records:
            extra = (
                " (" + ", ".join(f"{k}={v}" for k, v in sorted(r.counters.items())) + ")"
                if r.counters
                else ""
            )
            lines.append(f"  {r.name}: {r.seconds * 1e3:.3f} ms{extra}")
        return "\n".join(lines)


class Pass(Protocol):
    """One named compiler pass: ``run`` mutates the context and returns
    counters for the trace."""

    name: str

    def run(self, ctx: PassContext) -> dict[str, int]: ...


# ---------------------------------------------------------------------------
# concrete passes
# ---------------------------------------------------------------------------


def as_program(source: str | Program | Subroutine) -> Program:
    """Mini-HPF text (parsed), one subroutine or a whole program, as a Program."""
    if isinstance(source, str):
        return parse_program(source)
    if isinstance(source, Subroutine):
        return Program((source,))
    if isinstance(source, Program):
        return source
    raise TypeError(f"cannot compile source of type {type(source)!r}")


class ParsePass:
    """Front end: mini-HPF text (or an already-built AST) to a Program."""

    name = "parse"

    def run(self, ctx: PassContext) -> dict[str, int]:
        ctx.program = as_program(ctx.source)
        return {"subroutines": len(ctx.program.subroutines)}


class MotionPass:
    """Loop-invariant remapping motion (paper Fig. 16/17), AST to AST.

    Cost-guarded: every candidate sink is priced by
    :class:`~repro.remap.costguard.CostGuard` against the unmoved placement
    under ``ctx.options.cost`` and performed only if it never moves more
    bytes ("level 3 never loses to naive" is enforced by construction, not
    hoped for).  Rejected candidates surface
    as ``note`` diagnostics and in :attr:`MotionReport.rejected`.
    """

    name = "motion"

    @staticmethod
    def _guard(ctx: PassContext) -> "CostGuard | ShapeGenericGuard":
        if ctx.options.symbolize:
            # Shape-erased compilation: motion decisions become part of a
            # SymbolicTemplate replayed at every (n, P), so the guard must
            # not see this request's shape bindings or processor count --
            # it prices candidates on a fixed probe grid instead, keeping
            # only compile-time binding values (which are in the key).
            assert ctx.program is not None
            info = classify_bindings(ctx.program)
            bindings = {
                k: v
                for k, v in (ctx.bindings or {}).items()
                if k in info.all_compile_time
            }
            return ShapeGenericGuard(info.shape_symbolic, bindings, ctx.options)
        return CostGuard(ctx.options, ctx.bindings, ctx.processors)

    def run(self, ctx: PassContext) -> dict[str, int]:
        assert ctx.program is not None
        guard = self._guard(ctx)
        program = ctx.program
        for s in ctx.program.subroutines:
            new_sub, report = hoist_loop_invariant_remaps(
                s, guard=guard, program=program
            )
            ctx.report.motion[s.name] = report
            program = program.with_subroutine(new_sub)
            for rej in report.rejected:
                ctx.report.add(
                    "note",
                    f"motion rejected by cost guard: {rej}",
                    subroutine=s.name,
                    pass_name=self.name,
                )
        ctx.program = program
        return {
            "sunk": sum(r.count for r in ctx.report.motion.values()),
            "rejected": sum(r.rejected_count for r in ctx.report.motion.values()),
        }


class SymbolizePass:
    """Classify binding names and capture the template source (PR 7).

    Runs right after motion: splits the program's compile-time binding
    names into *shape-symbolic* (array/template extents erasable from the
    artifact key) and *compile-relevant* (processor extents, non-shape
    loop bounds), and records the post-motion AST in the report --
    together they are everything
    :class:`~repro.compiler.template.SymbolicTemplate` needs to
    re-resolve the program at any concrete ``(n, P)`` without re-running
    motion (whose shape-generic decisions are already baked into the
    AST).  Purely analytical: touches no downstream facts, so the
    concrete compilation proceeds unchanged.
    """

    name = "symbolize"

    def run(self, ctx: PassContext) -> dict[str, int]:
        assert ctx.program is not None
        info = classify_bindings(ctx.program)
        ctx.report.symbolic = SymbolicInfo(classification=info, program=ctx.program)
        return {
            "shape_symbolic": len(info.shape_symbolic),
            "compile_relevant": len(info.compile_relevant),
        }


class ResolvePass:
    """Semantic resolution plus front-end lint warnings."""

    name = "resolve"

    def run(self, ctx: PassContext) -> dict[str, int]:
        assert ctx.program is not None
        ctx.resolved = resolve_program(
            ctx.program, bindings=ctx.bindings, default_processors=ctx.processors
        )
        warnings = frontend_warnings(ctx.program)
        ctx.report.diagnostics.extend(warnings)
        return {"subroutines": len(ctx.resolved.subroutines), "warnings": len(warnings)}


class ConstructionPass:
    """CFG + remapping-graph construction (paper Appendix B)."""

    name = "construction"

    def run(self, ctx: PassContext) -> dict[str, int]:
        assert ctx.resolved is not None
        vertices = 0
        for name, rsub in ctx.resolved.subroutines.items():
            res = build_remapping_graph(build_cfg(rsub), ctx.resolved)
            ctx.constructions[name] = res
            vertices += len(res.graph.vertices)
        return {"subroutines": len(ctx.constructions), "vertices": vertices}


class RemoveUselessPass:
    """Useless remapping removal (paper Appendix C)."""

    name = "remove-useless"

    def run(self, ctx: PassContext) -> dict[str, int]:
        removed = kept = 0
        for name, res in ctx.constructions.items():
            report = remove_useless_remappings(res.graph)
            ctx.report.removal[name] = report
            removed += report.removed_count
            kept += len(report.kept)
        return {"removed": removed, "kept": kept}


class LiveCopiesPass:
    """Dynamic live copies M_A(v) (paper Appendix D)."""

    name = "live-copies"

    def run(self, ctx: PassContext) -> dict[str, int]:
        kept_slots = 0
        for res in ctx.constructions.values():
            compute_live_copies(res.graph)
            kept_slots += sum(
                len(v.M.get(a, ())) for v in res.graph.vertices.values() for a in v.S
            )
        return {"kept_slots": kept_slots}


class StatusChecksPass:
    """The Fig. 20 runtime status guard on generated remappings.

    A trace record only: codegen reads ``ctx.options.status_checks``, so
    the guard is on exactly when the options name this pass.
    """

    name = "status-checks"

    def run(self, ctx: PassContext) -> dict[str, int]:
        return {}


class CodegenPass:
    """Copy code generation (paper Fig. 19/20); ``naive`` is the level-0
    baseline that always copies unconditionally and keeps nothing."""

    def __init__(self, naive: bool = False):
        self.naive = naive
        self.name = "codegen-naive" if naive else "codegen"

    def run(self, ctx: PassContext) -> dict[str, int]:
        ops = 0
        for name, res in ctx.constructions.items():
            if not ctx.options.live_copies:
                pin_live_sets_to_leaving(res.graph)
            code = generate_code(
                res,
                optimize=not self.naive,
                naive_always_copy=self.naive,
                status_checks=ctx.options.status_checks,
            )
            ctx.codes[name] = code
            ops += len(code.all_ops())
        return {"ops": ops}


class TrafficEstimatePass:
    """Predict each subroutine's communication over its runtime unknowns.

    Runs the exact static traffic simulator (:mod:`repro.spmd.traffic`)
    over every branch-outcome/trip-count/input scenario (deterministically
    subsampled beyond a cap), records the per-subroutine best/worst
    :class:`~repro.spmd.traffic.TrafficRange` in the compile report, and
    publishes aggregate predictions as trace counters so compilations can
    be compared without executing anything.
    """

    name = "traffic-estimate"

    def run(self, ctx: PassContext) -> dict[str, int]:
        assert ctx.program is not None
        # a range simulated from a subroutine already includes its callees'
        # traffic, so the aggregate counters sum over *entry* subroutines
        # only (ones no other subroutine calls) to avoid double-counting
        called = {
            s.callee
            for sub in ctx.program.subroutines
            for s in walk_statements(sub.body)
            if isinstance(s, Call)
        }
        bytes_hi = messages_hi = scenario_total = 0
        for name in ctx.constructions:
            rng = estimate_range(
                ctx.constructions,
                ctx.codes,
                name,
                bindings=ctx.bindings,
                policy=ctx.options.schedule,
                cost=ctx.options.cost,
            )
            ctx.report.traffic[name] = rng
            scenario_total += rng.scenarios
            if name not in called:
                bytes_hi += rng.hi.bytes
                messages_hi += rng.hi.messages
        return {
            "subroutines": len(ctx.constructions),
            "scenarios": scenario_total,
            "predicted_bytes_max": bytes_hi,
            "predicted_messages_max": messages_hi,
        }


class VerifyPass:
    """Statically verify the artifact's invariants before it ships.

    Runs the full checker of :mod:`repro.analysis.verify` -- CFG
    well-formedness, mapping-version def-before-use (a forward dataflow on
    the generic solver), remapping-graph/version-table liveness,
    statement-key bijectivity -- over everything the pipeline built.
    Issues are recorded as ``error`` diagnostics in the compile report and
    raised as
    :class:`~repro.errors.ArtifactVerificationError`: a compile that asked
    for verification never hands out an artifact that fails it.  The same
    checks guard every :mod:`repro.store` disk load (where failures evict
    and degrade to recompile instead of raising).
    """

    name = "verify"

    def run(self, ctx: PassContext) -> dict[str, int]:
        from repro.analysis import verify as verify_mod
        from repro.errors import ArtifactVerificationError

        issues = []
        for name, res in ctx.constructions.items():
            issues.extend(
                verify_mod.verify_subroutine(res, ctx.codes.get(name), name)
            )
        for issue in issues:
            ctx.report.add(
                "error",
                str(issue),
                subroutine=issue.subroutine,
                pass_name=self.name,
            )
        if issues:
            raise ArtifactVerificationError(issues)
        return {
            "subroutines": len(ctx.constructions),
            "checks": 4 * len(ctx.constructions),
            "issues": 0,
        }


#: The one stateless object of each pass, keyed by name in canonical order.
PASSES: dict[str, Pass] = {
    p.name: p
    for p in (
        ParsePass(),
        MotionPass(),
        SymbolizePass(),
        ResolvePass(),
        ConstructionPass(),
        RemoveUselessPass(),
        LiveCopiesPass(),
        StatusChecksPass(),
        CodegenPass(),
        CodegenPass(naive=True),
        TrafficEstimatePass(),
        VerifyPass(),
    )
}


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


class Pipeline:
    """The passes one :class:`CompilerOptions` names, in canonical order.

    The options are validated when they are built, so every pipeline is a
    legal pass set.  ``skip`` leaves named passes out of the run while the
    context (and the artifact) keeps the full options -- a template
    instantiation skips the passes whose work its stored AST already holds.
    """

    def __init__(self, options: CompilerOptions, skip: frozenset[str] = frozenset()):
        self.options = options
        self.passes = [PASSES[n] for n in options.pass_names if n not in skip]

    def run_context(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
    ) -> PassContext:
        """Run the passes over a fresh context, for inspection."""
        if isinstance(processors, int):
            processors = ProcessorArrangement("P", (processors,))
        ctx = PassContext(
            source=source,
            bindings=bindings,
            processors=processors,
            options=self.options,
        )
        trace = PipelineTrace()
        _OBS.counter("repro.compiler.pipelines_run").inc()
        for p in self.passes:
            t0 = time.perf_counter()
            with _TRACER.span(f"pass:{p.name}"):
                counters = p.run(ctx) or {}
            seconds = time.perf_counter() - t0
            trace.record(p.name, seconds, counters)
            _OBS.counter("repro.compiler.passes_run", {"pass": p.name}).inc()
            _OBS.histogram("repro.compiler.pass_seconds", {"pass": p.name}).observe(
                seconds
            )
        ctx.report.trace = trace
        return ctx

    def compile(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
    ) -> CompiledProgram:
        """Run the passes and assemble the compiled artifact."""
        ctx = self.run_context(source, bindings, processors)
        assert ctx.resolved is not None
        compiled: dict[str, CompiledSubroutine] = {}
        for name, rsub in ctx.resolved.subroutines.items():
            compiled[name] = CompiledSubroutine(
                name=name,
                sub=rsub,
                construction=ctx.constructions[name],
                code=ctx.codes[name],
                motion=ctx.report.motion.get(name, MotionReport()),
            )
        return CompiledProgram(
            ctx.resolved,
            compiled,
            ctx.options,
            trace=ctx.report.trace,
            report=ctx.report,
        )
