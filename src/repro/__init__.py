"""repro: a reproduction of Coelho, "Compiling Dynamic Mappings with Array
Copies" (PPoPP'97).

An HPF-style compiler front end, the paper's remapping-graph construction
and dataflow optimizations organized as an explicit pass pipeline, copy
code generation, and a runtime executing the result on a simulated
distributed-memory machine with exact message accounting.

Quickstart (the session API compiles with artifact caching and runs)::

    from repro import CompilerSession

    session = CompilerSession(processors=4)
    result = session.run(SOURCE, bindings={"n": 64}, conditions={"c1": True})
    print(result.stats.snapshot(), result.value("a"))

For concurrent traffic, :class:`CompileService` is the thread-safe front
door: batches of ``(source, bindings, conditions)`` requests execute on a
bounded worker pool over one :class:`CompilerSession` (``svc.session``),
with single-flight dedup of identical in-flight compiles and a
``ServiceStats`` telemetry surface (throughput, p50/p99 latency, cache
hits and misses, dedup saves, queue depth) -- see :mod:`repro.service`
and ``docs/ARCHITECTURE.md``.

Artifacts can outlive the process: an :class:`ArtifactStore`
(:mod:`repro.store`, ``store=`` on sessions and services) is a
disk-backed, schema-fingerprinted, integrity-verified compile cache --
a restarted service warm-starts from what earlier processes compiled
(``python -m repro.store`` manages it).

Lower-level entry points: :func:`compile_program` (stable one-shot API) and
:class:`~repro.compiler.pipeline.Pipeline`, which runs the named passes a
:class:`CompilerOptions` selects (all twelve are listed, in canonical
order, in :data:`~repro.compiler.artifacts.PASS_ORDER`).
Every compiled artifact carries a per-pass :class:`PipelineTrace` and an
aggregated :class:`CompileReport`.

``CompilerOptions(schedule="round-robin")`` (or ``"naive"``/``"aggregate"``)
opts into the communication-schedule subsystem: remappings execute as
contention-managed phases on the machine's phase clock, cost/traffic
analyses price the scheduled placement (phase makespans instead of
per-endpoint sums), and the process's plan memo builds and proves each
phased plan on first use, so warm session runs do zero scheduling work.

The ``motion`` pass is cost-guarded: candidate code motions are priced by
an exact static traffic simulator under the machine's :class:`CostModel`
(a compile option; see ``CompilerOptions(cost=...)``) and performed only
when they can never move more bytes than the unmoved placement.
:func:`predict_traffic` and ``result.observed_traffic()`` are the two
halves of the traffic oracle relating predictions to executed ground
truth.

Observability (:mod:`repro.obs`, ``docs/OBSERVABILITY.md``): every
subsystem publishes into one process-wide metrics registry
(:data:`OBS_REGISTRY`, JSON/Prometheus exportable, browsable with
``python -m repro.obs``) and requests trace end to end through
:data:`TRACER` (Chrome ``trace_event`` dumps).
"""

from repro.compiler import (
    CompileReport,
    CompiledProgram,
    CompiledSubroutine,
    CompilerOptions,
    CompilerSession,
    Diagnostic,
    Pipeline,
    PipelineTrace,
    compilation_report,
    compile_program,
    passes_for_level,
)
from repro.lang.builder import SubroutineBuilder, program
from repro.mapping import (
    Alignment,
    AxisAlign,
    DistFormat,
    Distribution,
    Mapping,
    ProcessorArrangement,
    Template,
)
from repro.obs import REGISTRY as OBS_REGISTRY
from repro.obs import TRACER, MetricsRegistry, Tracer
from repro.runtime import ExecutionEnv, ExecutionResult, Executor, execute
from repro.service import (
    CompileRequest,
    CompileService,
    ServiceResult,
    ServiceStats,
)
from repro.spmd import (
    CostModel,
    DistributedArray,
    Machine,
    TrafficEstimate,
    predict_traffic,
)
from repro.store import ArtifactStore, schema_fingerprint

__version__ = "1.4.0"

__all__ = [
    "Alignment",
    "ArtifactStore",
    "AxisAlign",
    "CompileReport",
    "CompileRequest",
    "CompileService",
    "CompiledProgram",
    "CompiledSubroutine",
    "CompilerOptions",
    "CompilerSession",
    "CostModel",
    "Diagnostic",
    "DistFormat",
    "DistributedArray",
    "Distribution",
    "ExecutionEnv",
    "ExecutionResult",
    "Executor",
    "Machine",
    "Mapping",
    "MetricsRegistry",
    "OBS_REGISTRY",
    "Pipeline",
    "PipelineTrace",
    "ProcessorArrangement",
    "ServiceResult",
    "ServiceStats",
    "SubroutineBuilder",
    "TRACER",
    "Template",
    "Tracer",
    "TrafficEstimate",
    "compilation_report",
    "compile_program",
    "execute",
    "passes_for_level",
    "predict_traffic",
    "program",
    "schema_fingerprint",
]
