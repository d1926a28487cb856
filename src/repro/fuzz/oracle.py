"""The differential oracle: one program, the full option matrix.

Every cell of the matrix -- optimization levels x schedule policies
(plus unscheduled) x {eager, symbolic} x {fresh, store-round-tripped} --
compiles and executes the same :class:`~repro.fuzz.generator.FuzzCase`
under an identical environment, and the results must agree:

* **values** -- every cell's final array values are bit-identical to the
  naive baseline cell (level 0, unscheduled, eager, fresh);
* **bytes** -- within each (policy, variant, provenance) column, moved
  bytes never increase as the optimization level rises (the contract the
  CostGuard exists to protect; seed 2558 is the historical violation);
* **prediction** -- every cell's executed traffic equals what
  :func:`~repro.spmd.traffic.predict_traffic` computes for the same
  artifact and environment without touching any storage (the walker the
  CostGuard's decisions rest on): counts exactly, makespan to float
  summation order;
* **verified** -- :func:`~repro.analysis.verify.verify_artifact` reports
  no issue for any compiled artifact;
* **lint** -- :func:`~repro.analysis.lints.lint_program` reports no
  error-severity finding for the program.

Store-round-tripped cells exercise the persistence path for real: a
writer session compiles into a temporary
:class:`~repro.store.ArtifactStore`, and a *separate* session loads (or,
for symbolic cells, instantiates the stored template) from disk.

``unguarded_motion=True`` is the "oracle has teeth" switch: level-3
cells compile a pre-moved program with the CostGuard disabled, which
re-opens the historical monotonicity hole -- the fuzzer must rediscover
it (see ``tests/test_fuzz.py``).
"""

from __future__ import annotations

import math
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.lints import lint_program
from repro.analysis.verify import verify_artifact
from repro.compiler.artifacts import CompilerOptions
from repro.compiler.session import CompilerSession
from repro.fuzz.generator import FuzzCase, runtime_conditions
from repro.spmd.machine import Machine
from repro.spmd.schedule import POLICIES
from repro.spmd.traffic import predict_traffic

#: Schedule policy axis: ``None`` runs every copy as the degenerate
#: unphased plan; the named policies run phased CommPlans.
SCHEDULES: tuple[str | None, ...] = (None, *POLICIES)

#: Every kind an :class:`OracleFinding` can carry; ``docs/FUZZING.md``
#: documents each one (sync-enforced by ``tests/test_docs.py``).
FINDING_KINDS = (
    "compile-error",
    "run-error",
    "store-miss",
    "verifier",
    "prediction",
    "value-mismatch",
    "bytes-not-monotone",
    "lint-error",
    "lint-crash",
)


@dataclass(frozen=True)
class OracleCell:
    """One coordinate of the option matrix."""

    level: int
    schedule: str | None
    variant: str  # "eager" | "symbolic"
    provenance: str  # "fresh" | "store"

    def label(self) -> str:
        sched = self.schedule or "unscheduled"
        return f"L{self.level}/{sched}/{self.variant}/{self.provenance}"


@dataclass(frozen=True)
class OracleFinding:
    """One oracle violation: what failed, where, and the evidence."""

    kind: str
    cell: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting only
        return f"[{self.kind}] {self.cell}: {self.detail}"


@dataclass(frozen=True)
class OracleConfig:
    """Which slice of the matrix to run, and with which teeth."""

    levels: tuple[int, ...] = (0, 1, 2, 3)
    schedules: tuple[str | None, ...] = SCHEDULES
    variants: tuple[str, ...] = ("eager", "symbolic")
    provenances: tuple[str, ...] = ("fresh", "store")
    processors: int = 4
    lint: bool = True
    #: disable the motion CostGuard on level-3 cells (teeth test only)
    unguarded_motion: bool = False

    @classmethod
    def full(cls) -> "OracleConfig":
        """The whole matrix (4 levels x 4 schedules x 2 x 2 = 64 cells)."""
        return cls()

    @classmethod
    def smoke(cls) -> "OracleConfig":
        """A cheap slice for time-boxed CI: 3 levels x 2 schedules,
        both compile variants, fresh artifacts only (12 cells)."""
        return cls(
            levels=(0, 1, 3),
            schedules=(None, "round-robin"),
            provenances=("fresh",),
        )

    def cells(self) -> list[OracleCell]:
        return [
            OracleCell(level, sched, variant, prov)
            for level in self.levels
            for sched in self.schedules
            for variant in self.variants
            for prov in self.provenances
        ]


@dataclass
class _CellResult:
    cell: OracleCell
    values: dict[str, np.ndarray] = field(default_factory=dict)
    bytes: int = 0
    messages: int = 0


def _options(config: OracleConfig, cell: OracleCell) -> CompilerOptions:
    if cell.variant == "symbolic":
        return CompilerOptions.symbolic(level=cell.level, schedule=cell.schedule)
    return CompilerOptions(level=cell.level, schedule=cell.schedule)


@contextmanager
def _motion_unguarded():
    """Disable the motion CostGuard for the duration (teeth switch).

    Every candidate sink is performed, exactly the pre-guard behaviour
    that let workload seed 2558 push level-3 traffic above naive.  The
    fuzzer's teeth test runs the oracle under this switch and must
    rediscover a monotonicity violation; production code never uses it.
    """
    from repro.compiler import pipeline

    # fetch the descriptor itself, not the unwrapped function, so the
    # restore puts back a genuine staticmethod
    original = pipeline.MotionPass.__dict__["_guard"]
    pipeline.MotionPass._guard = staticmethod(lambda ctx: None)
    try:
        yield
    finally:
        pipeline.MotionPass._guard = original


def _run_cell(case: FuzzCase, compiled):
    """Execute one compiled cell under the case's environment."""
    from repro.runtime.executor import ExecutionEnv, Executor

    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions=runtime_conditions(case.conditions),
        bindings=dict(case.bindings),
        inputs={k: np.array(v) for k, v in case.inputs.items()},
        check_invariants=True,
    )
    entry = case.program.subroutines[0].name
    result = Executor(compiled, machine, env).run(entry)
    return result, result.stats.snapshot()


def run_oracle(case: FuzzCase, config: OracleConfig | None = None) -> list[OracleFinding]:
    """Run one case through the matrix; an empty list means it survived."""
    config = config or OracleConfig.full()
    findings: list[OracleFinding] = []
    arrays = case.arrays
    teeth = _motion_unguarded() if config.unguarded_motion else nullcontext()

    with teeth, tempfile.TemporaryDirectory(prefix="fuzz-store-") as store_dir:
        # the writer compiles every fresh cell (writing back to the
        # store); a separate reader session serves the "store" cells
        # from disk only, warm-starting the way a new process would
        writer = CompilerSession(processors=config.processors, store=store_dir)
        reader = CompilerSession(processors=config.processors, store=store_dir)
        results: list[_CellResult] = []
        for cell in config.cells():
            label = cell.label()
            source, options = case.program, _options(config, cell)
            session = reader if cell.provenance == "store" else writer
            try:
                if cell.provenance == "store":
                    # make sure the writer has stored this key first
                    writer.compile(source, bindings=case.bindings, options=options)
                compiled, tier = session.compile_traced(
                    source, bindings=case.bindings, options=options
                )
            except Exception as exc:  # noqa: BLE001 - any compile failure is a finding
                findings.append(OracleFinding("compile-error", label, repr(exc)))
                continue
            if cell.provenance == "store" and tier == "compiled":
                findings.append(
                    OracleFinding(
                        "store-miss", label, "reader session fell back to a cold compile"
                    )
                )
            issues = verify_artifact(compiled)
            if issues:
                findings.append(
                    OracleFinding("verifier", label, "; ".join(map(str, issues[:3])))
                )
            try:
                result, snap = _run_cell(case, compiled)
            except Exception as exc:  # noqa: BLE001 - any runtime failure is a finding
                findings.append(OracleFinding("run-error", label, repr(exc)))
                continue
            try:
                predicted = predict_traffic(
                    compiled,
                    case.program.subroutines[0].name,
                    conditions=runtime_conditions(case.conditions),
                    bindings=case.bindings,
                    inputs=set(case.inputs),
                ).snapshot()
            except Exception as exc:  # noqa: BLE001 - a predictor crash is a finding
                findings.append(OracleFinding("prediction", label, repr(exc)))
            else:
                observed = result.observed_traffic().snapshot()
                detail = f"predicted {predicted}, observed {observed}"
                # counts exactly; the makespans sum the same phase durations
                # in a different order
                if (
                    not math.isclose(
                        predicted.pop("makespan"), observed.pop("makespan"), rel_tol=1e-9
                    )
                    or predicted != observed
                ):
                    findings.append(OracleFinding("prediction", label, detail))
            res = _CellResult(cell)
            res.values = {a: result.value(a) for a in arrays}
            res.bytes = snap["bytes"]
            res.messages = snap["messages"]
            results.append(res)

    findings.extend(_check_values(results, arrays))
    findings.extend(_check_monotone(results))
    if config.lint:
        findings.extend(_check_lint(case, config))
    return findings


def _check_values(results: list[_CellResult], arrays: list[str]) -> list[OracleFinding]:
    """Every cell's final values must match the baseline cell's."""
    if not results:
        return []
    baseline = results[0]
    out: list[OracleFinding] = []
    for res in results[1:]:
        for a in arrays:
            if not np.array_equal(
                res.values[a], baseline.values[a], equal_nan=True
            ):
                out.append(
                    OracleFinding(
                        "value-mismatch",
                        res.cell.label(),
                        f"array {a!r} differs from baseline "
                        f"{baseline.cell.label()}",
                    )
                )
                break
    return out


def _check_monotone(results: list[_CellResult]) -> list[OracleFinding]:
    """Bytes must not increase with the level, per matrix column."""
    columns: dict[tuple, list[_CellResult]] = {}
    for res in results:
        key = (res.cell.schedule, res.cell.variant, res.cell.provenance)
        columns.setdefault(key, []).append(res)
    out: list[OracleFinding] = []
    for col in columns.values():
        col.sort(key=lambda r: r.cell.level)
        for lo, hi in zip(col, col[1:]):
            if hi.bytes > lo.bytes:
                out.append(
                    OracleFinding(
                        "bytes-not-monotone",
                        hi.cell.label(),
                        f"{hi.bytes} bytes at L{hi.cell.level} > "
                        f"{lo.bytes} bytes at L{lo.cell.level}",
                    )
                )
    return out


def _check_lint(case: FuzzCase, config: OracleConfig) -> list[OracleFinding]:
    try:
        found = lint_program(
            case.program, bindings=case.bindings, processors=config.processors
        )
    except Exception as exc:  # noqa: BLE001 - lint crash is itself a finding
        return [OracleFinding("lint-crash", "lint", repr(exc))]
    return [
        OracleFinding("lint-error", "lint", f"{f.rule}: {f.message}")
        for f in found
        if f.severity == "error"
    ]
