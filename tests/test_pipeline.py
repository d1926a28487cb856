"""The pass-pipeline architecture: pass-set rules, traces, level equivalence.

The level<->pass-set equivalence tests are the API-redesign contract: for
every optimization level, the ``CompilerOptions(level=L)`` spelling and
the equivalent explicit pass list must produce identical
generated code (compared through the stable textual rendering -- op dicts
are keyed by AST identity, so object equality across two compiles is
meaningless) and identical machine traffic when executed.
"""

from __future__ import annotations

import pytest

from repro import (
    CompilerOptions,
    ExecutionEnv,
    Executor,
    Machine,
    Pipeline,
    compile_program,
    passes_for_level,
)
from repro.apps.figures import FIG1, FIG10, RUNS
from repro.compiler import PASS_ORDER, PASSES
from repro.remap.codegen import RemapOp, RestoreOp, render_code

N = 16


def _run(compiled, source_kind, conditions=None, bindings=None, inputs=None):
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions=conditions or {},
        bindings=bindings or {},
        inputs=inputs or {},
    )
    name = next(iter(compiled.subroutines))
    Executor(compiled, machine, env).run(name)
    return machine.stats.snapshot()


WORKLOADS = {"fig1": RUNS["fig1"](), "fig12": RUNS["fig12-then"]()}


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_level_pass_set_equivalence(level, workload):
    w = WORKLOADS[workload]
    old = compile_program(
        w["source"],
        bindings=w["bindings"],
        processors=4,
        options=CompilerOptions(level=level),
    )
    new = compile_program(
        w["source"],
        bindings=w["bindings"],
        processors=4,
        options=CompilerOptions(passes=passes_for_level(level)),
    )
    assert new.trace.pass_names == old.trace.pass_names == passes_for_level(level)

    # identical generated code, subroutine by subroutine
    assert set(old.subroutines) == set(new.subroutines)
    for name in old.subroutines:
        assert render_code(old.get(name).code) == render_code(new.get(name).code)

    # identical machine traffic on execution
    stats_old = _run(old, workload, w["conditions"], w["bindings"], w["inputs"])
    stats_new = _run(new, workload, w["conditions"], w["bindings"], w["inputs"])
    assert stats_old == stats_new


def test_options_level_desugars_to_pass_names():
    assert passes_for_level(0) == ("parse", "resolve", "construction", "codegen-naive")
    assert "motion" not in passes_for_level(2)
    assert "motion" in passes_for_level(3)
    opts = CompilerOptions(level=2)
    assert opts.pass_names == passes_for_level(2)
    assert opts.live_copies and not opts.motion and opts.status_checks


def test_custom_pass_list_is_first_class():
    opts = CompilerOptions(passes=("codegen", "construction", "parse", "resolve"))
    # normalized to canonical order; level is ignored
    assert opts.pass_names == ("parse", "resolve", "construction", "codegen")
    assert not opts.remove_useless and not opts.status_checks
    compiled = compile_program(FIG1, bindings={"n": N}, processors=4, options=opts)
    assert compiled.trace is not None
    assert compiled.trace.pass_names == opts.pass_names


def test_unknown_pass_name_rejected():
    with pytest.raises(ValueError):
        CompilerOptions(passes=("parse", "frobnicate"))


def test_options_reject_every_illegal_pass_set():
    """The options are the one place a pass set is checked: every illegal
    set fails at construction, before any pipeline exists."""
    level1 = passes_for_level(1)
    illegal = [
        level1 + ("frobnicate",),
        *(tuple(n for n in level1 if n != m) for m in ("parse", "resolve", "construction")),
        ("parse", "resolve", "construction"),
        level1 + ("codegen-naive",),
        ("parse", "resolve", "construction", "status-checks", "codegen-naive"),
    ]
    for names in illegal:
        with pytest.raises(ValueError):
            CompilerOptions(passes=names)


def test_pass_table_is_pass_order():
    assert tuple(PASSES) == PASS_ORDER
    assert all(p.name == name for name, p in PASSES.items())


def test_trace_records_every_pass_with_timings():
    compiled = compile_program(
        FIG10, bindings={"n": N}, processors=4, options=CompilerOptions(level=3)
    )
    trace = compiled.trace
    assert trace is not None
    assert trace.pass_names == passes_for_level(3)
    assert all(r.seconds >= 0.0 for r in trace.records)
    assert trace.counter("construction", "vertices") > 0
    assert trace.counter("remove-useless", "removed") > 0
    assert trace.counter("codegen", "ops") > 0
    assert "construction" in trace.summary()


MOTION_SRC = """
subroutine sweep(t)
  integer t, n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  do i = 1, t
!hpf$   redistribute A(cyclic)
    compute writes A reads A
!hpf$   redistribute A(block)
  enddo
end
"""


def test_report_aggregates_motion_and_removal():
    compiled = compile_program(
        FIG10, bindings={"n": N}, processors=4, options=CompilerOptions(level=3)
    )
    report = compiled.report
    assert report is not None
    assert report.removed_count > 0
    assert "useless remappings removed" in report.summary()

    # the Fig. 16 shape: the trailing loop-body remapping is sunk
    moved = compile_program(
        MOTION_SRC, bindings={"n": N}, processors=4, options=CompilerOptions(level=3)
    )
    assert moved.report.motion_count == moved.report.motion["sweep"].count == 1
    assert moved.trace.counter("motion", "sunk") == 1


def test_frontend_warning_dynamic_never_remapped():
    src = """
subroutine main()
  integer n
  real A(n), B(n)
!hpf$ dynamic A, B
!hpf$ distribute A(block)
!hpf$ distribute B(block)
  compute reads A, B
!hpf$ redistribute A(cyclic)
  compute reads A
end
"""
    compiled = compile_program(src, bindings={"n": 8}, processors=2)
    messages = [d.message for d in compiled.report.warnings]
    assert any("'b'" in m and "never remapped" in m for m in messages)
    assert not any("'a'" in m for m in messages)


# ---------------------------------------------------------------------------
# status-check wiring (CompilerOptions.status_checks -> codegen)
# ---------------------------------------------------------------------------


def _remap_ops(compiled):
    return [
        op
        for cs in compiled.subroutines.values()
        for op in cs.code.all_ops()
        if isinstance(op, (RemapOp, RestoreOp))
    ]


def test_level1_emits_status_checks():
    compiled = compile_program(
        FIG10, bindings={"n": N}, processors=4, options=CompilerOptions(level=1)
    )
    assert compiled.options.status_checks
    ops = _remap_ops(compiled)
    assert ops and all(op.check_status for op in ops)
    stats = _run(compiled, "fig12", {"c1": True}, {"n": N, "m": 2}, {})
    assert stats["status_checks"] > 0


def test_disabling_status_checks_pass_drops_the_guard():
    names = tuple(n for n in passes_for_level(1) if n != "status-checks")
    compiled = compile_program(
        FIG10,
        bindings={"n": N},
        processors=4,
        options=CompilerOptions(passes=names),
    )
    assert not compiled.options.status_checks
    ops = _remap_ops(compiled)
    assert ops and all(not op.check_status for op in ops)
    stats = _run(compiled, "fig12", {"c1": True}, {"n": N, "m": 2}, {})
    assert stats["status_checks"] == 0
    # without the status guard the loop's redundant remappings are all paid
    baseline = compile_program(
        FIG10, bindings={"n": N}, processors=4, options=CompilerOptions(level=1)
    )
    base_stats = _run(baseline, "fig12", {"c1": True}, {"n": N, "m": 2}, {})
    assert stats["remaps_performed"] >= base_stats["remaps_performed"]


def test_naive_codegen_never_checks_status():
    compiled = compile_program(
        FIG1, bindings={"n": N}, processors=4, options=CompilerOptions(level=0)
    )
    ops = _remap_ops(compiled)
    assert ops and all(not op.check_status for op in ops)


def test_partial_pipeline_run_context_for_inspection():
    options = CompilerOptions(level=3)
    ctx = Pipeline(options).run_context(FIG10, bindings={"n": N}, processors=4)
    assert set(ctx.graphs()) == set(ctx.codes) == {"remap"}
    assert ctx.report.trace.pass_names == options.pass_names


def test_status_checks_pass_alone_is_position_independent():
    # status-checks has no data dependencies; options normalise any order of
    # the names to the canonical one, which is the level-1 pass set
    opts = CompilerOptions(
        passes=("status-checks", "codegen", "remove-useless", "construction", "resolve", "parse")
    )
    assert opts.pass_names == passes_for_level(1)
