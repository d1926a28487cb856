"""Unit tests for copy code generation (paper Fig. 19/20) and reports."""

from __future__ import annotations

import pytest

from repro import CompilerOptions, compilation_report, compile_program
from repro.ir.effects import Use
from repro.remap.codegen import (
    EntryOp,
    ExitOp,
    PoisonOp,
    RemapOp,
    RestoreOp,
    SaveStatusOp,
    render_code,
    render_op,
)

FIG13 = """
subroutine main()
  integer n
  real A(n, n)
!hpf$ dynamic A
!hpf$ distribute A(block, *)
  compute reads A
  if c then
!hpf$   redistribute A(cyclic, *)
    compute writes A
  else
!hpf$   redistribute A(cyclic(2), *)
    compute reads A
  endif
!hpf$ redistribute A(block, *)
  compute reads A
end
"""


def compile_fig13(level=3):
    return compile_program(
        FIG13, bindings={"n": 8}, processors=4, options=CompilerOptions(level=level)
    )


def test_fig20_generated_structure():
    code = compile_fig13().get("main").code
    final = [
        op
        for op in code.all_ops()
        if isinstance(op, RemapOp) and op.leaving == 0 and len(op.reaching) == 2
    ]
    assert len(final) == 1
    op = final[0]
    assert op.reaching == {1, 2}
    assert op.use is Use.R
    text = "\n".join(render_op(op))
    # Fig. 20's structure, version for version: status test, conditional
    # allocation, liveness test, one guarded copy per reaching version,
    # live flag and status updates
    assert "if status(a) != 0" in text
    assert "allocate a_0 if needed" in text
    assert "if not live(a_0)" in text
    assert "if status(a) == 1: a_0 = a_1" in text
    assert "if status(a) == 2: a_0 = a_2" in text
    assert "live(a_0) = true" in text
    assert "status(a) = 0" in text


def test_naive_ops_have_no_status_checks():
    code = compile_fig13(level=0).get("main").code
    remaps = [op for op in code.all_ops() if isinstance(op, RemapOp)]
    assert remaps
    assert all(not op.check_status for op in remaps)
    # naive keeps only the leaving copy
    assert all(op.keep == {op.leaving} for op in remaps)


def test_optimized_keep_sets_follow_M():
    compiled = compile_fig13(level=2)
    code = compiled.get("main").code
    # the else-branch remap keeps copy 0 alive for the return trip
    else_remap = [
        op for op in code.all_ops() if isinstance(op, RemapOp) and op.leaving == 2
    ]
    assert len(else_remap) == 1
    assert 0 in else_remap[0].keep


def test_entry_and_exit_ops_present():
    code = compile_fig13().get("main").code
    assert isinstance(code.entry_ops[0], EntryOp)
    assert isinstance(code.exit_ops[-1], ExitOp)


def test_removed_vertices_generate_nothing():
    src = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ redistribute A(cyclic)
!hpf$ redistribute A(block)
  compute reads A
end
"""
    compiled = compile_program(
        src, bindings={"n": 8}, processors=4, options=CompilerOptions(level=3)
    )
    code = compiled.get("main").code
    remaps = [op for op in code.all_ops() if isinstance(op, RemapOp)]
    # first remap removed (U=N); second survives but its reaching is {0}
    assert len(remaps) == 1
    assert remaps[0].leaving == 0 or remaps[0].reaching == frozenset({0})


def test_dead_copy_generates_no_copy_statement():
    """U = D (the array is fully redefined before any read): the target
    version is allocated, never copied."""
    src = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ redistribute A(cyclic)
  compute defines A
  compute reads A
end
"""
    compiled = compile_program(src, bindings={"n": 8}, processors=4)
    remaps = [
        op for op in compiled.get("main").code.all_ops() if isinstance(op, RemapOp)
    ]
    assert len(remaps) == 1
    text = "\n".join(render_op(remaps[0]))
    assert "no copy" in text
    assert "a_1 = a_0" not in text


def test_kill_generates_poison_op():
    src = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
!hpf$ kill A
  compute defines A
end
"""
    compiled = compile_program(src, bindings={"n": 8}, processors=4)
    ops = compiled.get("main").code.all_ops()
    assert any(isinstance(op, PoisonOp) and op.array == "a" for op in ops)


def test_naive_call_restore_uses_save_restore():
    src = """
subroutine foo(X)
  integer n
  real X(n)
  intent inout X
!hpf$ distribute X(block(8))
  compute writes X
end

subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(cyclic)
  compute writes A
  if c then
!hpf$   redistribute A(cyclic(2))
    compute reads A
  endif
  call foo(A)
!hpf$ redistribute A(block)
  compute reads A
end
"""
    compiled = compile_program(
        src, bindings={"n": 16}, processors=4, options=CompilerOptions(level=0)
    )
    ops = compiled.get("main").code.all_ops()
    saves = [op for op in ops if isinstance(op, SaveStatusOp)]
    restores = [op for op in ops if isinstance(op, RestoreOp)]
    assert len(saves) == 1 and len(restores) == 1
    assert saves[0].slot == restores[0].slot
    assert restores[0].possible == {0, 1}
    # Fig. 18 rendering: one guarded restore per possible mapping
    text = "\n".join(render_op(restores[0]))
    assert text.count("remap a to") == 2


def test_optimized_removes_unused_ambiguous_restore():
    src = """
subroutine foo(X)
  integer n
  real X(n)
  intent inout X
!hpf$ distribute X(block(8))
  compute writes X
end

subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(cyclic)
  compute writes A
  if c then
!hpf$   redistribute A(cyclic(2))
    compute reads A
  endif
  call foo(A)
!hpf$ redistribute A(block)
  compute reads A
end
"""
    compiled = compile_program(
        src, bindings={"n": 16}, processors=4, options=CompilerOptions(level=3)
    )
    ops = compiled.get("main").code.all_ops()
    assert not any(isinstance(op, (SaveStatusOp, RestoreOp)) for op in ops)


def test_render_code_and_report_smoke():
    compiled = compile_fig13()
    text = render_code(compiled.get("main").code)
    assert "status(a)" in text
    report = compilation_report(compiled)
    assert "remapping graph G_R" in report
    assert "a_0" in report and "a_1" in report
    assert "optimization level 3" in report


def test_render_unknown_op_rejected():
    with pytest.raises(TypeError):
        render_op(object())  # type: ignore[arg-type]
