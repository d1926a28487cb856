"""Tests for the G_R dataflow optimizations (paper Sec. 4, Appendix C/D)."""

from __future__ import annotations


from repro.apps.figures import FIG1, FIG2, FIG4, FIG10, FIG13, FIG16_READ_ONLY
from repro.ir.cfg import NodeKind
from repro.ir.effects import Use
from repro.lang import parse_program, parse_subroutine, resolve_program
from repro.lang.ast_nodes import Do, Program, Redistribute
from repro.lang.printer import print_program
from repro.mapping import ProcessorArrangement
from repro.remap import (
    build_remapping_graph,
    compute_live_copies,
    hoist_loop_invariant_remaps,
    remove_useless_remappings,
)
from repro.remap.livecopies import max_live_copies

P4 = ProcessorArrangement("P", (4,))


def construct(src: str, bindings=None, procs=P4, sub_name: str | None = None):
    prog = resolve_program(
        parse_program(src), bindings=bindings or {"n": 16}, default_processors=procs
    )
    name = sub_name or next(iter(prog.subroutines))
    return build_remapping_graph(prog.get(name), prog)


# ---------------------------------------------------------------------------
# Appendix C: useless remapping removal
# ---------------------------------------------------------------------------


def test_fig2_useless_remaps_removed():
    """Figure 2: C is remapped away and back without any use: both removed."""
    res = construct(FIG2)
    g = res.graph
    report = remove_useless_remappings(g)
    removed_arrays = [a for (_, a) in report.removed]
    # C's first remapping is useless (unused until remapped back)
    assert "c" in removed_arrays
    remaps = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.REMAP),
        key=lambda v: v.cfg_id,
    )
    assert "c" in remaps[0].removed
    # after removal, the second remapping of C is reached by the ORIGINAL copy
    assert remaps[1].R["c"] == {0}
    # ... and since it restores mapping 0 from copy 0, the runtime will skip it
    assert remaps[1].L["c"] == 0
    # B is read in between: kept
    assert "b" not in remaps[0].removed


def test_fig3_only_used_arrays_keep_remappings():
    """Figure 3: five aligned arrays, only A and D used after redistribution."""
    src = """
subroutine s()
  integer n
  real A(n), B(n), C(n), D(n), E(n)
!hpf$ template T(n)
!hpf$ align with T :: A, B, C, D, E
!hpf$ dynamic A, B, C, D, E
!hpf$ distribute T(block)
  compute reads A, B, C, D, E
!hpf$ redistribute T(cyclic)
  compute reads A, D
end
"""
    res = construct(src)
    g = res.graph
    remap = next(v for v in g.vertices.values() if v.kind is NodeKind.REMAP)
    assert remap.S == {"a", "b", "c", "d", "e"}
    report = remove_useless_remappings(g)
    kept = {a for (_, a) in report.kept if g.vertices[_].kind is NodeKind.REMAP}
    assert kept == {"a", "d"}
    assert remap.removed == {"b", "c", "e"}


def test_fig12_used_version_sets():
    """Figure 12: A used with all four mappings, B only {0,1}, C only {2,3}."""
    res = construct(FIG10)
    g = res.graph
    remove_useless_remappings(g)
    assert g.used_versions("a") == {0, 1, 2, 3}
    assert g.used_versions("b") == {0, 1}
    assert g.used_versions("c") == {0, 3}  # used at loop mappings only
    assert g.removed_count() > 0  # so some instances are never instantiated


def test_removal_transitive_closure_chain():
    """remap -> remap -> remap with no uses in between: the reaching set of
    the last vertex must transitively reach back to the original copy."""
    src = """
subroutine s()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ redistribute A(cyclic)
!hpf$ redistribute A(cyclic(2))
!hpf$ redistribute A(block(8))
  compute reads A
end
"""
    res = construct(src)
    g = res.graph
    remove_useless_remappings(g)
    remaps = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.REMAP),
        key=lambda v: v.cfg_id,
    )
    assert "a" in remaps[0].removed
    assert "a" in remaps[1].removed
    assert "a" not in remaps[2].removed
    # direct remapping: block -> block(8), skipping the two dead mappings
    assert remaps[2].R["a"] == {0}


def test_fig1_direct_remapping_after_removal():
    """Figure 1: realign then redistribute; the intermediate mapping is unused,
    so after removal A goes directly from the initial to the final mapping."""
    res = construct(FIG1)
    g = res.graph
    remove_useless_remappings(g)
    remaps = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.REMAP),
        key=lambda v: v.cfg_id,
    )
    realign_v, redist_v = remaps
    # the realign's A copy is unused before the redistribute: removed
    assert "a" in realign_v.removed
    # so the redistribute receives A directly from its initial copy
    assert redist_v.R["a"] == {0}
    assert redist_v.L["a"] is not None and redist_v.L["a"] != 0


def test_fig4_interprocedural_removal():
    """Figure 4: restores between consecutive calls are removed."""
    res = construct(FIG4, sub_name="main")
    g = res.graph
    report = remove_useless_remappings(g)
    vas = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.CALL_AFTER),
        key=lambda v: v.cfg_id,
    )
    assert "y" in vas[0].removed
    assert "y" in vas[1].removed
    assert "y" not in vas[2].removed
    # the second foo call's v_b is now reached by foo's own dummy mapping:
    # runtime will skip the copy entirely
    vbs = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.CALL_BEFORE),
        key=lambda v: v.cfg_id,
    )
    assert vbs[1].R["y"] == {vbs[0].L["y"]}


def test_removal_keeps_exit_restore_of_inout_dummy():
    src = """
subroutine s(A)
  integer n
  real A(n)
  intent inout A
!hpf$ dynamic A
!hpf$ distribute A(block)
!hpf$ redistribute A(cyclic)
  compute writes A
end
"""
    res = construct(src)
    g = res.graph
    remove_useless_remappings(g)
    v_e = g.vertices[res.cfg.exit]
    # A modified and exported: the exit restore must stay
    assert "a" in v_e.S and "a" not in v_e.removed
    assert v_e.U["a"] is Use.W


def test_removal_drops_exit_restore_of_in_dummy():
    src = """
subroutine s(A)
  integer n
  real A(n)
  intent in A
!hpf$ dynamic A
!hpf$ distribute A(block)
!hpf$ redistribute A(cyclic)
  compute reads A
end
"""
    res = construct(src)
    g = res.graph
    remove_useless_remappings(g)
    v_e = g.vertices[res.cfg.exit]
    # intent(in): nothing is exported, the exit restore is useless
    assert "a" in v_e.removed


# ---------------------------------------------------------------------------
# Appendix D: dynamic live copies
# ---------------------------------------------------------------------------


def test_fig13_live_copy_sets():
    res = construct(FIG13)
    g = res.graph
    remove_useless_remappings(g)
    compute_live_copies(g)
    remaps = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.REMAP),
        key=lambda v: v.cfg_id,
    )
    v1, v2, v3 = remaps
    # after v2 (else branch, A only read), the original copy 0 is worth
    # keeping: the final remapping returns to mapping 0
    assert 0 in v2.M["a"]
    # after v1 (then branch, A written), older copies would be stale anyway,
    # but M still records what may be useful *from here on*: v1's U is W, so
    # nothing propagates backward through it beyond its own leaving copy
    assert v1.M["a"] == {v1.L["a"]}
    # after the final remapping nothing else is worth keeping
    assert v3.M["a"] == {v3.L["a"]}


def test_fig13_keeping_copy_0_is_flow_dependent():
    """Paper: 'depending on the execution path, copy A_0 may reach remapping
    3 live or not' -- the static M keeps it, the runtime flags decide."""
    res = construct(FIG13)
    g = res.graph
    remove_useless_remappings(g)
    compute_live_copies(g)
    v_0_vertices = [
        v
        for v in g.vertices.values()
        if v.kind in (NodeKind.ENTRY,) and "a" in v.S
    ]
    assert len(v_0_vertices) == 1
    # at the producer, copy 0 is worth keeping (it may be reused at the end)
    assert 0 in v_0_vertices[0].M["a"]


def test_live_copies_not_kept_when_never_reused():
    src = """
subroutine s()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ redistribute A(cyclic)
  compute reads A
end
"""
    res = construct(src)
    g = res.graph
    remove_useless_remappings(g)
    compute_live_copies(g)
    remap = next(v for v in g.vertices.values() if v.kind is NodeKind.REMAP)
    # no later remapping returns to copy 0: keeping it buys nothing
    assert remap.M["a"] == {remap.L["a"]}
    # at the producer v_0 the backward propagation vacuously includes the
    # future copy 1 (it is not live yet, so nothing is actually kept)
    assert max_live_copies(g, "a") <= 2


def test_live_copies_through_loop():
    """A loop alternating between two mappings keeps both copies live when the
    array is only read inside."""
    src = """
subroutine s(m)
  integer n, m
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  do i = 1, m
!hpf$   redistribute A(cyclic)
    compute reads A
!hpf$   redistribute A(block)
    compute reads A
  enddo
end
"""
    res = construct(src, bindings={"n": 16, "m": 4})
    g = res.graph
    remove_useless_remappings(g)
    compute_live_copies(g)
    remaps = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.REMAP),
        key=lambda v: v.cfg_id,
    )
    # at the loop-top remapping both copies are worth keeping: after the
    # first iteration neither remapping communicates again
    assert remaps[0].M["a"] == {0, 1}
    assert remaps[1].M["a"] == {0, 1}


# ---------------------------------------------------------------------------
# loop-invariant remapping motion (Fig. 16/17)
# ---------------------------------------------------------------------------


def test_fig16_trailing_remap_sunk():
    sub = parse_subroutine(FIG16_READ_ONLY)
    new_sub, report = hoist_loop_invariant_remaps(sub)
    assert report.count == 1
    # the loop body now holds one redistribute; another follows the loop
    loop = next(s for s in new_sub.body.stmts if isinstance(s, Do))
    body_remaps = [s for s in loop.body.stmts if isinstance(s, Redistribute)]
    assert len(body_remaps) == 1
    after = new_sub.body.stmts[new_sub.body.stmts.index(loop) + 1]
    assert isinstance(after, Redistribute)
    assert after.formats[0].kind == "block"


def test_fig16_motion_preserves_wellformedness():
    sub = parse_subroutine(FIG16_READ_ONLY)
    new_sub, _ = hoist_loop_invariant_remaps(sub)
    prog = resolve_program(
        Program((new_sub,)), bindings={"n": 16, "t": 3}, default_processors=P4
    )
    res = build_remapping_graph(prog.get("main"), prog)
    assert res.graph.remap_count() > 0


def test_motion_blocked_by_reference_before_leading_remap():
    src = """
subroutine s(t)
  integer n, t
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  do i = 1, t
    compute reads A
!hpf$   redistribute A(cyclic)
    compute reads A
!hpf$   redistribute A(block)
  enddo
end
"""
    _, report = hoist_loop_invariant_remaps(parse_subroutine(src))
    # A is referenced (in block mapping) before the leading remapping:
    # sinking the trailing restore would break that reference
    assert report.count == 0


def test_motion_respects_alignment_family():
    src = """
subroutine s(t)
  integer n, t
  real A(n), B(n)
!hpf$ align with A :: B
!hpf$ dynamic A, B
!hpf$ distribute A(block)
  do i = 1, t
    compute reads B
!hpf$   redistribute A(cyclic)
    compute reads A
!hpf$   redistribute A(block)
  enddo
end
"""
    _, report = hoist_loop_invariant_remaps(parse_subroutine(src))
    # B is aligned with A and referenced before the leading remapping
    assert report.count == 0


def test_motion_skipped_when_realign_present():
    src = """
subroutine s(t)
  integer n, t
  real A(n, n), B(n, n)
!hpf$ align with B :: A
!hpf$ dynamic A, B
!hpf$ distribute B(block, *)
  do i = 1, t
!hpf$   realign A(i, j) with B(j, i)
!hpf$   redistribute B(cyclic, *)
    compute reads A
!hpf$   redistribute B(block, *)
  enddo
end
"""
    _, report = hoist_loop_invariant_remaps(parse_subroutine(src))
    assert report.count == 0


def test_motion_nested_loops():
    src = """
subroutine s(t)
  integer n, t
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  do j = 1, t
    do i = 1, t
!hpf$     redistribute A(cyclic)
      compute reads A
!hpf$     redistribute A(block)
    enddo
  enddo
end
"""
    sub, report = hoist_loop_invariant_remaps(parse_subroutine(src))
    # inner sink; the sunk statement becomes the outer body's tail, where the
    # same rule applies again
    assert report.count == 2
    outer = next(s for s in sub.body.stmts if isinstance(s, Do))
    assert isinstance(sub.body.stmts[-1], Redistribute)
    inner = next(s for s in outer.body.stmts if isinstance(s, Do))
    assert len([s for s in inner.body.stmts if isinstance(s, Redistribute)]) == 1


def test_motion_roundtrips_through_printer():
    sub, _ = hoist_loop_invariant_remaps(parse_subroutine(FIG16_READ_ONLY))
    text = print_program(Program((sub,)))
    assert parse_program(text) == Program((sub,))


# ---------------------------------------------------------------------------
# kill directive (Sec. 4.3)
# ---------------------------------------------------------------------------


def test_kill_marks_next_remap_dead_source():
    src = """
subroutine s()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ kill A
!hpf$ redistribute A(cyclic)
  compute writes A
end
"""
    res = construct(src)
    remap = next(
        v for v in res.graph.vertices.values() if v.kind is NodeKind.REMAP
    )
    # values are dead across the remapping: no communication needed
    assert "a" in remap.dead_source
    # but the copy itself is still used (written) afterwards: not removed
    remove_useless_remappings(res.graph)
    assert "a" not in remap.removed


def test_kill_on_one_path_only_is_not_dead():
    src = """
subroutine s()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
  if c then
!hpf$   kill A
  endif
!hpf$ redistribute A(cyclic)
  compute reads A
end
"""
    res = construct(src)
    remap = next(
        v for v in res.graph.vertices.values() if v.kind is NodeKind.REMAP
    )
    # dead on the then path only: must-analysis says live
    assert "a" not in remap.dead_source


def test_write_after_kill_revives():
    src = """
subroutine s()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
!hpf$ kill A
  compute defines A
!hpf$ redistribute A(cyclic)
  compute reads A
end
"""
    res = construct(src)
    remap = next(
        v for v in res.graph.vertices.values() if v.kind is NodeKind.REMAP
    )
    assert "a" not in remap.dead_source
