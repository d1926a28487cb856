"""Tests for remapping-graph construction (paper Sec. 3, Appendix B).

The main fixtures are the paper's own figures: Figure 10's routine (whose
graph is Figure 11), the legality examples of Figures 5/6/21, and the
call-handling examples of Figures 4/8/15/23.
"""

from __future__ import annotations

import pytest

from repro.apps.workloads import chain_subroutine
from repro.errors import AmbiguousMappingError, MultipleLeavingMappingsError
from repro.ir.cfg import NodeKind
from repro.ir.effects import Use
from repro.lang import parse_program, resolve_program
from repro.mapping import DistKind, ProcessorArrangement
from repro.remap import build_remapping_graph

P4 = ProcessorArrangement("P", (4,))


def construct(src: str, bindings=None, procs=P4, sub_name: str | None = None):
    prog = resolve_program(
        parse_program(src), bindings=bindings or {"n": 16}, default_processors=procs
    )
    name = sub_name or next(iter(prog.subroutines))
    sub = prog.get(name)
    return build_remapping_graph(sub, prog)


# ---------------------------------------------------------------------------
# Figure 10 / Figure 11: the running example
# ---------------------------------------------------------------------------

FIG10 = """
subroutine remap(A, m)
  integer m, n, p
  real A(n,n), B(n,n), C(n,n)
  intent inout A
!hpf$ align with A :: B, C
!hpf$ dynamic A, B, C
!hpf$ distribute A(block, *)
  compute "init" writes B reads A
  if c1 then
!hpf$   redistribute A(cyclic, *)
    compute writes A, p reads A, B
  else
!hpf$   redistribute A(block, block)
    compute writes p reads A
  endif
  do i = 1, m
!hpf$   redistribute A(*, block)
    compute writes C reads A
!hpf$   redistribute A(block, *)
    compute writes A reads A, C
  enddo
end
"""


@pytest.fixture(scope="module")
def fig10():
    return construct(FIG10, procs=ProcessorArrangement("P", (2, 2)))


def test_fig10_seven_vertices(fig10):
    # four remapping statements + v_c + v_0 + v_e = 7 (paper Sec. 3.3)
    assert len(fig10.graph.vertices) == 7


def test_fig10_four_versions_of_each_array(fig10):
    # block-row, cyclic-row, block-block, block-col mappings
    assert fig10.versions.count("a") == 4
    assert fig10.versions.count("b") == 4
    assert fig10.versions.count("c") == 4


def test_fig10_aligned_arrays_all_remapped_together(fig10):
    remaps = [
        v for v in fig10.graph.vertices.values() if v.kind is NodeKind.REMAP
    ]
    assert len(remaps) == 4
    for v in remaps:
        assert v.S == {"a", "b", "c"}


def test_fig10_use_information(fig10):
    g = fig10.graph
    remaps = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.REMAP),
        key=lambda v: v.cfg_id,
    )
    v1, v2, v3, v4 = remaps  # cyclic / block-block / col-block / row-block
    # vertex 1 (then branch): A written and read, B read, C never used
    assert v1.U["a"] is Use.W
    assert v1.U["b"] is Use.R
    assert v1.U["c"] is Use.N
    # vertex 2 (else branch): only A read
    assert v2.U["a"] is Use.R
    assert v2.U["b"] is Use.N
    assert v2.U["c"] is Use.N
    # vertex 3 (loop top): C written, A read
    assert v3.U["a"] is Use.R
    assert v3.U["c"] is Use.W
    assert v3.U["b"] is Use.N
    # vertex 4 (loop bottom): A written+read, C read; loop may exit to v_e
    assert v4.U["a"] is Use.W
    assert v4.U["c"] is Use.R


def test_fig10_loop_zero_trip_edges(fig10):
    """Paper: 'the loop nest may have no iteration, thus the remappings within
    may be skipped' -- the branch vertices must have edges to v_e (via skip)."""
    g = fig10.graph
    v_e = fig10.cfg.exit
    remaps = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.REMAP),
        key=lambda v: v.cfg_id,
    )
    v1, v2, v3, v4 = remaps
    # A must be restored at exit (dummy), reachable directly from the branch
    # remaps when the loop body never executes
    assert v_e in g.succs(v1.cfg_id, "a")
    assert v_e in g.succs(v2.cfg_id, "a")
    assert v_e in g.succs(v4.cfg_id, "a")
    # and from inside the loop to its own top (back edge path)
    assert v3.cfg_id in g.succs(v4.cfg_id, "a")
    assert v4.cfg_id in g.succs(v3.cfg_id, "a")


def test_fig10_reaching_copies(fig10):
    g = fig10.graph
    remaps = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.REMAP),
        key=lambda v: v.cfg_id,
    )
    v1, v2, v3, v4 = remaps
    # the loop-top remap may be reached from either branch or the loop bottom
    assert v3.R["a"] == {v1.L["a"], v2.L["a"], v4.L["a"]}
    # the branch remaps are reached only by the initial mapping
    assert v1.R["a"] == {0}
    assert v2.R["a"] == {0}


def test_fig10_exit_restores_dummy(fig10):
    g = fig10.graph
    v_e = g.vertices[fig10.cfg.exit]
    assert "a" in v_e.S
    assert v_e.L["a"] == 0
    # locals need no exit remapping
    assert "b" not in v_e.S and "c" not in v_e.S


def test_fig10_references_annotated(fig10):
    # every compute sees exactly one version of each referenced array
    assert fig10.stmt_versions  # non-empty
    for ann in fig10.stmt_versions.values():
        for a, v in ann.items():
            assert 0 <= v < fig10.versions.count(a)


# ---------------------------------------------------------------------------
# legality: Figures 5, 6, 21
# ---------------------------------------------------------------------------


def test_fig5_ambiguous_reference_rejected():
    src = """
subroutine s()
  integer n
  real A(n, n)
!hpf$ template T1(n, n)
!hpf$ template T2(n, n)
!hpf$ align A with T1
!hpf$ dynamic A
!hpf$ distribute T1(block, *)
!hpf$ distribute T2(block, *)
  compute reads A
  if c then
!hpf$   realign A with T2
    compute reads A
  endif
!hpf$ redistribute T2(cyclic, *)
  compute reads A
end
"""
    with pytest.raises((AmbiguousMappingError, MultipleLeavingMappingsError)):
        construct(src)


def test_fig6_ambiguous_state_without_reference_accepted():
    src = """
subroutine s()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
  if c then
!hpf$   redistribute A(cyclic)
    compute reads A
  endif
!hpf$ redistribute A(cyclic)
  compute reads A
end
"""
    res = construct(src)  # must not raise
    # the final redistribute is reached by both block and cyclic
    g = res.graph
    final = [
        v
        for v in g.vertices.values()
        if v.kind is NodeKind.REMAP and len(v.R.get("a", ())) == 2
    ]
    assert len(final) == 1


def test_fig6_like_reference_in_ambiguous_state_rejected():
    src = """
subroutine s()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  if c then
!hpf$   redistribute A(cyclic)
  endif
  compute reads A
end
"""
    with pytest.raises(AmbiguousMappingError):
        construct(src)


def test_fig21_multiple_leaving_mappings_rejected():
    src = """
subroutine s()
  integer n
  real A(n, n)
!hpf$ template T(n, n)
!hpf$ align A(i, j) with T(i, j)
!hpf$ dynamic A
!hpf$ distribute T(block, block)
  if c then
!hpf$   realign A(i, j) with T(j, i)
  endif
!hpf$ redistribute T(block, block)
  compute reads A
end
"""
    with pytest.raises((MultipleLeavingMappingsError, AmbiguousMappingError)):
        construct(src, procs=ProcessorArrangement("P", (2, 2)))


def test_redistribute_to_same_mapping_is_noop_vertex():
    src = """
subroutine s()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ redistribute A(block)
  compute reads A
end
"""
    res = construct(src)
    remaps = [v for v in res.graph.vertices.values() if v.kind is NodeKind.REMAP]
    assert all(not v.S for v in remaps) or not remaps


def test_fig7_dynamic_array_becomes_static_versions():
    """Fig. 7: a dynamically remapped array is versioned into statically
    mapped copies, and every reference is rewritten to the right one."""
    src = """
subroutine s()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(cyclic)
  compute "one" reads A
!hpf$ redistribute A(block)
  compute "two" reads A
end
"""
    res = construct(src)
    assert res.versions.count("a") == 2
    m0, m1 = res.versions.versions("a")
    assert m0.dim_maps[0].kind is DistKind.CYCLIC
    assert m1.dim_maps[0].kind is DistKind.BLOCK
    assert sorted(v["a"] for v in res.stmt_versions.values()) == [0, 1]


@pytest.mark.parametrize("m", [4, 16])
def test_chain_program_has_one_vertex_per_remapping_statement(m):
    """Appendix B's shape: m remapping statements contract to m vertices
    (+ v_c, v_0, v_e), however many arrays each one remaps."""
    program = resolve_program(chain_subroutine(m=m, p=2), bindings={}, default_processors=P4)
    res = build_remapping_graph(program.get("chain"), program)
    assert len(res.graph.vertices) == m + 3


# ---------------------------------------------------------------------------
# figure 2: remap and back
# ---------------------------------------------------------------------------


def test_fig2_remap_back_creates_two_vertices():
    src = """
subroutine s()
  integer n
  real B(n, n), C(n, n)
!hpf$ template T(n, n)
!hpf$ align B with T
!hpf$ align C(i, j) with T(j, i)
!hpf$ dynamic B, C
!hpf$ distribute T(block, *)
  compute reads B, C
!hpf$ redistribute T(cyclic, *)
  compute reads B
!hpf$ redistribute T(block, *)
  compute reads B, C
end
"""
    res = construct(src)
    g = res.graph
    remaps = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.REMAP),
        key=lambda v: v.cfg_id,
    )
    assert len(remaps) == 2
    # C is remapped at both, back to its initial mapping at the second
    assert remaps[1].L["c"] == 0
    # C is unused between the remappings: N at the first vertex
    assert remaps[0].U["c"] is Use.N
    assert remaps[0].U["b"] is Use.R


# ---------------------------------------------------------------------------
# calls: figures 4, 8, 22, 23
# ---------------------------------------------------------------------------

FIG4 = """
subroutine foo(X)
  integer n
  real X(n)
  intent in X
!hpf$ distribute X(cyclic)
end

subroutine bla(X)
  integer n
  real X(n)
  intent in X
!hpf$ distribute X(cyclic)
end

subroutine main()
  integer n
  real Y(n)
!hpf$ dynamic Y
!hpf$ distribute Y(block)
  compute writes Y
  call foo(Y)
  call foo(Y)
  call bla(Y)
  compute reads Y
end
"""


@pytest.fixture(scope="module")
def fig4():
    return construct(FIG4, sub_name="main")


def test_fig4_call_sites_expand_to_vb_va(fig4):
    kinds = [v.kind for v in fig4.graph.vertices.values()]
    assert kinds.count(NodeKind.CALL_BEFORE) >= 1
    assert kinds.count(NodeKind.CALL_AFTER) >= 1


def test_fig4_vb_remaps_to_dummy_mapping(fig4):
    g = fig4.graph
    vbs = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.CALL_BEFORE),
        key=lambda v: v.cfg_id,
    )
    # first v_b: block -> cyclic
    assert vbs[0].R["y"] == {0}
    assert vbs[0].L["y"] == 1
    # intent(in): the callee only reads the argument
    assert vbs[0].U["y"] is Use.R


def test_fig4_va_restores_and_is_unused_between_calls(fig4):
    g = fig4.graph
    vas = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.CALL_AFTER),
        key=lambda v: v.cfg_id,
    )
    assert len(vas) == 3
    # between consecutive calls Y is not referenced: the restore is useless
    assert vas[0].U["y"] is Use.N
    assert vas[1].U["y"] is Use.N
    # after the last call Y is read: the restore is useful
    assert vas[2].U["y"] is Use.R
    assert vas[2].L["y"] == 0


def test_fig4_intermediate_vb_noop(fig4):
    g = fig4.graph
    vbs = sorted(
        (v for v in g.vertices.values() if v.kind is NodeKind.CALL_BEFORE),
        key=lambda v: v.cfg_id,
    )
    # second and third v_b still appear (restore happened in between)
    assert len(vbs) == 3


def test_intent_out_gives_D_call_effect():
    src = """
subroutine init(X)
  integer n
  real X(n)
  intent out X
!hpf$ distribute X(cyclic)
end

subroutine main()
  integer n
  real Y(n)
!hpf$ dynamic Y
!hpf$ distribute Y(block)
  call init(Y)
  compute reads Y
end
"""
    res = construct(src, sub_name="main")
    vbs = [
        v
        for v in res.graph.vertices.values()
        if v.kind is NodeKind.CALL_BEFORE and "y" in v.S
    ]
    assert len(vbs) == 1
    # intent(out): the callee fully redefines the argument -> D: the copy-in
    # at v_b needs no communication
    assert vbs[0].U["y"] is Use.D


def test_entry_exit_vertices_present(fig10):
    g = fig10.graph
    kinds = {v.kind for v in g.vertices.values()}
    assert NodeKind.CALLV in kinds
    assert NodeKind.ENTRY in kinds
    assert NodeKind.EXIT in kinds
    v_c = g.vertices[fig10.cfg.entry]
    assert v_c.S == {"a"}  # dummies produced at v_c
    v_0 = next(v for v in g.vertices.values() if v.kind is NodeKind.ENTRY)
    assert v_0.S == {"b", "c"}  # locals produced at v_0


def test_local_unreferenced_array_U_is_N():
    src = """
subroutine s()
  integer n
  real A(n), Z(n)
!hpf$ distribute A(block)
!hpf$ distribute Z(block)
  compute reads A
end
"""
    res = construct(src)
    v_0 = next(
        v for v in res.graph.vertices.values() if v.kind is NodeKind.ENTRY
    )
    assert v_0.U["z"] is Use.N
    assert v_0.U["a"] is Use.R
