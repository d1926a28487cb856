"""Unit tests for CFG lowering."""

from __future__ import annotations


from repro.ir.cfg import NodeKind, build_cfg
from repro.lang import parse_program, resolve_program
from repro.mapping import ProcessorArrangement

P4 = ProcessorArrangement("P", (4,))


def cfg_of(src: str, bindings=None):
    prog = resolve_program(parse_program(src), bindings or {"n": 8}, P4)
    sub = prog.get(next(iter(prog.subroutines)))
    return build_cfg(sub.body)


def kinds(cfg):
    return [cfg.nodes[i].kind for i in sorted(cfg.nodes)]


def test_minimal_cfg_has_boundary_vertices():
    cfg = cfg_of(
        """
subroutine s()
  real A(n)
  compute reads A
end
"""
    )
    ks = kinds(cfg)
    assert ks[0] is NodeKind.CALLV
    assert ks[1] is NodeKind.ENTRY
    assert NodeKind.COMPUTE in ks
    assert ks[-1] is NodeKind.EXIT
    assert cfg.entry == 0 and cfg.exit == len(cfg) - 1


def test_if_produces_branch_and_join():
    cfg = cfg_of(
        """
subroutine s()
  real A(n)
  if c then
    compute reads A
  else
    compute writes A
  endif
end
"""
    )
    branch = next(n for n in cfg.nodes.values() if n.kind is NodeKind.BRANCH)
    assert len(cfg.succs[branch.id]) == 2
    join = next(n for n in cfg.nodes.values() if n.kind is NodeKind.JOIN)
    assert len(cfg.preds[join.id]) == 2


def test_empty_else_branch_flows_through_branch_node():
    cfg = cfg_of(
        """
subroutine s()
  real A(n)
  if c then
    compute reads A
  endif
end
"""
    )
    branch = next(n for n in cfg.nodes.values() if n.kind is NodeKind.BRANCH)
    join = next(n for n in cfg.nodes.values() if n.kind is NodeKind.JOIN)
    assert join.id in cfg.succs[branch.id]  # direct skip edge


def test_loop_has_back_edge_and_fallthrough():
    cfg = cfg_of(
        """
subroutine s(m)
  integer m
  real A(n)
  do i = 1, m
    compute reads A
  enddo
end
"""
    )
    head = next(n for n in cfg.nodes.values() if n.kind is NodeKind.LOOP_HEAD)
    comp = next(n for n in cfg.nodes.values() if n.kind is NodeKind.COMPUTE)
    assert comp.id in cfg.succs[head.id]  # into the body
    assert head.id in cfg.succs[comp.id]  # back edge
    assert cfg.exit in cfg.succs[head.id]  # zero-trip fall-through


def test_call_expands_into_three_nodes():
    cfg = cfg_of(
        """
subroutine callee(X)
  real X(n)
end

subroutine s()
  real A(n)
  call callee(A)
end
"""
    )
    # note: cfg_of builds the FIRST subroutine; rebuild for 's'
    prog = resolve_program(
        parse_program(
            """
subroutine callee(X)
  real X(n)
end

subroutine s()
  real A(n)
  call callee(A)
end
"""
        ),
        {"n": 8},
        P4,
    )
    cfg = build_cfg(prog.get("s").body)
    ks = kinds(cfg)
    i = ks.index(NodeKind.CALL_BEFORE)
    assert ks[i + 1] is NodeKind.CALL
    assert ks[i + 2] is NodeKind.CALL_AFTER
    vb, call, va = (cfg.nodes[j] for j in (i, i + 1, i + 2))
    assert vb.call_group == call.call_group == va.call_group


def test_remap_vertices_flagged():
    cfg = cfg_of(
        """
subroutine s()
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
!hpf$ redistribute A(cyclic)
!hpf$ kill A
end
"""
    )
    remap = next(n for n in cfg.nodes.values() if n.kind is NodeKind.REMAP)
    kill = next(n for n in cfg.nodes.values() if n.kind is NodeKind.KILL)
    assert remap.is_remap_vertex
    assert kill.is_remap_vertex
    compute_like = [n for n in cfg.nodes.values() if n.kind is NodeKind.JOIN]
    assert all(not n.is_remap_vertex for n in compute_like)


def test_rpo_starts_at_entry():
    cfg = cfg_of(
        """
subroutine s(m)
  integer m
  real A(n)
  do i = 1, m
    if c then
      compute reads A
    endif
  enddo
end
"""
    )
    order = cfg.rpo()
    assert order[0] == cfg.entry
    assert set(order) == set(cfg.nodes)


def test_node_of_stmt_lookup():
    src = """
subroutine s()
  real A(n)
  compute "x" reads A
end
"""
    prog = resolve_program(parse_program(src), {"n": 8}, P4)
    sub = prog.get("s")
    cfg = build_cfg(sub.body)
    stmt = sub.body.stmts[0]
    assert cfg.node_of_stmt(stmt).kind is NodeKind.COMPUTE
