"""A statement is named by its CFG node, not by its object.

Every per-statement map of an artifact -- version annotations, the ops
generated before and after a statement -- keys by CFG node id, and the CFG
alone maps a statement object to its node.  So artifacts compare by value
across compiles, pickles and deep copies, and a statement object placed at
two positions of one program (legal: the AST compares by value) runs each
position's ops once, exactly as its distinct-object twin does.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro import (
    ArtifactStore,
    CompilerOptions,
    CompilerSession,
    ExecutionEnv,
    Executor,
    Machine,
    compile_program,
)
from repro.ir.cfg import NodeKind
from repro.lang.ast_nodes import Block, Program, walk_statements
from repro.lang.parser import parse_program

FIG12 = """
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

# w; redistribute A(cyclic); r1; redistribute A(block); r2;
# redistribute A(cyclic); r3
LINE = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
!hpf$ redistribute A(cyclic)
  compute reads A
!hpf$ redistribute A(block)
  compute reads A
!hpf$ redistribute A(cyclic)
  compute reads A
end
"""

BRANCH = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  if c1 then
!hpf$   redistribute A(cyclic)
    compute writes A reads A
  else
!hpf$   redistribute A(cyclic)
    compute writes A reads A
  endif
  compute reads A
end
"""


def _program(sub, stmts) -> Program:
    return Program((dataclasses.replace(sub, body=Block(tuple(stmts))),))


def _line_reusing_its_first_redistribute() -> Program:
    """``LINE`` whose last redistribute is the first one's object."""
    sub = parse_program(LINE).subroutines[0]
    stmts = sub.body.stmts
    return _program(sub, stmts[:5] + stmts[1:2] + stmts[6:])


def _branch_with_one_block_for_both_arms() -> Program:
    """``BRANCH`` whose ``else`` arm is the ``then`` arm's ``Block`` object."""
    sub = parse_program(BRANCH).subroutines[0]
    first, branch, *rest = sub.body.stmts
    return _program(sub, (first, dataclasses.replace(branch, orelse=branch.then), *rest))


SHARED = {
    "line": (_line_reusing_its_first_redistribute, LINE),
    "branch": (_branch_with_one_block_for_both_arms, BRANCH),
}

MODES = ("eager", "symbolic", "patched", "store")


def _serve(source, mode: str, c1: bool, store_dir):
    """Run ``source`` at n = 16 on 4 processors: eagerly compiled, through
    a symbolized level-3 compile, patched from the template a compile at
    n = 8 cut, or loaded from a store another session wrote.  Returns the
    values and the traffic snapshot."""
    symbolic = mode in ("symbolic", "patched")
    options = CompilerOptions.symbolic(level=3) if symbolic else CompilerOptions()
    request = dict(bindings={"n": 16})
    session = CompilerSession(processors=4, options=options)
    if mode == "patched":
        session.compile(source, bindings={"n": 8})
        assert session.compile_traced(source, **request)[1] == "instantiated"
    if mode == "store":
        store = ArtifactStore(store_dir)
        CompilerSession(processors=4, options=options, store=store).compile(source, **request)
        session = CompilerSession(processors=4, options=options, store=store)
        assert session.compile_traced(source, **request)[1] == "disk"
    result = session.run(
        source, conditions={"c1": c1}, inputs={"a": np.arange(16.0)}, **request
    )
    return result.value("a"), result.stats.snapshot()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shape", sorted(SHARED))
def test_a_statement_object_used_twice_runs_like_its_distinct_twin(shape, mode, tmp_path):
    build, twin_text = SHARED[shape]
    shared = build()
    twin = parse_program(twin_text)
    assert shared == twin  # one program, spelled with a repeated object
    for c1 in (True, False):
        values, stats = _serve(shared, mode, c1, tmp_path / f"shared-{c1}")
        ref_values, ref_stats = _serve(twin, mode, c1, tmp_path / f"twin-{c1}")
        assert np.array_equal(values, ref_values), (shape, mode, c1)
        assert stats == ref_stats, (shape, mode, c1)


def test_resolution_gives_every_occurrence_its_own_object():
    shared = _branch_with_one_block_for_both_arms()
    compiled = compile_program(shared, bindings={"n": 16}, processors=4)
    body = compiled.get("main").sub.body
    stmts = list(walk_statements(body))
    assert len({id(s) for s in stmts}) == len(stmts)
    # nothing under the first compute changed, so it is the parsed object
    assert body.stmts[0] is shared.subroutines[0].body.stmts[0]
    cfg = compiled.get("main").construction.cfg
    assert len(cfg.stmt_nodes) == len(stmts)


# ---------------------------------------------------------------------------
# artifacts compare by value
# ---------------------------------------------------------------------------

FIG12_REQUEST = dict(bindings={"n": 16, "m": 3}, processors=4)


def _run(compiled, c1: bool):
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions={"c1": c1},
        bindings=dict(FIG12_REQUEST["bindings"]),
        inputs={"a": np.arange(256.0).reshape(16, 16)},
    )
    result = Executor(compiled, machine, env).run("remap")
    return {a: result.value(a) for a in compiled.get("remap").sub.arrays}, machine.stats


def test_fig12_artifacts_compare_by_value():
    first = compile_program(FIG12, **FIG12_REQUEST)
    again = compile_program(FIG12, **FIG12_REQUEST)  # a second parse
    loaded = pickle.loads(pickle.dumps(first))
    copied = copy.deepcopy(first)
    for other in (again, loaded, copied):
        for name, cs in first.subroutines.items():
            assert other.get(name).code == cs.code
            assert (
                other.get(name).construction.stmt_versions
                == cs.construction.stmt_versions
            )

    # the loaded CFG indexes each statement of its own body, one to one
    for cs in loaded.subroutines.values():
        cfg = cs.construction.cfg
        stmts = list(walk_statements(cs.sub.body))
        carriers = {
            n.id
            for n in cfg.nodes.values()
            if n.stmt is not None
            and n.kind not in (NodeKind.CALL_BEFORE, NodeKind.CALL_AFTER)
        }
        assert {cfg.node_of_stmt(s).id for s in stmts} == carriers
        assert len(cfg.stmt_nodes) == len(stmts) == len(carriers)
        assert all(cfg.node_of_stmt(s).stmt is s for s in stmts)

    for c1 in (True, False):
        ref_values, ref_stats = _run(again, c1)
        values, stats = _run(loaded, c1)
        for a in ref_values:
            assert np.array_equal(values[a], ref_values[a], equal_nan=True), (c1, a)
        assert stats.snapshot() == ref_stats.snapshot(), c1
