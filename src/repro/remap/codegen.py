"""Copy code generation (paper Sec. 5.2, Fig. 19/20).

The generator turns each remapping-graph vertex into a small sequence of
*runtime ops* that the executor interprets.  The central op is
:class:`RemapOp`, whose runtime semantics are exactly the guarded code of
Fig. 20::

    if status(A) != l:
        allocate A_l if needed
        if not live(A_l):
            if U != D and values not dead:
                copy A_l <- A_{status(A)}     # status picks the reaching copy
            live(A_l) = true
        status(A) = l
    if U in {W, D}: every other copy becomes stale (marked dead)
    clean copies not worth keeping (not in M_A(v))

plus:

* ``SaveStatusOp``/``RestoreOp`` implement the reaching-status save/restore
  around call sites with flow-dependent argument mappings (Fig. 15/18);
* ``PoisonOp`` implements the kill directive's runtime side: values become
  observably dead, so tests can detect any use-after-kill;
* entry ops mark every copy dead ("no copy receives an a priori
  instantiation" -- instantiation is delayed to first use) and exit ops
  perform the full cleaning of local copies, sparing the caller-owned dummy
  copy.

Dead (``U = D``) and dead-source (kill) copies are allocated without any
communication; ``U = N`` copies were already removed from the graph by
Appendix C and generate nothing at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import NodeKind
from repro.ir.effects import Use
from repro.lang.ast_nodes import Call, Kill, Realign, Redistribute, Stmt
from repro.remap.construction import ConstructionResult
from repro.remap.graph import GRVertex

# ---------------------------------------------------------------------------
# runtime ops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemapOp:
    """Ensure ``array`` is current in version ``leaving`` (one Fig. 20 block)."""

    array: str
    leaving: int
    reaching: frozenset[int]
    use: Use
    keep: frozenset[int]
    dead_values: bool = False  # kill analysis: skip the copy communication
    check_status: bool = True  # False for the naive baseline: always copy
    label: str = ""


@dataclass(frozen=True)
class SaveStatusOp:
    """``reaching_A = status(A)`` before a call with ambiguous reaching mapping."""

    array: str
    slot: str


@dataclass(frozen=True)
class RestoreOp:
    """Restore the saved reaching mapping after the call (Fig. 18)."""

    array: str
    slot: str
    possible: frozenset[int]
    use: Use
    keep: frozenset[int]
    check_status: bool = True
    label: str = ""


@dataclass(frozen=True)
class PoisonOp:
    """Runtime side of ``kill``: the array's values become observably dead."""

    array: str


@dataclass(frozen=True)
class EntryOp:
    """Initialize runtime descriptors: statuses and all-dead live flags."""

    arrays: tuple[str, ...]


@dataclass(frozen=True)
class ExitOp:
    """Full cleaning of copies on exit, sparing caller-owned dummy storage."""

    arrays: tuple[str, ...]


RuntimeOp = RemapOp | SaveStatusOp | RestoreOp | PoisonOp | EntryOp | ExitOp


@dataclass
class GeneratedCode:
    """Ops attached to the structured program, keyed by AST statement identity."""

    entry_ops: list[RuntimeOp] = field(default_factory=list)
    exit_ops: list[RuntimeOp] = field(default_factory=list)
    before: dict[int, list[RuntimeOp]] = field(default_factory=dict)  # id(stmt)
    after: dict[int, list[RuntimeOp]] = field(default_factory=dict)

    def ops_for(self, stmt: Stmt) -> list[RuntimeOp]:
        return self.before.get(id(stmt), [])

    def ops_after(self, stmt: Stmt) -> list[RuntimeOp]:
        return self.after.get(id(stmt), [])

    def all_ops(self) -> list[RuntimeOp]:
        out = list(self.entry_ops)
        for ops in self.before.values():
            out.extend(ops)
        for ops in self.after.values():
            out.extend(ops)
        out.extend(self.exit_ops)
        return out


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _vertex_ops(
    v: GRVertex, optimize: bool, naive_always_copy: bool, status_checks: bool = True
) -> list[RuntimeOp]:
    """Fig. 19 inner loop: one RemapOp per remapped array with a leaving copy."""
    ops: list[RuntimeOp] = []
    for a in sorted(v.S):
        if a in v.removed:
            continue  # useless remapping: nothing generated (Sec. 4.1)
        if a in v.restore:
            continue  # handled by the caller's RestoreOp
        leaving = v.L.get(a)
        if leaving is None:
            continue
        use = v.U.get(a, Use.W)
        keep = v.M.get(a, frozenset({leaving})) | frozenset({leaving})
        if naive_always_copy:
            use = Use.W if use is not Use.N else Use.W
            keep = frozenset({leaving})
        ops.append(
            RemapOp(
                array=a,
                leaving=leaving,
                reaching=v.R.get(a, frozenset()),
                use=use,
                keep=keep,
                dead_values=optimize and a in v.dead_source,
                check_status=status_checks and not naive_always_copy,
                label=v.label,
            )
        )
    return ops


def pin_live_sets_to_leaving(graph) -> None:
    """Without Appendix D (live-copies), only the leaving copy is kept.

    Shared by the pipeline's codegen pass and the motion cost guard so both
    price exactly the same generated code when live-copies is disabled.
    """
    for v in graph.vertices.values():
        for a in v.S:
            v.M[a] = v.leaving_set(a)


def generate_code(
    res: ConstructionResult,
    optimize: bool = True,
    naive_always_copy: bool = False,
    status_checks: bool = True,
) -> GeneratedCode:
    """Generate the runtime ops for one compiled subroutine.

    ``status_checks`` emits the Fig. 20 ``if status(A) != l`` guard; without
    it every generated remapping copies unconditionally (the naive baseline
    always disables it, matching ``CompilerOptions.status_checks``).
    """
    code = GeneratedCode()
    graph = res.graph
    cfg = res.cfg
    arrays = tuple(sorted(res.sub.arrays))

    code.entry_ops.append(EntryOp(arrays))
    # v_c / v_0 producer vertices: nothing to copy (no reaching copies);
    # their information lives in the runtime descriptors' initial statuses.

    for nid, v in graph.vertices.items():
        node = cfg.nodes[nid]
        if node.kind in (NodeKind.CALLV, NodeKind.ENTRY):
            continue
        if node.kind is NodeKind.EXIT:
            code.exit_ops.extend(_vertex_ops(v, optimize, naive_always_copy, status_checks))
            continue
        if node.kind is NodeKind.REMAP:
            assert isinstance(node.stmt, (Realign, Redistribute))
            code.before.setdefault(id(node.stmt), []).extend(
                _vertex_ops(v, optimize, naive_always_copy, status_checks)
            )
            continue
        if node.kind is NodeKind.CALL_BEFORE:
            assert isinstance(node.stmt, Call) and node.call_group is not None
            info = res.calls[node.call_group]
            ops = code.before.setdefault(id(node.stmt), [])
            # save reaching statuses for arguments whose v_a must restore a
            # flow-dependent mapping (Fig. 15/18)
            va = _find_call_after(graph, cfg, node.call_group)
            for a in sorted(v.S):
                if va is not None and a in va.restore and a not in va.removed:
                    ops.append(SaveStatusOp(a, slot=f"reaching_{a}_{info.group}"))
            ops.extend(_vertex_ops(v, optimize, naive_always_copy, status_checks))
            continue
        if node.kind is NodeKind.CALL_AFTER:
            assert isinstance(node.stmt, Call) and node.call_group is not None
            info = res.calls[node.call_group]
            ops = code.after.setdefault(id(node.stmt), [])
            for a in sorted(v.S):
                if a in v.restore and a not in v.removed:
                    use = v.U.get(a, Use.W)
                    keep = v.M.get(a, v.restore[a]) | v.restore[a]
                    if naive_always_copy:
                        keep = v.restore[a]
                    ops.append(
                        RestoreOp(
                            array=a,
                            slot=f"reaching_{a}_{info.group}",
                            possible=v.restore[a],
                            use=use,
                            keep=keep,
                            check_status=status_checks and not naive_always_copy,
                            label=v.label,
                        )
                    )
            ops.extend(_vertex_ops(v, optimize, naive_always_copy, status_checks))
            continue

    # kill statements poison values at run time (verification hook)
    for node in cfg.nodes.values():
        if node.kind is NodeKind.KILL:
            assert isinstance(node.stmt, Kill)
            code.before.setdefault(id(node.stmt), []).extend(
                PoisonOp(a) for a in node.stmt.names
            )

    code.exit_ops.append(ExitOp(arrays))
    return code


def _find_call_after(graph, cfg, group: int) -> GRVertex | None:
    for nid, v in graph.vertices.items():
        node = cfg.nodes[nid]
        if node.kind is NodeKind.CALL_AFTER and node.call_group == group:
            return v
    return None


# ---------------------------------------------------------------------------
# pretty printer (Fig. 20-style pseudo code, used in reports and tests)
# ---------------------------------------------------------------------------


def render_op(op: RuntimeOp) -> list[str]:
    if isinstance(op, RemapOp):
        a, l = op.array, op.leaving
        lines = []
        guard = f"if status({a}) != {l}:" if op.check_status else "begin:"
        lines.append(guard)
        lines.append(f"  allocate {a}_{l} if needed")
        lines.append(f"  if not live({a}_{l}):")
        if op.use is Use.D or op.dead_values:
            why = "values dead" if op.dead_values else "U = D"
            lines.append(f"    ! no copy: {why}")
        else:
            for r in sorted(op.reaching - {l}):
                lines.append(f"    if status({a}) == {r}: {a}_{l} = {a}_{r}")
        lines.append(f"    live({a}_{l}) = true")
        lines.append("  endif")
        lines.append(f"  status({a}) = {l}")
        lines.append("endif")
        lines.append(
            f"clean copies of {a} not in {{{', '.join(str(k) for k in sorted(op.keep))}}}"
        )
        return lines
    if isinstance(op, SaveStatusOp):
        return [f"{op.slot} = status({op.array})"]
    if isinstance(op, RestoreOp):
        lines = []
        for r in sorted(op.possible):
            lines.append(f"if {op.slot} == {r}: remap {op.array} to {r}")
        return lines
    if isinstance(op, PoisonOp):
        return [f"! kill {op.array}: values dead"]
    if isinstance(op, EntryOp):
        out = []
        for a in op.arrays:
            out.append(f"status({a}) = 0; live({a}_*) = false")
        return out
    if isinstance(op, ExitOp):
        return [f"free remaining copies of {', '.join(op.arrays)} (sparing caller's)"]
    raise TypeError(op)


def render_code(code: GeneratedCode) -> str:
    lines: list[str] = ["! entry"]
    for op in code.entry_ops:
        lines.extend(render_op(op))
    for ops in list(code.before.values()) + list(code.after.values()):
        for op in ops:
            lines.append(f"! {getattr(op, 'label', '')}".rstrip())
            lines.extend(render_op(op))
    lines.append("! exit")
    for op in code.exit_ops:
        lines.extend(render_op(op))
    return "\n".join(lines)
