"""Control-flow graph over the structured AST.

The CFG is the substrate of the construction algorithm (paper Appendix B):
mapping propagation runs forward over it, effect summarization backward, and
the remapping graph is the contraction of its remapping vertices.

Vertices follow the paper exactly:

* ``v_c`` (CALLV) models the caller: it "produces" dummy arguments with
  their declared mappings and intent-derived effects (Fig. 22/23);
* ``v_0`` (ENTRY) produces local arrays with their initial mappings;
* ``v_e`` (EXIT) forces dummy arguments back to their declared mappings
  (the callee must return arguments as the interface promises) and carries
  the export effects of Fig. 22;
* every ``REALIGN``/``REDISTRIBUTE`` is a REMAP vertex;
* every call site is expanded into ``v_b`` (CALL_BEFORE, remap arguments to
  dummy mappings), the CALL itself (intent-derived proper effects), and
  ``v_a`` (CALL_AFTER, restore the reaching mappings) -- paper Fig. 8/23;
* ``KILL`` vertices carry the user's dead-values assertion (Sec. 4.3);
* BRANCH / JOIN / LOOP_HEAD are structural.  A LOOP_HEAD has both the body
  and the loop exit as successors, so remappings inside a body may be
  skipped when the loop runs zero iterations -- this produces exactly the
  "1 -> E" edges of the paper's Fig. 11.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.lang.ast_nodes import (
    Block,
    Call,
    Compute,
    Do,
    If,
    Kill,
    Realign,
    Redistribute,
    Stmt,
)


class NodeKind(enum.Enum):
    CALLV = "v_c"
    ENTRY = "v_0"
    EXIT = "v_e"
    COMPUTE = "compute"
    KILL = "kill"
    REMAP = "remap"
    CALL_BEFORE = "v_b"
    CALL = "call"
    CALL_AFTER = "v_a"
    BRANCH = "branch"
    JOIN = "join"
    LOOP_HEAD = "loop"


# kinds that become remapping-graph vertices
REMAP_KINDS = frozenset(
    {
        NodeKind.CALLV,
        NodeKind.ENTRY,
        NodeKind.EXIT,
        NodeKind.REMAP,
        NodeKind.CALL_BEFORE,
        NodeKind.CALL_AFTER,
        NodeKind.KILL,
    }
)


# the v_b / v_a halves of a call site: its CALL node carries the statement
_CALL_HALVES = (NodeKind.CALL_BEFORE, NodeKind.CALL_AFTER)


@dataclass
class CFGNode:
    id: int
    kind: NodeKind
    stmt: Stmt | None = None
    # linkage between the three nodes of one call site
    call_group: int | None = None
    label: str = ""

    @property
    def is_remap_vertex(self) -> bool:
        return self.kind in REMAP_KINDS

    def describe(self) -> str:
        base = self.label or self.kind.value
        return f"#{self.id}:{base}"


@dataclass
class CFG:
    #: the resolved body whose statement objects the nodes carry
    body: Block
    nodes: dict[int, CFGNode] = field(default_factory=dict)
    succs: dict[int, list[int]] = field(default_factory=dict)
    preds: dict[int, list[int]] = field(default_factory=dict)
    entry: int = -1  # v_c
    exit: int = -1  # v_e
    # id of an AST statement object -> the node carrying it (a call's CALL
    # node): the one place a statement object is named, so every
    # per-statement map of an artifact keys by node id.  Not pickled: a
    # load, like a CFG built over existing nodes, rebuilds it from ``nodes``.
    stmt_nodes: dict[int, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        for node in self.nodes.values():
            self._index(node)

    def add(self, kind: NodeKind, stmt: Stmt | None = None, **kw) -> CFGNode:
        nid = len(self.nodes)
        node = CFGNode(nid, kind, stmt, **kw)
        self.nodes[nid] = node
        self.succs[nid] = []
        self.preds[nid] = []
        self._index(node)
        return node

    def _index(self, node: CFGNode) -> None:
        if node.stmt is not None and node.kind not in _CALL_HALVES:
            self.stmt_nodes[id(node.stmt)] = node.id

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "stmt_nodes"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, stmt_nodes={})
        self.__post_init__()

    def wire(self, frm: int, to: int) -> None:
        if to not in self.succs[frm]:
            self.succs[frm].append(to)
            self.preds[to].append(frm)

    def node_of_stmt(self, stmt: Stmt) -> CFGNode:
        return self.nodes[self.stmt_nodes[id(stmt)]]

    def rpo(self) -> list[int]:
        """Reverse postorder from the entry (forward-dataflow order)."""
        from repro.util.order import topo_order

        return topo_order([self.entry], lambda n: self.succs[n])

    def __len__(self) -> int:
        return len(self.nodes)


def build_cfg(body: Block) -> CFG:
    """Lower a resolved subroutine's structured body into a CFG."""
    cfg = CFG(body)
    v_c = cfg.add(NodeKind.CALLV, label="v_c")
    v_0 = cfg.add(NodeKind.ENTRY, label="v_0")
    cfg.entry = v_c.id
    cfg.wire(v_c.id, v_0.id)

    call_groups = iter(range(1, 1 << 30))

    def lower_block(block: Block, heads: list[int]) -> list[int]:
        """Wire a block after the given predecessor frontier; return new frontier."""
        cur = heads
        for s in block.stmts:
            cur = lower_stmt(s, cur)
        return cur

    def lower_stmt(s: Stmt, heads: list[int]) -> list[int]:
        if isinstance(s, Compute):
            n = cfg.add(NodeKind.COMPUTE, s, label=f"compute {s.label}".strip())
            for h in heads:
                cfg.wire(h, n.id)
            return [n.id]
        if isinstance(s, Kill):
            n = cfg.add(NodeKind.KILL, s, label="kill " + ",".join(s.names))
            for h in heads:
                cfg.wire(h, n.id)
            return [n.id]
        if isinstance(s, (Realign, Redistribute)):
            what = "realign" if isinstance(s, Realign) else "redistribute"
            target = s.alignee if isinstance(s, Realign) else s.target
            n = cfg.add(NodeKind.REMAP, s, label=f"{what} {target}")
            for h in heads:
                cfg.wire(h, n.id)
            return [n.id]
        if isinstance(s, Call):
            g = next(call_groups)
            v_b = cfg.add(NodeKind.CALL_BEFORE, s, call_group=g, label=f"v_b {s.callee}")
            call = cfg.add(NodeKind.CALL, s, call_group=g, label=f"call {s.callee}")
            v_a = cfg.add(NodeKind.CALL_AFTER, s, call_group=g, label=f"v_a {s.callee}")
            for h in heads:
                cfg.wire(h, v_b.id)
            cfg.wire(v_b.id, call.id)
            cfg.wire(call.id, v_a.id)
            return [v_a.id]
        if isinstance(s, If):
            br = cfg.add(NodeKind.BRANCH, s, label=f"if {s.cond}")
            for h in heads:
                cfg.wire(h, br.id)
            then_tail = lower_block(s.then, [br.id])
            else_tail = lower_block(s.orelse, [br.id])
            join = cfg.add(NodeKind.JOIN, label="join")
            for t in then_tail + else_tail:
                cfg.wire(t, join.id)
            return [join.id]
        if isinstance(s, Do):
            head = cfg.add(NodeKind.LOOP_HEAD, s, label=f"do {s.var}")
            for h in heads:
                cfg.wire(h, head.id)
            body_tail = lower_block(s.body, [head.id])
            for t in body_tail:
                cfg.wire(t, head.id)  # back edge
            return [head.id]  # fall-through: the loop may run zero times
        raise TypeError(f"cannot lower statement {s!r}")

    tails = lower_block(body, [v_0.id])
    v_e = cfg.add(NodeKind.EXIT, label="v_e")
    cfg.exit = v_e.id
    for t in tails:
        cfg.wire(t, v_e.id)
    return cfg
