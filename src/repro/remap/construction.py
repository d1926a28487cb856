"""Remapping-graph construction (paper Appendix B).

The construction solves three dataflow problems over the CFG with the
generic solver (:mod:`repro.analysis.dataflow`) and assembles the results
into a :class:`~repro.remap.graph.RemappingGraph`.  Every state of every
problem is one Python ``int`` read as a bit set, so a join is ``|``, a state
comparison is ``==`` and a copy costs nothing.

1. **Reaching/leaving mapping propagation** (may-forward).  The universe has
   one atom per array version ``(A, k)``, per template distribution
   ``(T, d)`` and per saved call-site version ``(g, A, k)`` -- the ``v_b``
   reaching sets that the matching ``v_a`` restores -- interned in discovery
   order.  Remapping statements update the state through the paper's
   ``impact`` function.  A ``redistribute`` builds its distribution once
   per construction and spelling, each version's move to it is interned
   once, and a ``realign``/``redistribute`` node tables its effect on an
   array as (node, input bits) -> output bits, while the restriction-1
   checks run on every evaluation.  ``v_c``/``v_0`` seed dummy and local mappings; ``v_e``
   forces dummies back to their declared mappings.  The worklist runs in
   node-id order, which is textual order, so versions are numbered in
   program order like the paper's figures.
2. **Reference checking and versioning**.  Every reference (compute effect
   or call argument) must see exactly one reaching mapping -- otherwise the
   program violates restriction 1 and :class:`AmbiguousMappingError` is
   raised (Fig. 5).  Ambiguous *states* without references are fine
   (Fig. 6).  References are annotated with their version, which is the
   "substitute the right copy" rewriting of Fig. 7.
3. **Effect summarization and graph contraction** (one may-backward gen/kill
   problem).  Two bits per array hold ``U_A`` -- may be read, may be
   redefined: N = 00, R = 10, D = 01, W = 11 -- so the path join is ``|``
   (D ⊔ R = W) and the ``seq`` of a node's proper effect (intent-derived at
   calls and at ``v_c``/``v_e``, Fig. 22) is ``(x & keep) | gen``.  One bit
   per (array, vertex) slot holds ``RemappedAfter``: the slots set after a
   vertex are its edges in ``G_R``.
4. **Kill analysis** (forward, Sec. 4.3).  Two may-bits per array, live and
   dead: from a ``kill`` until the next full redefinition the array's values
   are dead, and a remapping reached only by dead values (dead and not
   live) needs no communication (``dead_source``).  A subroutine without a
   ``kill`` has no dead values and skips this solve.

The CFG's reverse postorder and every node's proper effects are computed
once per construction and shared by problems 3 and 4.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import cast

from repro.analysis.dataflow import Direction, solve
from repro.errors import (
    AmbiguousMappingError,
    MultipleLeavingMappingsError,
    SemanticError,
)
from repro.ir.cfg import CFG, CFGNode, NodeKind
from repro.ir.effects import (
    Use,
    intent_call_effect,
    intent_entry_exit_effects,
    join,
    stmt_effect,
)
from repro.lang.ast_nodes import Call, Compute, Kill, Realign, Redistribute
from repro.lang.semantics import (
    ResolvedProgram,
    ResolvedSubroutine,
    arrangement_for,
    make_axes,
    make_formats,
)
from repro.mapping.align import Alignment
from repro.mapping.distribute import Distribution
from repro.mapping.mapping import Mapping
from repro.remap.graph import GRVertex, RemappingGraph, VersionTable

# ---------------------------------------------------------------------------
# bit encodings of the backward and kill problems (two bits per array)
# ---------------------------------------------------------------------------

#: ``U_A`` as (may be read) + 2 * (may be redefined): the join is ``|``
_USE_BITS = {Use.N: 0b00, Use.R: 0b01, Use.D: 0b10, Use.W: 0b11}
_USE_OF = {bits: use for use, bits in _USE_BITS.items()}
#: ``seq(first, x)`` is ``(x & keep) | gen`` with ``(keep, gen) = _SEQ_BITS[first]``
_SEQ_BITS = {
    Use.N: (0b11, 0b00),
    Use.R: (0b10, 0b01),
    Use.D: (0b00, 0b10),
    Use.W: (0b00, 0b11),
}
#: kill analysis: the array may hold live values, may hold dead ones; dead
#: means dead and not live, and neither bit means not reached yet
_LIVE, _DEAD = 0b01, 0b10


def _union(_node: int, states: list[int]) -> int:
    out = 0
    for s in states:
        out |= s
    return out


def _bottom(_node: int) -> int:
    return 0


def _gen_kill(table: dict[int, tuple[int, int]]):
    """The transfer of a problem whose nodes each map ``x`` to
    ``(x & keep) | gen`` (the identity where a node has no entry)."""

    def transfer(node: int, x: int) -> int:
        kg = table.get(node)
        return x if kg is None else (x & kg[0]) | kg[1]

    return transfer


# ---------------------------------------------------------------------------
# result container
# ---------------------------------------------------------------------------


@dataclass
class CallInfo:
    """Everything the caller-side needs about one call site."""

    group: int
    callee: str
    # caller array name per array argument, in dummy order
    args: tuple[str, ...]
    dummies: tuple[str, ...]
    intents: tuple[str, ...]
    # version (in the *caller's* table) each argument must have at the call
    dummy_versions: tuple[int, ...]
    # reaching versions saved at v_b per argument (for the v_a restore)
    saved_reaching: dict[str, frozenset[int]] = field(default_factory=dict)


@dataclass
class ConstructionResult:
    sub: ResolvedSubroutine
    cfg: CFG
    graph: RemappingGraph
    versions: VersionTable
    # id(stmt) -> {array -> version referenced}
    stmt_versions: dict[int, dict[str, int]]
    # call group -> CallInfo
    calls: dict[int, CallInfo]


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------


class _Builder:
    def __init__(self, cfg: CFG, program: ResolvedProgram):
        self.cfg = cfg
        self.sub = sub = cfg.sub
        self.program = program
        self.versions = VersionTable()
        # seed version 0 = declared mapping for every array
        for name, info in sub.arrays.items():
            self.versions.version_of(name, info.initial_mapping)
        # node id -> arrays this vertex targets (computed during transfer)
        self.targets: dict[int, set[str]] = {}
        self.calls: dict[int, CallInfo] = {}
        self.locals = [n for n in sub.arrays if n not in sub.params]
        # dummies first, then locals: the order v_c and v_0 produce them in,
        # so a redistribute that breaks restriction 1 for several arrays
        # names the first in that order
        self.arrays = [*sub.dummy_arrays, *self.locals]
        self.pos = {a: i for i, a in enumerate(self.arrays)}
        # the forward problem's atom universe: bit position -> the version
        # (or Distribution) it stands for, and each owner's mask of atoms
        self._atoms: list[int | Distribution] = []
        self._atom_of: dict[tuple, int] = {}
        self._amask: dict[str, int] = {a: 0 for a in self.arrays}
        self._tmask: dict[str, int] = {}
        self._smask: dict[tuple[int, str], int] = {}
        # redistribute statement -> (template, its new distribution, that
        # atom), built once per spelling
        self._redistributions: dict[Redistribute, tuple[str, Distribution, int]] = {}
        # (array, version, distribution atom) -> the version it is redistributed to
        self._moves: dict[tuple[str, int, int], int] = {}
        # per-node transfer tables: (node, input atoms of one array) -> output atoms
        self._table: dict[tuple[int, int], int] = {}
        self._sets: dict[int, frozenset[int]] = {}
        # filled after propagation (call effects need the call infos)
        self.effects: dict[int, dict[str, Use]] = {}

    # -- the atom universe -------------------------------------------------------

    def _intern(self, key: tuple, value: object, masks: dict, owner: object) -> int:
        bit = self._atom_of.get(key)
        if bit is None:
            bit = self._atom_of[key] = 1 << len(self._atoms)
            self._atoms.append(value)
            masks[owner] = masks.get(owner, 0) | bit
        return bit

    def _version_atom(self, array: str, version: int) -> int:
        return self._intern(("v", array, version), version, self._amask, array)

    def _dist_atom(self, template: str, dist: Distribution) -> int:
        return self._intern(("t", template, dist), dist, self._tmask, template)

    def _saved_atom(self, group: int, array: str, version: int) -> int:
        return self._intern(("s", group, array, version), version, self._smask, (group, array))

    def _members(self, bits: int) -> frozenset[int]:
        """The versions a set of version (or saved) atoms stands for."""
        out = self._sets.get(bits)
        if out is None:
            found = []
            rest = bits
            while rest:
                low = rest & -rest
                found.append(self._atoms[low.bit_length() - 1])
                rest ^= low
            out = self._sets[bits] = frozenset(found)
        return out

    def _version(self, bits: int) -> int:
        """The version one version (or saved) atom stands for."""
        return cast(int, self._atoms[bits.bit_length() - 1])

    def _target(self, nid: int) -> set[str]:
        return self.targets.setdefault(nid, set())

    # -- impact: the paper's mapping-update function ---------------------------

    def _impact_realign(self, s: Realign, state: int, node: CFGNode) -> int:
        sub = self.sub
        a = s.alignee
        if s.target in sub.templates:
            t = sub.templates[s.target]
            src = state & self._tmask.get(t.name, 0)
            if not src:
                raise SemanticError(
                    f"{sub.name}: realign {a} with {s.target}: template has no "
                    "distribution at this point"
                )
            if src & (src - 1):
                raise MultipleLeavingMappingsError(
                    f"{sub.name}: realign {a} with {s.target}: the template's "
                    f"distribution is control-flow dependent at {node.describe()} "
                    "(paper Fig. 21)"
                )
        else:  # realign with another array
            b = s.target
            src = state & self._amask[b]
            if not src:
                raise SemanticError(
                    f"{sub.name}: realign {a} with {b}: target has no mapping here"
                )
            if src & (src - 1):
                raise MultipleLeavingMappingsError(
                    f"{sub.name}: realign {a} with {b}: the target's mapping is "
                    f"control-flow dependent at {node.describe()} (paper Fig. 21)"
                )
        key = (node.id, src)
        leaving = self._table.get(key)
        if leaving is None:
            new = self._realigned(s, src)
            leaving = self._table[key] = self._version_atom(a, self.versions.version_of(a, new))
        self._target(node.id).add(a)
        return (state & ~self._amask[a]) | leaving

    def _realigned(self, s: Realign, src: int) -> Mapping:
        """The alignee's mapping after ``s``, given its target's one atom."""
        sub = self.sub
        shape = sub.arrays[s.alignee].shape
        if s.target in sub.templates:
            t = sub.templates[s.target]
            dist = cast(Distribution, self._atoms[src.bit_length() - 1])
            axes = make_axes(s.dummies, s.subscripts, len(shape), t.rank, sub.name)
            return Mapping(Alignment(shape, t, axes), dist)
        mb = self.versions.mapping_of(s.target, self._version(src))
        inner = make_axes(s.dummies, s.subscripts, len(shape), len(mb.shape), sub.name)
        return Mapping(mb.alignment.compose(shape, inner), mb.distribution)

    def _redistribution(self, s: Redistribute) -> tuple[str, Distribution, int]:
        found = self._redistributions.get(s)
        if found is None:
            sub = self.sub
            if s.target in sub.templates:
                tname = s.target
            else:
                tname = sub.root_of[s.target]
            fmts = make_formats(s.formats)
            arr = arrangement_for(
                sub.processors, fmts, s.onto, f"{sub.name}: redistribute {s.target}"
            )
            dist = Distribution(sub.templates[tname], fmts, arr)
            found = self._redistributions[s] = (tname, dist, self._dist_atom(tname, dist))
        return found

    def _impact_redistribute(self, s: Redistribute, state: int, node: CFGNode) -> int:
        nid = node.id
        target = self._redistribution(s)
        tname, _, dist_atom = target
        out = (state & ~self._tmask[tname]) | dist_atom
        for a in self.arrays:
            bits = state & self._amask[a]
            if not bits:
                continue
            key = (nid, bits)
            leaving = self._table.get(key)
            if leaving is None:
                leaving = self._table[key] = self._redistribute_array(
                    a, bits, target, s, node
                )
            if leaving:
                out = (out & ~self._amask[a]) | leaving
                self._target(nid).add(a)
        return out

    def _redistribute_array(
        self,
        a: str,
        bits: int,
        target: tuple[str, Distribution, int],
        s: Redistribute,
        node: CFGNode,
    ) -> int:
        """The atom ``a`` leaves the redistribution ``target`` with, given
        the atoms reaching it; 0 when no reaching version changes."""
        tname, dist, dist_atom = target
        new_set: set[int] = set()
        changed = False
        for v in self._members(bits):
            m = self.versions.mapping_of(a, v)
            if m.alignment.template.name == tname:
                move = (a, v, dist_atom)
                nv = self._moves.get(move)
                if nv is None:
                    nv = self._moves[move] = self.versions.version_of(
                        a, Mapping(m.alignment, dist)
                    )
                new_set.add(nv)
                if nv != v:
                    changed = True
            else:
                new_set.add(v)
        if not changed:
            return 0
        if len(new_set) > 1:
            raise MultipleLeavingMappingsError(
                f"{self.sub.name}: redistribute {s.target} leaves array {a!r} "
                f"with several possible mappings at {node.describe()} "
                "(paper Fig. 5/21: forbidden by restriction 1)"
            )
        return self._version_atom(a, new_set.pop())

    def _call_info(self, stmt: Call, group: int) -> CallInfo:
        info = self.calls.get(group)
        if info is not None:
            return info
        callee = self.program.get(stmt.callee)
        dummies = tuple(callee.dummy_arrays)
        args = tuple(a for a in stmt.args if a in self.sub.arrays)
        intents = tuple(callee.arrays[d].intent or "inout" for d in dummies)
        dummy_versions = tuple(
            self.versions.version_of(arg, callee.arrays[d].initial_mapping)
            for arg, d in zip(args, dummies)
        )
        info = CallInfo(group, stmt.callee, args, dummies, intents, dummy_versions)
        self.calls[group] = info
        return info

    def _saved(self, nid: int, group: int, arg: str, bits: int) -> int:
        """The saved atoms ``v_b`` records for ``arg``'s reaching atoms."""
        key = (nid, bits)
        saved = self._table.get(key)
        if saved is None:
            saved = 0
            for v in self._members(bits):
                saved |= self._saved_atom(group, arg, v)
            self._table[key] = saved
        return saved

    def _restored(self, nid: int, arg: str, saved: int) -> int:
        """The version atoms ``v_a`` restores ``arg`` to from saved atoms."""
        key = (nid, saved)
        restored = self._table.get(key)
        if restored is None:
            restored = 0
            for v in self._members(saved):
                restored |= self._version_atom(arg, v)
            self._table[key] = restored
        return restored

    def _transfer(self, nid: int, state: int) -> int:
        node = self.cfg.nodes[nid]
        kind = node.kind
        sub = self.sub
        if kind is NodeKind.REMAP:
            if isinstance(node.stmt, Realign):
                return self._impact_realign(node.stmt, state, node)
            assert isinstance(node.stmt, Redistribute)
            return self._impact_redistribute(node.stmt, state, node)
        if kind is NodeKind.CALL_BEFORE:
            assert isinstance(node.stmt, Call) and node.call_group is not None
            info = self._call_info(node.stmt, node.call_group)
            out = state
            for arg, dv in zip(info.args, info.dummy_versions):
                out |= self._saved(nid, info.group, arg, state & self._amask[arg])
                out = (out & ~self._amask[arg]) | self._version_atom(arg, dv)
            self._target(nid).update(info.args)
            return out
        if kind is NodeKind.CALL_AFTER:
            assert isinstance(node.stmt, Call) and node.call_group is not None
            info = self._call_info(node.stmt, node.call_group)
            out = state
            for arg in info.args:
                saved = state & self._smask.get((info.group, arg), 0)
                if saved:
                    out = (out & ~self._amask[arg]) | self._restored(nid, arg, saved)
            self._target(nid).update(info.args)
            return out
        if kind is NodeKind.CALLV:
            out = state
            for name in sub.dummy_arrays:
                out = (out & ~self._amask[name]) | self._version_atom(name, 0)
                m = sub.arrays[name].initial_mapping
                tname = m.alignment.template.name
                dist_atom = self._dist_atom(tname, m.distribution)
                out = (out & ~self._tmask[tname]) | dist_atom
            self._target(nid).update(sub.dummy_arrays)
            return out
        if kind is NodeKind.ENTRY:
            out = state
            for tname, dist in sub.template_distributions.items():
                out |= self._dist_atom(tname, dist)
            for name in self.locals:
                out = (out & ~self._amask[name]) | self._version_atom(name, 0)
                m = sub.arrays[name].initial_mapping
                out |= self._dist_atom(m.alignment.template.name, m.distribution)
            self._target(nid).update(self.locals)
            return out
        if kind is NodeKind.EXIT:
            out = state
            for name in sub.dummy_arrays:
                out = (out & ~self._amask[name]) | self._version_atom(name, 0)
            self._target(nid).update(sub.dummy_arrays)
            return out
        # COMPUTE / KILL / CALL / BRANCH / JOIN / LOOP_HEAD: identity
        return state

    # -- forward mapping propagation ------------------------------------------------

    def propagate(self) -> tuple[dict[int, int], dict[int, int]]:
        # id order = construction order = textual order, so versions are
        # discovered (and numbered) in program order like the paper's figures
        return solve(
            sorted(self.cfg.nodes),
            preds=self.cfg.preds.__getitem__,
            succs=self.cfg.succs.__getitem__,
            direction=Direction.FORWARD,
            boundary=_bottom,
            transfer=self._transfer,
            join=_union,
            equal=operator.eq,
        )

    # -- reference checking / versioning ---------------------------------------------

    def annotate_references(self, in_states: dict[int, int]) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {}
        for nid, node in self.cfg.nodes.items():
            refs: list[str] = []
            if node.kind is NodeKind.COMPUTE:
                assert isinstance(node.stmt, Compute)
                refs = [
                    n
                    for n in node.stmt.reads + node.stmt.writes + node.stmt.defines
                    if n in self.sub.arrays
                ]
            elif node.kind is NodeKind.CALL:
                assert isinstance(node.stmt, Call) and node.call_group is not None
                refs = list(self.calls[node.call_group].args)
            if not refs:
                continue
            st = in_states[nid]
            ann: dict[str, int] = {}
            for a in refs:
                bits = st & self._amask[a]
                if not bits or bits & (bits - 1):
                    names = (
                        "{"
                        + ", ".join(
                            self.versions.name(a, v) for v in sorted(self._members(bits))
                        )
                        + "}"
                    )
                    raise AmbiguousMappingError(
                        f"{self.sub.name}: reference to {a!r} at {node.describe()} "
                        f"with ambiguous mapping {names} (paper restriction 1, Fig. 5)"
                    )
                ann[a] = self._version(bits)
            if ann:
                out.setdefault(id(node.stmt), {}).update(ann)
        return out

    # -- S / L / R per vertex ----------------------------------------------------------

    def vertex_labels(
        self, in_states: dict[int, int], out_states: dict[int, int]
    ) -> dict[int, GRVertex]:
        vertices: dict[int, GRVertex] = {}
        for nid, node in self.cfg.nodes.items():
            if not node.is_remap_vertex or node.kind is NodeKind.KILL:
                continue
            targeted = self.targets.get(nid, set())
            v = GRVertex(nid, node.kind, node.label)
            for a in sorted(targeted):
                mask = self._amask[a]
                reaching = in_states[nid] & mask
                leaving = out_states[nid] & mask
                single = leaving != 0 and not leaving & (leaving - 1)
                if node.kind is NodeKind.CALL_AFTER:
                    # restore vertex: leaving may legitimately be ambiguous
                    if reaching == leaving and single:
                        continue  # nothing to restore
                    v.S.add(a)
                    v.R[a] = self._members(reaching)
                    if single:
                        v.L[a] = self._version(leaving)
                    else:
                        v.L[a] = None
                        v.restore[a] = self._members(leaving)
                    continue
                if not single:
                    raise MultipleLeavingMappingsError(
                        f"{self.sub.name}: array {a!r} has several leaving mappings "
                        f"at {node.describe()}"
                    )
                if reaching == leaving:
                    continue  # statically a no-op remapping: not a G_R vertex for a
                v.S.add(a)
                v.R[a] = self._members(reaching)
                v.L[a] = self._version(leaving)
            if v.S or node.kind in (NodeKind.CALLV, NodeKind.ENTRY, NodeKind.EXIT):
                vertices[nid] = v
        return vertices

    # -- proper effects ------------------------------------------------------------------

    def effects_of(self, node: CFGNode) -> dict[str, Use]:
        sub = self.sub
        if node.kind is NodeKind.COMPUTE:
            assert isinstance(node.stmt, Compute)
            eff = stmt_effect(node.stmt.reads, node.stmt.writes, node.stmt.defines)
            return {a: u for a, u in eff.items() if a in sub.arrays}
        if node.kind is NodeKind.CALL:
            assert isinstance(node.stmt, Call) and node.call_group is not None
            info = self.calls[node.call_group]
            return {
                arg: intent_call_effect(intent)
                for arg, intent in zip(info.args, info.intents)
            }
        if node.kind is NodeKind.CALLV:
            return {
                a: intent_entry_exit_effects(sub.arrays[a].intent or "inout")[0]
                for a in sub.dummy_arrays
            }
        if node.kind is NodeKind.EXIT:
            return {
                a: intent_entry_exit_effects(sub.arrays[a].intent or "inout")[1]
                for a in sub.dummy_arrays
            }
        return {}

    # -- backward effect summarization + contraction (RemappedAfter) -------------------

    def summarize_and_contract(
        self, vertices: dict[int, GRVertex], graph: RemappingGraph, rpo: list[int]
    ) -> None:
        # one RemappedAfter bit per (array, vertex) slot, above the use bits
        slot_vertex: list[int] = []
        slot_of: dict[tuple[int, str], int] = {}
        slots = {a: 0 for a in self.arrays}
        base = 2 * len(self.arrays)
        for nid, v in vertices.items():
            for a in sorted(v.S):
                bit = 1 << (base + len(slot_vertex))
                slot_vertex.append(nid)
                slot_of[(nid, a)] = bit
                slots[a] |= bit

        table: dict[int, tuple[int, int]] = {}
        for nid in self.effects.keys() | vertices.keys():
            keep, gen = -1, 0
            for a, u in self.effects.get(nid, {}).items():
                shift = 2 * self.pos[a]
                k, g = _SEQ_BITS[u]
                keep &= ~((0b11 ^ k) << shift)
                gen = (gen & ~(0b11 << shift)) | (g << shift)
            if nid in vertices:
                for a in vertices[nid].S:
                    # remapped here: upstream sees no use of a, only this vertex
                    clear = (0b11 << 2 * self.pos[a]) | slots[a]
                    keep &= ~clear
                    gen = (gen & ~clear) | slot_of[(nid, a)]
            table[nid] = (keep, gen)

        after, _ = solve(
            rpo,
            preds=self.cfg.preds.__getitem__,
            succs=self.cfg.succs.__getitem__,
            direction=Direction.BACKWARD,
            boundary=_bottom,
            transfer=_gen_kill(table),
            join=_union,
            equal=operator.eq,
        )
        for nid, v in vertices.items():
            x = after.get(nid, 0)
            # v_e's proper effects model use *after* exit (Fig. 22 exports)
            own = self.effects.get(nid, {}) if v.kind is NodeKind.EXIT else {}
            for a in v.S:
                use = _USE_OF[(x >> 2 * self.pos[a]) & 0b11]
                v.U[a] = join(use, own[a]) if a in own else use
                succs = x & slots[a]
                while succs:
                    low = succs & -succs
                    graph.add_edge(nid, slot_vertex[low.bit_length() - 1 - base], a)
                    succs ^= low

    # -- kill / dead-values forward analysis -----------------------------------------------

    def dead_values(self, vertices: dict[int, GRVertex], rpo: list[int]) -> None:
        """Mark remapping vertices whose incoming values are certainly dead.

        Must-forward problem over (live, dead) may-bits: an array's values
        are dead after a ``kill`` and stay dead until a write or full
        definition; a remapping reached only by dead values needs no copy
        communication (paper Sec. 4.3).
        """
        if not any(node.kind is NodeKind.KILL for node in self.cfg.nodes.values()):
            return  # values become dead only at a kill
        table: dict[int, tuple[int, int]] = {}
        for nid, node in self.cfg.nodes.items():
            if node.kind is NodeKind.KILL:
                assert isinstance(node.stmt, Kill)
                hit, bit = node.stmt.names, _DEAD
            else:
                eff = self.effects.get(nid, {})
                hit, bit = [a for a, u in eff.items() if u in (Use.W, Use.D)], _LIVE
            clear = gen = 0
            for a in hit:
                shift = 2 * self.pos[a]
                clear |= 0b11 << shift
                gen = (gen & ~(0b11 << shift)) | (bit << shift)
            if clear:
                table[nid] = (~clear, gen)
        # the entry has no predecessor: everything is live there
        all_live = sum(_LIVE << 2 * i for i in range(len(self.arrays)))

        into, _ = solve(
            rpo,
            preds=self.cfg.preds.__getitem__,
            succs=self.cfg.succs.__getitem__,
            direction=Direction.FORWARD,
            boundary=_bottom,
            transfer=_gen_kill(table),
            join=lambda n, states: _union(n, states) if states else all_live,
            equal=operator.eq,
        )
        for nid, v in vertices.items():
            x = into.get(nid, 0)
            for a in v.S:
                if (x >> 2 * self.pos[a]) & 0b11 == _DEAD:
                    v.dead_source.add(a)


def build_remapping_graph(cfg: CFG, program: ResolvedProgram) -> ConstructionResult:
    """Run the full Appendix B construction for one subroutine."""
    b = _Builder(cfg, program)
    in_states, out_states = b.propagate()
    stmt_versions = b.annotate_references(in_states)
    vertices = b.vertex_labels(in_states, out_states)
    b.effects = {
        nid: eff for nid, node in cfg.nodes.items() if (eff := b.effects_of(node))
    }
    rpo = cfg.rpo()
    graph = RemappingGraph(b.versions, vertices, v_c=cfg.entry, v_0=cfg.entry + 1, v_e=cfg.exit)
    b.summarize_and_contract(vertices, graph, rpo)
    b.dead_values(vertices, rpo)
    # save reaching sets for call restores
    at_exit = out_states[cfg.exit]
    for info in b.calls.values():
        for arg in info.args:
            info.saved_reaching[arg] = b._members(
                at_exit & b._smask.get((info.group, arg), 0)
            )
    return ConstructionResult(
        sub=cfg.sub,
        cfg=cfg,
        graph=graph,
        versions=b.versions,
        stmt_versions=stmt_versions,
        calls=b.calls,
    )
