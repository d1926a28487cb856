"""The bit-set construction against the dictionary-of-frozensets one.

:func:`repro.remap.construction.build_remapping_graph` solves Appendix B's
problems over one ``int`` per node.  The reference below is the propagator
it replaced -- a ``MapState`` of per-array, per-template and per-call-site
frozensets and four separate solves (mapping propagation, effect
summarization, ``RemappedAfter`` contraction, kill analysis) -- kept here,
and only here, as the oracle.  Every graph must be ``==`` to it: vertices
with their S/L/R/U labels, ``restore`` and ``dead_source``, edges, version
tables, ``stmt_versions`` and ``calls``, and -- after
``remove_useless_remappings`` and ``compute_live_copies`` -- the removal
report, the live sets and the generated code.  An illegal program must raise
the same error with the same message.

The deterministic profile covers workload seeds 0..200, fuzz seeds 0..99,
the pinned corpus, the apps and the paper's figures (through the pipeline,
so the cost guard's variants are held too); the CI ``tests-random`` leg and
the nightly run (``HYPOTHESIS_PROFILE=random``) widen the seeds to 0..2000
and 0..499.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from unittest import mock

import numpy as np
import pytest

from repro import CompilerOptions, compile_program
from repro.apps.adi import build_adi_program
from repro.apps.fft2d import build_fft2d_program
from repro.apps.lu import build_lu_program
from repro.apps.sar import build_sar_program
from repro.apps.workloads import random_legal_subroutine
from repro.analysis.dataflow import Direction, solve
from repro.compiler import pipeline
from repro.errors import (
    AmbiguousMappingError,
    MultipleLeavingMappingsError,
    ReproError,
    SemanticError,
)
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import generate_case
from repro.ir.cfg import CFG, CFGNode, NodeKind, build_cfg
from repro.ir.effects import (
    Use,
    intent_call_effect,
    intent_entry_exit_effects,
    join,
    seq,
    stmt_effect,
)
from repro.lang import parse_program, resolve_program
from repro.lang.ast_nodes import Call, Compute, Kill, Program, Realign, Redistribute
from repro.lang.semantics import (
    ResolvedProgram,
    ResolvedSubroutine,
    arrangement_for,
    make_axes,
    make_formats,
)
from repro.mapping import ProcessorArrangement
from repro.mapping.align import Alignment
from repro.mapping.distribute import Distribution
from repro.mapping.mapping import Mapping
from repro.remap import construction
from repro.remap.codegen import generate_code, render_code
from repro.remap.construction import CallInfo, ConstructionResult, build_remapping_graph
from repro.remap.graph import GRVertex, RemappingGraph, VersionTable
from repro.remap.livecopies import compute_live_copies
from repro.remap.optimize import remove_useless_remappings

from test_construction import FIG4, FIG10
from test_schedule import FIG1, FIG12, FIG16

WIDE = os.environ.get("HYPOTHESIS_PROFILE") == "random"
WORKLOAD_SEEDS = 2001 if WIDE else 201
FUZZ_SEEDS = 500 if WIDE else 100
CHUNK = 50
CORPUS = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
P4 = ProcessorArrangement("P", (4,))


# ---------------------------------------------------------------------------
# the reference: per-node dictionaries of frozensets, four solves
# ---------------------------------------------------------------------------


@dataclass
class MapState:
    """Forward propagation state (all components grow monotonically)."""

    amap: dict[str, frozenset[int]] = field(default_factory=dict)
    tdist: dict[str, frozenset[Distribution]] = field(default_factory=dict)
    saved: dict[tuple[int, str], frozenset[int]] = field(default_factory=dict)

    def copy(self) -> "MapState":
        return MapState(dict(self.amap), dict(self.tdist), dict(self.saved))


def _join_states(states: list[MapState]) -> MapState:
    out = MapState()
    for st in states:
        for k, v in st.amap.items():
            out.amap[k] = out.amap.get(k, frozenset()) | v
        for k, d in st.tdist.items():
            out.tdist[k] = out.tdist.get(k, frozenset()) | d
        for k, s in st.saved.items():
            out.saved[k] = out.saved.get(k, frozenset()) | s
    return out


class _ReferenceBuilder:
    def __init__(self, cfg: CFG, sub: ResolvedSubroutine, program: ResolvedProgram):
        self.cfg = cfg
        self.sub = sub
        self.program = program
        self.versions = VersionTable()
        for name, info in self.sub.arrays.items():
            self.versions.version_of(name, info.initial_mapping)
        self.targets: dict[int, set[str]] = {}
        self.calls: dict[int, CallInfo] = {}

    def _mapping(self, array: str, version: int) -> Mapping:
        return self.versions.mapping_of(array, version)

    def _impact_realign(self, s: Realign, state: MapState, node: CFGNode) -> MapState:
        sub = self.sub
        a = s.alignee
        shape = sub.arrays[a].shape
        out = state.copy()
        if s.target in sub.templates:
            t = sub.templates[s.target]
            dists = state.tdist.get(t.name, frozenset())
            if not dists:
                raise SemanticError(
                    f"{sub.name}: realign {a} with {s.target}: template has no "
                    "distribution at this point"
                )
            if len(dists) > 1:
                raise MultipleLeavingMappingsError(
                    f"{sub.name}: realign {a} with {s.target}: the template's "
                    f"distribution is control-flow dependent at {node.describe()} "
                    "(paper Fig. 21)"
                )
            axes = make_axes(s.dummies, s.subscripts, len(shape), t.rank, sub.name)
            new = Mapping(Alignment(shape, t, axes), next(iter(dists)))
        else:
            b = s.target
            bvers = state.amap.get(b, frozenset())
            if not bvers:
                raise SemanticError(
                    f"{sub.name}: realign {a} with {b}: target has no mapping here"
                )
            if len(bvers) > 1:
                raise MultipleLeavingMappingsError(
                    f"{sub.name}: realign {a} with {b}: the target's mapping is "
                    f"control-flow dependent at {node.describe()} (paper Fig. 21)"
                )
            mb = self._mapping(b, next(iter(bvers)))
            inner = make_axes(s.dummies, s.subscripts, len(shape), len(mb.shape), sub.name)
            new = Mapping(mb.alignment.compose(shape, inner), mb.distribution)
        out.amap[a] = frozenset({self.versions.version_of(a, new)})
        self.targets.setdefault(node.id, set()).add(a)
        return out

    def _impact_redistribute(self, s: Redistribute, state: MapState, node: CFGNode) -> MapState:
        sub = self.sub
        tname = s.target if s.target in sub.templates else sub.root_of[s.target]
        t = sub.templates[tname]
        fmts = make_formats(s.formats)
        arr = arrangement_for(sub.processors, fmts, s.onto, f"{sub.name}: redistribute {s.target}")
        new_dist = Distribution(t, fmts, arr)
        out = state.copy()
        out.tdist[tname] = frozenset({new_dist})
        for a, vers in state.amap.items():
            new_set: set[int] = set()
            changed = False
            for v in vers:
                m = self._mapping(a, v)
                if m.alignment.template.name == tname:
                    nv = self.versions.version_of(a, Mapping(m.alignment, new_dist))
                    new_set.add(nv)
                    if nv != v:
                        changed = True
                else:
                    new_set.add(v)
            if changed:
                if len(new_set) > 1:
                    raise MultipleLeavingMappingsError(
                        f"{sub.name}: redistribute {s.target} leaves array {a!r} "
                        f"with several possible mappings at {node.describe()} "
                        "(paper Fig. 5/21: forbidden by restriction 1)"
                    )
                out.amap[a] = frozenset(new_set)
                self.targets.setdefault(node.id, set()).add(a)
        return out

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

    def _transfer(self, nid: int, state: MapState) -> MapState:
        node = self.cfg.nodes[nid]
        sub = self.sub
        if node.kind is NodeKind.CALLV:
            out = state.copy()
            for name in sub.dummy_arrays:
                out.amap[name] = frozenset({0})
                m = sub.arrays[name].initial_mapping
                out.tdist[m.alignment.template.name] = frozenset({m.distribution})
            self.targets.setdefault(nid, set()).update(sub.dummy_arrays)
            return out
        if node.kind is NodeKind.ENTRY:
            out = state.copy()
            for tname, dist in sub.template_distributions.items():
                out.tdist[tname] = out.tdist.get(tname, frozenset()) | frozenset({dist})
            locals_ = [n for n in sub.arrays if n not in sub.params]
            for name in locals_:
                out.amap[name] = frozenset({0})
                m = sub.arrays[name].initial_mapping
                out.tdist.setdefault(m.alignment.template.name, frozenset())
                out.tdist[m.alignment.template.name] |= frozenset({m.distribution})
            self.targets.setdefault(nid, set()).update(locals_)
            return out
        if node.kind is NodeKind.EXIT:
            out = state.copy()
            for name in sub.dummy_arrays:
                out.amap[name] = frozenset({0})
            self.targets.setdefault(nid, set()).update(sub.dummy_arrays)
            return out
        if node.kind is NodeKind.REMAP:
            if isinstance(node.stmt, Realign):
                return self._impact_realign(node.stmt, state, node)
            assert isinstance(node.stmt, Redistribute)
            return self._impact_redistribute(node.stmt, state, node)
        if node.kind is NodeKind.CALL_BEFORE:
            assert isinstance(node.stmt, Call) and node.call_group is not None
            info = self._call_info(node.stmt, node.call_group)
            out = state.copy()
            for arg, dv in zip(info.args, info.dummy_versions):
                out.saved[(info.group, arg)] = out.saved.get(
                    (info.group, arg), frozenset()
                ) | state.amap.get(arg, frozenset())
                out.amap[arg] = frozenset({dv})
            self.targets.setdefault(nid, set()).update(info.args)
            return out
        if node.kind is NodeKind.CALL_AFTER:
            assert isinstance(node.stmt, Call) and node.call_group is not None
            info = self._call_info(node.stmt, node.call_group)
            out = state.copy()
            for arg in info.args:
                restored = state.saved.get((info.group, arg), frozenset())
                if restored:
                    out.amap[arg] = restored
            self.targets.setdefault(nid, set()).update(info.args)
            return out
        return state

    def propagate(self) -> tuple[dict[int, MapState], dict[int, MapState]]:
        return solve(
            sorted(self.cfg.nodes),
            preds=lambda n: self.cfg.preds[n],
            succs=lambda n: self.cfg.succs[n],
            direction=Direction.FORWARD,
            boundary=lambda n: MapState(),
            transfer=self._transfer,
            join=lambda n, states: _join_states(states),
            equal=lambda a, b: a == b,
        )

    def annotate_references(self, in_states: dict[int, MapState]) -> dict[int, dict[str, int]]:
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
                vers = st.amap.get(a, frozenset())
                if len(vers) != 1:
                    names = "{" + ", ".join(self.versions.name(a, v) for v in sorted(vers)) + "}"
                    raise AmbiguousMappingError(
                        f"{self.sub.name}: reference to {a!r} at {node.describe()} "
                        f"with ambiguous mapping {names} (paper restriction 1, Fig. 5)"
                    )
                ann[a] = next(iter(vers))
            if ann and node.kind is NodeKind.COMPUTE:
                out.setdefault(nid, {}).update(ann)
        return out

    def vertex_labels(
        self, in_states: dict[int, MapState], out_states: dict[int, MapState]
    ) -> dict[int, GRVertex]:
        vertices: dict[int, GRVertex] = {}
        for nid, node in self.cfg.nodes.items():
            if not node.is_remap_vertex or node.kind is NodeKind.KILL:
                continue
            targeted = self.targets.get(nid, set())
            v = GRVertex(nid, node.kind, node.label)
            for a in sorted(targeted):
                reaching = in_states[nid].amap.get(a, frozenset())
                leaving = out_states[nid].amap.get(a, frozenset())
                if node.kind is NodeKind.CALL_AFTER:
                    if reaching == leaving and len(leaving) == 1:
                        continue
                    v.S.add(a)
                    v.R[a] = reaching
                    if len(leaving) == 1:
                        v.L[a] = next(iter(leaving))
                    else:
                        v.L[a] = None
                        v.restore[a] = frozenset(leaving)
                    continue
                if len(leaving) != 1:
                    raise MultipleLeavingMappingsError(
                        f"{self.sub.name}: array {a!r} has several leaving mappings "
                        f"at {node.describe()}"
                    )
                (only,) = leaving
                if reaching == leaving:
                    continue
                v.S.add(a)
                v.R[a] = reaching
                v.L[a] = only
            if v.S or node.kind in (NodeKind.CALLV, NodeKind.ENTRY, NodeKind.EXIT):
                vertices[nid] = v
        return vertices

    def effects_of(self, node: CFGNode) -> dict[str, Use]:
        sub = self.sub
        if node.kind is NodeKind.COMPUTE:
            assert isinstance(node.stmt, Compute)
            eff = stmt_effect(node.stmt.reads, node.stmt.writes, node.stmt.defines)
            return {a: u for a, u in eff.items() if a in sub.arrays}
        if node.kind is NodeKind.CALL:
            assert isinstance(node.stmt, Call) and node.call_group is not None
            info = self.calls[node.call_group]
            return {arg: intent_call_effect(i) for arg, i in zip(info.args, info.intents)}
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

    def summarize_effects(self, vertices: dict[int, GRVertex]) -> None:
        masks = {nid: set(v.S) for nid, v in vertices.items()}

        def transfer(nid: int, after: dict[str, Use]) -> dict[str, Use]:
            out = dict(after)
            for a, u in self.effects_of(self.cfg.nodes[nid]).items():
                out[a] = seq(u, after.get(a, Use.N))
            for a in masks.get(nid, ()):
                out.pop(a, None)
            return out

        def join_eff(nid: int, states: list[dict[str, Use]]) -> dict[str, Use]:
            out: dict[str, Use] = {}
            for st in states:
                for a, u in st.items():
                    out[a] = join(out.get(a, Use.N), u)
            return out

        after, _ = solve(
            self.cfg.rpo(),
            preds=lambda n: self.cfg.preds[n],
            succs=lambda n: self.cfg.succs[n],
            direction=Direction.BACKWARD,
            boundary=lambda n: {},
            transfer=transfer,
            join=join_eff,
            equal=lambda a, b: a == b,
        )
        for nid, v in vertices.items():
            eff_after = after.get(nid, {})
            node = self.cfg.nodes[nid]
            own = self.effects_of(node) if node.kind is NodeKind.EXIT else {}
            for a in v.S:
                v.U[a] = join(eff_after.get(a, Use.N), own.get(a, Use.N))

    def contract(self, vertices: dict[int, GRVertex], graph: RemappingGraph) -> None:
        remapped = {nid: set(v.S) for nid, v in vertices.items()}
        Pairs = dict[str, frozenset[int]]

        def transfer(nid: int, after: Pairs) -> Pairs:
            out = dict(after)
            for a in remapped.get(nid, ()):
                out[a] = frozenset({nid})
            return out

        def join_pairs(nid: int, states: list[Pairs]) -> Pairs:
            out: Pairs = {}
            for st in states:
                for a, vs in st.items():
                    out[a] = out.get(a, frozenset()) | vs
            return out

        after, _ = solve(
            self.cfg.rpo(),
            preds=lambda n: self.cfg.preds[n],
            succs=lambda n: self.cfg.succs[n],
            direction=Direction.BACKWARD,
            boundary=lambda n: {},
            transfer=transfer,
            join=join_pairs,
            equal=lambda a, b: a == b,
        )
        for nid, v in vertices.items():
            for a in v.S:
                for succ_id in after.get(nid, {}).get(a, frozenset()):
                    if succ_id in vertices and a in vertices[succ_id].S:
                        graph.add_edge(nid, succ_id, a)

    def dead_values(self, vertices: dict[int, GRVertex]) -> None:
        TOP = 2  # unreachable-yet marker; 1 = dead, 0 = live

        def transfer(nid: int, state: dict[str, int]) -> dict[str, int]:
            node = self.cfg.nodes[nid]
            out = {a: state.get(a, 0) for a in self.sub.arrays}
            if node.kind is NodeKind.KILL:
                assert isinstance(node.stmt, Kill)
                for a in node.stmt.names:
                    out[a] = 1
            else:
                for a, u in self.effects_of(node).items():
                    if u in (Use.W, Use.D):
                        out[a] = 0
            return out

        into, _ = solve(
            self.cfg.rpo(),
            preds=lambda n: self.cfg.preds[n],
            succs=lambda n: self.cfg.succs[n],
            direction=Direction.FORWARD,
            boundary=lambda n: {a: TOP for a in self.sub.arrays},
            transfer=transfer,
            join=lambda n, states: _old_kill_join(list(self.sub.arrays), states),
            equal=lambda a, b: a == b,
        )
        for nid, v in vertices.items():
            st = into.get(nid, {})
            for a in v.S:
                if st.get(a, 0) == 1:
                    v.dead_source.add(a)


def _old_kill_join(arrays: list[str], states: list[dict[str, int]]) -> dict[str, int]:
    """The reference kill join: live with no predecessor, else the minimum
    over the reached predecessors (0 live < 1 dead < 2 not reached)."""
    if not states:
        return {a: 0 for a in arrays}
    out: dict[str, int] = {}
    for a in arrays:
        vals = [v for v in (st.get(a, 2) for st in states) if v != 2]
        out[a] = min(vals) if vals else 2
    return out


def reference_build(sub: ResolvedSubroutine, program: ResolvedProgram) -> ConstructionResult:
    cfg = build_cfg(sub.body)
    b = _ReferenceBuilder(cfg, sub, program)
    in_states, out_states = b.propagate()
    stmt_versions = b.annotate_references(in_states)
    vertices = b.vertex_labels(in_states, out_states)
    b.summarize_effects(vertices)
    graph = RemappingGraph(vertices, v_c=cfg.entry, v_0=cfg.entry + 1, v_e=cfg.exit)
    b.contract(vertices, graph)
    b.dead_values(vertices)
    for info in b.calls.values():
        for arg in info.args:
            info.saved_reaching[arg] = out_states[cfg.exit].saved.get(
                (info.group, arg), frozenset()
            )
    return ConstructionResult(sub, cfg, graph, b.versions, stmt_versions, b.calls)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _outcome(build, rsub, resolved):
    try:
        return build(rsub, resolved)
    except ReproError as exc:
        return type(exc), str(exc)


def _version_tables(vt: VersionTable) -> dict[str, list[Mapping]]:
    return {a: vt.versions(a) for a in vt.arrays()}


def assert_same(new, ref, where: str) -> None:
    """``new`` and ``ref`` -- results or ``(error type, message)`` -- agree."""
    if isinstance(new, tuple) or isinstance(ref, tuple):
        assert new == ref, where
        return
    assert list(new.graph.vertices) == list(ref.graph.vertices), where
    assert new.graph.vertices == ref.graph.vertices, where
    assert new.graph.edges == ref.graph.edges, where
    assert (new.graph.v_c, new.graph.v_0, new.graph.v_e) == (
        ref.graph.v_c, ref.graph.v_0, ref.graph.v_e
    ), where
    assert _version_tables(new.versions) == _version_tables(ref.versions), where
    assert new.stmt_versions == ref.stmt_versions, where
    assert new.calls == ref.calls, where


def assert_same_downstream(new: ConstructionResult, ref: ConstructionResult, where: str) -> None:
    """Removal, live copies and the generated code agree as well."""
    removed = remove_useless_remappings(new.graph)
    assert removed == remove_useless_remappings(ref.graph), where
    compute_live_copies(new.graph)
    compute_live_copies(ref.graph)
    assert new.graph.vertices == ref.graph.vertices, where
    assert render_code(generate_code(new)) == render_code(generate_code(ref)), where


def check_program(program: Program | str, bindings: dict[str, int], where: str) -> int:
    """Hold every subroutine of ``program`` to the reference; returns how
    many built (an illegal one counts when both raise alike)."""
    if isinstance(program, str):
        program = parse_program(program)
    resolved = resolve_program(program, bindings=bindings, default_processors=P4)
    for name, rsub in resolved.subroutines.items():
        new = _outcome(build_remapping_graph, rsub, resolved)
        ref = _outcome(reference_build, rsub, resolved)
        assert_same(new, ref, f"{where}: {name}")
        if not isinstance(new, tuple):
            assert_same_downstream(new, ref, f"{where}: {name}")
    return len(resolved.subroutines)


@contextmanager
def _every_construction_checked():
    """Every graph the pipeline and the cost guard build is held to the
    reference as it is built; yields the count."""
    seen = [0]

    def checked(sub: ResolvedSubroutine, program: ResolvedProgram) -> ConstructionResult:
        ref = _outcome(reference_build, sub, program)
        seen[0] += 1
        try:
            new = construction.build_remapping_graph(sub, program)
        except ReproError as exc:
            assert (type(exc), str(exc)) == ref, sub.name
            raise
        assert_same(new, ref, sub.name)
        return new

    # the cost guard compiles its variants with the pipeline's passes too
    with mock.patch.object(pipeline, "build_remapping_graph", checked):
        yield seen


# ---------------------------------------------------------------------------
# the encodings
# ---------------------------------------------------------------------------


def test_use_bits_reproduce_join_and_seq_on_all_pairs():
    use_of = construction._USE_OF
    bits = construction._USE_BITS
    for a, b in product(Use, repeat=2):
        assert use_of[bits[a] | bits[b]] is join(a, b), (a, b)
        keep, gen = construction._SEQ_BITS[a]
        assert use_of[(bits[b] & keep) | gen] is seq(a, b), (a, b)


def test_live_dead_bits_reproduce_the_kill_join():
    """Every multiset of {live, dead, not reached}: the OR of the (live,
    dead) pairs, read as dead-and-not-live, is the reference's minimum over
    the reached values; and a node's transfer overwrites both bits."""
    live, dead = construction._LIVE, construction._DEAD
    encode = {0: live, 1: dead, 2: 0}

    def decode(x: int) -> int:
        return 2 if not x else (1 if x == dead else 0)

    for size in range(1, 5):
        for values in combinations_with_replacement((0, 1, 2), size):
            merged = construction._union(0, [encode[v] for v in values])
            expected = _old_kill_join(["a"], [{"a": v} for v in values])["a"]
            assert decode(merged) == expected, values
            for kind, bit in ((1, dead), (0, live)):  # kill, full write
                assert decode((merged & ~0b11) | bit) == kind
    assert _old_kill_join(["a"], []) == {"a": 0}  # the entry: no predecessor


# ---------------------------------------------------------------------------
# illegal programs raise the same error
# ---------------------------------------------------------------------------

ILLEGAL = {
    "fig5": """
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
""",
    "fig6-reference": """
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
""",
    "fig21": """
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
""",
    "realign-with-ambiguous-array": """
subroutine s()
  integer n
  real A(n), B(n)
!hpf$ dynamic A, B
!hpf$ distribute A(block)
!hpf$ distribute B(block)
  if c then
!hpf$   redistribute B(cyclic)
  endif
!hpf$ realign A with B
  compute reads A
end
""",
    "ambiguous-call-argument": """
subroutine leaf(X)
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
  if c then
!hpf$   redistribute Y(cyclic(2))
  endif
  call leaf(Y)
  compute reads Y
end
""",
    # a local declared before the dummy: the redistribute breaks restriction
    # 1 for both, and the error names the dummy, which v_c produced first
    "redistribute-names-the-dummy": """
subroutine s(X)
  integer n
  real Y(n), X(n)
  intent inout X
!hpf$ template T1(n)
!hpf$ template T2(n)
!hpf$ align X with T1
!hpf$ align Y with T1
!hpf$ dynamic X, Y
!hpf$ distribute T1(block)
!hpf$ distribute T2(block)
  if c then
!hpf$   realign Y with T2
!hpf$   realign X with T2
  endif
!hpf$ redistribute T2(cyclic)
  compute reads X, Y
end
""",
}


@pytest.mark.parametrize("name", sorted(ILLEGAL))
def test_illegal_programs_raise_the_reference_error(name):
    resolved = resolve_program(
        parse_program(ILLEGAL[name]), bindings={"n": 16}, default_processors=P4
    )
    errors = []
    for rsub in resolved.subroutines.values():
        new = _outcome(build_remapping_graph, rsub, resolved)
        assert_same(new, _outcome(reference_build, rsub, resolved), rsub.name)
        if isinstance(new, tuple):
            errors.append(new[0])
    assert len(errors) == 1
    assert issubclass(errors[0], (AmbiguousMappingError, MultipleLeavingMappingsError))


def test_redistribute_error_names_the_first_dummy():
    resolved = resolve_program(
        parse_program(ILLEGAL["redistribute-names-the-dummy"]),
        bindings={"n": 16},
        default_processors=P4,
    )
    rsub = resolved.get("s")
    assert list(rsub.arrays) == ["y", "x"]  # declaration order puts the local first
    with pytest.raises(MultipleLeavingMappingsError, match="leaves array 'x'"):
        build_remapping_graph(rsub, resolved)


# ---------------------------------------------------------------------------
# legal programs build the reference graph
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("start", range(0, WORKLOAD_SEEDS, CHUNK))
def test_workload_seeds_match_the_reference(start):
    for seed in range(start, min(start + CHUNK, WORKLOAD_SEEDS)):
        program = random_legal_subroutine(np.random.default_rng(seed))
        check_program(program, {}, f"workload seed {seed}")


@pytest.mark.parametrize("start", range(0, FUZZ_SEEDS, CHUNK))
def test_fuzz_seeds_match_the_reference(start):
    for seed in range(start, min(start + CHUNK, FUZZ_SEEDS)):
        case = generate_case(seed)
        check_program(case.program, case.bindings, f"fuzz seed {seed}")


def _named_programs():
    yield "adi", build_adi_program(16), {"n": 16}
    yield "fft2d", build_fft2d_program(16), {}
    yield "lu", build_lu_program(16, 4)[0], {"steps": 4}
    yield "sar", build_sar_program(16), {"looks": 1}
    yield "fig1", FIG1, {"n": 16}
    yield "fig4", FIG4, {"n": 16}
    yield "fig10", FIG10, {"n": 16}
    yield "fig12", FIG12, {"n": 16, "m": 3}
    yield "fig16", FIG16, {"n": 16, "t": 5}
    for entry in load_corpus(CORPUS):
        yield entry.name, entry.to_case().program, entry.bindings


@pytest.mark.parametrize("name, program, bindings", list(_named_programs()))
def test_named_programs_match_the_reference_through_the_pipeline(name, program, bindings):
    """The program itself, and every graph a level-3 compile builds -- the
    pipeline's and each cost-guard variant's -- match the reference."""
    assert check_program(program, bindings, name) >= 1
    with _every_construction_checked() as seen:
        compile_program(program, processors=4, options=CompilerOptions(level=3), bindings=bindings)
    assert seen[0] >= 1
