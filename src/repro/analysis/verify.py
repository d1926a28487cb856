"""Static invariant verification of compiled artifacts and templates.

A :class:`~repro.compiler.artifacts.CompiledProgram` is a graph of
interlocking structures -- CFG, remapping graph ``G_R``, version table,
node-keyed annotation maps, generated op lists -- whose mutual
consistency everything downstream assumes.  This module *checks* those
assumptions instead of trusting them:

* **CFG well-formedness** -- entry/exit exist, nodes are keyed by their
  own id, successor/predecessor adjacency is symmetric and closed;
* **version def-before-use** -- a forward dataflow (on the generic
  solver, :mod:`repro.analysis.dataflow`) recomputes the set of mapping
  versions each array may hold at every point; every version a compute
  statement is annotated to reference must be producible on some path;
* **remapping-graph sanity** -- boundary vertices exist, edges connect
  existing vertices and are labelled only with arrays both endpoints
  remap, and every leaving/reaching/live version is below its array's
  version count;
* **statement keys** -- the node-keyed maps (``stmt_versions``,
  generated before/after op lists) key only nodes of a kind they may
  annotate.  They key by CFG node id, not by statement object, so a load
  rebuilds nothing in them; the CFG rebuilds its own statement index
  (``cfg.stmt_nodes``) from its nodes.

Of a geometry these checks read one fact, each array's version count.
:func:`verify_artifact` reads it from an artifact's version tables and
:func:`verify_template` from a template's holes (one version per hole),
so a template is checked without a shape: every patch of it shares the
template's CFGs, graphs, annotations and code, with one version per hole.
The holes themselves -- how each patch makes its version table -- are
held to the CFG nodes they name and the graph's labels
(:func:`verify_holes`), so a template that passes is trusted at every
shape.

:func:`verify_artifact` returns the full issue list (empty = verified);
:func:`assert_verified` raises
:class:`~repro.errors.ArtifactVerificationError` instead.  The ``verify``
pipeline pass runs these checks at compile time, and the persistent
store (:mod:`repro.store`) runs :func:`verify_artifact` or
:func:`verify_template` on every disk load and in its offline ``verify``,
evicting entries that fail -- a hash-valid but semantically corrupt entry
degrades to a recompile, never an execution.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, TypeAlias

from repro.analysis.dataflow import Direction, solve
from repro.errors import ArtifactVerificationError
from repro.ir.cfg import CFG, CFGNode, NodeKind
from repro.lang.ast_nodes import (
    AlignDecl,
    ArrayDecl,
    Decl,
    DistributeDecl,
    Realign,
    Redistribute,
)
from repro.lang.semantics import make_formats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.compiler.artifacts import CompiledProgram
    from repro.compiler.template import SubroutineStructure, SymbolicTemplate
    from repro.remap.codegen import GeneratedCode
    from repro.remap.construction import ConstructionResult, Hole
    from repro.remap.graph import GRVertex

__all__ = [
    "VerificationIssue",
    "verify_cfg",
    "verify_graph",
    "verify_versions",
    "verify_stmt_keys",
    "verify_subroutine",
    "verify_holes",
    "verify_artifact",
    "verify_template",
    "assert_verified",
]

#: The node kinds each node-keyed map of an artifact may annotate.
_ANNOTATED_KINDS = {
    "stmt_versions": frozenset({NodeKind.COMPUTE}),
    "code.before": frozenset({NodeKind.REMAP, NodeKind.KILL, NodeKind.CALL}),
    "code.after": frozenset({NodeKind.CALL}),
}


@dataclass(frozen=True)
class VerificationIssue:
    """One violated artifact invariant (check id + human-readable message)."""

    check: str
    message: str
    subroutine: str | None = None

    def __str__(self) -> str:
        where = f" [{self.subroutine}]" if self.subroutine else ""
        return f"{self.check}{where}: {self.message}"


def _issue(
    issues: list[VerificationIssue], check: str, message: str, sub: str | None
) -> None:
    issues.append(VerificationIssue(check=check, message=message, subroutine=sub))


# ---------------------------------------------------------------------------
# CFG well-formedness
# ---------------------------------------------------------------------------


def verify_cfg(cfg: CFG, subroutine: str | None = None) -> list[VerificationIssue]:
    """Structural checks on one control-flow graph."""
    issues: list[VerificationIssue] = []
    sub = subroutine
    nodes = set(cfg.nodes)
    if cfg.entry not in nodes:
        _issue(issues, "cfg", f"entry node {cfg.entry} missing", sub)
    if cfg.exit not in nodes:
        _issue(issues, "cfg", f"exit node {cfg.exit} missing", sub)
    for nid, node in cfg.nodes.items():
        if node.id != nid:
            _issue(issues, "cfg", f"node keyed {nid} carries id {node.id}", sub)
    for name, adj in (("succs", cfg.succs), ("preds", cfg.preds)):
        if set(adj) != nodes:
            _issue(
                issues,
                "cfg",
                f"{name} adjacency keys disagree with the node set",
                sub,
            )
    for a, ss in cfg.succs.items():
        for b in ss:
            if b not in nodes:
                _issue(issues, "cfg", f"edge {a}->{b} leaves the node set", sub)
            elif a not in cfg.preds.get(b, []):
                _issue(issues, "cfg", f"edge {a}->{b} missing from preds[{b}]", sub)
    for b, ps in cfg.preds.items():
        for a in ps:
            if a not in nodes:
                _issue(issues, "cfg", f"pred edge {a}->{b} leaves the node set", sub)
            elif b not in cfg.succs.get(a, []):
                _issue(issues, "cfg", f"pred edge {a}->{b} missing from succs[{a}]", sub)
    return issues


# ---------------------------------------------------------------------------
# remapping-graph sanity
# ---------------------------------------------------------------------------


#: What the checks read of a subroutine: a ``ConstructionResult`` or a
#: template's ``SubroutineStructure`` (``cfg``, ``graph``, ``stmt_versions``).
Built: TypeAlias = "ConstructionResult | SubroutineStructure"


def verify_graph(
    res: Built, count: Callable[[str], int], subroutine: str | None = None
) -> list[VerificationIssue]:
    """Remapping-graph structure; every label is below ``count(array)``,
    the array's version count."""
    issues: list[VerificationIssue] = []
    sub = subroutine
    g = res.graph
    for tag, vid in (("v_c", g.v_c), ("v_0", g.v_0), ("v_e", g.v_e)):
        if vid not in g.vertices:
            _issue(issues, "graph", f"boundary vertex {tag}={vid} missing", sub)

    def _live(a: str, ver: int) -> bool:
        return 0 <= ver < count(a)

    for vid, v in g.vertices.items():
        if v.cfg_id != vid:
            _issue(issues, "graph", f"vertex keyed {vid} carries cfg_id {v.cfg_id}", sub)
        elif vid not in res.cfg.nodes:
            _issue(issues, "graph", f"vertex {vid} has no CFG node", sub)
        for a in sorted(v.S):
            leaving = v.L.get(a)
            if leaving is not None and not _live(a, leaving):
                _issue(
                    issues,
                    "graph",
                    f"vertex {vid}: leaving version {a}_{leaving} not in the "
                    f"version table ({count(a)} version(s))",
                    sub,
                )
            for label, versions in (
                ("reaching", v.R.get(a, frozenset())),
                ("restore", v.restore.get(a, frozenset())),
                ("live", v.M.get(a, frozenset())),
            ):
                for ver in versions:
                    if not _live(a, ver):
                        _issue(
                            issues,
                            "graph",
                            f"vertex {vid}: {label} version {a}_{ver} not in "
                            "the version table",
                            sub,
                        )
    for (s, d), arrays in g.edges.items():
        if s not in g.vertices or d not in g.vertices:
            _issue(issues, "graph", f"edge {s}->{d} references missing vertices", sub)
            continue
        for a in sorted(arrays):
            for end, vid in (("source", s), ("target", d)):
                if a not in g.vertices[vid].S:
                    _issue(
                        issues,
                        "graph",
                        f"edge {s}->{d} labelled {a!r} but the {end} vertex "
                        "does not remap it",
                        sub,
                    )
    return issues


# ---------------------------------------------------------------------------
# version def-before-use (forward dataflow on the generic solver)
# ---------------------------------------------------------------------------


#: a forward may-problem's state: per name (an array, a template), what may
#: reach a point (versions, distribution spellings)
_State: TypeAlias = dict[str, frozenset[Any]]


def _reaching(cfg: CFG, transfer: Callable[[int, _State], _State]) -> dict[int, _State]:
    """The state reaching each CFG node (unreachable ones too) of the forward
    may-problem with ``transfer`` per node, empty at the entry, the union at
    joins."""

    def join(_n: int, states: list[_State]) -> _State:
        merged: _State = {}
        for st in states:
            for name, values in st.items():
                merged[name] = merged.get(name, frozenset()) | values
        return merged

    nodes = cfg.rpo()
    nodes += sorted(set(cfg.nodes) - set(nodes))
    into, _out = solve(
        nodes,
        preds=lambda n: cfg.preds[n],
        succs=lambda n: cfg.succs[n],
        direction=Direction.FORWARD,
        boundary=lambda _n: {},
        transfer=transfer,
        join=join,
        equal=lambda a, b: a == b,
    )
    return into


def verify_versions(res: Built, subroutine: str | None = None) -> list[VerificationIssue]:
    """Prove every annotated reference version producible on some path.

    Recomputes, independently of the construction's own cached states, the
    set of versions each array may have at every CFG point: remapping
    vertices force their leaving set (restore vertices their whole restore
    set; removed copies pass reaching versions through), joins take the
    union.  A compute statement annotated to reference ``A_k`` where ``k``
    cannot reach it is a def-before-use violation -- version annotations
    and the remapping graph have drifted apart.
    """
    issues: list[VerificationIssue] = []
    sub = subroutine
    cfg = res.cfg
    g = res.graph

    def transfer(n: int, state: _State) -> _State:
        v = g.vertices.get(n)
        if v is None:
            return state
        new = dict(state)
        for a in v.S:
            leaving = v.leaving_set(a)
            if leaving:
                new[a] = leaving
        return new

    into = _reaching(cfg, transfer)
    for nid, node in cfg.nodes.items():
        if node.kind is not NodeKind.COMPUTE or node.stmt is None:
            continue
        ann = res.stmt_versions.get(nid)
        if not ann:
            continue
        possible = into.get(nid, {})
        for a, ver in ann.items():
            have = possible.get(a)
            if have is not None and ver not in have:
                _issue(
                    issues,
                    "versions",
                    f"node {nid} references {a}_{ver} but only versions "
                    f"{sorted(have)} can reach it (def-before-use)",
                    sub,
                )
    return issues


# ---------------------------------------------------------------------------
# statement keys: every annotation sits on a node it may annotate
# ---------------------------------------------------------------------------


def verify_stmt_keys(
    res: Built,
    code: "GeneratedCode | None" = None,
    subroutine: str | None = None,
) -> list[VerificationIssue]:
    """Every key of the node-keyed maps names a node of a kind it may annotate.

    Version annotations sit on computes, ops before a statement
    on remaps, kills and calls, ops after one on calls; a key absent from
    the CFG, or on any other node, is an annotation no walk ever reads.
    """
    issues: list[VerificationIssue] = []
    maps = [("stmt_versions", res.stmt_versions)]
    if code is not None:
        maps += [("code.before", code.before), ("code.after", code.after)]
    for name, keyed in maps:
        for nid in keyed:
            node = res.cfg.nodes.get(nid)
            if node is None or node.kind not in _ANNOTATED_KINDS[name]:
                what = "absent from the CFG" if node is None else f"a {node.kind.value} node"
                _issue(issues, "stmt-keys", f"{name} keyed by node {nid}, {what}", subroutine)
    return issues


# ---------------------------------------------------------------------------
# holes: each against the node it names and the graph's labels
# ---------------------------------------------------------------------------

#: a hole's fields after its kind: a name (s), an int (i), a CFG node (n)
#: or a realign's source (r: an int, or a distribution's origin and name)
_FIELDS = {
    "distribution": "n", "declared": "s", "dummy": "sss", "redistribute": "sni", "realign": "snr"
}
_ORIGINS = {"distribution": "i", "template": "s", "declared": "s"}

#: what each kind of hole must be, with *j* the version it makes: the count
#: of the earlier holes of its array that are not ``distribution`` holes.
#: What reaches a node is what reached it before removal, as construction
#: saw it (removal rewrites the graph's reaching labels, not its leaving ones)
_RULES = {
    "distribution": "names a redistribute no earlier hole names",
    "declared": "makes version 0",
    "dummy": "makes the version j some call passes to that dummy",
    "redistribute": "follows its node's distribution and moves an earlier version, left by "
    "a predecessor (on an edge of its array) of a vertex of that statement leaving j",
    "realign": "names a realign of its array whose vertex leaves j, from the target "
    "array's version or the target template's distribution that reaches it, made before",
}


def _fits(x: object, field: str, nodes: dict[int, CFGNode]) -> bool:
    if field == "s":
        return isinstance(x, str)
    if field == "r" and isinstance(x, tuple):
        origin = _ORIGINS.get(x[0]) if len(x) == 2 and isinstance(x[0], str) else None
        return origin is not None and _fits(x[1], origin, nodes)
    return type(x) is int and (field != "n" or x in nodes)


class _HoleRules:
    """The rules of :data:`_RULES` over one subroutine's structure and
    declarations."""

    def __init__(self, built: "SubroutineStructure", decls: tuple[Decl, ...]) -> None:
        self.built = built
        self.decls = decls
        self.declared = {d.name for d in decls if isinstance(d, ArrayDecl)}
        self.aligned = {d.alignee: d.target for d in decls if isinstance(d, AlignDecl)}
        # the graph's vertices by the statement of their node
        self.vertices_of: dict[object, list[int]] = {}
        for vid in built.graph.vertices:
            node = built.cfg.nodes.get(vid)
            if node is not None and node.stmt is not None:
                self.vertices_of.setdefault(node.stmt, []).append(vid)

    # -- what only a ``realign`` hole reads ------------------------------------

    @cached_property
    def spelled(self) -> dict[str, tuple]:
        """Each template's declared distribution, as :meth:`spelling` has it."""
        return {
            self.root(d.target): (self.root(d.target), make_formats(d.formats))
            for d in self.decls
            if isinstance(d, DistributeDecl)
        }

    @cached_property
    def redistributions(self) -> dict[int, tuple]:
        """Each ``redistribute`` node's distribution, as :meth:`spelling` has it."""
        return {
            nid: self.spelling(node.stmt)
            for nid, node in self.built.cfg.nodes.items()
            if isinstance(node.stmt, Redistribute)
        }

    @cached_property
    def into(self) -> dict[int, _State]:
        """What reaches each node: each array's versions (the graph's leaving
        labels) and each template's distributions; nothing over a broken
        CFG, which the structure's own checks report."""
        return {} if verify_cfg(self.built.cfg) else _reaching(self.built.cfg, self._transfer)

    def root(self, name: str) -> str:
        """The template ``name`` is aligned to (through at most every align):
        an array aligned to nothing has its own, implicit one."""
        for _ in self.aligned:
            name = self.aligned.get(name, name)
        return f"$T_{name}" if name in self.declared else name

    def spelling(self, stmt: Redistribute) -> tuple:
        """The distribution ``stmt`` builds, as construction tells two apart:
        its template and formats (``onto`` names the one arrangement a valid
        program could use without it)."""
        return (self.root(stmt.target), make_formats(stmt.formats))

    def _transfer(self, n: int, state: _State) -> _State:
        v, spelled = self.built.graph.vertices.get(n), self.redistributions.get(n)
        if n == self.built.cfg.entry:  # the declared distributions
            state = {**{t: frozenset({s}) for t, s in self.spelled.items()}, **state}
        elif v is None and spelled is None:
            return state
        new = dict(state)
        for a in v.S if v is not None else ():
            leaving = v.L.get(a)
            made = v.restore.get(a) or frozenset(() if leaving is None else (leaving,))
            if made:
                new[a] = made
        if spelled is not None:
            new[spelled[0]] = frozenset({spelled})
        return new

    def follows(self, hole: "Hole", made: Counter[str], dists: set[int]) -> bool:
        """Well-formed ``hole`` keeps its kind's rule after the holes that
        made the versions ``made`` and the distributions ``dists``."""
        built, nodes, graph = self.built, self.built.cfg.nodes, self.built.graph
        kind, array, *rest = hole
        if kind == "distribution":
            return isinstance(nodes[array].stmt, Redistribute) and array not in dists
        j = made[array]
        if kind == "declared":
            return j == 0
        if kind == "dummy":
            passed = (array, rest[1], j)
            calls = [info for info in built.calls.values() if info.callee == rest[0]]
            return any(passed in zip(i.args, i.dummies, i.dummy_versions) for i in calls)

        def leaves_j(vid: int) -> bool:
            v = graph.vertices.get(vid)
            return v is not None and array in v.S and (
                v.L.get(array) == j or array in v.removed
            )

        (k, src), stmt = rest, nodes[rest[0]].stmt
        if kind == "redistribute":  # src leaves a predecessor of a vertex leaving j
            return k in dists and 0 <= src < j and any(
                leaves_j(vid)
                and any(
                    p is not None and (p.L.get(array) == src or src in p.restore.get(array, ()))
                    for p in map(graph.vertices.get, graph.preds(vid, array))
                )
                for vid in self.vertices_of.get(stmt, ())
            )
        if not isinstance(stmt, Realign) or stmt.alignee != array or not leaves_j(k):
            return False
        reaching = self.into.get(k, {}).get(stmt.target, frozenset())
        if isinstance(src, int):  # the target array's version that reaches k
            made_before = stmt.target in self.declared and 0 <= src < made[stmt.target]
            return made_before and src in reaching
        # a distribution of the target template, spelled as the one that reaches k
        origin, name = src
        if origin == "distribution":
            spelled = self.redistributions.get(name) if name in dists else None
        elif origin == "template" or name in self.declared:
            spelled = self.spelled.get(self.root(name))
        else:
            return False
        return stmt.target not in self.declared and spelled is not None and spelled in reaching


def verify_holes(
    built: "SubroutineStructure", decls: tuple[Decl, ...], subroutine: str
) -> tuple[list[VerificationIssue], Counter[str]]:
    """Each hole against the CFG node it names and the remapping graph's
    labels, in construction order (:data:`_RULES`), and each array's
    version count, one per well-formed hole that is not a ``distribution``
    hole; each array ``decls`` declares needs one ``declared`` hole.  A
    malformed hole is an issue, never an exception.
    """
    rules = _HoleRules(built, decls)
    issues: list[VerificationIssue] = []
    made: Counter[str] = Counter()
    dists: set[int] = set()
    seeded: set[str] = set()
    for i, hole in enumerate(built.holes):
        kind = hole[0] if isinstance(hole, tuple) and hole else None
        spec = _FIELDS.get(kind) if isinstance(kind, str) else None
        if spec is None or len(hole) != 1 + len(spec) or not all(
            _fits(x, field, built.cfg.nodes) for x, field in zip(hole[1:], spec)
        ):
            found = f"hole {i} {hole!r} is malformed (kind, arity, field type or node)"
            _issue(issues, "holes", found, subroutine)
            continue
        if not rules.follows(hole, made, dists):
            _issue(issues, "holes", f"hole {i} {hole!r}: a {kind} hole {_RULES[kind]}", subroutine)
        if kind == "distribution":
            dists.add(hole[1])
        else:
            made[hole[1]] += 1
        if kind == "declared":
            seeded.add(hole[1])
    if rules.declared != seeded:
        found = f"declared arrays {sorted(rules.declared)}, declared holes for {sorted(seeded)}"
        _issue(issues, "template", found, subroutine)
    return issues, made


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def verify_subroutine(
    res: Built,
    count: Callable[[str], int],
    code: "GeneratedCode | None",
    subroutine: str,
) -> list[VerificationIssue]:
    """All per-subroutine checks (CFG, graph, versions, statement keys)."""
    issues = verify_cfg(res.cfg, subroutine)
    issues += verify_graph(res, count, subroutine)
    issues += verify_stmt_keys(res, code, subroutine)
    # def-before-use assumes a structurally sound CFG; skip it when the
    # structure is already known broken (avoids solver crashes on e.g.
    # dangling adjacency)
    if not any(i.check == "cfg" for i in issues):
        issues += verify_versions(res, subroutine)
    return issues


def verify_artifact(cp: "CompiledProgram") -> list[VerificationIssue]:
    """Every invariant check over a compiled program; empty = verified."""
    issues: list[VerificationIssue] = []
    for name, cs in cp.subroutines.items():
        res = cs.construction
        issues += verify_subroutine(res, res.versions.count, cs.code, name)
    return issues


def verify_template(template: "SymbolicTemplate") -> list[VerificationIssue]:
    """Every check over a symbolic template, at no shape; empty = verified.

    Per subroutine, the checks :func:`verify_artifact` runs on any patch
    of the template, over the structure every patch shares, with each
    array's version count taken from its holes, and :func:`verify_holes`;
    then the stored AST against that structure (the same subroutines,
    each body the one its CFG was built over, each subroutine's
    declarations the ones its structure recorded at the cut), and the
    bindings: a template has a shape-symbolic name, no fixed binding
    shadows one, and every compile-relevant name has the fixed binding
    its compile needed.
    """
    issues: list[VerificationIssue] = []
    structures = template.structure.subroutines
    names = sorted(sub.name for sub in template.program.subroutines)
    if names != sorted(structures):
        found = f"the AST holds subroutines {names}, the structure {sorted(structures)}"
        _issue(issues, "template", found, None)
    for sub in template.program.subroutines:
        built = structures.get(sub.name)
        if built is None:
            continue
        found_in_holes, counts = verify_holes(built, sub.decls, sub.name)
        issues += verify_subroutine(built, counts.__getitem__, built.code, sub.name)
        issues += found_in_holes
        if sub.body != built.cfg.body:
            _issue(issues, "template", "the AST body is not the one its CFG holds", sub.name)
        if sub.decls != built.declarations:
            found = "the AST declarations are not the ones its structure was built over"
            _issue(issues, "template", found, sub.name)
    cls = template.classification
    fixed = set(template.fixed_bindings)
    if not cls.shape_symbolic:
        _issue(issues, "template", "no shape-symbolic bindings (should be concrete)", None)
    if shadowed := sorted(cls.shape_symbolic & fixed):
        _issue(issues, "template", f"fixed bindings shadow shape symbol(s) {shadowed}", None)
    if unbound := sorted(cls.compile_relevant - fixed):
        _issue(issues, "template", f"compile-relevant name(s) {unbound} have no fixed binding", None)
    return issues


def assert_verified(cp: "CompiledProgram") -> "CompiledProgram":
    """Raise :class:`~repro.errors.ArtifactVerificationError` on any issue."""
    issues = verify_artifact(cp)
    if issues:
        raise ArtifactVerificationError(issues)
    return cp
