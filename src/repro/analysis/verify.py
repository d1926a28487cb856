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
from typing import TYPE_CHECKING, Callable, TypeAlias

from repro.analysis.dataflow import Direction, solve
from repro.errors import ArtifactVerificationError
from repro.ir.cfg import CFG, NodeKind
from repro.lang.ast_nodes import ArrayDecl

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.compiler.artifacts import CompiledProgram
    from repro.compiler.template import SubroutineStructure, SymbolicTemplate
    from repro.remap.codegen import GeneratedCode
    from repro.remap.construction import ConstructionResult

__all__ = [
    "VerificationIssue",
    "verify_cfg",
    "verify_graph",
    "verify_versions",
    "verify_stmt_keys",
    "verify_subroutine",
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

    State = dict[str, frozenset[int]]

    def boundary(_n: int) -> State:
        return {}

    def transfer(n: int, state: State) -> State:
        v = g.vertices.get(n)
        if v is None:
            return state
        new = dict(state)
        for a in v.S:
            leaving = v.leaving_set(a)
            if leaving:
                new[a] = leaving
        return new

    def join(_n: int, states: list[State]) -> State:
        merged: dict[str, frozenset[int]] = {}
        for st in states:
            for a, versions in st.items():
                merged[a] = merged.get(a, frozenset()) | versions
        return merged

    nodes = cfg.rpo()
    missing = set(cfg.nodes) - set(nodes)
    nodes = nodes + sorted(missing)  # unreachable nodes still get states
    into, _out = solve(
        nodes,
        preds=lambda n: cfg.preds[n],
        succs=lambda n: cfg.succs[n],
        direction=Direction.FORWARD,
        boundary=boundary,
        transfer=transfer,
        join=join,
        equal=lambda a, b: a == b,
    )
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
    array's version count taken from its holes; then the stored AST
    against that structure (the same subroutines, each body the one its
    CFG was built over, each subroutine's declarations the ones its
    structure recorded at the cut, each declared array seeded
    by a ``declared`` hole), and the bindings: a template has a
    shape-symbolic name, no fixed binding shadows one, and every
    compile-relevant name has the fixed binding its compile needed.
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
        counts = Counter(hole[1] for hole in built.holes if hole[0] != "distribution")
        issues += verify_subroutine(built, counts.__getitem__, built.code, sub.name)
        if sub.body != built.cfg.body:
            _issue(issues, "template", "the AST body is not the one its CFG holds", sub.name)
        if sub.decls != built.declarations:
            found = "the AST declarations are not the ones its structure was built over"
            _issue(issues, "template", found, sub.name)
        declared = {d.name for d in sub.decls if isinstance(d, ArrayDecl)}
        seeded = {hole[1] for hole in built.holes if hole[0] == "declared"}
        if declared != seeded:
            _issue(
                issues,
                "template",
                f"declared arrays {sorted(declared)} but declared-mapping holes "
                f"for {sorted(seeded)}",
                sub.name,
            )
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
