"""Static invariant verification of compiled artifacts.

A :class:`~repro.compiler.artifacts.CompiledProgram` is a graph of
interlocking structures -- CFG, remapping graph ``G_R``, version table,
statement-keyed annotation maps, generated op lists -- whose mutual
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
  remap, and every leaving/reaching/live version is live in the version
  table;
* **statement-key bijectivity** -- the ``id(stmt)``-keyed maps
  (``cfg.stmt_nodes``, ``stmt_versions``, generated before/after op
  lists) correspond one-to-one with live CFG statements.  This is the
  static detector for the deserialization bug class where the maps go
  stale (keys of dead pre-pickle objects): exactly the defect the
  rebase in :mod:`repro.compiler.artifacts` exists to repair.

:func:`verify_artifact` returns the full issue list (empty = verified);
:func:`assert_verified` raises
:class:`~repro.errors.ArtifactVerificationError` instead.  The ``verify``
pipeline pass runs these checks at compile time, and the persistent
store (:mod:`repro.store`) runs them on every disk load of a concrete
artifact, evicting artifacts that fail -- a hash-valid but semantically
corrupt entry degrades to a recompile, never an execution.  A stored
*template* is checked as the artifact it serves: structurally on load
(:func:`verify_template_structure`), and by :func:`verify_artifact` on
the first artifact a session instantiates from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.dataflow import Direction, solve
from repro.errors import ArtifactVerificationError
from repro.ir.cfg import CFG, NodeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.compiler.artifacts import CompiledProgram
    from repro.compiler.template import SymbolicTemplate
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
    "verify_template_structure",
    "verify_template",
    "assert_verified",
]

#: Node kinds whose statement is registered in ``cfg.stmt_nodes`` (the
#: builder skips the synthetic before/after halves of a call group).
_UNREGISTERED_KINDS = (NodeKind.CALL_BEFORE, NodeKind.CALL_AFTER)


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


def verify_graph(res: "ConstructionResult", subroutine: str | None = None) -> list[VerificationIssue]:
    """Remapping-graph structure + version-table liveness of every label."""
    issues: list[VerificationIssue] = []
    sub = subroutine
    g = res.graph
    vt = res.versions
    for tag, vid in (("v_c", g.v_c), ("v_0", g.v_0), ("v_e", g.v_e)):
        if vid not in g.vertices:
            _issue(issues, "graph", f"boundary vertex {tag}={vid} missing", sub)

    def _live(a: str, ver: int) -> bool:
        return 0 <= ver < vt.count(a)

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
                    f"version table ({vt.count(a)} version(s))",
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


def verify_versions(
    res: "ConstructionResult", subroutine: str | None = None
) -> list[VerificationIssue]:
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
        ann = res.stmt_versions.get(id(node.stmt))
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
# statement-key bijectivity (the PR 5 stale-map bug class, statically)
# ---------------------------------------------------------------------------


def verify_stmt_keys(
    res: "ConstructionResult",
    code: "GeneratedCode | None" = None,
    subroutine: str | None = None,
) -> list[VerificationIssue]:
    """The ``id(stmt)``-keyed maps must be bijective with the CFG.

    Every key of ``cfg.stmt_nodes`` must be the live identity of its
    node's statement (a key minted from an object that no longer exists --
    the stale deserialization state the unpickle rebase repairs -- fails
    here), the map must be injective, every registered statement must be
    present, and the annotation/op maps may only key live statements.
    """
    issues: list[VerificationIssue] = []
    sub = subroutine
    cfg = res.cfg
    for key, nid in cfg.stmt_nodes.items():
        node = cfg.nodes.get(nid)
        if node is None:
            _issue(issues, "stmt-keys", f"stmt_nodes points at missing node {nid}", sub)
        elif node.stmt is None:
            _issue(issues, "stmt-keys", f"stmt_nodes points at stmt-less node {nid}", sub)
        elif id(node.stmt) != key:
            _issue(
                issues,
                "stmt-keys",
                f"stale stmt key for node {nid}: the map key is not the "
                "identity of the node's statement (stale deserialized map?)",
                sub,
            )
    mapped = list(cfg.stmt_nodes.values())
    if len(set(mapped)) != len(mapped):
        _issue(issues, "stmt-keys", "stmt_nodes maps two keys to one node", sub)
    for nid, node in cfg.nodes.items():
        if node.stmt is None or node.kind in _UNREGISTERED_KINDS:
            continue
        if cfg.stmt_nodes.get(id(node.stmt)) != nid:
            _issue(
                issues,
                "stmt-keys",
                f"statement of node {nid} is not registered in stmt_nodes",
                sub,
            )
    live = set(cfg.stmt_nodes)
    for name, keys in (
        ("stmt_versions", res.stmt_versions.keys()),
        ("code.before", code.before.keys() if code is not None else ()),
        ("code.after", code.after.keys() if code is not None else ()),
    ):
        for key in keys:
            if key not in live:
                _issue(
                    issues,
                    "stmt-keys",
                    f"{name} keyed by a statement no CFG node carries "
                    "(stale deserialized map?)",
                    sub,
                )
    return issues


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def verify_subroutine(
    res: "ConstructionResult",
    code: "GeneratedCode | None" = None,
    subroutine: str | None = None,
) -> list[VerificationIssue]:
    """All per-subroutine checks (CFG, graph, versions, statement keys)."""
    name = subroutine or res.sub.name
    issues = verify_cfg(res.cfg, name)
    issues += verify_graph(res, name)
    issues += verify_stmt_keys(res, code, name)
    # def-before-use assumes a structurally sound CFG; skip it when the
    # structure is already known broken (avoids solver crashes on e.g.
    # dangling adjacency)
    if not any(i.check == "cfg" for i in issues):
        issues += verify_versions(res, name)
    return issues


def verify_artifact(cp: "CompiledProgram") -> list[VerificationIssue]:
    """Every invariant check over a compiled program; empty = verified."""
    issues: list[VerificationIssue] = []
    for name, cs in cp.subroutines.items():
        issues += verify_subroutine(cs.construction, cs.code, name)
    return issues


def verify_template_structure(template: "SymbolicTemplate") -> list[VerificationIssue]:
    """The checks a template admits without a geometry; empty = sound.

    The binding classification must partition (no name both shape-symbolic
    and compile-relevant), at least one name must be shape-symbolic
    (otherwise a concrete artifact should have been stored) and no fixed
    binding may shadow a shape symbol.  This is all a store load runs on a
    template: what the stored AST *means* is checked on the artifact a
    request instantiates from it
    (:meth:`repro.compiler.session.CompilerSession._instantiate`), at the
    request's own geometry, not on a probe beside it.
    """
    issues: list[VerificationIssue] = []
    cls = template.classification
    overlap = cls.shape_symbolic & cls.compile_relevant
    if overlap:
        _issue(
            issues,
            "template",
            f"binding names {sorted(overlap)} classified both shape-symbolic "
            "and compile-relevant",
            None,
        )
    if not cls.shape_symbolic:
        _issue(
            issues,
            "template",
            "template has no shape-symbolic bindings (should be concrete)",
            None,
        )
    shadowed = cls.shape_symbolic & set(template.fixed_bindings)
    if shadowed:
        _issue(
            issues,
            "template",
            f"fixed bindings shadow shape symbol(s) {sorted(shadowed)}",
            None,
        )
    return issues


def verify_template(template: "SymbolicTemplate") -> list[VerificationIssue]:
    """Every invariant check over a symbolic template; empty = verified.

    A template cannot be checked directly the way a concrete artifact can
    -- its geometry is parameterized -- so verification has two parts:

    * **structural** -- :func:`verify_template_structure`;
    * **probe instantiation** -- the template is instantiated at one small
      concrete geometry and the result passes the *full* concrete checker
      (:func:`verify_artifact`).  An entry whose stored AST or options were
      corrupted in a way that still unpickles fails here.

    The probe is the offline check (``python -m repro.store verify --deep``,
    :meth:`repro.store.ArtifactStore.verify` with ``deep=True``), where no
    request supplies a geometry.  On the request path the session verifies
    the first artifact it instantiates from a loaded template instead, so
    a load instantiates nothing.
    """
    issues = verify_template_structure(template)
    if issues:
        return issues  # probe instantiation needs a sane classification
    from repro.mapping.processors import ProcessorArrangement

    bindings = {
        name: 8 + 4 * i
        for i, name in enumerate(sorted(template.classification.shape_symbolic))
    }
    try:
        compiled = template.instantiate(bindings, ProcessorArrangement("P", (2,)))
    except Exception as exc:
        _issue(issues, "template", f"probe instantiation failed: {exc!r}", None)
        return issues
    return verify_artifact(compiled)


def assert_verified(cp: "CompiledProgram") -> "CompiledProgram":
    """Raise :class:`~repro.errors.ArtifactVerificationError` on any issue."""
    issues = verify_artifact(cp)
    if issues:
        raise ArtifactVerificationError(issues)
    return cp
