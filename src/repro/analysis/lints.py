"""Rule-coded IR lints: the paper's Fig. 2 catalog, statically.

The paper motivates its whole optimization story with Fig. 2 -- a catalog
of remapping patterns users write that move data for nothing.  The
compiler *silently removes* what it can prove useless (Appendix C); this
module *tells the user about it* instead, as conventional rule-coded
diagnostics over the unoptimized IR plus a few classic CFG hygiene
checks.  Rules:

=======  ==========================================================
RPR001   dead remap: the remapped version is never referenced before
         the array's next remapping or kill (paper Fig. 2 "useless
         remapping"; exactly what ``remove-useless`` would delete)
RPR002   redundant remap: every copy reaching the vertex already has
         the requested mapping, so the remap can never move data
RPR003   kill of a dead copy: the killed array cannot hold live
         values at the kill (e.g. killed twice without a write)
RPR004   unreachable CFG node: a statement no path from the entry
         reaches
RPR005   scenario-unreachable branch: over every enumerated
         branch-outcome/trip-count scenario
         (:func:`repro.spmd.traffic.enumerate_scenarios`), the
         branch condition is never even evaluated
RPR006   constant shape symbol: a size binding the symbolize
         classifier treats as shape-symbolic is bound to the same
         constant by every request of the supplied workload --
         declaring it compile-relevant would bake it into the
         symbolic template instead of parameterizing over it
=======  ==========================================================

All rules run on the *unoptimized* construction (``remove-useless``
disabled), so they describe the program as written, and every rule is
proved silent on the paper's figures and the four application kernels.
:func:`lint_program` is the one-call API; ``python -m repro.lint``
(:mod:`repro.lint`) is the command-line front end with JSON output and
baseline comparison.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.analysis.dataflow import Direction, solve
from repro.compiler.diagnostics import CompileReport
from repro.errors import ReproError, TrafficPredictionError
from repro.ir.cfg import NodeKind
from repro.ir.effects import Use
from repro.lang.ast_nodes import (
    Compute,
    Kill,
    Program,
    Realign,
    Stmt,
    reachable,
)
from repro.lang.printer import print_stmt
from repro.remap.codegen import GeneratedCode
from repro.remap.construction import ConstructionResult
from repro.remap.graph import GRVertex
from repro.spmd.traffic import enumerate_scenarios, simulate_grid
from repro.symbolic.scenarios import SCENARIO_CAP

__all__ = ["Finding", "LINT_RULES", "lint_construction", "lint_program"]

#: Every rule this module can emit, with its one-line summary.
LINT_RULES: dict[str, str] = {
    "RPR001": "remapped version never referenced before the next remap/kill",
    "RPR002": "remap to a mapping every reaching copy already has",
    "RPR003": "kill of an array that cannot hold live values",
    "RPR004": "CFG node unreachable from the entry",
    "RPR005": "branch never evaluated under any enumerated scenario",
    "RPR006": "shape-symbolic size binding constant across the whole workload",
}


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic: rule code, severity, location, message.

    The mini-HPF AST carries no raw source positions (programs are
    routinely assembled by :class:`~repro.lang.builder.SubroutineBuilder`,
    not parsed), so the *span* of a finding is its canonical rendering:
    the CFG node id plus the statement as the unparser prints it.
    """

    rule: str
    severity: str  # "warning" | "error"
    message: str
    subroutine: str
    node: int | None = None
    array: str | None = None
    snippet: str = ""

    def key(self) -> str:
        """Stable identity for baseline comparison (no message text)."""
        parts = [self.rule, self.subroutine, str(self.node), self.array or ""]
        return ":".join(parts)

    def to_json(self) -> dict:
        """The JSON-report shape of this finding."""
        d = asdict(self)
        d["key"] = self.key()
        return d

    def __str__(self) -> str:
        where = f"{self.subroutine}"
        if self.node is not None:
            where += f":{self.node}"
        at = f"  [{self.snippet}]" if self.snippet else ""
        return f"{self.rule} {self.severity} {where}: {self.message}{at}"


def _snippet(stmt: Stmt | None) -> str:
    if stmt is None:
        return ""
    lines = print_stmt(stmt, indent=0)
    return lines[0].strip() if lines else ""


# ---------------------------------------------------------------------------
# RPR001 / RPR002: remap lints on the (unoptimized) remapping graph
# ---------------------------------------------------------------------------


def _wasted(
    v: GRVertex,
    a: str,
    consumers: dict[tuple[str, int], list[GRVertex]],
    kept: set[tuple[str, int]],
) -> bool:
    """Is vertex ``v``'s remap of ``a`` pure waste?

    The copy being unreferenced (``U = N``) alone is the *optimizer's*
    removal test, but it also matches the paper's Fig. 1, where the remap
    is merged into a later one rather than wasted.  Only report waste when
    the remap additionally has no downstream effect: either nothing
    consumes the leaving version at all (dead-end remap), or every vertex
    that forwards it remaps straight back to a version already reaching
    this statement (Fig. 2's there-and-back pattern).
    """
    leaving = v.L.get(a)
    if leaving is None or v.U.get(a, Use.N) is not Use.N:
        return False
    if (a, leaving) in kept:
        return False  # restored at a later use: the motion pays off
    downstream = [w for w in consumers.get((a, leaving), []) if w is not v]
    return all(
        w.L.get(a) is None or w.L.get(a) in v.R.get(a, frozenset())
        for w in downstream
    )


def _lint_remaps(res: ConstructionResult, name: str) -> list[Finding]:
    graph = res.graph
    # where does each interned version flow?  consumers[(a, ver)] = vertices
    # whose reaching set for `a` contains `ver`; kept[(a, ver)] = the version
    # is restored/maintained somewhere, i.e. its data is demonstrably wanted
    consumers: dict[tuple[str, int], list] = {}
    kept: set[tuple[str, int]] = set()
    for v in graph.vertices.values():
        for a, vers in v.R.items():
            for ver in vers:
                consumers.setdefault((a, ver), []).append(v)
        for a, vers in v.restore.items():
            kept.update((a, ver) for ver in vers)

    findings: list[Finding] = []
    for nid, node in sorted(res.cfg.nodes.items()):
        if node.kind is not NodeKind.REMAP:
            continue
        stmt = node.stmt
        # str() because builder-assembled programs may carry numpy str_
        target = str(stmt.alignee if isinstance(stmt, Realign) else stmt.target)
        v = graph.vertices.get(nid)
        if v is None:
            # the construction registers a remap vertex only when some
            # reaching copy actually changes mapping; no vertex means the
            # statement is a guaranteed no-op on every path
            findings.append(
                Finding(
                    rule="RPR002",
                    severity="warning",
                    message=(
                        f"every copy reaching this remap of {target!r} "
                        "already has the requested mapping; the statement "
                        "can never move data"
                    ),
                    subroutine=name,
                    node=nid,
                    array=target,
                    snippet=_snippet(stmt),
                )
            )
            continue
        # judge the statement by what the *user* asked to move: the named
        # array (or alignee), or -- for a template redistribute -- every
        # array it drags along.  Collateral copies of aligned arrays are
        # the optimizer's business (remove-useless), not a user diagnostic.
        if target in v.S:
            flagged = [target] if _wasted(v, target, consumers, kept) else []
        elif v.S and all(_wasted(v, a, consumers, kept) for a in v.S):
            flagged = sorted(v.S)
        else:
            flagged = []
        for a in flagged:
            findings.append(
                Finding(
                    rule="RPR001",
                    severity="warning",
                    message=(
                        f"{a!r} is remapped here but the new copy is "
                        "never referenced before the array's next "
                        "remapping or kill (Fig. 2 useless remapping); "
                        "the data motion is wasted"
                    ),
                    subroutine=name,
                    node=nid,
                    array=a,
                    snippet=_snippet(stmt),
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RPR003: kills of dead copies (forward may-hold-values dataflow)
# ---------------------------------------------------------------------------


def _lint_kills(res: ConstructionResult, name: str) -> list[Finding]:
    cfg = res.cfg
    all_arrays = frozenset(res.sub.arrays)

    def transfer(n: int, live: frozenset[str]) -> frozenset[str]:
        node = cfg.nodes[n]
        if node.kind is NodeKind.ENTRY:
            return all_arrays  # entry values (inputs) may be live
        if node.kind is NodeKind.KILL and isinstance(node.stmt, Kill):
            return live - frozenset(node.stmt.names)
        if isinstance(node.stmt, Compute) and node.kind is NodeKind.COMPUTE:
            return live | frozenset(node.stmt.writes) | frozenset(node.stmt.defines)
        if node.kind is NodeKind.CALL:
            return all_arrays  # a callee may write any argument; be lazy-safe
        return live

    into, _ = solve(
        cfg.rpo(),
        preds=lambda n: cfg.preds[n],
        succs=lambda n: cfg.succs[n],
        direction=Direction.FORWARD,
        boundary=lambda _n: frozenset(),
        transfer=transfer,
        join=lambda _n, states: frozenset().union(*states) if states else frozenset(),
        equal=lambda a, b: a == b,
    )
    findings: list[Finding] = []
    for nid, node in sorted(cfg.nodes.items()):
        if node.kind is not NodeKind.KILL or not isinstance(node.stmt, Kill):
            continue
        if nid not in into:
            continue  # unreachable kill: RPR004's business
        for a in node.stmt.names:
            if a not in into[nid]:
                findings.append(
                    Finding(
                        rule="RPR003",
                        severity="warning",
                        message=(
                            f"{a!r} cannot hold live values here (no write "
                            "since the previous kill on any path); the kill "
                            "is redundant"
                        ),
                        subroutine=name,
                        node=nid,
                        array=a,
                        snippet=_snippet(node.stmt),
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# RPR004: unreachable CFG nodes
# ---------------------------------------------------------------------------


def _lint_unreachable(res: ConstructionResult, name: str) -> list[Finding]:
    cfg = res.cfg
    reachable = set(cfg.rpo())
    findings: list[Finding] = []
    for nid, node in sorted(cfg.nodes.items()):
        if nid in reachable:
            continue
        findings.append(
            Finding(
                rule="RPR004",
                severity="warning",
                message="no path from the subroutine entry reaches this node",
                subroutine=name,
                node=nid,
                snippet=_snippet(node.stmt),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# RPR005: scenario-unreachable branches (via the traffic enumerator)
# ---------------------------------------------------------------------------


def _lint_scenarios(
    constructions: dict[str, ConstructionResult],
    codes: dict[str, GeneratedCode],
    entry: str,
    bindings: dict[str, int] | None,
    max_scenarios: int,
) -> list[Finding]:
    res = constructions[entry]
    branches = [n for n in res.cfg.nodes.values() if n.kind is NodeKind.BRANCH]
    if not branches:
        return []
    try:
        scenarios = enumerate_scenarios(
            constructions, entry, bindings=bindings, max_scenarios=max_scenarios
        )
    except ReproError:
        return []  # nothing provable without scenarios
    walk = simulate_grid(constructions, codes, entry, scenarios)
    evaluated: set[str] = set()
    for error, conds_read in zip(walk.errors, walk.evaluated):
        if isinstance(error, TrafficPredictionError):
            continue  # an unsimulatable scenario proves nothing
        if error is not None:
            raise error
        evaluated |= conds_read
    findings: list[Finding] = []
    for node in sorted(branches, key=lambda n: n.stmt.cond):
        cond = node.stmt.cond
        if cond in evaluated:
            continue
        findings.append(
            Finding(
                rule="RPR005",
                severity="warning",
                message=(
                    f"branch on {cond!r} is never evaluated in any of the "
                    f"{len(scenarios)} enumerated trip-count/branch-outcome "
                    "scenario(s); the branch (and both arms) may be dead"
                ),
                subroutine=entry,
                node=node.id,
                snippet=_snippet(node.stmt),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# RPR006: shape-symbolic bindings that a workload never actually varies
# ---------------------------------------------------------------------------


def _lint_workload_bindings(
    program: Program, workload: list[dict[str, int]]
) -> list[Finding]:
    """Shape symbols the whole workload binds to one constant.

    A name the symbolize classifier calls shape-symbolic
    (:func:`repro.symbolic.classify.classify_bindings`) is erased from
    template keys and parameterized over -- pure cost if every request
    binds it to the same value.  Needs at least two requests: a single
    binding set proves nothing about variation.
    """
    from repro.symbolic.classify import classify_bindings

    if len(workload) < 2:
        return []
    info = classify_bindings(program)
    sub_name = program.subroutines[0].name if program.subroutines else "<program>"
    findings: list[Finding] = []
    for name in sorted(info.shape_symbolic):
        if not all(name in w for w in workload):
            continue
        values = {w[name] for w in workload}
        if len(values) == 1:
            findings.append(
                Finding(
                    rule="RPR006",
                    severity="warning",
                    message=(
                        f"size binding {name!r} is shape-symbolic but all "
                        f"{len(workload)} workload request(s) bind it to the "
                        f"same constant ({values.pop()}); making it "
                        "compile-relevant would bake the value into the "
                        "symbolic template instead of parameterizing over it"
                    ),
                    subroutine=sub_name,
                    array=name,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def lint_construction(res: ConstructionResult, name: str) -> list[Finding]:
    """The purely-structural rules (RPR001-RPR004) for one subroutine."""
    return (
        _lint_remaps(res, name)
        + _lint_kills(res, name)
        + _lint_unreachable(res, name)
    )


def lint_program(
    source: str | Program,
    bindings: dict[str, int] | None = None,
    processors: int = 4,
    max_scenarios: int = SCENARIO_CAP,
    report: CompileReport | None = None,
    workload: list[dict[str, int]] | None = None,
) -> list[Finding]:
    """Compile ``source`` unoptimized and run every lint rule.

    The front end and construction run exactly as the compiler's
    (``parse``/``resolve``/``construction``/``codegen``), but without
    ``remove-useless`` -- the lints describe what the *user wrote*, not
    what the optimizer left.  ``workload`` -- the binding dicts of the
    requests this source actually serves -- enables the RPR006 rule
    (shape symbols the workload never varies); without it the rule is
    silent, since one binding set proves nothing about variation.  When
    a ``report`` is given, findings are additionally surfaced through
    the standard :class:`~repro.compiler.diagnostics.CompileReport`
    plumbing as ``warning`` diagnostics of the ``lint`` pass.
    """
    from repro.compiler.artifacts import CompilerOptions
    from repro.compiler.pipeline import Pipeline

    options = CompilerOptions(
        passes=("parse", "resolve", "construction", "codegen"),
    )
    ctx = Pipeline(options).run_context(source, bindings or {}, processors)
    findings: list[Finding] = []
    for name, res in ctx.constructions.items():
        findings.extend(lint_construction(res, name))
    # scenario reachability sums over entry subroutines only (a callee's
    # branches are exercised through its callers)
    assert ctx.program is not None
    bodies = ctx.program.bodies
    called = {c for name in bodies for c in reachable(bodies, name)[1:]}
    for name in ctx.constructions:
        if name in called:
            continue
        findings.extend(
            _lint_scenarios(
                ctx.constructions, ctx.codes, name, bindings, max_scenarios
            )
        )
    if workload:
        findings.extend(_lint_workload_bindings(ctx.program, workload))
    findings.sort(key=lambda f: (f.subroutine, f.node if f.node is not None else -1, f.rule))
    if report is not None:
        for f in findings:
            report.add(f.severity, str(f), subroutine=f.subroutine, pass_name="lint")
    return findings
