"""Loop-invariant remapping motion (paper Sec. 4.3, Fig. 16/17).

The ADI pattern remaps an array at the top of a loop body and back at the
bottom::

    do i = 1, t
  !hpf$ redistribute A(cyclic)      ! (1)
      ... A ...
  !hpf$ redistribute A(block)       ! (2)
    enddo

Every iteration pays two remappings.  Sinking the trailing remapping (2)
after the loop leaves only (1) inside; at iterations after the first the
runtime notices the array is already mapped as required "just by an
inexpensive check of its status" and skips it, so ``2t`` remappings become
``t + 1`` statically and ``2`` dynamically.

Unlike reference [11] of the paper, the *leading* remapping is **not**
hoisted before the loop: if the loop runs zero times that would introduce a
useless remapping (the paper calls this out explicitly).  Sinking the
trailing remapping is safe even for zero-trip loops: in any legal program
either the sunk mapping equals the loop-entry mapping (the runtime status
check makes the sunk copy free) or no reference observes the difference
(it would have been ambiguous and rejected).

Soundness requires family awareness: ``redistribute A`` remaps *every*
array aligned with ``A`` (paper Fig. 3), so the legality scan covers the
whole declared alignment family, and the pass conservatively refuses to
move anything in subroutines that also use ``realign`` (which changes
families dynamically).

Legality is not profitability: on adversarial programs a legal sink can
*increase* traffic (it may land where a branch-local reference keeps it
alive while the unmoved remapping was removable).  When a cost guard is
supplied (any object with ``evaluate(program, base_sub, candidate_sub,
description) -> decision``; see :class:`repro.remap.costguard.CostGuard`),
each candidate sink is priced against the unmoved placement and performed
only if it never pays more; rejected candidates are recorded in
:attr:`MotionReport.rejected` with their estimated cost delta.  A sink
moves one remapping of one alignment family, so the guard prices both
placements on that family alone, and only between the points around the
moved nest where the family's state is the same in both -- the rest of
the subroutine is a term they share.  Without a guard the pass keeps its
legacy legality-only behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast_nodes import (
    AlignDecl,
    Block,
    Call,
    Compute,
    Do,
    If,
    Kill,
    Program,
    Realign,
    Redistribute,
    Stmt,
    Subroutine,
    walk_statements,
)

# declared pipeline interface (consumed by repro.compiler.pipeline)
PASS_NAME = "motion"
PASS_REQUIRES = ("ast",)
PASS_PROVIDES = ("motion",)


def alignment_families(sub: Subroutine) -> dict[str, frozenset[str]]:
    """Map each align-tree root (array or template name) to its whole family."""
    parent: dict[str, str] = {}
    for d in sub.decls:
        if isinstance(d, AlignDecl):
            parent[d.alignee] = d.target

    def root(n: str) -> str:
        seen = set()
        while n in parent and n not in seen:
            seen.add(n)
            n = parent[n]
        return n

    families: dict[str, set[str]] = {}
    names = set(parent) | set(parent.values())
    for n in names:
        families.setdefault(root(n), set()).add(n)
    for r in list(families):
        families[r].add(r)
    return {r: frozenset(f) for r, f in families.items()}


def _references(s: Stmt, names: frozenset[str]) -> bool:
    """Does the statement (recursively) reference any of the arrays?"""
    if isinstance(s, Compute):
        return bool(names.intersection(s.reads + s.writes + s.defines))
    if isinstance(s, Call):
        return bool(names.intersection(s.args))
    if isinstance(s, Kill):
        return bool(names.intersection(s.names))
    if isinstance(s, Redistribute):
        return False  # remapping, not a value reference
    if isinstance(s, If):
        return any(_references(x, names) for x in s.then.stmts + s.orelse.stmts)
    if isinstance(s, Do):
        return any(_references(x, names) for x in s.body.stmts)
    return False


@dataclass(frozen=True)
class RejectedHoist:
    """A legal sink the cost guard refused, with its estimated delta.

    The deltas are the guard's: sums of the moved family's traffic inside
    the window it priced, over that window's grid, not whole-program totals.
    """

    description: str
    delta_bytes: int  # estimated candidate bytes - unmoved bytes
    delta_time: float  # modelled seconds, same sign convention
    reason: str = ""

    def __str__(self) -> str:
        return (
            f"{self.description} rejected "
            f"(estimated {self.delta_bytes:+d} B): {self.reason}"
        )


@dataclass
class MotionReport:
    sunk: list[str] = field(default_factory=list)  # descriptions, for reports
    rejected: list[RejectedHoist] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.sunk)

    @property
    def rejected_count(self) -> int:
        return len(self.rejected)


class _DecisionScript:
    """Replays sink decisions; optionally probes one extra opportunity.

    The mover is deterministic, so a boolean per sink opportunity (in
    encounter order) fully determines the transform.  ``probe=True`` lets
    exactly one opportunity beyond the scripted prefix through -- producing
    the "current state plus one more sink" candidate the guard prices.
    """

    def __init__(self, decisions: list[bool] | None = None, probe: bool = False):
        self.decisions = list(decisions or [])
        self.probe = probe
        self.index = 0
        self.probe_description: str | None = None

    def next(self, description: str) -> bool:
        i = self.index
        self.index += 1
        if i < len(self.decisions):
            return self.decisions[i]
        if self.probe and self.probe_description is None:
            self.probe_description = description
            return True
        return False


class _AcceptAll(_DecisionScript):
    """Legacy unguarded behaviour: every legal sink is performed."""

    def next(self, description: str) -> bool:
        return True


class _Mover:
    def __init__(
        self,
        sub: Subroutine,
        report: MotionReport,
        script: _DecisionScript | None = None,
    ):
        self.families = alignment_families(sub)
        self.report = report
        self.script = script or _AcceptAll()

    def family(self, target: str) -> frozenset[str]:
        return self.families.get(target, frozenset({target}))

    # three-valued scan result: is the family referenced before being remapped?
    _REF, _SAFE, _CLEAN = "ref", "safe", "clean"

    def _scan(self, body: tuple[Stmt, ...], fam: frozenset[str]) -> str:
        """REF: referenced before a covering remap (sinking unsound);
        SAFE: a covering remap protects every path through this sequence;
        CLEAN: untouched (or only protected on non-mandatory paths) --
        scanning must continue past it."""
        for s in body:
            if isinstance(s, Redistribute):
                f2 = self.family(s.target)
                if f2 & fam:
                    # remaps (part of) the family: sound only if it covers it
                    return self._SAFE if f2 >= fam else self._REF
                continue
            if isinstance(s, If):
                rs = [
                    self._scan(s.then.stmts, fam),
                    self._scan(s.orelse.stmts, fam),
                ]
                if self._REF in rs:
                    return self._REF
                if rs == [self._SAFE, self._SAFE]:
                    return self._SAFE
                continue  # some path is unprotected: keep scanning
            if isinstance(s, Do):
                r = self._scan(s.body.stmts, fam)
                if r == self._REF:
                    return self._REF
                continue  # zero-trip path is unprotected: keep scanning
            if _references(s, fam):
                return self._REF
        return self._CLEAN

    def _first_touch_is_remap(self, body: tuple[Stmt, ...], fam: frozenset[str]) -> bool:
        """Sinking a trailing remap of ``fam`` past the back edge is sound iff
        no path through the body references the family before remapping it."""
        return self._scan(body, fam) in (self._SAFE, self._CLEAN)

    def transform_block(self, block: Block) -> Block:
        out: list[Stmt] = []
        for s in block.stmts:
            out.extend(self.transform_stmt(s))
        return Block(tuple(out))

    def transform_stmt(self, s: Stmt) -> list[Stmt]:
        if isinstance(s, If):
            return [If(s.cond, self.transform_block(s.then), self.transform_block(s.orelse))]
        if not isinstance(s, Do):
            return [s]
        body = self.transform_block(s.body)
        stmts = list(body.stmts)
        sunk: list[Stmt] = []
        while stmts:
            last = stmts[-1]
            if not isinstance(last, Redistribute):
                break
            fam = self.family(last.target)
            if not self._first_touch_is_remap(tuple(stmts[:-1]), fam):
                break
            if any(isinstance(x, Redistribute) and x.target == last.target for x in sunk):
                break  # only one sunk remapping per target
            description = f"do {s.var}: sunk redistribute of {last.target}"
            if not self.script.next(description):
                break  # the cost guard keeps the naive placement
            stmts.pop()
            sunk.insert(0, last)
            self.report.sunk.append(description)
        return [Do(s.var, s.lo, s.hi, Block(tuple(stmts))), *sunk]


def _apply_script(
    sub: Subroutine, decisions: list[bool], probe: bool
) -> tuple[Subroutine, MotionReport, str | None]:
    """One deterministic mover run under a scripted decision prefix."""
    report = MotionReport()
    script = _DecisionScript(decisions, probe=probe)
    mover = _Mover(sub, report, script)
    new_sub = Subroutine(sub.name, sub.params, sub.decls, mover.transform_block(sub.body))
    return new_sub, report, script.probe_description


def hoist_loop_invariant_remaps(
    sub: Subroutine,
    guard=None,
    program: Program | None = None,
) -> tuple[Subroutine, MotionReport]:
    """Sink trailing loop-body remappings after their loops (Fig. 16 -> 17).

    Conservative: subroutines containing ``realign`` are left untouched,
    because realignment changes alignment families dynamically and the
    declared-family legality scan would be unsound.

    With a cost ``guard``, candidate sinks are performed one at a time and
    each is priced against the current placement (``program`` supplies the
    surrounding subroutines for interface resolution; it defaults to the
    subroutine alone).  A rejected candidate keeps the naive placement and
    is recorded in :attr:`MotionReport.rejected` with its estimated delta.
    """
    if any(isinstance(s, Realign) for s in walk_statements(sub.body)):
        return sub, MotionReport()
    if guard is None:
        report = MotionReport()
        mover = _Mover(sub, report)
        return (
            Subroutine(sub.name, sub.params, sub.decls, mover.transform_block(sub.body)),
            report,
        )

    if program is None:
        program = Program((sub,))
    report = MotionReport()
    decisions: list[bool] = []
    current, _, _ = _apply_script(sub, decisions, probe=False)
    while True:
        candidate, _, description = _apply_script(sub, decisions, probe=True)
        if description is None:
            break  # no further legal sink opportunity
        decision = guard.evaluate(program, current, candidate, description)
        if decision.hoist:
            decisions.append(True)
            current = candidate
            report.sunk.append(description)
        else:
            decisions.append(False)
            report.rejected.append(
                RejectedHoist(
                    description,
                    decision.delta_bytes,
                    decision.delta_time,
                    decision.reason,
                )
            )
    return current, report


def transform_program(
    program: Program, guard=None
) -> tuple[Program, MotionReport]:
    total = MotionReport()
    current = program
    for s in program.subroutines:
        new_sub, rep = hoist_loop_invariant_remaps(s, guard=guard, program=current)
        total.sunk.extend(rep.sunk)
        total.rejected.extend(rep.rejected)
        current = current.with_subroutine(new_sub)
    return current, total
