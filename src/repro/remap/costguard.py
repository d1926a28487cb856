"""The cost guard: accept a remapping motion only when it cannot lose.

The motion pass (Fig. 16/17) is a heuristic: sinking a trailing loop-body
remapping usually turns ``2t`` dynamic remappings into ``2``, but on
adversarial programs the moved statement can land where a branch-local
reference keeps it alive while the unmoved one was removable -- a real
phase-ordering effect with useless-remapping removal (Appendix C) that can
make "optimized" traffic *exceed* the naive placement (the seed-2558
counter-example tracked in ROADMAP.md).

:class:`CostGuard` closes the hole by construction.  For every candidate
sink it compiles both placements with the pipeline's own pass objects:
the code passes of the request's
:class:`~repro.compiler.artifacts.CompilerOptions`
(:func:`~repro.compiler.pipeline.code_passes`), run over a
:class:`~repro.compiler.pipeline.PassContext` of the guard's own -- so a
variant is the code the pipeline will generate after motion, with no
second copy of that tail to keep in step.  It then prices both with the
exact static traffic simulator (:mod:`repro.spmd.traffic`) over the
runtime-unknown scenario space -- every branch-outcome assignment,
zero/one/many trip counts for every *symbolic* loop bound (even ones this
compile's bindings pin: compiled artifacts are cached and reused across
runtime bound values, so the decision must hold for all of them), inputs
present or absent.
Constant loop bounds are simulated exactly.  The sink is accepted only if

* it never moves more message bytes than the unmoved placement in *any*
  scenario (the per-execution monotonicity the soundness property asserts),
  and
* the aggregate :meth:`~repro.spmd.cost.CostModel.compare` decision over
  the scenario space favours it under the machine's cost parameters --
  so a machine with expensive status checks simply keeps the naive
  placement ("pay only when the status check can pay off").

Only the moved family is priced, and only inside its window.  A
placement's traffic in one scenario is a sum over alignment families:

* every runtime op of the descriptor walker (remap, save, restore, poison)
  touches exactly one array's descriptor, and a compute statement touches
  the descriptors of the arrays it names, each on its own; copies and
  status checks are charged per remap op;
* the ops of one array come from that array's own dataflow problems
  (Appendices B-D are per array), and the statements that reach them are
  the ones naming the array or remapping its family -- a ``redistribute``
  remaps exactly its target's alignment family (Fig. 3), so its effect
  stays inside that family;
* ``realign`` moves arrays between families at run time, which would void
  the argument; it never reaches the guard, because the motion pass leaves
  a subroutine that has one untouched.

So :meth:`CostGuard.evaluate` finds the families on which the two
placements differ (for a sink, the moved remapping's family), then prices
both placements :func:`project`-ed onto those families: their computes and
kills restricted to the family's names, their redistributes of it, the
``if`` statements left with a non-empty arm, every ``do`` loop (an empty
one too, so both placements keep one trip grid), every ``call`` whole (the
callee's walk is a term both placements share) and the declarations these
need.  Every term the projection drops is common to both placements and
cancels in the per-scenario byte check and in the aggregate, both linear;
an axis (a condition, a symbolic trip count) none of whose statements is
priced repeats each priced scenario once per value in the whole grid, so
the aggregate is the whole program's divided by the product of the dropped
axes' sizes -- same sign, same decision.

It then cuts each projection in time, to its :func:`window`.  An
*F-barrier* is a top-level run of family F's projection made of a
``redistribute`` of F's distributee, then statements with no
``redistribute``, ``realign``, ``call`` or ``kill`` at any depth, then a
``compute`` that writes or defines every array of F.  Its remapping is
used W or D (the closing compute absorbs everything after it in the use
lattice's ``seq``), so that remapping marks every other copy stale and
keeps none, and the closing compute clears any poison: after it each array
of F has one known mapping, one live copy and live values, in both
placements and in every scenario; and no use, live-copy or removal fact
crosses it, so the code on either side of it is the same in both
placements.  The window therefore starts at the closing compute of the
last barrier before the first top-level statement the projections differ
in (F's ``distribute`` taking that barrier's formats, so the window's
arrays start where the barrier left them -- skipped when F holds a dummy
argument, whose initial mapping is the caller's), and ends with the
closing compute of the first barrier at or after the differing run; and
outside that run it drops the statements that do nothing at run time
(empty loops, branches with empty arms).  What the window drops costs the
same in both placements scenario by scenario and cancels as above.

Scope of the proof: branch outcomes are priced as fixed per run (the
soundness property space; the runtime's per-iteration condition
*sequences* are not enumerated -- that space is unbounded), symbolic trip
counts are sampled at the structural zero/one/many cases, and a priced
grid too large to enumerate exhaustively rejects the sink rather than
checking a fraction of it.  The cap applies to the priced grid, the
window's: branches that touch only other families, or only statements
outside the window, do not count against it.  Constant-bound,
fixed-outcome programs -- the entire generated-workload space -- are
priced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.lang.ast_nodes import (
    AlignDecl,
    ArrayDecl,
    Block,
    Call,
    Compute,
    DistributeDecl,
    Do,
    DynamicDecl,
    If,
    IntentDecl,
    Kill,
    Program,
    Realign,
    Redistribute,
    Stmt,
    Subroutine,
    TemplateDecl,
    reachable,
    walk_statements,
)
from repro.lang.printer import print_subroutine
from repro.mapping.processors import ProcessorArrangement
from repro.remap.motion import alignment_families
from repro.spmd.cost import TrafficEstimate
from repro.spmd.traffic import Scenario, enumerate_scenarios, simulate_grid

if TYPE_CHECKING:  # cycle: the pipeline imports this module
    from repro.compiler.artifacts import CompilerOptions
    from repro.compiler.pipeline import PassContext


# -- projection onto alignment families ---------------------------------------


def family_index(sub: Subroutine) -> dict[str, frozenset[str]]:
    """Each array and template ``sub`` declares -> its alignment family."""
    index = {n: fam for fam in alignment_families(sub).values() for n in fam}
    for d in sub.decls:
        if isinstance(d, (ArrayDecl, TemplateDecl)):
            index.setdefault(d.name, frozenset({d.name}))
    return index


def project(sub: Subroutine, names: frozenset[str]) -> Subroutine:
    """``sub`` as the arrays and templates in ``names`` (whole families) see it.

    Computes and kills keep only those names (a compute left with no effect
    is dropped), a ``redistribute`` stays only if its target is one of them,
    an ``if`` stays unless both arms are now empty, and every ``do`` loop and
    every ``call`` stays whole.  Declarations are kept for ``names`` and for
    the families of the parameters and of the arrays a call passes.
    """
    index = family_index(sub)
    declared = set(names)
    passed = [a for s in walk_statements(sub.body) if isinstance(s, Call) for a in s.args]
    for n in (*sub.params, *passed):
        declared.update(index.get(n, ()))

    def kept(n: str) -> bool:
        return n in declared or n not in index  # scalars are never dropped

    decls = []
    for d in sub.decls:
        if isinstance(d, (ArrayDecl, TemplateDecl)):
            if d.name in declared:
                decls.append(d)
        elif isinstance(d, AlignDecl):
            if d.alignee in declared:
                decls.append(d)
        elif isinstance(d, DistributeDecl):
            if d.target in declared:
                decls.append(d)
        elif isinstance(d, (DynamicDecl, IntentDecl)):
            kept_names = tuple(filter(kept, d.names))
            if kept_names:
                decls.append(replace(d, names=kept_names))
        else:
            decls.append(d)
    return Subroutine(sub.name, sub.params, tuple(decls), _project_block(sub.body, names))


def _project_block(block: Block, names: frozenset[str]) -> Block:
    keep = names.__contains__
    out: list[Stmt] = []
    for s in block.stmts:
        kind = type(s)
        if kind is Compute:
            effects = (
                tuple(filter(keep, s.reads)),
                tuple(filter(keep, s.writes)),
                tuple(filter(keep, s.defines)),
            )
            if any(effects):
                out.append(Compute(s.label, *effects))
        elif kind is Kill:
            killed = tuple(filter(keep, s.names))
            if killed:
                out.append(Kill(killed))
        elif kind is Redistribute:
            if s.target in names:
                out.append(s)
        elif kind is If:
            then = _project_block(s.then, names)
            orelse = _project_block(s.orelse, names)
            if then.stmts or orelse.stmts:
                out.append(If(s.cond, then, orelse))
        elif kind is Do:
            out.append(Do(s.var, s.lo, s.hi, _project_block(s.body, names)))
        else:  # a call stays whole
            out.append(s)
    return Block(tuple(out))


def _moved_families(base_sub: Subroutine, candidate_sub: Subroutine) -> frozenset[str]:
    """The union of the families on which the two placements differ.

    Two placements with the same declarations project to the same
    declarations on every family, so comparing the projected bodies is
    comparing the projections -- and only where the bodies differ.
    """
    index = family_index(base_sub)
    if (base_sub.params, base_sub.decls) != (candidate_sub.params, candidate_sub.decls):
        return frozenset(index) | frozenset(family_index(candidate_sub))
    base, candidate = _differing_runs(base_sub.body.stmts, candidate_sub.body.stmts)
    moved: frozenset[str] = frozenset()
    for fam in set(index.values()):
        if _project_block(base, fam) != _project_block(candidate, fam):
            moved |= fam
    return moved


def _differing_runs(a: tuple[Stmt, ...], b: tuple[Stmt, ...]) -> tuple[Block, Block]:
    """The runs of statements where two bodies differ.

    A projection maps statement by statement, so equal leading and trailing
    statements project equally; a loop (or branch) that differs only inside
    one body (or arm) projects differently exactly where that body does.
    """
    lo = 0
    while lo < min(len(a), len(b)) and a[lo] == b[lo]:
        lo += 1
    hi_a, hi_b = len(a), len(b)
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a, hi_b = hi_a - 1, hi_b - 1
    if hi_a - lo == hi_b - lo == 1:
        x, y = a[lo], b[lo]
        if type(x) is type(y) is Do and (x.var, x.lo, x.hi) == (y.var, y.lo, y.hi):
            return _differing_runs(x.body.stmts, y.body.stmts)
        if type(x) is type(y) is If and x.cond == y.cond:
            if x.then == y.then:
                return _differing_runs(x.orelse.stmts, y.orelse.stmts)
            if x.orelse == y.orelse:
                return _differing_runs(x.then.stmts, y.then.stmts)
    return Block(a[lo:hi_a]), Block(b[lo:hi_b])


# -- the window: a family projection cut at its barriers ----------------------


def window(
    base_sub: Subroutine, candidate_sub: Subroutine, names: frozenset[str]
) -> tuple[Subroutine, Subroutine]:
    """Both placements :func:`project`-ed onto ``names``, cut to the
    top-level statements whose cost can differ (see the module docstring).

    The cut is at the last barrier closing before the first differing
    statement and at the first one opening at or after the differing run;
    outside that run, statements that can do nothing at run time go too.
    """
    base, cand = project(base_sub, names), project(candidate_sub, names)
    a, b = base.body.stmts, cand.body.stmts
    lo = 0
    while lo < min(len(a), len(b)) and a[lo] == b[lo]:
        lo += 1
    tail = 0
    while tail < min(len(a), len(b)) - lo and a[len(a) - 1 - tail] == b[len(b) - 1 - tail]:
        tail += 1
    prefix, suffix = a[:lo], a[len(a) - tail :]
    decls = base.decls
    family = _barrier_family(base, names)
    if family is not None:
        root, arrays = family
        entry = _barriers(prefix, root, arrays)
        if entry and not names.intersection(base.params):
            opened, closed = entry[-1]
            prefix = prefix[closed:]
            redistribute = a[opened]
            decls = tuple(
                replace(d, formats=redistribute.formats, onto=redistribute.onto)
                if isinstance(d, DistributeDecl) and d.target == root
                else d
                for d in decls
            )
        exit_ = _barriers(suffix, root, arrays)
        if exit_:
            suffix = suffix[: exit_[0][1] + 1]
    prefix = tuple(filter(_acts, prefix))
    suffix = tuple(filter(_acts, suffix))

    def cut(sub: Subroutine, run: tuple[Stmt, ...]) -> Subroutine:
        return Subroutine(sub.name, sub.params, decls, Block(prefix + run + suffix))

    return cut(base, a[lo : len(a) - tail]), cut(cand, b[lo : len(b) - tail])


def _barrier_family(
    sub: Subroutine, names: frozenset[str]
) -> tuple[str, frozenset[str]] | None:
    """``names``' distributee and arrays, if ``names`` is one family that a
    ``redistribute`` can remap (``None`` otherwise: no barrier exists)."""
    index = family_index(sub)
    if len({index.get(n) for n in names}) != 1:
        return None
    roots = [d.target for d in sub.decls if isinstance(d, DistributeDecl) and d.target in names]
    arrays = frozenset(d.name for d in sub.decls if isinstance(d, ArrayDecl) and d.name in names)
    if len(roots) != 1 or not arrays:
        return None
    return roots[0], arrays


def _barriers(
    stmts: tuple[Stmt, ...], root: str, arrays: frozenset[str]
) -> list[tuple[int, int]]:
    """Every barrier in ``stmts``, in order: (index of its ``redistribute``
    of ``root``, index of a ``compute`` that writes or defines every array
    of the family with nothing between that can remap, call or kill)."""
    found: list[tuple[int, int]] = []
    opened = None
    for k, s in enumerate(stmts):
        if type(s) is Redistribute and s.target == root:
            opened = k
        elif opened is not None and not _quiet(s):
            opened = None
        elif opened is not None and type(s) is Compute and arrays <= {*s.writes, *s.defines}:
            found.append((opened, k))
    return found


def _quiet(s: Stmt) -> bool:
    """No ``redistribute``, ``realign``, ``call`` or ``kill`` at any depth."""
    return not any(
        isinstance(x, (Redistribute, Realign, Call, Kill)) for x in walk_statements(Block((s,)))
    )


def _acts(s: Stmt) -> bool:
    """Something at some depth can change or read a descriptor."""
    return any(not isinstance(x, (Do, If)) for x in walk_statements(Block((s,))))


@dataclass(frozen=True)
class GuardDecision:
    """One guarded motion decision, with its estimated cost delta.

    The deltas sum the moved families' traffic inside the window only,
    over the window's grid of ``scenarios`` scenarios: the terms both
    placements share are not in them.
    """

    hoist: bool
    delta_bytes: int  # aggregate over scenarios; negative = the sink saves
    delta_time: float
    scenarios: int
    reason: str

    def __str__(self) -> str:
        verdict = "sink" if self.hoist else "reject"
        return (
            f"{verdict} (delta {self.delta_bytes:+d} B over "
            f"{self.scenarios} scenario(s)): {self.reason}"
        )


#: the value every shape-symbolic binding takes at a symbolized compile's
#: probes, and the linear processor counts probed (the default-grid slot
#: only; a declared ``processors`` arrangement overrides it as usual)
PROBE_SHAPES: tuple[int, ...] = (8, 16)
PROBE_PROCS: tuple[int, ...] = (2, 4)


@dataclass(frozen=True, eq=False)
class Point:
    """A ``(bindings, processors)`` pair a sink is priced at."""

    label: str  # prefixes the reason of a rejection at this point
    bindings: dict[str, int]
    processors: ProcessorArrangement | None


class CostGuard:
    """Decides candidate remapping motions with the communication cost model.

    ``options`` are the request's compiler options: a variant is compiled
    by the pipeline's own code passes that the options name, so the
    comparison prices exactly the code that will be generated, and priced
    under the options' ``cost`` (the machine model consulted for the final
    decision) and ``schedule`` (when set, both placements are priced as
    *scheduled* executions -- phase makespans instead of per-endpoint
    sums).

    A sink is accepted only when each of :attr:`points` accepts it.  The
    one point is the request's ``bindings``/``processors``; a symbolized
    compile's motion is replayed at every shape, so its points are the
    distinct (``bindings`` with each of ``shape_names`` set to n, P = p) for
    n in :data:`PROBE_SHAPES`, p in :data:`PROBE_PROCS`, and ``bindings``
    holds only compile-time names (they are in the template key).
    """

    def __init__(
        self,
        options: "CompilerOptions",
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        shape_names: frozenset[str] = frozenset(),
    ):
        from repro.compiler.pipeline import code_passes

        if isinstance(processors, int):
            processors = ProcessorArrangement("P", (processors,))
        self.options = options
        points: list[Point] = []
        if options.symbolize:
            fixed = {k: v for k, v in (bindings or {}).items() if k not in shape_names}
            for n in PROBE_SHAPES:
                probe = {**fixed, **dict.fromkeys(shape_names, n)}
                for p in PROBE_PROCS:
                    grid = ProcessorArrangement("P", (p,))
                    if all((q.bindings, q.processors) != (probe, grid) for q in points):
                        points.append(Point(f"shape probe (n={n}, P={p}): ", probe, grid))
        else:
            points.append(Point("", dict(bindings or {}), processors))
        self.points: tuple[Point, ...] = tuple(points)
        self._code_passes = code_passes(options)
        # placement pricing memo, keyed by point and projected text: across
        # the accept/reject iteration the projected "current" placement of
        # one sink is the projected "candidate" of an earlier sink of the
        # same family, so each such variant is compiled and simulated once
        self._pricing: dict[tuple[Point, str], "_Pricing"] = {}
        self._program_ref: Program | None = None

    # -- downstream compilation (the pipeline's own passes after motion) ----

    def compile_variant(self, point: Point, program: Program, entry: str) -> "PassContext":
        """Compile ``program`` at ``point`` as the pipeline does after motion.

        Runs the options' code passes (the pipeline's own pass objects)
        over a context of the guard's own, outside any pipeline run: no
        trace record, ``pass:*`` span or pipeline counter is written.  Only
        the subroutines the priced simulation can enter from ``entry`` are
        compiled -- graph construction and codegen are the expensive phases.
        """
        from repro.compiler.pipeline import PassContext

        entered = reachable(program.bodies, entry)
        variant = Program(tuple(s for s in program.subroutines if s.name in entered))
        ctx = PassContext(variant, point.bindings, point.processors, self.options, program=variant)
        for p in self._code_passes:
            p.run(ctx)
        return ctx

    # -- pricing ------------------------------------------------------------

    def _price(self, point: Point, program: Program, sub: Subroutine) -> "_Pricing":
        """Compile one placement at ``point`` and walk its whole scenario grid once.

        ``require_exhaustive``: a subsampled grid cannot *prove* a placement
        safe, so an oversized scenario space rejects the motion instead of
        silently checking a fraction of it.  ``pin_bound_trips=False``:
        compile bindings of loop bounds are runtime inputs that cached
        artifacts outlive, so the decision must hold for any bound value,
        not just this compile's.
        """
        key = (point, print_subroutine(sub))
        cached = self._pricing.get(key)
        if cached is not None:
            return cached
        ctx = self.compile_variant(point, program.with_subroutine(sub), sub.name)
        scenarios = enumerate_scenarios(
            ctx.constructions,
            sub.name,
            bindings=point.bindings,
            pin_bound_trips=False,
            require_exhaustive=True,
        )
        estimates = simulate_grid(
            ctx.constructions, ctx.codes, sub.name, scenarios,
            policy=self.options.schedule, cost=self.options.cost,
        ).checked()
        pricing = self._pricing[key] = _Pricing(
            scenarios, estimates, sum(estimates, TrafficEstimate.zero())
        )
        return pricing

    # -- the decision -------------------------------------------------------

    def evaluate(
        self,
        program: Program,
        base_sub: Subroutine,
        candidate_sub: Subroutine,
        description: str = "",
    ) -> GuardDecision:
        """Compare the candidate (one more sink) against the current state.

        Both placements are priced projected onto the families on which
        they differ and cut to the window where their costs can differ
        (:func:`window`; see the module docstring), at each point in turn.
        The first point that rejects decides, its label prefixing the
        reason; if all accept, the deltas and scenarios are their sums.
        """
        if self._program_ref is not program:
            self._pricing.clear()
            self._program_ref = program
        base, candidate = window(
            base_sub, candidate_sub, _moved_families(base_sub, candidate_sub)
        )
        accepted = []
        for point in self.points:
            decision = self.evaluate_at(point, program, base, candidate)
            if not decision.hoist:
                return replace(decision, reason=point.label + decision.reason)
            accepted.append(decision)
        return GuardDecision(
            True,
            sum(d.delta_bytes for d in accepted),
            sum(d.delta_time for d in accepted),
            sum(d.scenarios for d in accepted),
            accepted[0].reason if len(accepted) == 1 else "accepted at every shape probe",
        )

    def evaluate_at(
        self, point: Point, program: Program, base: Subroutine, candidate: Subroutine
    ) -> GuardDecision:
        """The decision between two windowed placements at one point.

        Any failure to compile, enumerate exhaustively, or simulate a
        variant rejects the candidate: the guard only moves code it can
        prove does not pay more.  Programming errors are not swallowed --
        only the package's own :class:`~repro.errors.ReproError` family
        counts as "cannot price this".
        """
        try:
            priced = self._price(point, program, base), self._price(point, program, candidate)
        except ReproError as exc:  # cannot price it: keep the naive placement
            return GuardDecision(False, 0, 0.0, 0, f"not estimable: {exc}")
        return self._decide(*priced)

    def _decide(self, base: "_Pricing", cand: "_Pricing") -> GuardDecision:
        """The decision between two placements priced over one grid."""
        cost = self.options.cost
        if base.scenarios != cand.scenarios:
            return GuardDecision(
                False, 0, 0.0, 0,
                "not estimable: the two placements' scenario grids differ",
            )
        for sc, b, c in zip(base.scenarios, base.estimates, cand.estimates):
            if c.bytes > b.bytes:
                return GuardDecision(
                    False,
                    c.bytes - b.bytes,
                    cost.time(c) - cost.time(b),
                    len(base.scenarios),
                    f"loses to the unmoved placement on {sc.describe()}",
                )
        d = cost.compare(base.total, cand.total, scheduled=self.options.schedule is not None)
        return GuardDecision(d.hoist, d.delta_bytes, d.delta_time, len(base.scenarios), d.reason)


@dataclass(frozen=True)
class _Pricing:
    """One placement's compiled cost: per-scenario and aggregate traffic."""

    scenarios: list[Scenario]
    estimates: list[TrafficEstimate]
    total: TrafficEstimate
