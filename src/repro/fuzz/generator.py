"""Random mini-HPF programs, legal by construction.

This extends the discipline of
:func:`repro.apps.workloads.random_legal_subroutine` with every feature
the differential oracle needs to stress:

* **kill directives** with a *redefine-before-reference* rule: a killed
  array may be remapped (the copy-elision path) but is only ever
  referenced again through a ``defines`` effect, so naive and optimized
  executions agree bit-for-bit even though the optimizer elides the
  copies.  Kills inside loop bodies are redefined before the body ends
  (the next iteration would otherwise read a killed value) and arrays
  dead at loop entry stay dead after it (the loop may run zero trips).
* **remaps inside both branch arms** (the Fig. 11 diamond) in addition
  to the generic recursive branches.
* **nested loops with symbolic trip counts** -- bounds drawn from
  ``{0..3, "t", "u"}`` with runtime bindings, so zero-trip and
  many-trip paths are both exercised.
* **shape-symbolic extents** -- every array is declared ``(n,)`` so the
  same program compiles eagerly or through the ``symbolize`` pass.

Mapping legality (the paper's restriction 1) is maintained exactly like
the workload generator: an ``ambiguous`` set tracks arrays whose mapping
is control-flow dependent, scopes record what branch arms and
possibly-zero-trip loop bodies remap, and every reference pins the
mapping first.  Inside a loop body *everything* starts ambiguous (the
previous iteration may have left any mapping), so bodies pin before
referencing -- cross-iteration legality by construction.

Branch conditions are serialized as either a single bool or a list of
bools; a list means *cycle forever*, which :func:`runtime_conditions`
turns into fresh callables so every oracle cell observes the identical
outcome sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.lang.ast_nodes import ArrayDecl, Program
from repro.lang.builder import SubroutineBuilder, program

#: 1-D distribution formats generated programs remap between.
FORMATS_1D = ("block", "cyclic", "cyclic(2)", "block(8)", "block(4)")
#: Branch condition names; runtime outcomes come with the case.
CONDS = ("c0", "c1", "c2", "c3")
#: Symbolic loop-bound scalars (runtime bindings travel with the case).
LOOP_SCALARS = ("t", "u")
#: Loop index names by nesting level.
LOOP_VARS = ("i", "j", "k")

#: A condition value as serialized in a case: one outcome, or a cycle.
CondSpec = bool | list[bool]


@dataclass(frozen=True)
class FuzzSpec:
    """Knobs for one generated program (sizes, feature probabilities)."""

    n_arrays: int = 3
    length: int = 6
    depth: int = 2
    extent: int = 16
    p_compute: float = 0.30
    p_remap: float = 0.50
    p_kill: float = 0.62
    p_branch: float = 0.82
    p_both_arm_branch: float = 0.5
    p_symbolic_trip: float = 0.5
    p_condition_cycle: float = 0.5


@dataclass
class FuzzCase:
    """One program plus the runtime environment it must be run with.

    ``conditions`` store :data:`CondSpec` values (JSON-able); pass them
    through :func:`runtime_conditions` to get the dict an
    :class:`~repro.runtime.executor.ExecutionEnv` accepts.  ``inputs``
    are reproducible from ``(seed, program)``, so the corpus only pins
    the seed.
    """

    program: Program
    bindings: dict[str, int]
    conditions: dict[str, CondSpec]
    inputs: dict[str, np.ndarray] = field(repr=False)
    seed: int = 0

    @property
    def arrays(self) -> list[str]:
        """Names of the entry subroutine's arrays, in declaration order."""
        sub = self.program.subroutines[0]
        return [d.name for d in sub.decls if isinstance(d, ArrayDecl)]


def _cycler(bits: list[bool]) -> Callable[[], bool]:
    it = itertools.cycle(bits)
    return lambda: bool(next(it))


def runtime_conditions(conditions: dict[str, CondSpec]) -> dict[str, object]:
    """Executable condition dict: bools pass through, lists cycle forever.

    Each call builds *fresh* iterators, so two runs (or two oracle
    cells) fed the result of separate calls observe identical outcome
    sequences.
    """
    out: dict[str, object] = {}
    for name, v in conditions.items():
        if isinstance(v, bool):
            out[name] = v
        else:
            out[name] = _cycler([bool(x) for x in v])
    return out


def case_inputs(seed: int, arrays: list[str], extent: int) -> dict[str, np.ndarray]:
    """Deterministic initial values for a case (corpus replay re-derives
    these from the pinned seed instead of storing arrays)."""
    rng = np.random.default_rng(seed ^ 0xF00D)
    return {a: rng.normal(size=extent) for a in sorted(arrays)}


def generate_case(seed: int, spec: FuzzSpec | None = None) -> FuzzCase:
    """Generate one legal-by-construction differential-testing case."""
    spec = spec or FuzzSpec()
    rng = np.random.default_rng(seed)
    arrays = [f"a{i}" for i in range(spec.n_arrays)]
    b = SubroutineBuilder("main")
    b.scalar("n", *LOOP_SCALARS)
    for a in arrays:
        b.array(a, ("n",))
        b.dynamic(a)
    for a in arrays:
        b.distribute(a, str(rng.choice(FORMATS_1D)))

    ambiguous: set[str] = set()
    dead: set[str] = set()
    # each enclosing conditional scope (branch arm, possibly-zero-trip
    # loop body) records what was remapped inside it
    scopes: list[set[str]] = []

    def remap(a: str) -> None:
        b.redistribute(a, str(rng.choice(FORMATS_1D)))
        ambiguous.discard(a)
        for scope in scopes:
            scope.add(a)

    def pin(a: str) -> None:
        if a in ambiguous:
            remap(a)

    def define(a: str) -> None:
        pin(a)
        b.compute(defines=(a,))
        dead.discard(a)

    def emit_compute() -> None:
        k = max(1, int(rng.integers(1, spec.n_arrays + 1)))
        chosen = list(rng.choice(arrays, size=k, replace=False))
        for a in chosen:
            pin(a)
        # dead arrays are only ever referenced through `defines`: the
        # default kernel regenerates them, so their (elided) values are
        # never read and all optimization levels agree
        defines = tuple(a for a in chosen if a in dead)
        live = [a for a in chosen if a not in dead]
        reads = tuple(a for a in live if rng.random() < 0.8)
        writes = tuple(a for a in live if rng.random() < 0.5)
        if not reads and not writes and not defines:
            reads = (chosen[0],)
        b.compute(reads=reads, writes=writes, defines=defines)
        dead.difference_update(defines)

    def emit_kill() -> None:
        candidates = [a for a in arrays if a not in dead]
        if not candidates:
            return
        a = str(rng.choice(candidates))
        b.kill(a)
        dead.add(a)
        if rng.random() < 0.5:
            # the classic elision shape: remap while dead, then redefine
            remap(a)

    def emit_both_arm_branch() -> None:
        a = str(rng.choice(arrays))
        cond = str(rng.choice(CONDS))
        before = set(ambiguous)
        dead_before = set(dead)
        scopes.append(set())
        f1, f2 = rng.choice(FORMATS_1D, size=2, replace=False)
        with b.branch(cond) as alt:
            b.redistribute(a, str(f1))
            ambiguous.discard(a)
            for scope in scopes:
                scope.add(a)
            mid = set(ambiguous)
            dead_then = set(dead)
            ambiguous.clear()
            ambiguous.update(before)
            dead.clear()
            dead.update(dead_before)
            alt.orelse()
            b.redistribute(a, str(f2))
            ambiguous.discard(a)
            for scope in scopes:
                scope.add(a)
        touched = scopes.pop()
        ambiguous.update(before | mid | touched)
        dead.update(dead_then)
        if rng.random() < 0.5:
            pin(a)
            b.compute(reads=() if a in dead else (a,), defines=(a,) if a in dead else ())
            dead.discard(a)

    def emit_branch(depth: int) -> None:
        cond = str(rng.choice(CONDS))
        before = set(ambiguous)
        dead_before = set(dead)
        scopes.append(set())
        with b.branch(cond) as alt:
            emit_block(int(rng.integers(1, 3)), depth - 1)
            mid = set(ambiguous)
            dead_then = set(dead)
            ambiguous.clear()
            ambiguous.update(before)
            dead.clear()
            dead.update(dead_before)
            alt.orelse()
            emit_block(int(rng.integers(0, 3)), depth - 1)
        touched = scopes.pop()
        ambiguous.update(before | mid | touched)
        # dead on either path => treated dead after the join
        dead.update(dead_then)

    def emit_loop(depth: int, level: int) -> None:
        if rng.random() < spec.p_symbolic_trip:
            trip: object = str(rng.choice(LOOP_SCALARS))
        else:
            trip = int(rng.integers(0, 4))
        var = LOOP_VARS[min(level, len(LOOP_VARS) - 1)]
        before_amb = set(ambiguous)
        dead_entry = set(dead)
        scopes.append(set())
        with b.do(var, 1, trip):
            # the previous iteration may have left any mapping: treat
            # every array as ambiguous so the body pins before use
            ambiguous.clear()
            ambiguous.update(arrays)
            emit_block(int(rng.integers(2, 5)), depth - 1, level + 1)
            # anything killed in this body must be redefined before the
            # body ends, or the next iteration would reference a killed
            # value
            for a in sorted(dead - dead_entry):
                define(a)
        touched = scopes.pop()
        ambiguous.clear()
        ambiguous.update(before_amb | touched)
        # zero trips are possible: arrays dead at entry stay dead even
        # if some iteration would have redefined them
        dead.clear()
        dead.update(dead_entry)

    def emit_block(length: int, depth: int, level: int = 0) -> None:
        for _ in range(length):
            r = rng.random()
            if r < spec.p_compute:
                emit_compute()
            elif r < spec.p_remap:
                remap(str(rng.choice(arrays)))
            elif r < spec.p_kill:
                emit_kill()
            elif r < spec.p_branch and depth > 0:
                if rng.random() < spec.p_both_arm_branch:
                    emit_both_arm_branch()
                else:
                    emit_branch(depth)
            elif depth > 0:
                emit_loop(depth, level)
            else:
                emit_compute()

    emit_block(spec.length, spec.depth)
    # epilogue: redefine anything still dead and read every array, so
    # remaps near the end are observable and final values comparable
    for a in arrays:
        if a in dead:
            define(a)
    for a in arrays:
        pin(a)
    b.compute(reads=tuple(arrays))

    bindings = {
        "n": spec.extent,
        "t": int(rng.integers(0, 6)),
        "u": int(rng.integers(0, 4)),
    }
    conditions: dict[str, CondSpec] = {}
    for c in CONDS:
        if rng.random() < spec.p_condition_cycle:
            bits = [bool(rng.random() < 0.5) for _ in range(int(rng.integers(2, 5)))]
            conditions[c] = bits
        else:
            conditions[c] = bool(rng.random() < 0.5)
    return FuzzCase(
        program=program(b),
        bindings=bindings,
        conditions=conditions,
        inputs=case_inputs(seed, arrays, spec.extent),
        seed=seed,
    )
