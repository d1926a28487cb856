"""Synthetic workload generation.

Two families:

* :func:`random_legal_subroutine` -- random structured programs that are
  *legal by construction* (restriction 1 is maintained by pinning an
  array's mapping before any reference that could otherwise be ambiguous).
  These drive the optimization-soundness property tests: for any program,
  naive and optimized compilation must produce identical values, with
  optimized traffic never larger.
* :func:`chain_subroutine` / :func:`branchy_subroutine` -- parameterized
  program shapes (m remapping statements, p arrays, straight-line or
  branchy): the shapes behind Appendix B's O(n*s*m^2*p^2) and Appendix
  C's O(m^2*p*q*r) bounds, used by the soundness and traffic-oracle tests.
"""

from __future__ import annotations

import numpy as np

from repro.lang.ast_nodes import Program
from repro.lang.builder import SubroutineBuilder, program

# 1-D distribution formats used by generated programs
FORMATS_1D = ["block", "cyclic", "cyclic(2)", "block(8)"]
CONDS = ["c0", "c1", "c2", "c3"]


def random_legal_subroutine(
    rng: np.random.Generator,
    n_arrays: int = 3,
    length: int = 8,
    depth: int = 2,
) -> Program:
    """A random structured program with remappings, legal by construction.

    Invariant maintained: before any compute, every referenced array whose
    mapping may be control-flow dependent is pinned by an unconditional
    redistribute.
    """
    arrays = [f"a{i}" for i in range(n_arrays)]
    b = SubroutineBuilder("main")
    for a in arrays:
        b.array(a, (16,))
        b.dynamic(a)
    for a in arrays:
        b.distribute(a, str(rng.choice(FORMATS_1D)))

    ambiguous: set[str] = set()
    # every remapping is recorded in all enclosing conditional scopes (branch
    # arms and possibly-zero-trip loop bodies): whatever was remapped inside
    # becomes ambiguous again once the scope may have been skipped
    scopes: list[set[str]] = []

    def remap(a: str) -> None:
        b.redistribute(a, str(rng.choice(FORMATS_1D)))
        ambiguous.discard(a)
        for scope in scopes:
            scope.add(a)

    def emit_compute() -> None:
        k = max(1, int(rng.integers(1, n_arrays + 1)))
        chosen = list(rng.choice(arrays, size=k, replace=False))
        for a in chosen:
            if a in ambiguous:
                remap(a)  # pin before referencing
        reads = tuple(a for a in chosen if rng.random() < 0.8)
        writes = tuple(a for a in chosen if rng.random() < 0.5)
        if not reads and not writes:
            reads = (chosen[0],)
        b.compute(reads=reads, writes=writes)

    def emit_block(length: int, depth: int) -> None:
        for _ in range(length):
            r = rng.random()
            if r < 0.35:
                emit_compute()
            elif r < 0.6:
                remap(str(rng.choice(arrays)))
            elif r < 0.8 and depth > 0:
                cond = str(rng.choice(CONDS))
                before = set(ambiguous)
                scopes.append(set())
                with b.branch(cond) as alt:
                    emit_block(int(rng.integers(1, 3)), depth - 1)
                    mid = set(ambiguous)
                    ambiguous.clear()
                    ambiguous.update(before)
                    alt.orelse()
                    emit_block(int(rng.integers(0, 3)), depth - 1)
                touched = scopes.pop()
                ambiguous.update(before | mid | touched)
            elif depth > 0:
                trip = int(rng.integers(0, 4))
                scopes.append(set())
                with b.do("i", 1, trip):
                    # loop bodies pin what they touch before referencing, so
                    # references are never ambiguous across iterations
                    inner = list(rng.choice(arrays, size=2, replace=False))
                    for a in inner:
                        remap(a)
                    emit_compute()
                    if rng.random() < 0.5:
                        remap(str(rng.choice(inner)))
                touched = scopes.pop()
                ambiguous.update(touched)
            else:
                emit_compute()

    emit_block(length, depth)
    # final reads so remappings near the end are observable
    for a in arrays:
        if a in ambiguous:
            remap(a)
    b.compute(reads=tuple(arrays))
    return program(b)


def random_environment(rng: np.random.Generator, n_arrays: int = 3):
    """Matching runtime inputs for a generated program."""
    conditions = {c: bool(rng.random() < 0.5) for c in CONDS}
    inputs = {f"a{i}": rng.normal(size=16) for i in range(n_arrays)}
    return conditions, inputs


# ---------------------------------------------------------------------------
# parameterized shapes
# ---------------------------------------------------------------------------


def chain_subroutine(m: int, p: int, n: int = 16) -> Program:
    """Straight-line: m remapping statements over p aligned arrays.

    Remapping vertices form a chain; every remapping remaps the whole
    family, so the graph has ~m vertices each with p arrays -- the shape
    behind Appendix B/C's complexity bounds.
    """
    arrays = [f"a{i}" for i in range(p)]
    b = SubroutineBuilder("chain")
    b.template("t", (n,))
    for a in arrays:
        b.array(a, (n,))
        b.align(a, "t")
        b.dynamic(a)
    b.distribute("t", "block")
    fmts = ["cyclic", "block", "cyclic(2)", "block(8)"]
    for k in range(m):
        b.redistribute("t", fmts[k % len(fmts)])
        b.compute(reads=(arrays[k % p],))
    return program(b)


def branchy_subroutine(m: int, p: int, n: int = 16) -> Program:
    """m diamond branches each remapping one of p arrays (wide reaching sets)."""
    arrays = [f"a{i}" for i in range(p)]
    b = SubroutineBuilder("branchy")
    for a in arrays:
        b.array(a, (n,))
        b.dynamic(a)
        b.distribute(a, "block")
    for k in range(m):
        a = arrays[k % p]
        with b.branch(f"c{k % 4}") as alt:
            b.redistribute(a, "cyclic")
            alt.orelse()
            b.redistribute(a, "cyclic(2)")
        # pin before the reference to stay legal
        b.redistribute(a, "block")
        b.compute(reads=(a,))
    return program(b)


def loopy_subroutine(m: int, n: int = 16) -> Program:
    """m nested-loop remap pairs (Fig. 16 shape), for motion tests."""
    b = SubroutineBuilder("loopy", params=("t",))
    b.scalar("t")
    b.array("a", (n,))
    b.dynamic("a")
    b.distribute("a", "block")
    b.compute(writes=("a",))
    for _ in range(m):
        with b.do("i", 1, "t"):
            b.redistribute("a", "cyclic")
            b.compute(reads=("a",))
            b.redistribute("a", "block")
    b.compute(reads=("a",))
    return program(b)
