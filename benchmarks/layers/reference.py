"""Independent references the layered benchmark checks every output against.

Nothing here asks the compiler under test for an answer: the remap kinds
have a closed form, the four applications use their own sequential NumPy
references, and figure/generated programs are run by a sequential
interpreter over the parsed AST that ignores every mapping directive --
a remapping never changes values, so global arrays plus
``default_kernel``'s documented formula are the whole semantics.
"""

from __future__ import annotations

import numpy as np

from repro.lang.ast_nodes import (
    ArrayDecl,
    Compute,
    Do,
    If,
    Program,
    Realign,
    Redistribute,
)
from repro.lang.parser import parse_program


def scale_reference(x0: np.ndarray, applications: int) -> np.ndarray:
    """``x -> 0.5 x + 1`` applied ``applications`` times (the remap kinds' kernel)."""
    x = np.array(x0, dtype=np.float64, copy=True)
    for _ in range(applications):
        x = 0.5 * x + 1.0
    return x


def interpret(
    source: str | Program,
    bindings: dict[str, int] | None = None,
    conditions: dict[str, bool] | None = None,
    inputs: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Final global values of the first subroutine's arrays, run sequentially.

    Arrays start from ``inputs`` (zeros otherwise).  Unlabelled computes
    follow ``repro.runtime.executor.default_kernel``: ``acc`` is 1e-3
    times the sum of every read array, each written array becomes
    ``0.5 x + acc + 1``, each defined array ``linspace(0, 1) + acc``.
    Calls and kills are outside what the benchmark programs use and raise.
    """
    prog = parse_program(source) if isinstance(source, str) else source
    sub = prog.subroutines[0]
    env = dict(bindings or {})
    conditions = conditions or {}

    def extent(e) -> int:
        return e if isinstance(e, int) else env[e]

    arrays: dict[str, np.ndarray] = {}
    for decl in sub.decls:
        if isinstance(decl, ArrayDecl):
            arrays[decl.name] = np.zeros(tuple(extent(e) for e in decl.extents))
    for name, value in (inputs or {}).items():
        arrays[name] = np.array(value, dtype=np.float64, copy=True)

    def run(block) -> None:
        for stmt in block.stmts:
            if isinstance(stmt, Compute):
                acc = sum(
                    float(np.sum(arrays[a])) * 1e-3 for a in stmt.reads if a in arrays
                )
                for a in stmt.writes:
                    if a in arrays:
                        arrays[a] = 0.5 * arrays[a] + acc + 1.0
                for a in stmt.defines:
                    if a in arrays:
                        shape = arrays[a].shape
                        arrays[a] = np.linspace(0.0, 1.0, arrays[a].size).reshape(shape) + acc
            elif isinstance(stmt, If):
                run(stmt.then if conditions[stmt.cond] else stmt.orelse)
            elif isinstance(stmt, Do):
                for i in range(extent(stmt.lo), extent(stmt.hi) + 1):
                    env[stmt.var] = i
                    run(stmt.body)
            elif not isinstance(stmt, (Redistribute, Realign)):
                raise NotImplementedError(f"reference interpreter: {type(stmt).__name__}")

    run(sub.body)
    return arrays


def arrays_match(result, expected: dict[str, np.ndarray], atol: float = 1e-9) -> bool:
    """True iff every expected array of a ``ServiceResult`` is close to its reference."""
    return all(
        np.allclose(result.value(name), ref, rtol=1e-9, atol=atol)
        for name, ref in expected.items()
    )
