"""Greedy structural shrinking of failing fuzz cases.

When the oracle reports findings for a generated program, the raw case
is rarely the story: most of its statements are bystanders.  The
shrinker repeatedly proposes *structurally smaller* variants -- drop a
statement, splice a branch arm or loop body inline, reduce a trip
count, simplify a condition to a constant -- and keeps any variant for
which the oracle still reports a finding of the same kind.  The result
is the minimal program that gets pinned into the corpus.

Shrinking never invents statements, so every variant of a
legal-by-construction program stays legal or fails compilation -- and a
variant that fails to compile is simply rejected (compile errors are
findings of a different kind).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

from repro.fuzz.generator import FuzzCase
from repro.fuzz.oracle import OracleConfig, run_oracle
from repro.lang.ast_nodes import Block, Do, If


def _block_variants(block: Block) -> Iterator[Block]:
    """Structurally smaller versions of one block, shallowest first."""
    stmts = block.stmts
    for idx, stmt in enumerate(stmts):
        rest = stmts[:idx] + stmts[idx + 1 :]
        # drop the statement outright
        yield Block(rest)
        if isinstance(stmt, If):
            # splice one arm inline (removes the branch)
            yield Block(stmts[:idx] + stmt.then.stmts + stmts[idx + 1 :])
            yield Block(stmts[:idx] + stmt.orelse.stmts + stmts[idx + 1 :])
        elif isinstance(stmt, Do):
            # splice the body inline (removes the loop)
            yield Block(stmts[:idx] + stmt.body.stmts + stmts[idx + 1 :])
            # constant-1 trip count keeps the loop but kills the bound
            if stmt.hi != 1:
                reduced = dataclasses.replace(stmt, hi=1)
                yield Block(stmts[:idx] + (reduced,) + stmts[idx + 1 :])
    # recurse: smaller versions of nested bodies
    for idx, stmt in enumerate(stmts):
        if isinstance(stmt, If):
            for nb in _block_variants(stmt.then):
                new = dataclasses.replace(stmt, then=nb)
                yield Block(stmts[:idx] + (new,) + stmts[idx + 1 :])
            for nb in _block_variants(stmt.orelse):
                new = dataclasses.replace(stmt, orelse=nb)
                yield Block(stmts[:idx] + (new,) + stmts[idx + 1 :])
        elif isinstance(stmt, Do):
            for nb in _block_variants(stmt.body):
                new = dataclasses.replace(stmt, body=nb)
                yield Block(stmts[:idx] + (new,) + stmts[idx + 1 :])


def _case_variants(case: FuzzCase) -> Iterator[FuzzCase]:
    """Candidate smaller cases: program reductions, then env reductions."""
    sub = case.program.subroutines[0]
    for body in _block_variants(sub.body):
        new_sub = dataclasses.replace(sub, body=body)
        yield dataclasses.replace(
            case, program=case.program.with_subroutine(new_sub)
        )
    # condition cycles -> constants (a single outcome is easier to read)
    for name, v in case.conditions.items():
        if not isinstance(v, bool):
            for const in (True, False):
                conds = dict(case.conditions)
                conds[name] = const
                yield dataclasses.replace(case, conditions=conds)
    # smaller loop bindings
    for scalar in ("t", "u"):
        if case.bindings.get(scalar, 0) > 1:
            bindings = dict(case.bindings)
            bindings[scalar] = 1
            yield dataclasses.replace(case, bindings=bindings)


def _kinds(findings) -> set[str]:
    return {f.kind for f in findings}


def shrink_case(
    case: FuzzCase,
    config: OracleConfig,
    target_kinds: set[str] | None = None,
    max_attempts: int = 150,
) -> tuple[FuzzCase, list]:
    """Smallest variant of ``case`` still producing the target findings.

    ``target_kinds`` defaults to the kinds the unshrunk case produces;
    a variant is accepted when it still yields at least one finding of
    a target kind.  Each accepted variant restarts the scan (greedy
    descent to a fixpoint), bounded by ``max_attempts`` oracle runs.
    Returns ``(minimal case, its findings)``.
    """
    findings = run_oracle(case, config)
    if target_kinds is None:
        target_kinds = _kinds(findings)
    if not target_kinds:
        return case, findings
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _case_variants(case):
            if attempts >= max_attempts:
                break
            attempts += 1
            cand_findings = run_oracle(candidate, config)
            if _kinds(cand_findings) & target_kinds:
                case, findings = candidate, cand_findings
                improved = True
                break
    return case, findings
