"""Static communication-safety proofs for communication plans.

A plan's ledger (:meth:`~repro.spmd.schedule.CommSchedule.ledger`)
re-validates the one-port property of every contention-free phase of a
plan nobody proved.  This module is the proof
(:meth:`~repro.spmd.schedule.CommPlanTable.obtain` certifies each phased
plan once, before its first phase runs).  For ``dst = src`` it proves:

* **exact cover** -- the plan's messages (phase transfers plus local
  copies) are exactly the maximal contiguous rectangles of the
  redistribution schedule the mappings require
  (:func:`~repro.spmd.redistribution.build_schedule`): same multiset, so
  every required element moves exactly once and nothing extra moves; and
  the plan's whole ``transfers`` -- what the simulator copies -- are
  exactly that schedule's non-empty transfers;
* **one-port** -- every contention-free phase has each rank sending at
  most once and receiving at most once, and carries no local (src == dst)
  or empty messages.

A plan that passes is stamped ``statically_verified``
(:func:`certify_plan` returns a stamped copy); its ledger then skips the
re-check, and differential tests prove the skipped execution
bit-identical.  Plans that fail any proof are simply left unstamped --
they stay correct under the ledger's check, the compile does not abort --
but :func:`prove_plan` reports *why* so tests can assert on seeded defects
(e.g. a hand-built double-send phase).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from repro.mapping.mapping import Mapping
from repro.mapping.ownership import layout_of
from repro.spmd.message import one_port_problems
from repro.spmd.redistribution import Transfer, build_schedule
from repro.spmd.schedule import POLICIES, CommSchedule, rectangles

__all__ = ["prove_plan", "certify_plan"]


def _canonical(t: Transfer) -> tuple:
    """Hashable identity of one rectangle: endpoints + exact index sets."""
    return (
        t.src_rank,
        t.dst_rank,
        tuple(tuple(s.intervals) for s in t.index_sets),
    )


def _count_rectangles(moved: Counter, t: Transfer) -> None:
    """Add ``t``'s maximal contiguous rectangles to the multiset.

    Both sides of the exact-cover comparison are canonicalized to this
    granularity, so the proof is independent of how a policy packs
    messages (``aggregate`` coalesces per pair, others send rectangles).
    """
    for r in rectangles(t):
        moved[_canonical(r)] += 1


def prove_plan(src: Mapping, dst: Mapping, plan: CommSchedule) -> list[str]:
    """Prove ``plan`` safe for the copy ``dst = src``; returns the problems.

    An empty list is a proof: the plan exactly covers the required
    transfers and every contention-free phase is one-port clean.  A
    non-empty list names each violated property (exact-cover surplus /
    deficit, double send, double receive, local or empty message inside a
    phase, unknown policy).
    """
    problems: list[str] = []
    if plan.policy not in POLICIES:
        problems.append(f"unknown policy {plan.policy!r}")

    moved: Counter = Counter()
    for t in plan.local_transfers:
        if t.elements == 0:
            problems.append("empty local transfer in plan")
            continue
        _count_rectangles(moved, t)
    for k, phase in enumerate(plan.phases):
        pairs = []
        for pt in phase.transfers:
            if pt.elements == 0:
                problems.append(f"phase {k}: empty message {pt.src_rank}->{pt.dst_rank}")
            pairs.append((pt.src_rank, pt.dst_rank))
            for part in pt.parts:
                _count_rectangles(moved, part)
        if not phase.contended:
            problems.extend(f"phase {k}: {p}" for p in one_port_problems(pairs))
        else:
            problems.extend(
                f"phase {k}: local copy (rank {s}) scheduled as a message"
                for (s, d) in pairs
                if s == d
            )

    # the trusted base: the redistribution re-derived from the mappings (pure
    # layout arithmetic, property-tested elsewhere)
    needed = [t for t in build_schedule(layout_of(src), layout_of(dst)).transfers if t.elements]
    if Counter(map(_canonical, plan.transfers)) != Counter(map(_canonical, needed)):
        problems.append("exact-cover violation: whole transfers differ from the redistribution's")
    required: Counter = Counter()
    for t in needed:
        _count_rectangles(required, t)
    for key, n in (moved - required).items():
        s, d, _ = key
        problems.append(
            f"exact-cover violation: {n} surplus transfer(s) {s}->{d} "
            "not required by the mappings (or moved twice)"
        )
    for key, n in (required - moved).items():
        s, d, _ = key
        problems.append(
            f"exact-cover violation: {n} required transfer(s) {s}->{d} missing"
        )
    return problems


def certify_plan(src: Mapping, dst: Mapping, plan: CommSchedule) -> CommSchedule:
    """Return a ``statically_verified`` copy of ``plan`` if provable.

    Returns ``plan`` itself (unstamped) when any proof fails or when the
    plan is already stamped; never raises on an unprovable plan -- the
    ledger's check remains as the safety net for unstamped plans.
    """
    if plan.statically_verified:
        return plan
    if prove_plan(src, dst, plan):
        return plan
    return replace(plan, statically_verified=True)
