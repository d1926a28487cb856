"""Static communication-safety proofs for communication plans.

A plan's ledger (:meth:`~repro.spmd.schedule.CommSchedule.ledger`)
re-validates the one-port property of every contention-free phase of a
plan nobody proved.  This module is the proof
(:func:`~repro.spmd.schedule.obtain_plan` certifies each phased plan the
process builds once, before it is priced or its first phase runs).  For
``dst = src`` it proves:

* **exact cover** -- on every destination holder, the plan's lowered
  copies (:meth:`~repro.spmd.schedule.CommSchedule.lowered`: the
  descriptors the simulator executes) write every owned block position
  exactly once -- one small count array per receiver -- and each copy's
  index set lies in its sender's block
  (:func:`~repro.spmd.redistribution.prepare_move` refuses to lower one
  that does not), so every element arrives once, from a rank that has it;
* **replication awareness** -- no message carries what its receiver
  already holds in the source mapping;
* **message identity** -- the plan's messages (phase parts plus local
  copies: what is charged, and what the mp backend puts on the wire) are
  the same multiset of contiguous rectangles as its whole ``transfers``;
* **one-port** -- every contention-free phase has each rank sending at
  most once and receiving at most once, and carries no local (src == dst)
  or empty messages.

The trusted base is ownership: the two layouts' holder tables
(:attr:`~repro.mapping.ownership.Layout.table`, property-tested against
``owner_coordinate``) and :func:`~repro.spmd.redistribution.prepare_move`'s
location of an index set inside a block (tested against the
member-by-member reference).  :func:`~repro.spmd.redistribution.
build_schedule`, which wrote the plan, is *not* consulted: a schedule
that drops, duplicates or misplaces a rectangle fails here (the proof
that re-derived the schedule and compared the plan with the second copy
passed all three; it survives as the oracle of
``tests/test_commsafety.py``).

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
from itertools import product

import numpy as np

from repro.errors import ShapeError
from repro.mapping.mapping import Mapping
from repro.mapping.ownership import Layout, layout_of
from repro.spmd.message import one_port_problems
from repro.spmd.redistribution import Transfer
from repro.spmd.schedule import POLICIES, CommSchedule

__all__ = ["prove_plan", "certify_plan"]


def _rectangle_keys(t: Transfer):
    """``(sender, receiver, one interval per dimension)`` of each maximal
    contiguous rectangle of ``t`` -- :func:`~repro.spmd.schedule.rectangles`
    as plain tuples.  Both sides of the message comparison are counted at
    this granularity, so it is independent of how a policy packs messages
    (``aggregate`` coalesces per pair, the others send rectangles)."""
    per_dim = [s.intervals for s in t.index_sets]
    return ((t.src_rank, t.dst_rank, combo) for combo in product(*per_dim))


def _message_problems(plan: CommSchedule) -> list[str]:
    """One-port per phase, and the messages against the whole transfers."""
    problems: list[str] = []
    sent: Counter = Counter()
    for t in plan.local_transfers:
        if t.elements == 0:
            problems.append("empty local transfer in plan")
            continue
        sent.update(_rectangle_keys(t))
    for k, phase in enumerate(plan.phases):
        pairs = []
        for pt in phase.transfers:
            if pt.elements == 0:
                problems.append(f"phase {k}: empty message {pt.src_rank}->{pt.dst_rank}")
            pairs.append((pt.src_rank, pt.dst_rank))
            for part in pt.parts:
                sent.update(_rectangle_keys(part))
        if not phase.contended:
            problems.extend(f"phase {k}: {p}" for p in one_port_problems(pairs))
        else:
            problems.extend(
                f"phase {k}: local copy (rank {s}) scheduled as a message"
                for (s, d) in pairs
                if s == d
            )
    copied: Counter = Counter()
    for t in plan.transfers:
        copied.update(_rectangle_keys(t))
    for (s, d, _), n in (sent - copied).items():
        problems.append(
            f"exact-cover violation: {n} surplus message(s) {s}->{d} "
            "outside the plan's whole transfers (or sent twice)"
        )
    for (s, d, _), n in (copied - sent).items():
        problems.append(
            f"exact-cover violation: {n} rectangle(s) {s}->{d} of the plan's "
            "whole transfers missing from its messages"
        )
    return problems


def _cover_problems(src: Layout, dst: Layout, plan: CommSchedule) -> list[str]:
    """Exact cover on block positions, read off the copies that will run."""
    rank = len(dst.mapping.shape)
    if src.mapping.shape != dst.mapping.shape or src.procs.size != dst.procs.size:
        return ["exact-cover violation: the mappings differ in shape or machine"]
    if any(len(t.index_sets) != rank for t in plan.transfers):
        return [f"exact-cover violation: a transfer is not over {rank} dimension(s)"]
    try:
        moves = plan.lowered(src, dst).moves
    except ShapeError as exc:
        return [
            f"exact-cover violation: a transfer leaves its sender's or receiver's block ({exc})"
        ]
    problems: list[str] = []
    # holders with equal class keys own equal sets, the rest disjoint ones:
    # a receiver in the sender's class already holds all it is being sent
    if len({src.class_key(h.coords) for h in src.table}) < len(src.table):
        for t in plan.transfers:
            held = None if t.is_local else src.holder(t.dst_rank)
            if held is not None and src.class_key(held.coords) == src.class_key(
                src.holder(t.src_rank).coords
            ):
                problems.append(
                    f"replication violation: {t.src_rank}->{t.dst_rank} sends what "
                    f"rank {t.dst_rank} already holds in the source mapping"
                )
    writes: dict[int, list[tuple]] = {}
    for move in moves:
        writes.setdefault(move.dst_rank, []).append(move.dst_ix)
    for h in dst.table:
        if not h.elements:
            continue
        count = np.zeros(h.local_shape, dtype=np.int32)
        for ix in writes.get(h.rank, ()):
            count[ix] += 1
        if (count == 1).all():
            continue
        for wrong, verb in ((count == 0, "never written"), (count > 1, "written twice or more")):
            if wrong.any():
                where = np.argwhere(wrong)
                first = dst.local_to_global(h.coords, tuple(int(k) for k in where[0]))
                problems.append(
                    f"exact-cover violation: {len(where)} of rank {h.rank}'s "
                    f"{h.elements} owned element(s) {verb}, first at global index {first}"
                )
    return problems


def prove_plan(src: Mapping, dst: Mapping, plan: CommSchedule) -> list[str]:
    """Prove ``plan`` safe for the copy ``dst = src``; returns the problems.

    An empty list is a proof: the plan's copies write every owned position
    of every receiver exactly once from a sender that owns it, nothing a
    receiver already holds crosses the wire, its messages are those copies
    and every contention-free phase is one-port clean.  A non-empty list
    names each violated property (a receiver's unwritten or twice-written
    positions, a transfer outside its sender's block, a surplus or missing
    message, double send, double receive, local or empty message inside a
    phase, unknown policy).
    """
    problems: list[str] = []
    if plan.policy not in POLICIES:
        problems.append(f"unknown policy {plan.policy!r}")
    problems += _message_problems(plan)
    problems += _cover_problems(layout_of(src), layout_of(dst), plan)
    return problems


def certify_plan(src: Mapping, dst: Mapping, plan: CommSchedule) -> CommSchedule:
    """Return a ``statically_verified`` copy of ``plan`` if provable.

    Returns ``plan`` itself (unstamped) when any proof fails or when the
    plan is already stamped; never raises on an unprovable plan -- the
    ledger's check remains as the safety net for unstamped plans.  The
    stamped copy keeps the plan's derived forms
    (:meth:`~repro.spmd.schedule.CommSchedule.stamped`): the lowering the
    proof read is the one the first execution runs.
    """
    if plan.statically_verified:
        return plan
    if prove_plan(src, dst, plan):
        return plan
    return plan.stamped()
