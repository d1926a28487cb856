"""Communication schedules: organizing remapping transfers into phases.

:func:`~repro.spmd.redistribution.build_schedule` computes *which* point-to-
point transfers a remapping copy needs; this module decides *when* they
happen.  A :class:`CommSchedule` arranges the non-local transfers of one
:class:`~repro.spmd.redistribution.RedistSchedule` into an ordered sequence
of :class:`CommPhase` rounds executed bulk-synchronously on the machine's
phase clock (:meth:`~repro.spmd.machine.Machine.charge`), following the
contention-free round phasing of Prylli & Tourancheau's block-cyclic
redistribution scheduling (Euro-Par'96, [19] in the paper).

Scheduled messages are decomposed to *contiguous rectangles*: one message
per maximal run of consecutive indices (the Cartesian product of the
transfer's per-dimension intervals), which is what an implementation
without buffer packing sends.  Three policies:

* ``"naive"`` -- every rectangle in one *contended* phase.  Each processor
  port serializes everything it sends and receives, so the phase lasts as
  long as the busiest port: the eager, unpacked, unphased implementation.
* ``"round-robin"`` -- the caterpillar scheduler: rectangle messages are
  placed (largest first, first fit) into phases where **every rank sends
  at most one message and receives at most one message**.  Such a phase is
  contention-free, so its messages proceed in parallel at full port speed
  and the phase lasts only as long as its largest message.
* ``"aggregate"`` -- round-robin over *coalesced* pairs: all rectangles a
  (sender, receiver) pair exchanges are packed into one message, so the
  pair pays one start-up latency instead of one per rectangle (Prylli &
  Tourancheau's packing argument).  Aggregation never increases the
  message count and leaves the bytes untouched.

A fourth, degenerate plan needs no policy at all: ``policy=None`` keeps
every transfer -- local and remote, in the redistribution's own order, one
message each, not split into rectangles -- outside any phase, charged one
by one on the machine's per-endpoint clocks.  It is what an unscheduled
compilation (``CompilerOptions.schedule is None``, the default) executes,
through the same :func:`execute_comm_schedule` as every phased plan.

Invariants (enforced by construction and property-tested):

* every policy moves exactly the transfers of the underlying redistribution
  schedule -- same elements, same total bytes, bit-identical data;
* empty (zero-element) transfers and purely local schedules produce **no**
  phases;
* a contention-free phase never has a rank sending or receiving twice
  (:exc:`~repro.errors.ScheduleError` otherwise -- an unstamped plan's
  :meth:`~CommSchedule.ledger` re-checks, once).

:data:`PLANS` is where the process keeps its plans: one bounded,
lock-guarded get-or-build :class:`CommPlanTable` keyed by (policy, source
signature, target signature).  A plan is a pure function of that key, so
no artifact owns one -- nothing is serialized, a plan is built on the
first copy of its pair anywhere in the process and served to every later
one, whichever artifact, template instantiation or session performs it:
warm :class:`~repro.compiler.session.CompilerSession` runs do zero
scheduling work under every policy, ``None`` included.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, replace

from repro.errors import ScheduleError
from repro.mapping.mapping import Mapping
from repro.mapping.ownership import Layout, layout_of
from repro.obs.catalog import REGISTRY as _OBS
from repro.obs.trace import TRACER as _TRACER
from repro.spmd.cost import CostModel
from repro.spmd.darray import DistributedArray
from repro.spmd.machine import Machine
from repro.spmd.message import LedgerDelta, check_one_port, ledger_delta
from repro.spmd.redistribution import (
    PreparedMove,
    RedistSchedule,
    Transfer,
    build_schedule,
    prepare_move,
)

_M_LOWERED = _OBS.counter("repro.schedule.plans_lowered")

#: Recognized scheduling policies, cheapest machinery first.
POLICIES: tuple[str, ...] = ("naive", "round-robin", "aggregate")

#: Policy used when scheduling is requested without naming one.
DEFAULT_POLICY = "round-robin"


def check_policy(policy: str | None) -> str | None:
    """``policy`` if it names a phased policy or is ``None`` (unscheduled)."""
    if policy is not None and policy not in POLICIES:
        raise ScheduleError(
            f"unknown scheduling policy {policy!r}; known: {list(POLICIES)}"
        )
    return policy


# ---------------------------------------------------------------------------
# schedule containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackedTransfer:
    """One message of a phase: one or more rectangles for one (src, dst) pair.

    Unaggregated policies wrap each contiguous rectangle (see
    :func:`rectangles`) alone; the ``aggregate`` policy coalesces every
    rectangle a pair exchanges into one packed message.
    """

    src_rank: int
    dst_rank: int
    parts: tuple[Transfer, ...]

    @property
    def elements(self) -> int:
        return sum(p.elements for p in self.parts)

    def nbytes(self, itemsize: int) -> int:
        return self.elements * itemsize


@dataclass(frozen=True)
class CommPhase:
    """One round of messages executed together on the phase clock.

    ``contended=False`` promises the one-port property (each rank sends at
    most once and receives at most once), so the phase runs at full port
    speed and lasts as long as its largest message.  A contended phase
    (the naive policy's single round) serializes each port instead.
    """

    transfers: tuple[PackedTransfer, ...]
    contended: bool = False


@dataclass(frozen=True)
class LoweredPlan:
    """A :class:`CommSchedule` lowered to the copies the simulator makes.

    One descriptor -- one strided NumPy assignment -- per whole transfer
    whose index is an arithmetic progression in every dimension, however
    many messages the pair exchanges; any other transfer keeps the parts
    its policy sends: the contiguous runs of :func:`rectangles` under
    ``naive``/``round-robin`` (a few run slices beat one large ``np.ix_``
    mesh), the whole mesh under ``None``/``aggregate``.
    """

    moves: tuple[PreparedMove, ...]


@dataclass(frozen=True)
class CommSchedule:
    """The full plan of one remapping copy (a ``CommPlan``).

    ``local_transfers`` are the transfers that occupy no phase: each is
    charged on its own, on its endpoints' clocks.
    Under a phased policy these are exactly the src==dst copies (including
    replica-aware local copies) and the phases carry every real message,
    so a redistribution with nothing to send has no phases.  The degenerate
    ``policy=None`` plan has no phases at all and keeps *every* non-empty
    transfer here, messages included, in the order
    :func:`~repro.spmd.redistribution.build_schedule` enumerates them.
    ``transfers`` are the redistribution's non-empty *whole* transfers in
    that order -- what the simulator copies, whatever messages the policy
    cut them into (without phases, the same tuple as ``local_transfers``).

    :meth:`ledger`, :meth:`lowered` and :meth:`wire` are the plan's derived
    forms, each worked out on first use and shared by every later one --
    and, through :data:`PLANS`, by every copy of the same pair under the
    same policy anywhere in the process.  They are
    kept on the plan object and gone with it: not dataclass fields (``==``
    and ``repr`` never see them) and dropped by :meth:`__getstate__`
    (neither do pickles).  Layouts are shared per mapping signature
    (:func:`~repro.mapping.ownership.layout_of`), so identity tells whether
    a form was lowered for the pair at hand (a layout rebuilt after that
    cache dropped it re-lowers, to the same descriptors); two threads
    racing on a shared plan both write the same immutable value.
    """

    policy: str | None
    phases: tuple[CommPhase, ...]
    local_transfers: tuple[Transfer, ...]
    transfers: tuple[Transfer, ...]
    #: Stamped ``True`` by :func:`repro.analysis.commsafety.certify_plan`
    #: once the exact-cover and one-port properties have been *proved*
    #: statically against the source/target mappings; :meth:`ledger` then
    #: skips its O(messages) one-port check.  Plans built outside the
    #: compiler (ad-hoc calls) stay unstamped and keep it.
    statically_verified: bool = False

    # the derived forms; unannotated, so not fields
    _ledger = None  # (cost, itemsize, LedgerDelta)
    _lowered = None  # (src, dst, LoweredPlan)
    _wire = None  # (src, dst, (unphased moves, parts per phase per message))

    @property
    def phase_count(self) -> int:
        return len(self.phases)

    @property
    def message_count(self) -> int:
        return sum(len(p.transfers) for p in self.phases) + sum(
            not t.is_local for t in self.local_transfers
        )

    @property
    def moved_elements(self) -> int:
        return sum(t.elements for t in self.transfers if not t.is_local)

    @property
    def local_count(self) -> int:
        return sum(t.is_local for t in self.local_transfers)

    def moved_bytes(self, itemsize: int) -> int:
        return self.moved_elements * itemsize

    def makespan(self, cost: CostModel, itemsize: int) -> float:
        """Total phase-clock time: the sum of the phase durations."""
        return self.ledger(cost, itemsize).makespan

    def validate(self) -> None:
        """Re-check the one-port property of every contention-free phase."""
        for p in self.phases:
            if not p.contended:
                check_one_port((t.src_rank, t.dst_rank) for t in p.transfers)

    def ledger(self, cost: CostModel, itemsize: int) -> LedgerDelta:
        """What one execution adds to the machine's ledger: the unphased
        transfers charged one by one, then each phase on the phase clock.
        An unstamped plan is one-port checked here, once (a frozen plan
        cannot change between runs), so a bad phase raises
        :exc:`~repro.errors.ScheduleError` before anything is charged or moved.
        """
        memo = self._ledger
        if memo is None or memo[0] != cost or memo[1] != itemsize:
            if not self.statically_verified:
                self.validate()

            def header(t: Transfer | PackedTransfer) -> tuple[int, int, int, int]:
                elements = t.elements
                return t.src_rank, t.dst_rank, elements * itemsize, elements

            unphased = [header(t) for t in self.local_transfers]
            phases = [(p.contended, [header(pt) for pt in p.transfers]) for p in self.phases]
            memo = (cost, itemsize, ledger_delta(cost, unphased, phases))
            object.__setattr__(self, "_ledger", memo)
        return memo[2]

    def lowered(self, src: Layout, dst: Layout) -> LoweredPlan:
        """The simulator's copy descriptors for ``dst = src``."""
        return self._lowered_once("_lowered", src, dst, self._lower)

    def wire(self, src: Layout, dst: Layout) -> tuple[tuple, tuple]:
        """The mp backend's descriptors, ``(unphased, phases)``: the unphased
        transfers' moves and, per phase and per message, the message's own
        parts (each rank must move exactly its messages' bytes, so whole
        transfers will not do).  Lowered only when the backend asks."""
        return self._lowered_once("_wire", src, dst, self._lower_wire)

    def _lowered_once(self, slot: str, src: Layout, dst: Layout, lower):
        memo = getattr(self, slot)
        if memo is None or memo[0] is not src or memo[1] is not dst:
            with _TRACER.span("remap.lower"):
                memo = (src, dst, lower(src, dst))
            object.__setattr__(self, slot, memo)
            _M_LOWERED.inc()
        return memo[2]

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def stamped(self) -> "CommSchedule":
        """A ``statically_verified`` copy that keeps the derived forms:
        :func:`dataclasses.replace` copies fields only, and the lowering the
        proof read is the one execution must reuse."""
        twin = replace(self, statically_verified=True)
        for slot in ("_ledger", "_lowered", "_wire"):
            object.__setattr__(twin, slot, getattr(self, slot))
        return twin

    def _lower(self, src: Layout, dst: Layout) -> LoweredPlan:
        whole = self.policy is None or self.policy == "aggregate"
        moves: list[PreparedMove] = []
        for t in self.transfers:
            move = prepare_move(t, src, dst)
            if whole or t.is_local or move.is_basic:
                moves.append(move)
            else:
                moves.extend(prepare_move(r, src, dst) for r in rectangles(t))
        return LoweredPlan(tuple(moves))

    def _lower_wire(self, src: Layout, dst: Layout) -> tuple[tuple, tuple]:
        return (
            tuple(prepare_move(t, src, dst) for t in self.local_transfers),
            tuple(
                tuple(tuple(prepare_move(r, src, dst) for r in pt.parts) for pt in phase.transfers)
                for phase in self.phases
            ),
        )


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------


def rectangles(t: Transfer) -> list[Transfer]:
    """Decompose a transfer into its maximal contiguous rectangles.

    Each per-dimension index set is a union of intervals; the Cartesian
    product of one interval per dimension is one contiguous rectangle --
    the unit an implementation without buffer packing sends as a message.
    """
    from itertools import product

    from repro.util.intervals import IntervalSet

    per_dim = [s.intervals for s in t.index_sets]
    if all(len(ivs) == 1 for ivs in per_dim):
        return [t]
    return [
        Transfer(
            t.src_rank,
            t.dst_rank,
            tuple(IntervalSet((iv,)) for iv in combo),
        )
        for combo in product(*per_dim)
    ]


def _pack(transfers: list[Transfer], aggregate: bool) -> list[PackedTransfer]:
    if not aggregate:
        return [
            PackedTransfer(r.src_rank, r.dst_rank, (r,))
            for t in transfers
            for r in rectangles(t)
        ]
    by_pair: dict[tuple[int, int], list[Transfer]] = {}
    for t in transfers:
        by_pair.setdefault((t.src_rank, t.dst_rank), []).append(t)
    return [
        PackedTransfer(src, dst, tuple(parts))
        for (src, dst), parts in by_pair.items()
    ]


def _round_robin_phases(packed: list[PackedTransfer]) -> tuple[CommPhase, ...]:
    """Largest-first first-fit into one-port rounds (caterpillar phasing).

    Each message lands in the earliest phase where its sender's send port
    and its receiver's receive port are both free, so the one-port property
    holds by construction; descending size keeps phase durations (the max
    message of each round) from being inflated by late large messages.
    """
    order = sorted(
        packed, key=lambda t: (-t.elements, t.src_rank, t.dst_rank)
    )
    phases: list[list[PackedTransfer]] = []
    # per port, the set of phases it is busy in, as a bitset: a message's
    # earliest free phase is the lowest clear bit of its two ports' union
    sending: dict[int, int] = {}
    receiving: dict[int, int] = {}
    for t in order:
        busy = sending.get(t.src_rank, 0) | receiving.get(t.dst_rank, 0)
        bit = ~busy & (busy + 1)
        k = bit.bit_length() - 1
        if k == len(phases):
            phases.append([])
        phases[k].append(t)
        sending[t.src_rank] = sending.get(t.src_rank, 0) | bit
        receiving[t.dst_rank] = receiving.get(t.dst_rank, 0) | bit
    return tuple(CommPhase(tuple(msgs), contended=False) for msgs in phases)


def build_comm_schedule(
    schedule: RedistSchedule, policy: str | None = DEFAULT_POLICY
) -> CommSchedule:
    """Organize a redistribution's transfers into phases under ``policy``.

    ``policy=None`` is the degenerate plan: no phases, every non-empty
    transfer kept whole and in order (see :class:`CommSchedule`).
    """
    check_policy(policy)
    # zero-element transfers never occupy a phase and are never charged
    transfers = tuple(t for t in schedule.transfers if t.elements)
    remote = [t for t in transfers if not t.is_local]
    if policy is None or not remote:
        return CommSchedule(policy, (), transfers, transfers)
    local = tuple(t for t in transfers if t.is_local)
    if policy == "naive":
        phases: tuple[CommPhase, ...] = (
            CommPhase(tuple(_pack(remote, aggregate=False)), contended=True),
        )
    else:
        packed = _pack(remote, aggregate=policy == "aggregate")
        phases = _round_robin_phases(packed)
    return CommSchedule(policy, phases, local, transfers)


def plan_redistribution(
    src: Mapping, dst: Mapping, policy: str | None = DEFAULT_POLICY
) -> CommSchedule:
    """Build the plan for a copy ``dst = src`` from the mappings."""
    return build_comm_schedule(
        build_schedule(layout_of(src), layout_of(dst)), policy
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def execute_comm_schedule(
    plan: CommSchedule,
    source: DistributedArray,
    target: DistributedArray,
    machine: Machine | None = None,
    tag: str = "",
) -> None:
    """Move a plan's data on the simulator and charge the cost model.

    The ledger delta is obtained first (an unstamped plan's bad phase raises
    with ``target`` untouched), then the lowered copies run and the delta
    is charged in one :meth:`~repro.spmd.machine.Machine.charge`.  Every
    policy delivers bit-identical values and the same total bytes; only
    the *timing* (and, under ``aggregate``, the message count) differs.
    """
    machine = machine or target.machine
    delta = plan.ledger(machine.cost, target.itemsize)
    for move in plan.lowered(source.layout, target.layout).moves:
        move.execute(source, target)
    machine.charge(delta, target.name, tag)


def redistribute(
    source: DistributedArray,
    target: DistributedArray,
    machine: Machine | None = None,
    policy: str | None = None,
    plan: CommSchedule | None = None,
    tag: str = "",
) -> CommSchedule:
    """Convenience: plan (unless given) and execute ``target = source``."""
    if plan is None:
        plan = plan_redistribution(source.mapping, target.mapping, policy)
    execute_comm_schedule(plan, source, target, machine, tag)
    return plan


# ---------------------------------------------------------------------------
# the plan table: where the process keeps its plans
# ---------------------------------------------------------------------------

#: Hard bound on a :class:`CommPlanTable`'s plans.
PLAN_TABLE_CAPACITY = 256


class CommPlanTable:
    """A bounded, thread-safe get-or-build table of plans keyed by
    (policy, src signature, dst signature).

    A plan belongs to its policy and its two layouts, never to an artifact,
    so the process keeps one table, :data:`PLANS`, and every executor asks
    it.  Signatures embed concrete extents and grid shapes, so plans for
    distinct ``(n, P)`` can never cross-serve, and the policy is part of
    the key, so neither can plans for distinct policies.

    :data:`PLAN_TABLE_CAPACITY` is a hard bound: least-recently-used plans
    are evicted and transparently rebuilt on the next request (a rebuild
    is bit-identical to the evicted plan).  Plans built under a phased
    policy are certified (:func:`repro.analysis.commsafety.certify_plan`)
    before they are handed out; a ``policy=None`` plan has no phase to
    prove.  Builds happen outside the lock; a lost insertion race returns
    the winner's plan.
    """

    def __init__(self) -> None:
        self._plans: "OrderedDict[tuple, CommSchedule]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def obtain(self, policy: str | None, src: Mapping, dst: Mapping) -> CommSchedule:
        """The plan for ``dst = src`` under ``policy``: get it, or build,
        certify and keep it."""
        key = (policy, src.signature, dst.signature)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                return plan
        # Build (and certify) outside the lock: scheduling is the expensive
        # part and depends only on the policy and the two mappings.
        with _TRACER.span("remap.plan_build"):
            built = plan_redistribution(src, dst, policy)
        if policy is not None:
            from repro.analysis.commsafety import certify_plan

            # the proof lowers the plan (a remap.lower child span) and the
            # stamped plan keeps that lowering for its first execution
            with _TRACER.span("remap.prove"):
                built = certify_plan(src, dst, built)
        with self._lock:
            self.misses += 1  # every build counts, a lost race included
            existing = self._plans.get(key)
            if existing is not None:
                self._plans.move_to_end(key)
                return existing
            self._plans[key] = built
            while len(self._plans) > PLAN_TABLE_CAPACITY:
                self._plans.popitem(last=False)
                self.evictions += 1
        return built

    def stats(self) -> dict[str, int]:
        """``hits + misses`` is the number of :meth:`obtain` calls and
        ``misses`` the number of plans built (scheduling work done)."""
        with self._lock:
            return {
                "capacity": PLAN_TABLE_CAPACITY,
                "entries": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        """Forget every plan and every count, as a restarted process has."""
        with self._lock:
            self._plans.clear()
            self.hits = self.misses = self.evictions = 0


#: The process's plans: every executor gets its copies' plans here.
PLANS = CommPlanTable()
