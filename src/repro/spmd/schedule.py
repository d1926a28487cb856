"""Communication schedules: organizing remapping transfers into phases.

:func:`~repro.spmd.redistribution.build_schedule` computes *which* point-to-
point transfers a remapping copy needs; this module decides *when* they
happen.  A :class:`CommSchedule` arranges the non-local transfers of one
:class:`~repro.spmd.redistribution.RedistSchedule` into an ordered sequence
of :class:`CommPhase` rounds executed bulk-synchronously on the machine's
phase clock (:meth:`~repro.spmd.machine.Machine.run_phase`), following the
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

Invariants (enforced by construction and property-tested):

* every policy moves exactly the transfers of the underlying redistribution
  schedule -- same elements, same total bytes, bit-identical data;
* empty (zero-element) transfers and purely local schedules produce **no**
  phases;
* a contention-free phase never has a rank sending or receiving twice
  (:exc:`~repro.errors.ScheduleError` otherwise -- the machine re-checks).

:class:`CommPlanTable` memoizes built schedules per (source signature,
target signature) so the opt-in ``schedule`` compiler pass can precompile
every plan a program may need into the
:class:`~repro.compiler.artifacts.CompiledProgram` artifact; warm
:class:`~repro.compiler.session.CompilerSession` runs then replay the plans
with zero scheduling work.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ArtifactFrozenError, ScheduleError
from repro.mapping.mapping import Mapping
from repro.mapping.ownership import Layout, layout_of
from repro.obs.trace import TRACER as _TRACER
from repro.spmd.cost import CostModel
from repro.spmd.darray import DistributedArray
from repro.spmd.machine import Machine
from repro.spmd.message import check_one_port, message_of
from repro.spmd.redistribution import (
    LoweredOnce,
    PreparedMove,
    RedistSchedule,
    Transfer,
    build_schedule,
    prepare_move,
)

#: Recognized scheduling policies, cheapest machinery first.
POLICIES: tuple[str, ...] = ("naive", "round-robin", "aggregate")

#: Policy used when scheduling is requested without naming one.
DEFAULT_POLICY = "round-robin"


def check_policy(policy: str) -> str:
    if policy not in POLICIES:
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

    @property
    def message_count(self) -> int:
        return len(self.transfers)

    @property
    def elements(self) -> int:
        return sum(t.elements for t in self.transfers)

    def check_one_port(self) -> None:
        check_one_port((t.src_rank, t.dst_rank) for t in self.transfers)

    def duration(self, cost: CostModel, itemsize: int) -> float:
        """Modelled phase time, by the machine clock's own formula
        (:meth:`~repro.spmd.cost.CostModel.phase_time`), so predicted
        makespans match observed ``phase_seconds`` exactly."""
        return cost.phase_time(
            [(t.src_rank, t.dst_rank, t.nbytes(itemsize)) for t in self.transfers],
            self.contended,
        )


@dataclass(frozen=True, slots=True)
class LoweredMessage:
    """One message of a lowered phase: its copy descriptors and element count."""

    src_rank: int
    dst_rank: int
    parts: tuple[PreparedMove, ...]
    elements: int


@dataclass(frozen=True)
class LoweredPhase:
    """One phase of a :class:`LoweredPlan`."""

    messages: tuple[LoweredMessage, ...]
    contended: bool
    elements: int


@dataclass(frozen=True)
class LoweredPlan:
    """A :class:`CommSchedule` lowered to copy descriptors.

    What executing the plan needs and what does not depend on the data,
    the element size or the array's name: the descriptors of the local
    copies and of every message part, and the element counts the plan
    would otherwise re-sum from its interval sets on every run.
    """

    local: tuple[PreparedMove, ...]
    phases: tuple[LoweredPhase, ...]
    message_count: int
    moved_elements: int

    def makespan(self, cost: CostModel, itemsize: int) -> float:
        """:meth:`CommSchedule.makespan` from the cached element counts."""
        return sum(
            cost.phase_time(
                [(m.src_rank, m.dst_rank, m.elements * itemsize) for m in ph.messages],
                ph.contended,
            )
            for ph in self.phases
        )


@dataclass(frozen=True)
class CommSchedule(LoweredOnce):
    """The full phased plan of one remapping copy (a ``CommPlan``).

    ``local_transfers`` are the src==dst copies (including replica-aware
    local copies); they never occupy a phase.  Phases carry only real
    messages, so a redistribution with nothing to send has no phases.

    :meth:`lowered` (see :class:`~repro.spmd.redistribution.LoweredOnce`)
    is the plan's :class:`LoweredPlan`, worked out on first execution and
    shared by every later one -- and, through :class:`PlanMemo`, by every
    instantiation of a symbolic template.
    """

    policy: str
    phases: tuple[CommPhase, ...]
    local_transfers: tuple[Transfer, ...]
    #: Stamped ``True`` by :func:`repro.analysis.commsafety.certify_plan`
    #: once the exact-cover and one-port properties have been *proved*
    #: statically against the source/target mappings; the machine then
    #: skips the O(messages) runtime re-validation of each phase
    #: (:meth:`~repro.spmd.machine.Machine.run_phase`).  Plans built
    #: outside the compiler (executor overlays, ad-hoc calls) stay
    #: unstamped and keep the runtime check.
    statically_verified: bool = False

    @property
    def phase_count(self) -> int:
        return len(self.phases)

    @property
    def message_count(self) -> int:
        return sum(p.message_count for p in self.phases)

    @property
    def moved_elements(self) -> int:
        return sum(p.elements for p in self.phases)

    @property
    def local_count(self) -> int:
        return len(self.local_transfers)

    @property
    def local_elements(self) -> int:
        return sum(t.elements for t in self.local_transfers)

    def moved_bytes(self, itemsize: int) -> int:
        return self.moved_elements * itemsize

    def makespan(self, cost: CostModel, itemsize: int) -> float:
        """Total phase-clock time: the sum of the phase durations."""
        return sum(p.duration(cost, itemsize) for p in self.phases)

    def validate(self) -> None:
        """Re-check the one-port property of every contention-free phase."""
        for p in self.phases:
            if not p.contended:
                p.check_one_port()

    def describe(self) -> str:
        return (
            f"{self.policy}: {self.message_count} message(s) in "
            f"{self.phase_count} phase(s), {self.local_count} local cop(ies)"
        )

    def _lower(self, src: Layout, dst: Layout) -> LoweredPlan:
        phases = []
        for phase in self.phases:
            messages = []
            for pt in phase.transfers:
                parts = tuple(prepare_move(part, src, dst) for part in pt.parts)
                messages.append(
                    LoweredMessage(
                        pt.src_rank, pt.dst_rank, parts, sum(p.elements for p in parts)
                    )
                )
            phases.append(
                LoweredPhase(
                    tuple(messages), phase.contended, sum(m.elements for m in messages)
                )
            )
        return LoweredPlan(
            tuple(prepare_move(t, src, dst) for t in self.local_transfers),
            tuple(phases),
            sum(len(ph.messages) for ph in phases),
            sum(ph.elements for ph in phases),
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
    sending: list[set[int]] = []
    receiving: list[set[int]] = []
    for t in order:
        for k in range(len(phases)):
            if t.src_rank not in sending[k] and t.dst_rank not in receiving[k]:
                break
        else:
            k = len(phases)
            phases.append([])
            sending.append(set())
            receiving.append(set())
        phases[k].append(t)
        sending[k].add(t.src_rank)
        receiving[k].add(t.dst_rank)
    return tuple(CommPhase(tuple(msgs), contended=False) for msgs in phases)


def build_comm_schedule(
    schedule: RedistSchedule, policy: str = DEFAULT_POLICY
) -> CommSchedule:
    """Organize a redistribution's transfers into phases under ``policy``."""
    check_policy(policy)
    local: list[Transfer] = []
    remote: list[Transfer] = []
    for t in schedule.transfers:
        if t.elements == 0:
            continue  # zero-element transfers never occupy a phase
        (local if t.is_local else remote).append(t)
    if not remote:
        return CommSchedule(policy, (), tuple(local))
    if policy == "naive":
        phases: tuple[CommPhase, ...] = (
            CommPhase(tuple(_pack(remote, aggregate=False)), contended=True),
        )
    else:
        packed = _pack(remote, aggregate=policy == "aggregate")
        phases = _round_robin_phases(packed)
    return CommSchedule(policy, phases, tuple(local))


def plan_redistribution(
    src: Mapping, dst: Mapping, policy: str = DEFAULT_POLICY
) -> CommSchedule:
    """Build the phased plan for a copy ``dst = src`` from the mappings."""
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
    """Move real data phase by phase on the machine's phase clock.

    Bit-identical to :func:`~repro.spmd.redistribution.execute_schedule`
    in the values delivered and the total bytes moved; only the *timing*
    (and, under ``aggregate``, the message count) differs.
    """
    machine = machine or target.machine
    itemsize, name = target.itemsize, target.name
    lowered = plan.lowered(source.layout, target.layout)
    for move in lowered.local:
        move.execute(source, target)
        machine.transfer(message_of(move, itemsize, name, tag))
    for i, phase in enumerate(lowered.phases):
        with _TRACER.span("comm.phase", index=i) as span:
            for msg in phase.messages:
                for move in msg.parts:
                    move.execute(source, target)
            machine.run_phase(
                [message_of(msg, itemsize, name, tag) for msg in phase.messages],
                contended=phase.contended,
                verified=plan.statically_verified,
            )
            span.set_attr("messages", len(phase.messages))
            span.set_attr("bytes", phase.elements * itemsize)


def scheduled_redistribute(
    source: DistributedArray,
    target: DistributedArray,
    machine: Machine | None = None,
    policy: str = DEFAULT_POLICY,
    plan: CommSchedule | None = None,
    tag: str = "",
) -> CommSchedule:
    """Convenience: plan (unless given) and execute ``target = source``."""
    if plan is None:
        plan = plan_redistribution(source.mapping, target.mapping, policy)
    execute_comm_schedule(plan, source, target, machine, tag)
    return plan


# ---------------------------------------------------------------------------
# plan tables (the precompiled artifact)
# ---------------------------------------------------------------------------


@dataclass
class CommPlanTable:
    """Memoized plans for one policy, keyed by (src, dst) mapping signature.

    The ``schedule`` compiler pass prebuilds one entry per reachable
    version pair and attaches the table to the compiled artifact;
    the executor looks plans up at each remapping (building on demand only
    when the pass was not run) and counts hits/builds in the machine's
    :class:`~repro.spmd.message.TrafficStats`.

    A table attached to a session-cached artifact is *frozen*
    (:meth:`freeze`): concurrent executors may :meth:`lookup` freely but
    :meth:`build` raises :class:`~repro.errors.ArtifactFrozenError` --
    per-run plan misses belong in the executor's own overlay table, never
    in the shared artifact.
    """

    policy: str = DEFAULT_POLICY
    _plans: dict[tuple, CommSchedule] = field(default_factory=dict)
    _frozen: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_policy(self.policy)

    def freeze(self) -> None:
        """Forbid further :meth:`build` calls (shared-artifact contract)."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    @staticmethod
    def _key(src: Mapping, dst: Mapping) -> tuple:
        return (src.signature, dst.signature)

    def __len__(self) -> int:
        return len(self._plans)

    def plans(self) -> list[CommSchedule]:
        return list(self._plans.values())

    def entries(self) -> list[tuple[tuple, CommSchedule]]:
        """All (signature-pair key, plan) entries in deterministic order.

        The canonical iteration for serialization and for comparing two
        tables: a plan table that survived a disk round-trip
        (:mod:`repro.store`) must yield exactly the entries of the table
        that was written, independent of build order."""
        return sorted(self._plans.items(), key=lambda kv: repr(kv[0]))

    def content_digest(self) -> str:
        """A stable digest of the table's full content (policy + plans).

        Two tables with the same policy and the same plans -- regardless
        of insertion order or frozen state -- share a digest.  The store's
        round-trip tests use it to prove that precompiled plans survive
        serialization bit-for-bit at the schedule level (phasing,
        packing, local copies), not merely by count."""
        import hashlib

        h = hashlib.sha256(self.policy.encode())
        for key, plan in self.entries():
            h.update(repr(key).encode())
            h.update(repr(plan).encode())
        return h.hexdigest()

    def lookup(self, src: Mapping, dst: Mapping) -> CommSchedule | None:
        return self._plans.get(self._key(src, dst))

    def build(self, src: Mapping, dst: Mapping) -> CommSchedule:
        """Build (or return the already-built) plan for ``dst = src``."""
        key = self._key(src, dst)
        plan = self._plans.get(key)
        if plan is None:
            if self._frozen:
                raise ArtifactFrozenError(
                    "cannot build a plan into a frozen CommPlanTable: the "
                    "table belongs to a cached artifact shared across "
                    "threads (build into an executor-local overlay instead)"
                )
            plan = plan_redistribution(src, dst, self.policy)
            self._plans[key] = plan
        return plan

    def replace(self, src: Mapping, dst: Mapping, plan: CommSchedule) -> None:
        """Swap in a new plan for an existing (src, dst) entry.

        The hook :func:`repro.analysis.commsafety.certify_table` uses to
        substitute a ``statically_verified`` copy after proving a freshly
        built plan safe.  Like :meth:`build`, refuses on a frozen table
        (a certified artifact is stamped *before* freezing)."""
        key = self._key(src, dst)
        if self._frozen:
            raise ArtifactFrozenError(
                "cannot replace a plan in a frozen CommPlanTable"
            )
        if key not in self._plans:
            raise ScheduleError(
                "CommPlanTable.replace: no existing plan for this "
                "(source, target) signature pair"
            )
        self._plans[key] = plan


# ---------------------------------------------------------------------------
# lazy plan tables for symbolic templates
# ---------------------------------------------------------------------------


class PlanMemo:
    """Bounded, thread-safe memo of certified plans, shared across every
    concrete instantiation of one symbolic template.

    Keys are ``(policy, src signature, dst signature)`` -- signatures
    embed concrete extents and grid shapes, so plans for distinct
    ``(n, P)`` instantiations can never cross-serve.  Capacity is a hard
    bound: least-recently-used entries are evicted and transparently
    rebuilt on the next request (plans are pure functions of the mapping
    pair, so a rebuild is bit-identical to the evicted plan).

    Builds happen outside the lock; a lost insertion race returns the
    winner's plan.  Pickling (a template heading to the artifact store)
    drops both the lock and the contents, so artifact bytes never depend
    on which shapes a session happened to serve first.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ScheduleError(f"PlanMemo capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._plans: "OrderedDict[tuple, CommSchedule]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def get_or_build(self, policy: str, src: Mapping, dst: Mapping) -> CommSchedule:
        key = (policy, src.signature, dst.signature)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                return plan
        # Build (and certify) outside the lock: scheduling is the expensive
        # part and depends only on the two mappings.
        from repro.analysis.commsafety import certify_plan

        built = certify_plan(src, dst, plan_redistribution(src, dst, policy))
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                return existing
            self._plans[key] = built
            self.misses += 1
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.evictions += 1
        return built

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __getstate__(self) -> dict:
        return {"capacity": self.capacity}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["capacity"])


@dataclass
class InstantiatingCommPlanTable(CommPlanTable):
    """Plan table of one symbolic-template instantiation: lazy within a
    declared pair set, eager nowhere.

    Where the eager ``schedule`` pass prebuilds every reachable plan into
    the artifact, an instantiated program carries only the *keys* of its
    reachable (source, target) signature pairs; :meth:`lookup` builds the
    plan on first use through a :class:`PlanMemo` shared with every other
    instantiation of the same template, so repeated shapes pay the
    scheduling cost once per memo lifetime.

    Deliberate deviation from the base frozen contract: :meth:`lookup`
    get-or-builds through the memo even on a frozen table.  The memo has
    its own lock and plans are pure functions of the signature pair, so
    concurrent executors converge on identical plans; :meth:`build` and
    :meth:`replace` keep the base class's frozen-artifact refusal.
    """

    _pair_keys: frozenset = field(default_factory=frozenset)
    _memo: PlanMemo = field(default_factory=PlanMemo, repr=False, compare=False)

    def __bool__(self) -> bool:
        # The base table is truthy iff it holds plans (len); a lazy table
        # holds *pair keys* instead and must stay truthy for the
        # executor's "is there an artifact plan table?" check even though
        # no plan has materialized yet.
        return bool(self._pair_keys or self._plans)

    def lookup(self, src: Mapping, dst: Mapping) -> CommSchedule | None:
        key = self._key(src, dst)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        if key not in self._pair_keys:
            return None
        return self._memo.get_or_build(self.policy, src, dst)

    @property
    def pair_count(self) -> int:
        """Declared reachable pairs (eager tables would hold this many plans)."""
        return len(self._pair_keys)
