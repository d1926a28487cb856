"""The communication cost model: traffic estimates and motion decisions.

Two layers:

* :class:`TrafficEstimate` -- a small lattice of communication quantities
  (message bytes, message count, local-copy traffic, status-check count).
  Estimates add along execution paths, scale with trip counts, and join
  (component-wise max) across alternative paths, so static analyses can
  build per-placement summaries the same way the simulated machine's
  :class:`~repro.spmd.message.TrafficStats` accumulates the real thing.
* :class:`CostModel` -- the classic linear (alpha-beta) machine model:
  sending ``n`` bytes costs ``alpha + beta * n`` seconds (per-message
  start-up latency plus inverse bandwidth), local copies cost ``gamma``
  per byte, and the runtime's "inexpensive check of its status"
  (paper Sec. 4.3) costs ``delta`` per check.  :meth:`CostModel.compare`
  is the decision procedure the loop-invariant motion pass consults:
  a remapping is hoisted/sunk only when the estimated traffic of the moved
  placement never exceeds the naive placement's bytes *and* its modelled
  time -- pay the status check only when it can win.

Defaults approximate a mid-90s MPP (IBM SP2-ish): 40 us latency, 40 MB/s
bandwidth, 400 MB/s local copy -- the absolute values do not matter for the
reproduction (shape does), but realistic ratios keep the latency/bandwidth
trade-offs of the benchmarks honest.  :meth:`CostModel.from_machine` builds
a model from tuned machine parameters.
"""

from __future__ import annotations

from dataclasses import dataclass


# ---------------------------------------------------------------------------
# traffic estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrafficEstimate:
    """Communication quantities of one (estimated or observed) execution.

    The same quantities :class:`~repro.spmd.message.TrafficStats` measures:
    ``bytes``/``messages`` count real point-to-point remapping messages,
    ``local_bytes``/``local_copies`` the processor-local copies, and
    ``status_checks`` the Fig. 20 runtime guards executed.

    Scheduled executions additionally carry ``phases`` (communication
    rounds on the machine's phase clock) and ``makespan`` (total modelled
    phase time in seconds: each round lasts as long as its largest message
    if contention-free, or its busiest port if contended -- NOT the
    per-endpoint serialized sum :meth:`CostModel.time` charges).  Both are
    zero for unscheduled executions and estimates.
    """

    bytes: int = 0
    messages: int = 0
    local_bytes: int = 0
    local_copies: int = 0
    status_checks: int = 0
    phases: int = 0
    makespan: float = 0.0

    # -- lattice / arithmetic ------------------------------------------------

    @classmethod
    def zero(cls) -> "TrafficEstimate":
        return cls()

    def __add__(self, other: "TrafficEstimate") -> "TrafficEstimate":
        """Sequential composition: traffic of one path then another."""
        return TrafficEstimate(
            self.bytes + other.bytes,
            self.messages + other.messages,
            self.local_bytes + other.local_bytes,
            self.local_copies + other.local_copies,
            self.status_checks + other.status_checks,
            self.phases + other.phases,
            self.makespan + other.makespan,
        )

    def scaled(self, k: int) -> "TrafficEstimate":
        """The path repeated ``k`` times (loop trip counts)."""
        return TrafficEstimate(
            self.bytes * k,
            self.messages * k,
            self.local_bytes * k,
            self.local_copies * k,
            self.status_checks * k,
            self.phases * k,
            self.makespan * k,
        )

    def join(self, other: "TrafficEstimate") -> "TrafficEstimate":
        """Component-wise max: a safe upper bound over alternative paths."""
        return TrafficEstimate(
            max(self.bytes, other.bytes),
            max(self.messages, other.messages),
            max(self.local_bytes, other.local_bytes),
            max(self.local_copies, other.local_copies),
            max(self.status_checks, other.status_checks),
            max(self.phases, other.phases),
            max(self.makespan, other.makespan),
        )

    def meet(self, other: "TrafficEstimate") -> "TrafficEstimate":
        """Component-wise min: a lower bound over alternative paths."""
        return TrafficEstimate(
            min(self.bytes, other.bytes),
            min(self.messages, other.messages),
            min(self.local_bytes, other.local_bytes),
            min(self.local_copies, other.local_copies),
            min(self.status_checks, other.status_checks),
            min(self.phases, other.phases),
            min(self.makespan, other.makespan),
        )

    def dominated_by(self, other: "TrafficEstimate") -> bool:
        """Product-order comparison: every component <= the other's."""
        return (
            self.bytes <= other.bytes
            and self.messages <= other.messages
            and self.local_bytes <= other.local_bytes
            and self.local_copies <= other.local_copies
            and self.status_checks <= other.status_checks
            and self.phases <= other.phases
            and self.makespan <= other.makespan
        )

    def snapshot(self) -> dict[str, int | float]:
        return {
            "bytes": self.bytes,
            "messages": self.messages,
            "local_bytes": self.local_bytes,
            "local_copies": self.local_copies,
            "status_checks": self.status_checks,
            "phases": self.phases,
            "makespan": self.makespan,
        }


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------


def compose_phase(costs: "list[tuple[int, int, float]]", contended: bool) -> float:
    """Duration of one phase of ``(src, dst, seconds)`` message costs.

    The one composition of per-message costs into a phase, modeled
    (:meth:`CostModel.phase_time`) or measured on real ranks
    (:class:`~repro.spmd.transport.RoundReport`): a contention-free phase
    lasts as long as its costliest message; a contended one serializes
    each port, in message order, and lasts as long as the busiest port's
    send+receive work.  An empty phase is free.
    """
    if not costs:
        return 0.0
    if not contended:
        return max(c for _, _, c in costs)
    load: dict[int, float] = {}
    for src, dst, c in costs:
        load[src] = load.get(src, 0.0) + c
        load[dst] = load.get(dst, 0.0) + c
    return max(load.values())


@dataclass(frozen=True)
class CostDecision:
    """Outcome of comparing a naive placement against a hoisted one."""

    hoist: bool
    delta_bytes: int  # hoisted bytes - naive bytes (negative = hoist saves)
    delta_time: float  # modelled hoisted time - naive time, in seconds
    reason: str = ""

    def __str__(self) -> str:
        verdict = "hoist" if self.hoist else "keep naive placement"
        return (
            f"{verdict} (delta {self.delta_bytes:+d} B, "
            f"{self.delta_time * 1e6:+.3f} us): {self.reason}"
        )


# ---------------------------------------------------------------------------
# the machine model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Per-message linear cost model with machine-tunable parameters."""

    alpha: float = 40e-6  # seconds per message (start-up latency)
    beta: float = 25e-9  # seconds per byte  (~40 MB/s)
    gamma: float = 2.5e-9  # seconds per locally copied byte (~400 MB/s)
    delta: float = 50e-9  # seconds per runtime status check (Sec. 4.3)

    @classmethod
    def from_machine(
        cls,
        latency_us: float = 40.0,
        bandwidth_mbps: float = 40.0,
        copy_bandwidth_mbps: float = 400.0,
        status_check_ns: float = 50.0,
    ) -> "CostModel":
        """Build a model from the parameters machines are usually quoted in."""
        return cls(
            alpha=latency_us * 1e-6,
            beta=1.0 / (bandwidth_mbps * 1e6),
            gamma=1.0 / (copy_bandwidth_mbps * 1e6),
            delta=status_check_ns * 1e-9,
        )

    # -- per-event costs (the simulated machine charges these) ---------------

    def message_cost(self, nbytes: int) -> float:
        return self.alpha + self.beta * nbytes

    def local_copy_cost(self, nbytes: int) -> float:
        return self.gamma * nbytes

    def status_check_cost(self) -> float:
        """Cost of the runtime's 'inexpensive check of its status' (Sec. 4.3)."""
        return self.delta

    def phase_time(
        self, messages: "list[tuple[int, int, int]]", contended: bool
    ) -> float:
        """Duration of one communication phase of (src, dst, nbytes) messages.

        The single formula behind a plan's ledger delta
        (:func:`~repro.spmd.message.ledger_delta`), which is both what the
        machine's phase clock is charged and the static
        :meth:`~repro.spmd.schedule.CommSchedule.makespan` -- predicted and
        observed makespans cannot diverge.  A contention-free phase
        (one-port property holds) lasts as long as its largest message; a
        contended one serializes each port and lasts as long as the
        busiest port's send+receive work.
        """
        return compose_phase([(s, d, self.message_cost(n)) for s, d, n in messages], contended)

    # -- aggregate costs and decisions ---------------------------------------

    def time(self, est: TrafficEstimate) -> float:
        """Modelled serialized time of an estimate's traffic."""
        return (
            est.messages * self.alpha
            + est.bytes * self.beta
            + est.local_bytes * self.gamma
            + est.status_checks * self.delta
        )

    def scheduled_time(self, est: TrafficEstimate) -> float:
        """Modelled time of a *scheduled* execution: phase makespan, not
        per-endpoint sums.  The message term is the estimate's accumulated
        makespan (rounds overlap disjoint pairs, so it is typically far
        below the serialized :meth:`time`); local copies and status checks
        are charged as usual."""
        return (
            est.makespan
            + est.local_bytes * self.gamma
            + est.status_checks * self.delta
        )

    def compare(
        self,
        naive: TrafficEstimate,
        hoisted: TrafficEstimate,
        scheduled: bool = False,
    ) -> CostDecision:
        """Decide whether a hoisted placement beats the naive one.

        The hoisted placement wins only when it moves no more message bytes
        AND its modelled time (including the status-check overhead it adds)
        does not exceed the naive placement's -- the pay-only-when-it-wins
        rule.  Ties go to the hoisted placement: equal traffic with fewer
        dynamic remappings is the paper's Sec. 4.3 argument.  With
        ``scheduled`` the time leg prices both placements by their phase
        makespans (:meth:`scheduled_time`): the comparison then reflects
        what a contention-managed machine actually delivers.
        """
        time = self.scheduled_time if scheduled else self.time
        delta_bytes = hoisted.bytes - naive.bytes
        delta_time = time(hoisted) - time(naive)
        if delta_bytes > 0:
            return CostDecision(
                False, delta_bytes, delta_time, "moves more message bytes"
            )
        if delta_time > 0.0:
            return CostDecision(
                False,
                delta_bytes,
                delta_time,
                "status-check overhead exceeds the communication saved",
            )
        return CostDecision(True, delta_bytes, delta_time, "never pays more")
