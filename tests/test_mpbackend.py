"""Differential gate for the real multi-process backend.

The mp backend (:mod:`repro.runtime.mpbackend` over
:mod:`repro.spmd.transport`) claims to be *observationally identical* to
the simulator -- same array values, same traffic ledger -- while
actually moving every remote byte between forked worker ranks over
pipes.  This suite is that claim's gate:

* **figures** -- Fig. 1 / 12 / 16 programs under every schedule policy
  (plus unscheduled), eager and symbolic options: bit-identical values
  and an identical ``machine.stats`` snapshot vs the simulator;
* **workload sweep** -- random legal workloads (seed count scaled by
  ``REPRO_MP_SEEDS``; CI's nightly leg runs the full 0..100 acceptance
  range), eager and symbolic, all policies;
* **transport discipline** -- one-port violations, local copies on the
  wire, lying prescriptions and dead workers all raise
  :class:`~repro.errors.TransportError` instead of corrupting data;
* **plumbing** -- arena allocation, backend reuse, ``ExecutionResult.mp``
  reporting, ``repro.mp.*`` metrics, and the opt-in ``backend="mp"``
  paths through :meth:`CompilerSession.run` and the service;
* **pooling** -- a finished run returns its blocks to the arenas, the
  service's pooled ranks serve any number of requests whose results stay
  readable afterwards, and a killed rank (between requests or mid-exchange)
  ends in a typed error, a replaced backend and no orphan process.
"""

from __future__ import annotations

import functools
import os
import signal
import struct
import time

import numpy as np
import pytest

from repro import (
    CompilerOptions,
    CompilerSession,
    ExecutionEnv,
    Machine,
    compile_program,
    execute,
)
from repro.apps.workloads import random_environment, random_legal_subroutine
from repro.errors import ScheduleError, TransportError
from repro.mapping import DistFormat, Mapping, ProcessorArrangement
from repro.obs import REGISTRY
from repro.runtime.mpbackend import MPBackend, MPExecutor, execute_mp
from repro.service import CompileRequest, CompileService
from repro.spmd.cost import CostModel, compose_phase
from repro.spmd.transport import (
    MPTransport,
    SharedArena,
    SharedDistributedArray,
    TransferRound,
    WireMessage,
    WirePart,
    _write_obj,
    fork_available,
)
from test_schedule import FIGURES, _env, _run

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="mp transport requires the fork start method"
)

POLICIES = (None, "naive", "round-robin", "aggregate")

#: workload-sweep seed count; tier-1 keeps it small, the nightly mp
#: differential leg sets REPRO_MP_SEEDS=101 for the full acceptance range
SEEDS = int(os.environ.get("REPRO_MP_SEEDS", "12"))


@pytest.fixture(scope="module")
def backend():
    """One pool of 4 forked ranks shared by the whole module (forking per
    test would dominate the differential matrix)."""
    with MPBackend(4) as b:
        yield b


def _run_mp(backend, compiled, w):
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions=dict(w["conditions"]),
        bindings=dict(w["bindings"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
    )
    name = next(iter(compiled.subroutines))
    result = backend.execute(compiled, entry=name, machine=machine, env=env)
    values = {a: result.value(a) for a in compiled.get(name).sub.arrays}
    return values, machine.stats, result


def _assert_identical(mp, sim, context):
    mp_values, mp_stats = mp
    sim_values, sim_stats = sim
    for a in sim_values:
        assert np.array_equal(mp_values[a], sim_values[a]), (*context, a)
    assert mp_stats.snapshot() == sim_stats.snapshot(), context


# ---------------------------------------------------------------------------
# the acceptance differential: figures x policies x eager/symbolic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p or "unscheduled")
@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figures_mp_matches_simulator(backend, name, policy):
    w = FIGURES[name]
    compiled = compile_program(
        w["source"],
        bindings=w["bindings"],
        processors=4,
        options=CompilerOptions(level=3, schedule=policy),
    )
    values, stats, _ = _run_mp(backend, compiled, w)
    _assert_identical((values, stats), _run(compiled, w), (name, policy))


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p or "unscheduled")
@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figures_mp_matches_simulator_symbolic(backend, name, policy):
    """Same differential through the symbolic path: compile once at
    symbolic shape, execute the instantiated artifact on both backends."""
    w = FIGURES[name]
    compiled = compile_program(
        w["source"],
        bindings=w["bindings"],
        processors=4,
        options=CompilerOptions.symbolic(level=3, schedule=policy),
    )
    values, stats, _ = _run_mp(backend, compiled, w)
    _assert_identical((values, stats), _run(compiled, w), (name, policy, "symbolic"))


def test_figures_phase_metrics_equal_one_observe_each(backend, monkeypatch):
    """``repro.machine.phase_seconds`` is fed pre-binned, one locked add
    per charged plan; after every figure x policy on both backends
    they hold what feeding every phase duration through ``observe`` one at a
    time leaves: buckets, count, min and max ``==``, the sum to rel 1e-12."""
    from repro.obs.metrics import Histogram
    from repro.spmd import machine as machine_module

    seconds = Histogram("repro.machine.phase_seconds")
    monkeypatch.setattr(machine_module, "_M_PHASE_SECONDS", seconds)
    durations = []
    real_charge = Machine.charge

    def charge(machine, delta, *labels):
        durations.extend(delta.durations)
        real_charge(machine, delta, *labels)

    monkeypatch.setattr(Machine, "charge", charge)
    modeled = 0.0
    for name, w in sorted(FIGURES.items()):
        for policy in POLICIES:
            compiled = compile_program(
                w["source"], bindings=w["bindings"], processors=4,
                options=CompilerOptions(level=3, schedule=policy),
            )  # fmt: skip
            _, _, result = _run_mp(backend, compiled, w)
            modeled += result.machine.phase_seconds
            machine = Machine(compiled.processors)
            execute(compiled, machine=machine, env=_env(w))
            modeled += machine.phase_seconds
    one_by_one = Histogram("repro.machine.phase_seconds")
    for d in durations:
        one_by_one.observe(d)
    want, got = one_by_one._snapshot(), seconds._snapshot()
    assert got["count"] == len(durations) > 100
    assert got["sum"] == pytest.approx(want.pop("sum"), rel=1e-12, abs=0)
    assert {k: v for k, v in got.items() if k != "sum"} == want
    assert modeled == pytest.approx(got["sum"], rel=1e-12, abs=0)


@pytest.mark.parametrize("mode", ["eager", "symbolic"])
def test_workload_seeds_mp_matches_simulator(backend, mode):
    """Random legal workloads, every policy: bit-identical values and an
    identical traffic ledger between the mp backend and the simulator."""
    for seed in range(SEEDS):
        rng = np.random.default_rng(seed)
        program = random_legal_subroutine(rng, n_arrays=2, length=5, depth=1)
        conditions, inputs = random_environment(rng, n_arrays=2)
        w = dict(bindings={}, conditions=conditions, inputs=inputs)
        for policy in POLICIES:
            if mode == "symbolic":
                options = CompilerOptions.symbolic(level=3, schedule=policy)
            else:
                options = CompilerOptions(level=3, schedule=policy)
            compiled = compile_program(program, processors=4, options=options)
            values, stats, _ = _run_mp(backend, compiled, w)
            _assert_identical(
                (values, stats), _run(compiled, w), (seed, policy, mode)
            )


# ---------------------------------------------------------------------------
# the measured report and the obs surface
# ---------------------------------------------------------------------------


def test_execution_result_carries_mp_report(backend):
    w = FIGURES["fig16"]
    compiled = compile_program(
        w["source"],
        bindings=w["bindings"],
        processors=4,
        options=CompilerOptions(level=3, schedule="round-robin"),
    )
    _, stats, result = _run_mp(backend, compiled, w)
    report = result.mp
    assert report is not None and report.nprocs == 4
    # the transport carried exactly the ledger's remote traffic
    assert report.messages == stats.messages
    assert report.bytes_moved == stats.bytes
    assert report.exchanges > 0 and report.phases >= report.exchanges
    assert len(report.phase_wall_seconds) == report.phases
    assert len(report.phase_port_seconds) == report.phases
    assert report.wall_seconds > 0.0 and report.port_seconds > 0.0
    snap = report.snapshot()
    assert snap["messages"] == report.messages
    assert snap["nprocs"] == 4
    assert snap["port_seconds"] == report.port_seconds
    assert snap["wall_seconds"] == report.wall_seconds


def test_one_exchange_span_per_remapping(backend, tracer):
    """One ``mp.exchange`` span per remapping carrying the exchange's own
    totals; the ranks sequence the rounds, so there is no per-round span.
    The first run ships each plan's wire program; in the second every
    control frame is a handle and two offsets (no per-message content)."""
    w = FIGURES["fig16"]
    compiled = compile_program(
        w["source"],
        bindings=w["bindings"],
        processors=4,
        options=CompilerOptions(level=3, schedule="round-robin"),
    )
    counters = ("repro.mp.control_bytes", "repro.mp.programs_shipped")
    for run in ("cold", "warm"):
        before = [REGISTRY.counter(name).value for name in counters]
        tracer.clear()
        _, _, result = _run_mp(backend, compiled, w)
        spans = tracer.finished_spans()
        exchanges = [s for s in spans if s.name == "mp.exchange"]
        assert len(exchanges) == result.mp.exchanges > 0
        assert not [s for s in spans if s.name == "mp.phase"]
        for key, total in (
            ("rounds", result.mp.phases),
            ("messages", result.mp.messages),
            ("bytes", result.mp.bytes_moved),
            ("wall_seconds", result.mp.wall_seconds),
            ("port_seconds", result.mp.port_seconds),
        ):
            assert sum(s.attrs[key] for s in exchanges) == pytest.approx(total), key
        for name, key, was in zip(counters, ("control_bytes", "shipped"), before):
            assert REGISTRY.counter(name).value - was == sum(s.attrs[key] for s in exchanges)
        shipped = [s.attrs["shipped"] for s in exchanges]
        if run == "cold":
            assert any(shipped)
        else:
            assert not any(shipped)
            assert all(s.attrs["control_bytes"] <= 4 * 64 for s in exchanges)


def test_simulator_result_has_no_mp_report():
    w = FIGURES["fig16"]
    compiled = compile_program(
        w["source"], bindings=w["bindings"], processors=4,
        options=CompilerOptions(level=3),
    )
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions={}, bindings=dict(w["bindings"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
    )
    from repro.runtime.executor import Executor

    result = Executor(compiled, machine, env).run(next(iter(compiled.subroutines)))
    assert result.mp is None


def _total(snapshot: dict, name: str) -> float:
    return sum(
        m["value"]
        for m in snapshot["metrics"]
        if m["name"] == name and "value" in m
    )


def test_mp_metrics_published(backend):
    before = REGISTRY.snapshot()
    w = FIGURES["fig1"]
    compiled = compile_program(
        w["source"], bindings=w["bindings"], processors=4,
        options=CompilerOptions(level=3, schedule="aggregate"),
    )
    _, stats, result = _run_mp(backend, compiled, w)
    after = REGISTRY.snapshot()
    for name, want in (
        ("repro.mp.exchanges", result.mp.exchanges),
        ("repro.mp.messages", result.mp.messages),
        ("repro.mp.bytes_moved", result.mp.bytes_moved),
    ):
        assert _total(after, name) - _total(before, name) == want, name
    rounds = [
        sum(m["count"] for m in snap["metrics"] if m["name"] == "repro.mp.phase_wall_seconds")
        for snap in (before, after)
    ]
    assert rounds[1] - rounds[0] == result.mp.phases > 0
    assert _total(after, "repro.mp.workers") == 4  # the module backend's pool


# ---------------------------------------------------------------------------
# the transport itself: arenas, wire rounds, discipline
# ---------------------------------------------------------------------------


def test_arena_allocates_aligned_and_coalesces():
    arena = SharedArena(1 << 12)
    a = arena.allocate(100)
    b = arena.allocate(100)
    assert a % 64 == 0 and b % 64 == 0 and b >= a + 100
    free_before = arena.free_bytes()
    arena.release(a, 100)
    arena.release(b, 100)
    assert arena.free_bytes() > free_before
    # released neighbours coalesce: the full arena is one extent again
    c = arena.allocate(1 << 12)
    assert c == 0
    arena.release(c, 1 << 12)
    arena.close()


def test_arena_exhaustion_raises():
    arena = SharedArena(1 << 10)
    with pytest.raises(TransportError, match="arena"):
        arena.allocate(1 << 20)
    arena.close()
    with pytest.raises(TransportError):
        SharedArena(0)


def test_failed_shared_array_construction_returns_its_blocks():
    """An arena one block too small on rank 2: the blocks already placed
    on ranks 0-1 go back, memory accounting included.  The machine accounts
    a version's blocks as one set before any storage is placed (all ranks
    or none), so the failed construction counts all four blocks allocated
    and all four freed -- not the two whose arena placement had succeeded,
    as it did when each block was accounted after its own placement."""
    procs = ProcessorArrangement("P", (4,))
    mapping = Mapping.simple((512,), (DistFormat.block(),), procs)  # 1 KiB a rank
    transport = MPTransport(4, arena_bytes=1 << 10)
    try:
        machine = Machine(procs)
        taken = transport.arenas[2].allocate(64)
        with pytest.raises(TransportError, match="arena exhausted"):
            SharedDistributedArray("A", mapping, machine, transport)
        assert [a.free_bytes() for a in transport.arenas] == [1 << 10, 1 << 10, (1 << 10) - 64, 1 << 10]
        assert [machine.mem_used(r) for r in range(4)] == [0] * 4
        assert machine.stats.allocations == machine.stats.frees == 4
        transport.arenas[2].release(taken, 64)
        whole = SharedDistributedArray("A", mapping, machine, transport)
        assert all(a.free_bytes() == 0 for a in transport.arenas)
        whole.free()
        assert all(a.free_bytes() == a.nbytes for a in transport.arenas)
    finally:
        transport.close()


def test_measured_phase_time_mirrors_cost_model():
    """If the measured per-message costs equal the modeled ones, the
    composed phase durations agree bit for bit -- one composer."""
    cost = CostModel()
    msgs = [(0, 1, 1000), (2, 3, 4000), (0, 3, 2000)]
    measured = [(s, d, cost.message_cost(n)) for s, d, n in msgs]
    for contended in (False, True):
        assert compose_phase(measured, contended) == cost.phase_time(msgs, contended=contended)
    assert compose_phase([], True) == 0.0


def _keep(t, rounds, sources, targets):
    """Keep hand-built rounds as a wire program of ``t`` (a new owner, so a
    new program, per call); ``sources``/``targets`` map each rank to the
    shape of its source/target block."""
    return t.program(object(), np.float64, lambda: (tuple(rounds), sources, targets))


def _part(src_ix, dst_ix, shape) -> WirePart:
    return WirePart(src_ix, dst_ix, shape, int(np.prod(shape)) * 8)


def _control_bytes() -> int:
    return REGISTRY.counter("repro.mp.control_bytes").value


def test_transport_moves_prescribed_bytes():
    """A hand-built round moves exactly the prescribed rectangle between
    two ranks' arenas (parent and workers share the mapping)."""
    with MPTransport(2, arena_bytes=1 << 16) as t:
        src_off, src = t.place_block(0, (4, 4), np.float64)
        dst_off, dst = t.place_block(1, (4, 4), np.float64)
        src[...] = np.arange(16, dtype=np.float64).reshape(4, 4)
        dst.fill(-1.0)
        ix = np.ix_([1, 2], [0, 3])
        program = _keep(
            t,
            [TransferRound((WireMessage(0, 1, (_part(ix, ix, (2, 2)),)),))],
            {0: (4, 4)},
            {1: (4, 4)},
        )
        report = t.exchange(program, {0: src_off}, {1: dst_off})
        assert report.messages == 1 and report.bytes == 32
        assert np.array_equal(dst[ix], src[ix])
        untouched = dst == -1.0
        assert untouched.sum() == 12  # nothing outside the rectangle moved
        t.release_block(0, src_off, src.nbytes)
        t.release_block(1, dst_off, dst.nbytes)


def test_kept_program_runs_over_any_blocks(tracer):
    """The ranks keep the program: its first exchange ships each rank its
    part, every later one only a handle and two block offsets -- over other
    blocks, at other offsets, the same rectangles move."""
    with MPTransport(2, arena_bytes=1 << 16) as t:
        ix = (slice(1, 3),)
        program = _keep(
            t,
            [TransferRound((WireMessage(0, 1, (_part(ix, ix, (2,)),)),))],
            {0: (4,)},
            {1: (4,)},
        )
        for trial in range(3):
            src_off, src = t.place_block(0, (4,), np.float64)
            dst_off, dst = t.place_block(1, (4,), np.float64)
            src[...] = np.arange(4) + 10.0 * trial
            dst.fill(-1.0)
            t.exchange(program, {0: src_off}, {1: dst_off})
            assert dst.tolist() == [-1.0, 10.0 * trial + 1, 10.0 * trial + 2, -1.0]
        spans = [s for s in tracer.finished_spans() if s.name == "mp.exchange"]
        assert [s.attrs["shipped"] for s in spans] == [2, 0, 0]
        assert all(s.attrs["control_bytes"] <= 2 * 64 for s in spans[1:])
        assert spans[0].attrs["control_bytes"] > spans[1].attrs["control_bytes"]
        # a program another transport kept is not this one's to run
        with MPTransport(2, arena_bytes=1 << 12) as other:
            with pytest.raises(TransportError, match="not kept by this transport"):
                other.exchange(program, {0: 0}, {1: 0})
        del src, dst  # drop the arena views before close


def test_ranks_sequence_rounds_without_a_barrier():
    """One control frame, many rounds: payloads larger than a pipe buffer,
    ranks that sit rounds out (and so run ahead of their peers), and the
    same ordered pair in consecutive rounds -- every rectangle arrives in
    its own round's slot of the receiver's target block and every round is
    reported."""
    n = 40_000  # 320 kB per message, five pipe buffers
    pairs_by_round = [
        [(0, 1)],
        [(0, 1), (2, 3)],
        [(1, 2), (3, 0)],
        [(2, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        [(1, 0), (3, 2)],
    ]
    slots = {rank: 0 for rank in range(4)}  # messages each rank receives
    rounds, landed = [], []  # landed: (src, dst, slot)
    for pairs in pairs_by_round:
        messages = []
        for src, dst in pairs:
            slot = slots[dst]
            slots[dst] += 1
            landed.append((src, dst, slot))
            part = _part((slice(0, n),), (slice(slot * n, (slot + 1) * n),), (n,))
            messages.append(WireMessage(src, dst, (part,)))
        rounds.append(TransferRound(tuple(messages), contended=False))
    with MPTransport(4, arena_bytes=1 << 23) as t:
        sources, targets = {}, {}
        for rank in range(4):
            off, view = t.place_block(rank, (n,), np.float64)
            view[...] = np.arange(n) + 1000.0 * rank
            sources[rank] = (off, view)
            off, view = t.place_block(rank, (slots[rank] * n,), np.float64)
            view.fill(-1.0)
            targets[rank] = (off, view)
        program = _keep(
            t,
            rounds,
            {rank: (n,) for rank in range(4)},
            {rank: (slots[rank] * n,) for rank in range(4)},
        )
        report = t.exchange(
            program,
            {rank: off for rank, (off, _) in sources.items()},
            {rank: off for rank, (off, _) in targets.items()},
        )
        for src, dst, slot in landed:
            got = targets[dst][1][slot * n : (slot + 1) * n]
            assert np.array_equal(got, sources[src][1])
        assert [r.messages for r in report.rounds] == [len(p) for p in pairs_by_round]
        assert report.bytes == sum(len(p) for p in pairs_by_round) * n * 8
        assert all(r.wall_seconds > 0.0 and r.port_seconds > 0.0 for r in report.rounds)
        assert report.wall_seconds > 0.0
        del sources, targets, got  # drop the arena views before close


def _unit_blocks(t, nprocs):
    """A 2-element source and a 4-element target block on every rank."""
    sources = {r: t.place_block(r, (2,), np.float64)[0] for r in range(nprocs)}
    targets = {r: t.place_block(r, (4,), np.float64)[0] for r in range(nprocs)}
    return sources, targets


def _unit_part(slot: int = 0) -> WirePart:
    return _part((np.array([0, 1]),), (np.array([2 * slot, 2 * slot + 1]),), (2,))


def test_contention_free_round_rejects_one_port_violation():
    """The transport applies the same one-port authority Machine.run_phase
    does, so a violating round raises the same ScheduleError -- when the
    program is built, before anything is shipped."""
    with MPTransport(3, arena_bytes=1 << 14) as t:
        sources, targets = _unit_blocks(t, 3)
        messages = (
            WireMessage(0, 2, (_unit_part(0),)),
            WireMessage(1, 2, (_unit_part(1),)),  # rank 2 receives twice
        )
        shapes = ({0: (2,), 1: (2,)}, {2: (4,)})
        before = _control_bytes()
        with pytest.raises(ScheduleError, match="receives twice"):
            _keep(t, [TransferRound(messages, contended=False)], *shapes)
        assert _control_bytes() == before and not t._programs
        # the same pair set is legal when declared contended
        program = _keep(t, [TransferRound(messages, contended=True)], *shapes)
        report = t.exchange(program, sources, targets)
        assert report.messages == 2


def test_local_copy_on_the_wire_is_rejected():
    with MPTransport(2, arena_bytes=1 << 14) as t:
        before = _control_bytes()
        with pytest.raises(TransportError, match="local copy"):
            _keep(
                t,
                [TransferRound((WireMessage(0, 0, (_unit_part(),)),), contended=True)],
                {0: (2,)},
                {0: (4,)},
            )
        assert _control_bytes() == before and not t._programs
        with pytest.raises(TransportError, match="holds no target block"):
            _keep(t, [TransferRound((WireMessage(0, 1, (_unit_part(),)),))], {0: (2,)}, {})


def test_worker_failure_surfaces_as_transport_error():
    """A prescription whose scatter cannot apply (payload shape does not
    match the destination rectangle) fails in the worker and surfaces as
    a TransportError, not as silent corruption."""
    with MPTransport(2, arena_bytes=1 << 14) as t:
        sources, targets = _unit_blocks(t, 2)
        bad = _part((np.array([0, 1]),), (np.array([0]),), (2,))  # 1 slot, 2 elements
        program = _keep(
            t, [TransferRound((WireMessage(0, 1, (bad,)),), contended=True)], {0: (2,)}, {1: (4,)}
        )
        with pytest.raises(TransportError, match="rank 1 failed"):
            t.exchange(program, sources, targets)


def test_misreported_round_raises_on_every_exchange():
    """The parent checks every report, not only the first program's: a
    rank whose kept program moves other bytes than the parent's
    prescription says fails the exchange it happens in."""
    with MPTransport(2, arena_bytes=1 << 14) as t:
        sources, targets = _unit_blocks(t, 2)
        program = _keep(
            t, [TransferRound((WireMessage(0, 1, (_unit_part(),)),))], {0: (2,)}, {1: (4,)}
        )
        t.exchange(program, sources, targets)
        t.exchange(program, sources, targets)
        (index, msgs, nbytes, recv_msgs, recv_bytes), = program._expect[0]
        program._expect[0] = ((index, msgs, nbytes + 8, recv_msgs, recv_bytes),)
        with pytest.raises(TransportError, match=r"rank 0 sent 1 message\(s\)/16 byte"):
            t.exchange(program, sources, targets)
        assert not t.alive()


def test_dead_worker_detected():
    t = MPTransport(2, arena_bytes=1 << 14)
    t.start()
    try:
        sources, targets = _unit_blocks(t, 2)
        program = _keep(
            t, [TransferRound((WireMessage(0, 1, (_unit_part(),)),))], {0: (2,)}, {1: (4,)}
        )
        os.kill(t._procs[1].pid, signal.SIGKILL)
        t._procs[1].join(timeout=5.0)
        with pytest.raises(TransportError):
            t.exchange(program, sources, targets)
    finally:
        t.close()


def test_closed_transport_rejects_exchanges():
    t = MPTransport(2, arena_bytes=1 << 14)
    program = _keep(t, [], {}, {})
    with pytest.raises(TransportError, match="not running"):
        t.exchange(program, {}, {})
    t.start()
    t.close()
    with pytest.raises(TransportError, match="not running"):
        t.exchange(program, {}, {})


def test_transport_rejects_bad_rank_count():
    with pytest.raises(TransportError):
        MPTransport(0)


# ---------------------------------------------------------------------------
# executor / backend plumbing
# ---------------------------------------------------------------------------


def test_mpexecutor_requires_matching_transport(backend):
    w = FIGURES["fig16"]
    compiled = compile_program(
        w["source"], bindings=w["bindings"], processors=4,
        options=CompilerOptions(level=3),
    )
    with pytest.raises(TransportError, match="requires"):
        MPExecutor(compiled, Machine(compiled.processors))
    two = compile_program(
        w["source"], bindings=w["bindings"], processors=2,
        options=CompilerOptions(level=3),
    )
    with pytest.raises(TransportError, match="worker rank"):
        MPExecutor(two, Machine(two.processors), transport=backend.transport)


def test_backend_reuse_and_transient_helper():
    """One backend survives many runs; execute_mp works standalone and
    its result's values stay readable after the workers are gone."""
    w = FIGURES["fig1"]
    compiled = compile_program(
        w["source"], bindings=w["bindings"], processors=4,
        options=CompilerOptions(level=3, schedule="naive"),
    )
    ref_values, _ = _run(compiled, w)
    env = lambda: ExecutionEnv(  # noqa: E731 - tiny local factory
        conditions={}, bindings=dict(w["bindings"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
    )
    with MPBackend(4) as b:
        r1 = b.execute(compiled, env=env())
        r2 = b.execute(compiled, env=env())
        for a in ref_values:
            assert np.array_equal(r1.value(a), ref_values[a])
            assert np.array_equal(r2.value(a), ref_values[a])
    r3 = execute_mp(compiled, env=env())
    for a in ref_values:
        assert np.array_equal(r3.value(a), ref_values[a])  # post-close reads


#: the contended family of ``benchmarks/bench_mp.py`` and the layered
#: benchmark's ``mp_exchange`` workload: block <-> cyclic(3), a write under
#: each mapping so both remappings of a trip move data
REMAP_SRC = """
subroutine remap(t)
  integer n, t
  real a(n)
!hpf$ dynamic a
!hpf$ distribute a(block)
  do i = 1, t
!hpf$   redistribute a(cyclic(3))
    compute "scale" writes a
!hpf$   redistribute a(block)
    compute "scale" writes a
  enddo
end
"""


def _scale(ctx) -> None:
    for block in ctx.darray("a").blocks.values():
        block *= 0.5
        block += 1.0


def _remap_request(policy, n, backend="mp", kernels=None, processors=4):
    return CompileRequest(
        REMAP_SRC,
        bindings={"n": n, "t": 1},
        inputs={"a": np.linspace(-1.0, 1.0, n)},
        kernels=kernels or {"scale": _scale},
        options=CompilerOptions(level=3, schedule=policy),
        processors=processors,
        backend=backend,
    )


def test_finished_runs_return_their_blocks_to_the_arena():
    """A reused backend must not leak a finished run's blocks: 300 runs of
    a program that needs 16 KiB per rank fit a 1 MiB arena only if every
    run -- one that raised mid-way included -- ends with the arenas free."""
    compiled = compile_program(
        REMAP_SRC,
        bindings={"n": 4096, "t": 1},
        processors=4,
        options=CompilerOptions(level=3, schedule="aggregate"),
    )

    def env(kernel):
        return ExecutionEnv(
            bindings={"n": 4096, "t": 1},
            inputs={"a": np.linspace(-1.0, 1.0, 4096)},
            kernels={"scale": kernel},
        )

    def boom(ctx):
        raise RuntimeError("kernel failed mid-run")

    with MPBackend(4, arena_bytes=1 << 20) as b:
        arenas = b.transport.arenas
        first = b.execute(compiled, env=env(_scale))
        expected = first.value("a")
        for _ in range(299):
            last = b.execute(compiled, env=env(_scale))
            assert all(a.free_bytes() == a.nbytes for a in arenas)
        with pytest.raises(RuntimeError, match="mid-run"):
            b.execute(compiled, env=env(boom))
        assert all(a.free_bytes() == a.nbytes for a in arenas)
        # results own their bytes: the first one survived 300 later runs
        assert np.array_equal(first.value("a"), expected)
        assert np.array_equal(last.value("a"), expected)


# ---------------------------------------------------------------------------
# the opt-in front doors: session.run and the service
# ---------------------------------------------------------------------------


def test_session_run_backend_mp_matches_sim():
    w = FIGURES["fig12-then"]
    session = CompilerSession(options=CompilerOptions(level=3, schedule="round-robin"))
    kw = dict(
        bindings=dict(w["bindings"]),
        conditions=dict(w["conditions"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
        processors=4,
    )
    sim = session.run(w["source"], **kw)
    mp = session.run(w["source"], backend="mp", **kw)
    assert mp.mp is not None and mp.mp.nprocs == 4
    for a in ("a", "b", "c"):
        assert np.array_equal(mp.value(a), sim.value(a)), a
    with pytest.raises(ValueError, match="unknown backend"):
        session.run(w["source"], backend="gpu", **kw)


def test_service_backend_mp_round_trip():
    w = FIGURES["fig16"]
    with CompileService(processors=4, workers=1) as svc:
        req = dict(
            source=w["source"],
            bindings=dict(w["bindings"]),
            inputs={k: v.copy() for k, v in w["inputs"].items()},
            options=CompilerOptions(level=3, schedule="aggregate"),
        )
        sim = svc.submit(CompileRequest(**req)).result()
        mp = svc.submit(CompileRequest(backend="mp", **req)).result()
        bad = svc.submit(CompileRequest(backend="quantum", **req)).result()
    assert sim.error is None and mp.error is None
    assert mp.result.mp is not None and mp.result.mp.messages > 0
    assert np.array_equal(mp.result.value("a"), sim.result.value("a"))
    assert isinstance(bad.error, ValueError)  # contained, not leaked


def _fig12_request(backend):
    w = FIGURES["fig12-then"]
    return CompileRequest(
        w["source"],
        bindings=dict(w["bindings"]),
        conditions=dict(w["conditions"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
        options=CompilerOptions(level=3, schedule="round-robin"),
        processors=4,
        backend=backend,
    )


def _assert_same_results(got, want, arrays, context):
    assert got.error is None and want.error is None, (context, got.error, want.error)
    for a in arrays:
        assert np.array_equal(got.result.value(a), want.result.value(a)), (context, a)
    assert got.result.stats.snapshot() == want.result.stats.snapshot(), context


def test_service_pooled_ranks_results_read_after_the_last_request():
    """The test a naive pool fails: every result is read only after all
    requests have run on the same ranks, and must still be the simulator's."""

    def requests(backend):
        return [
            _remap_request("round-robin", 384, backend),
            _remap_request("aggregate", 4096, backend),
            _remap_request("naive", 384, backend),
            _fig12_request(backend),
        ]

    arrays = [("a",), ("a",), ("a",), ("a", "b", "c")]
    workers_before = REGISTRY.gauge("repro.mp.workers").value
    with CompileService(workers=1) as svc:
        mp = [svc.run_batch([r])[0] for r in requests("mp") * 2]
        sim = [svc.run_batch([r])[0] for r in requests("sim")]
        pooled = svc._ranks[4].backend
        assert REGISTRY.gauge("repro.mp.workers").value == workers_before + 4
        assert all(a.free_bytes() == a.nbytes for a in pooled.transport.arenas)
    for i, got in enumerate(mp):
        assert got.result.mp is not None and got.result.mp.messages > 0
        _assert_same_results(got, sim[i % 4], arrays[i % 4], i)
    # close() took the ranks down (conftest's no_orphan_ranks checks the processes)
    assert not pooled.transport.alive()
    assert REGISTRY.gauge("repro.mp.workers").value == workers_before


def test_service_concurrent_mp_and_sim_requests_match_serial():
    """16 interleaved mp/sim requests over two processor counts on four
    service workers: each backend is one conversation at a time, and every
    result equals the serially executed simulator's."""
    policies = ("round-robin", "aggregate", "naive", None)
    batch = [
        _remap_request(
            policies[i % 4], 96 + 24 * (i % 3), "mp" if i % 2 else "sim", processors=4 - i // 8
        )
        for i in range(16)
    ]
    serial = [
        _remap_request(r.options.schedule, r.bindings["n"], "sim", processors=r.processors)
        for r in batch
    ]
    with CompileService(workers=1) as svc:
        want = svc.run_batch(serial)
    with CompileService(workers=4) as svc:
        got = svc.run_batch(batch)
        assert sorted(svc._ranks) == [3, 4]
    for i, (g, w) in enumerate(zip(got, want)):
        _assert_same_results(g, w, ("a",), i)


def _shipped() -> int:
    return REGISTRY.counter("repro.mp.programs_shipped").value


def test_rank_killed_between_requests_is_replaced():
    """The ranks keep the programs across requests; a replacement backend's
    table starts empty, so it ships every program again."""
    with CompileService(workers=1) as svc:
        want = svc.run_batch([_remap_request("round-robin", 384, "sim")])[0]
        before = _shipped()
        first = svc.run_batch([_remap_request("round-robin", 384)])[0]
        shipped = _shipped() - before
        warm = svc.run_batch([_remap_request("round-robin", 384)])[0]
        assert _shipped() - before == shipped > 0
        old = svc._ranks[4].backend
        victim = old.transport._procs[2]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        second = svc.run_batch([_remap_request("round-robin", 384)])[0]
        assert svc._ranks[4].backend is not old and not old.transport.alive()
        assert _shipped() - before == 2 * shipped
    _assert_same_results(first, want, ("a",), "before the kill")
    _assert_same_results(warm, want, ("a",), "warm")
    _assert_same_results(second, want, ("a",), "after the kill")


def _remap_env(n: int = 384) -> ExecutionEnv:
    return ExecutionEnv(
        bindings={"n": n, "t": 1},
        inputs={"a": np.linspace(-1.0, 1.0, n)},
        kernels={"scale": _scale},
    )


def _remap_compiled(policy: str, n: int = 384):
    return compile_program(
        REMAP_SRC,
        bindings={"n": n, "t": 1},
        processors=4,
        options=CompilerOptions(level=3, schedule=policy),
    )


def test_rank_killed_between_runs_of_one_plan_is_a_typed_error():
    """A rank dies between two runs of the same plans on one backend: the
    second run's first control frame finds no reader, so it ends in a
    TransportError at once with every rank gone; a replacement backend
    starts with no program, ships them again and reproduces the values."""
    compiled = _remap_compiled("round-robin")
    want = execute(compiled, env=_remap_env()).value("a")
    with MPBackend(4) as b:
        before = _shipped()
        first = b.execute(compiled, env=_remap_env()).value("a")
        shipped = _shipped() - before
        victim = b.transport._procs[2]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        t0 = time.perf_counter()
        with pytest.raises(TransportError):
            b.execute(compiled, env=_remap_env())
        assert time.perf_counter() - t0 < 2.0
        assert not b.transport.alive()
    with MPBackend(4) as fresh:
        before = _shipped()
        again = fresh.execute(compiled, env=_remap_env()).value("a")
        assert _shipped() - before == shipped > 0
    assert np.array_equal(first, want) and np.array_equal(again, want)


def test_frame_naming_a_handle_the_rank_does_not_hold_is_a_typed_error():
    """Rank 1 is told to forget its programs while the parent still counts
    them as shipped: the next frame names a handle the rank does not hold,
    the rank reports so (it does not die on a KeyError), the request ends in
    a TransportError and the next one is bit-identical on fresh ranks."""
    with CompileService(workers=1) as svc:
        want = svc.run_batch([_remap_request("round-robin", 384, "sim")])[0]
        first = svc.run_batch([_remap_request("round-robin", 384)])[0]
        transport = svc._ranks[4].backend.transport
        for program in transport._programs._entries.values():
            if 1 in program.ranks:
                transport._drops.setdefault(1, []).append(program.handle)
        t0 = time.perf_counter()
        faulted = svc.run_batch([_remap_request("round-robin", 384)])[0]
        assert time.perf_counter() - t0 < 2.0
        assert isinstance(faulted.error, TransportError), faulted.error
        assert "rank 1 failed: holds no wire program under handle" in str(faulted.error)
        assert not transport.alive()
        after = svc.run_batch([_remap_request("round-robin", 384)])[0]
    _assert_same_results(first, want, ("a",), "before the fault")
    _assert_same_results(after, want, ("a",), "after the fault")


@pytest.mark.parametrize(
    "torn",
    [
        struct.pack("<Q", 1 << 20) + b"torn",  # the rank waits for the rest
        struct.pack("<Q", 4) + b"torn",  # the rank cannot unpickle it
    ],
    ids=["short", "garbage"],
)
def test_torn_control_frame_is_a_typed_error(monkeypatch, torn):
    """A torn frame lands on rank 1's control pipe between two remappings
    of a request, on ranks with a 1 s timeout: the request ends in a
    TransportError within the bound, and the next is bit-identical."""
    from repro.runtime import mpbackend

    monkeypatch.setattr(mpbackend, "MPBackend", functools.partial(MPBackend, timeout=1.0))
    svc = CompileService(workers=1)
    try:
        torn_once = []

        def tear(ctx):
            if not torn_once:
                torn_once.append(True)
                os.write(svc._ranks[4].backend.transport._ctl_w[1], torn)
            _scale(ctx)

        want = svc.run_batch([_remap_request("round-robin", 384, "sim")])[0]
        svc.run_batch([_remap_request("round-robin", 384)])  # the programs are kept
        t0 = time.perf_counter()
        faulted = svc.run_batch([_remap_request("round-robin", 384, kernels={"scale": tear})])[0]
        assert time.perf_counter() - t0 < 3.0
        assert isinstance(faulted.error, TransportError), faulted.error
        after = svc.run_batch([_remap_request("round-robin", 384)])[0]
        _assert_same_results(after, want, ("a",), "after the fault")
    finally:
        svc.close()


def test_more_programs_than_the_cap_evict_the_oldest(monkeypatch):
    """Three requests of two plans each on a transport that keeps three
    programs, then the first again: the least recently used program is
    evicted, its ranks forget it (their next frame says so), it is shipped
    again on its next use, and every value matches the simulator."""
    compiled = {p: _remap_compiled(p) for p in ("round-robin", "aggregate", "naive")}
    want = {p: execute(c, env=_remap_env()).value("a") for p, c in compiled.items()}
    shipped = []
    with MPBackend(4) as b:
        t = b.transport
        monkeypatch.setattr(t._programs, "cap", 3)
        for policy in ("round-robin", "aggregate", "naive", "round-robin"):
            before = _shipped()
            got = b.execute(compiled[policy], env=_remap_env()).value("a")
            shipped.append(_shipped() - before)
            assert np.array_equal(got, want[policy]), policy
            assert len(t._programs) == 3 if shipped[1:] else 2
            for rank in range(4):
                _write_obj(t._ctl_w[rank], ("ping",))
            for rank, (_, _, held) in t._collect(range(4)).items():
                kept = {p.handle for p in t._programs._entries.values() if rank in p.ranks}
                assert set(held) == kept, (policy, rank)
    assert shipped[0] == shipped[3] == 8  # two programs, four ranks each


def test_rank_killed_mid_exchange_is_a_typed_error_and_the_pool_recovers():
    """A kernel SIGKILLs rank 1 before the second remapping: that request
    ends in a TransportError, promptly; the next one is served by fresh
    ranks; close() does not wait on anything wedged."""
    svc = CompileService(workers=1)
    try:

        def kill_rank_1(ctx):
            os.kill(svc._ranks[4].backend.transport._procs[1].pid, signal.SIGKILL)

        want = svc.run_batch([_remap_request("round-robin", 384, "sim")])[0]
        t0 = time.perf_counter()
        faulted = svc.run_batch(
            [_remap_request("round-robin", 384, kernels={"scale": kill_rank_1})]
        )[0]
        assert time.perf_counter() - t0 < 2.0
        assert isinstance(faulted.error, TransportError), faulted.error
        after = svc.run_batch([_remap_request("round-robin", 384)])[0]
        _assert_same_results(after, want, ("a",), "after the fault")
    finally:
        t0 = time.perf_counter()
        svc.close()
        assert time.perf_counter() - t0 < 1.0
