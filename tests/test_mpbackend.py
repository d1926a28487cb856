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

import os
import signal
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
from repro.spmd.cost import CostModel
from repro.spmd.transport import (
    MPTransport,
    SharedArena,
    SharedDistributedArray,
    TransferRound,
    WireMessage,
    WirePart,
    fork_available,
    measured_phase_time,
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
    """``repro.machine.phases`` / ``phase_seconds`` are fed pre-binned, one
    locked add per charged plan; after every figure x policy on both backends
    they hold what feeding every phase duration through ``observe`` one at a
    time leaves: buckets, count, min and max ``==``, the sum to rel 1e-12."""
    from repro.obs.metrics import Counter, Histogram
    from repro.spmd import machine as machine_module

    phases = Counter("repro.machine.phases")
    seconds = Histogram("repro.machine.phase_seconds")
    monkeypatch.setattr(machine_module, "_M_PHASES", phases)
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
    assert phases.value == got["count"] == len(durations) > 100
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
    totals; the ranks sequence the rounds, so there is no per-round span."""
    w = FIGURES["fig16"]
    compiled = compile_program(
        w["source"],
        bindings=w["bindings"],
        processors=4,
        options=CompilerOptions(level=3, schedule="round-robin"),
    )
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
    composed phase durations must agree exactly -- same formula."""
    cost = CostModel()
    msgs = [(0, 1, 1000), (2, 3, 4000), (0, 3, 2000)]
    measured = [(s, d, cost.message_cost(n)) for s, d, n in msgs]
    for contended in (False, True):
        assert measured_phase_time(measured, contended) == pytest.approx(
            cost.phase_time(msgs, contended=contended)
        )
    assert measured_phase_time([], True) == 0.0


def test_transport_moves_prescribed_bytes():
    """A hand-built round moves exactly the prescribed rectangle between
    two ranks' arenas (parent and workers share the mapping)."""
    with MPTransport(2, arena_bytes=1 << 16) as t:
        src_off, src = t.place_block(0, (4, 4), np.float64)
        dst_off, dst = t.place_block(1, (4, 4), np.float64)
        src[...] = np.arange(16, dtype=np.float64).reshape(4, 4)
        dst.fill(-1.0)
        ix = np.ix_([1, 2], [0, 3])
        part = WirePart(
            src_block=(src_off, (4, 4), "<f8"),
            dst_block=(dst_off, (4, 4), "<f8"),
            src_ix=ix,
            dst_ix=ix,
            shape=(2, 2),
            nbytes=4 * 8,
        )
        report = t.exchange(
            (TransferRound((WireMessage(0, 1, (part,)),), contended=False),)
        )
        assert report.messages == 1 and report.bytes == 32
        assert np.array_equal(dst[ix], src[ix])
        untouched = dst == -1.0
        assert untouched.sum() == 12  # nothing outside the rectangle moved
        t.release_block(0, src_off, src.nbytes)
        t.release_block(1, dst_off, dst.nbytes)


def test_ranks_sequence_rounds_without_a_barrier():
    """One control frame, many rounds: payloads larger than a pipe buffer,
    ranks that sit rounds out (and so run ahead of their peers), and the
    same ordered pair in consecutive rounds -- every rectangle arrives in
    its own round's destination and every round is reported."""
    n = 40_000  # 320 kB per message, five pipe buffers
    pairs_by_round = [
        [(0, 1)],
        [(0, 1), (2, 3)],
        [(1, 2), (3, 0)],
        [(2, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        [(1, 0), (3, 2)],
    ]
    with MPTransport(4, arena_bytes=1 << 22) as t:
        sources = {}
        for rank in range(4):
            off, view = t.place_block(rank, (n,), np.float64)
            view[...] = np.arange(n) + 1000.0 * rank
            sources[rank] = (off, view)
        rounds, landed = [], []
        for pairs in pairs_by_round:
            messages = []
            for src, dst in pairs:
                off, view = t.place_block(dst, (n,), np.float64)
                view.fill(-1.0)
                landed.append((src, view))
                part = WirePart(
                    src_block=(sources[src][0], (n,), "<f8"),
                    dst_block=(off, (n,), "<f8"),
                    src_ix=(slice(0, n),),
                    dst_ix=(slice(0, n),),
                    shape=(n,),
                    nbytes=n * 8,
                )
                messages.append(WireMessage(src, dst, (part,)))
            rounds.append(TransferRound(tuple(messages), contended=False))
        report = t.exchange(rounds)
        for src, view in landed:
            assert np.array_equal(view, sources[src][1])
        assert [r.messages for r in report.rounds] == [len(p) for p in pairs_by_round]
        assert report.bytes == sum(len(p) for p in pairs_by_round) * n * 8
        assert all(r.wall_seconds > 0.0 and r.port_seconds > 0.0 for r in report.rounds)
        assert report.wall_seconds > 0.0
        del landed, sources, view  # drop the arena views before close


def _unit_part(t, src_rank, dst_rank):
    src_off, src = t.place_block(src_rank, (2,), np.float64)
    dst_off, dst = t.place_block(dst_rank, (2,), np.float64)
    ix = (np.array([0, 1]),)
    return WirePart(
        src_block=(src_off, (2,), "<f8"),
        dst_block=(dst_off, (2,), "<f8"),
        src_ix=ix,
        dst_ix=ix,
        shape=(2,),
        nbytes=16,
    )


def test_contention_free_round_rejects_one_port_violation():
    """The transport applies the same one-port authority Machine.run_phase
    does, so a violating round raises the same ScheduleError."""
    with MPTransport(3, arena_bytes=1 << 14) as t:
        messages = (
            WireMessage(0, 2, (_unit_part(t, 0, 2),)),
            WireMessage(1, 2, (_unit_part(t, 1, 2),)),  # rank 2 receives twice
        )
        with pytest.raises(ScheduleError, match="receives twice"):
            t.exchange((TransferRound(messages, contended=False),))
        # the same pair set is legal when declared contended
        report = t.exchange((TransferRound(messages, contended=True),))
        assert report.messages == 2


def test_local_copy_on_the_wire_is_rejected():
    with MPTransport(2, arena_bytes=1 << 14) as t:
        part = _unit_part(t, 0, 0)
        with pytest.raises(TransportError, match="local copy"):
            t.exchange((TransferRound((WireMessage(0, 0, (part,)),), contended=True),))


def test_worker_failure_surfaces_as_transport_error():
    """A prescription whose scatter cannot apply (payload shape does not
    match the destination rectangle) fails in the worker and surfaces as
    a TransportError, not as silent corruption."""
    with MPTransport(2, arena_bytes=1 << 14) as t:
        good = _unit_part(t, 0, 1)
        bad = WirePart(
            src_block=good.src_block,
            dst_block=good.dst_block,
            src_ix=good.src_ix,
            dst_ix=(np.array([0]),),  # 1 slot for a 2-element payload
            shape=(2,),
            nbytes=16,
        )
        with pytest.raises(TransportError, match="rank 1 failed"):
            t.exchange((TransferRound((WireMessage(0, 1, (bad,)),), contended=True),))


def test_dead_worker_detected():
    t = MPTransport(2, arena_bytes=1 << 14)
    t.start()
    try:
        part = _unit_part(t, 0, 1)
        os.kill(t._procs[1].pid, signal.SIGKILL)
        t._procs[1].join(timeout=5.0)
        with pytest.raises(TransportError):
            t.exchange((TransferRound((WireMessage(0, 1, (part,)),), contended=True),))
    finally:
        t.close()


def test_closed_transport_rejects_exchanges():
    t = MPTransport(2, arena_bytes=1 << 14)
    with pytest.raises(TransportError, match="not running"):
        t.exchange(())
    t.start()
    t.close()
    with pytest.raises(TransportError, match="not running"):
        t.exchange(())


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


def test_rank_killed_between_requests_is_replaced():
    with CompileService(workers=1) as svc:
        want = svc.run_batch([_remap_request("round-robin", 384, "sim")])[0]
        first = svc.run_batch([_remap_request("round-robin", 384)])[0]
        old = svc._ranks[4].backend
        victim = old.transport._procs[2]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        second = svc.run_batch([_remap_request("round-robin", 384)])[0]
        assert svc._ranks[4].backend is not old and not old.transport.alive()
    _assert_same_results(first, want, ("a",), "before the kill")
    _assert_same_results(second, want, ("a",), "after the kill")


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
