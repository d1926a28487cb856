"""Experiment SCHED: communication-schedule policies across machine sizes.

For a family of classic redistribution patterns (block<->cyclic,
cyclic<->cyclic with different block sizes, 2-D transpose) and machine
sizes, build the exact transfer schedule and phase it under each policy:
``naive`` (all rectangles at once, ports contended), ``round-robin``
(contention-free one-port rounds) and ``aggregate`` (per-pair packed
messages, then round-robin).

The shape asserted, on every benchmarked redistribution:

* round-robin makespan <= naive makespan (phasing never loses),
* aggregation never increases the message count (and never changes bytes),
* executed traffic is identical across policies (bytes, data values).

Results are written machine-readable to ``BENCH_schedule.json`` (or the
shared ``--json PATH`` flag) so the perf trajectory is recorded:
per pattern x machine size, the message counts, phase counts and makespans
of all three policies.

``BENCH_SCHEDULE_SIZES`` (comma-separated processor counts) shrinks or
grows the sweep for CI smoke runs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis.commsafety import certify_plan

from repro.mapping import DistFormat, Mapping, ProcessorArrangement
from repro.spmd import (
    CostModel,
    DistributedArray,
    Machine,
    build_comm_schedule,
    build_schedule,
    redistribute,
)
from repro.mapping.ownership import layout_of

SIZES = tuple(
    int(s) for s in os.environ.get("BENCH_SCHEDULE_SIZES", "4,8,16").split(",")
)
POLICIES = ("naive", "round-robin", "aggregate")
COST = CostModel()
ITEMSIZE = 8


def _patterns(nprocs: int):
    """Redistribution patterns scaled to the machine size."""
    p = ProcessorArrangement("P", (nprocs,))
    n = 16 * nprocs
    b, c1 = DistFormat.block(), DistFormat.cyclic()
    c2, c3 = DistFormat.cyclic(2), DistFormat.cyclic(3)
    star = DistFormat.star()
    return {
        "block->cyclic": (
            Mapping.simple((n,), (b,), p),
            Mapping.simple((n,), (c1,), p),
        ),
        "block->cyclic(2)": (
            Mapping.simple((n,), (b,), p),
            Mapping.simple((n,), (c2,), p),
        ),
        "cyclic->cyclic(3)": (
            Mapping.simple((n,), (c1,), p),
            Mapping.simple((n,), (c3,), p),
        ),
        "transpose2d": (
            Mapping.simple((n, n), (b, star), p),
            Mapping.simple((n, n), (star, b), p),
        ),
    }


def _measure(src: Mapping, dst: Mapping) -> dict:
    redist = build_schedule(layout_of(src), layout_of(dst))
    out: dict[str, dict] = {}
    executed_bytes: set[int] = set()
    values: list[np.ndarray] = []
    for policy in POLICIES:
        plan = build_comm_schedule(redist, policy)
        plan.validate()
        procs = src.processors
        machine = Machine(procs)
        s = DistributedArray("A", src, machine)
        d = DistributedArray("A", dst, machine)
        data = np.arange(float(np.prod(src.shape))).reshape(src.shape)
        s.scatter_from_global(data)
        redistribute(s, d, machine, policy=policy, plan=plan)
        values.append(d.gather_to_global())
        executed_bytes.add(machine.stats.bytes)
        out[policy] = {
            "messages": plan.message_count,
            "phases": plan.phase_count,
            "makespan_us": plan.makespan(COST, ITEMSIZE) * 1e6,
            "bytes": machine.stats.bytes,
            "elapsed_us": machine.elapsed * 1e6,
        }
    # identical traffic and identical delivered values across policies
    assert len(executed_bytes) == 1
    for v in values[1:]:
        assert np.array_equal(values[0], v)
    return out


def _measure_verified_fast_path(nprocs: int, repeats: int = 30) -> dict:
    """Warm-replay cost of a plan with and without the static safety stamp.

    ``Machine.run_phase`` re-validates one-port safety (O(messages) per
    phase) unless the plan was proven safe at compile time
    (:mod:`repro.analysis.commsafety`).  Replaying the same redistribution
    through a certified and an uncertified copy of the *same* plan
    isolates exactly that validation cost -- traffic must be identical.
    """
    src, dst = _patterns(nprocs)["cyclic->cyclic(3)"]
    redist = build_schedule(layout_of(src), layout_of(dst))
    plan = build_comm_schedule(redist, "round-robin")
    certified = certify_plan(src, dst, plan)
    assert certified.statically_verified, "fast-path plan failed certification"
    data = np.arange(float(np.prod(src.shape))).reshape(src.shape)

    def replay(p) -> tuple[float, int, int, np.ndarray]:
        machine = Machine(src.processors)
        s = DistributedArray("A", src, machine)
        d = DistributedArray("A", dst, machine)
        s.scatter_from_global(data)
        t0 = time.perf_counter()
        for _ in range(repeats):
            redistribute(s, d, machine, policy="round-robin", plan=p)
        dt = time.perf_counter() - t0
        return dt, machine.stats.bytes, machine.stats.messages, d.gather_to_global()

    # interleave would be fairer still, but a single warmup replay of each
    # suffices to take import/alloc noise out of the comparison
    replay(plan), replay(certified)
    slow_s, slow_bytes, slow_msgs, slow_vals = replay(plan)
    fast_s, fast_bytes, fast_msgs, fast_vals = replay(certified)
    assert slow_bytes == fast_bytes
    assert slow_msgs == fast_msgs
    assert np.array_equal(slow_vals, fast_vals)
    return {
        "pattern": f"cyclic->cyclic(3)@P{nprocs}",
        "repeats": repeats,
        "unverified_us": slow_s * 1e6,
        "verified_us": fast_s * 1e6,
        "speedup": slow_s / fast_s if fast_s > 0 else 1.0,
        "bytes": fast_bytes,
        "messages": fast_msgs,
    }


def test_schedule_policies_across_machine_sizes(benchmark, bench_json):
    results: dict[str, dict] = {}
    for nprocs in SIZES:
        for name, (src, dst) in _patterns(nprocs).items():
            r = _measure(src, dst)
            results[f"{name}@P{nprocs}"] = r
            # the performance invariants, on every benchmarked redistribution
            assert r["round-robin"]["makespan_us"] <= r["naive"]["makespan_us"]
            assert r["aggregate"]["messages"] <= r["round-robin"]["messages"]
            assert r["aggregate"]["bytes"] == r["round-robin"]["bytes"]

    fast_path = _measure_verified_fast_path(max(SIZES))

    path = bench_json("BENCH_schedule.json", {
        "experiment": "schedule-policies",
        "sizes": list(SIZES),
        "cost_model": {"alpha": COST.alpha, "beta": COST.beta},
        "results": results,
        "verified_fast_path": fast_path,
    })

    # ratio summaries skip zero-traffic cases (P=1 sweeps are purely local)
    speedups = [
        results[k]["naive"]["makespan_us"] / results[k]["round-robin"]["makespan_us"]
        for k in results
        if results[k]["round-robin"]["makespan_us"] > 0
    ] or [1.0]
    saved = [
        1.0 - results[k]["aggregate"]["messages"] / results[k]["round-robin"]["messages"]
        for k in results
        if results[k]["round-robin"]["messages"] > 0
    ] or [0.0]

    small = _patterns(SIZES[0])["block->cyclic"]
    benchmark(lambda: _measure(*small))
    benchmark.extra_info.update(
        {
            "json_path": path,
            "cases": len(results),
            "rr_speedup_min": round(min(speedups), 3),
            "rr_speedup_max": round(max(speedups), 3),
            "agg_msg_reduction_max": round(max(saved), 3),
            "verified_fast_path_speedup": round(fast_path["speedup"], 3),
        }
    )
