"""The traffic oracle: compile-time predictions vs. executed ground truth.

:func:`repro.spmd.traffic.predict_traffic` dry-runs the compiled program's
runtime ops over abstract array descriptors; the executor's
:meth:`ExecutionResult.observed_traffic` measures the real thing.  With
default kernels and no memory limit the two must agree -- the contract
asserted here is agreement within 10% on every quantity, and (stronger,
because the simulator mirrors the executor's descriptor logic exactly)
bit-equal byte, message and phase counts, and makespans equal to
summation order, on the paper figures and the three workload generators,
unscheduled and under every schedule policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CompilerOptions,
    ExecutionEnv,
    Executor,
    Machine,
    compile_program,
    predict_traffic,
)
from repro.apps.workloads import (
    branchy_subroutine,
    chain_subroutine,
    loopy_subroutine,
)
from repro.compiler.pipeline import PassManager
from repro.spmd.schedule import POLICIES
from repro.spmd.traffic import enumerate_scenarios, estimate_range
from test_symbolic import CASES, FIG1, FIG12

N = 16

#: the paper's Fig. 1 / 12 (both branches) / 16 programs, then the three
#: workload generators
WORKLOADS = {
    **{name: case(N) for name, case in CASES.items()},
    "chain": dict(
        source=chain_subroutine(6, 3),
        bindings={},
        conditions={},
        inputs={f"a{i}": np.arange(16.0) + i for i in range(3)},
    ),
    "branchy": dict(
        source=branchy_subroutine(5, 2),
        bindings={},
        conditions={"c0": True, "c1": False, "c2": True, "c3": False},
        inputs={f"a{i}": np.arange(16.0) + i for i in range(2)},
    ),
    "loopy": dict(
        source=loopy_subroutine(2),
        bindings={"t": 3},
        conditions={},
        inputs={"a": np.arange(16.0)},
    ),
}


def _observe(w, level, schedule=None):
    compiled = compile_program(
        w["source"],
        bindings=w["bindings"] or None,
        processors=4,
        options=CompilerOptions(level=level, schedule=schedule),
    )
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions=dict(w["conditions"]),
        bindings=dict(w["bindings"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
    )
    name = next(iter(compiled.subroutines))
    result = Executor(compiled, machine, env).run(name)
    predicted = predict_traffic(
        compiled,
        entry=name,
        conditions=w["conditions"],
        bindings=w["bindings"],
        inputs=frozenset(w["inputs"]),
    )
    return predicted, result.observed_traffic()


#: workload x level x (unscheduled + every policy); the unscheduled ids
#: stay ``workload-level``
GRID = [
    pytest.param(
        workload,
        level,
        schedule,
        id=f"{workload}-{level}" + (f"-{schedule}" if schedule else ""),
    )
    for workload in sorted(WORKLOADS)
    for level in (0, 1, 2, 3)
    for schedule in (None, *POLICIES)
]


@pytest.mark.parametrize("workload, level, schedule", GRID)
def test_predicted_vs_observed_within_tolerance(workload, level, schedule):
    predicted, observed = _observe(WORKLOADS[workload], level, schedule)
    for key in ("bytes", "messages", "local_bytes", "local_copies", "status_checks"):
        p, o = getattr(predicted, key), getattr(observed, key)
        assert abs(p - o) <= 0.1 * max(o, 1), (
            f"{workload} level {level} {schedule}: predicted {key}={p}, observed {o}"
        )
    # stronger than the 10% contract: the simulator mirrors the executor's
    # descriptor machinery and prices each copy by its plan's own ledger,
    # so these workloads predict exactly, phased or not
    assert predicted.bytes == observed.bytes
    assert predicted.messages == observed.messages
    assert predicted.status_checks == observed.status_checks
    assert predicted.phases == observed.phases
    if schedule is not None and observed.messages:
        assert observed.phases > 0
    # the two sum the same phase durations in a different order
    assert predicted.makespan == pytest.approx(observed.makespan, rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# the traffic-estimate pass surfaces predictions without executing
# ---------------------------------------------------------------------------


def test_traffic_estimate_pass_records_ranges_and_counters():
    pipeline = PassManager.build(
        [
            "parse",
            "motion",
            "resolve",
            "construction",
            "remove-useless",
            "live-copies",
            "status-checks",
            "codegen",
            "traffic-estimate",
        ]
    )
    compiled = pipeline.compile(FIG12, bindings={"n": N, "m": 3}, processors=4)
    rng = compiled.report.traffic["remap"]
    assert rng.scenarios >= 2  # both c1 outcomes at least
    assert rng.lo.dominated_by(rng.hi)
    assert compiled.trace.counter("traffic-estimate", "predicted_bytes_max") == rng.hi.bytes
    assert "predicted traffic" in compiled.report.summary()

    # both branch outcomes are inside the predicted range
    for name in ("fig12-then", "fig12-else"):
        _, observed = _observe(WORKLOADS[name], 3)
        assert rng.lo.bytes <= observed.bytes <= rng.hi.bytes


def test_traffic_estimate_pass_via_options():
    opts = CompilerOptions(
        passes=(
            "parse", "resolve", "construction", "status-checks",
            "codegen", "traffic-estimate",
        )
    )
    compiled = compile_program(FIG1, bindings={"n": N}, processors=4, options=opts)
    assert "traffic-estimate" in compiled.trace.pass_names
    assert compiled.report.traffic


# ---------------------------------------------------------------------------
# scenario enumeration
# ---------------------------------------------------------------------------


def _constructions(source, bindings):
    compiled = compile_program(source, bindings=bindings, processors=4)
    return {n: cs.construction for n, cs in compiled.subroutines.items()}


def test_enumerate_scenarios_covers_branches_and_trips():
    cons = _constructions(FIG12, {"n": N, "m": 3})
    scenarios = enumerate_scenarios(cons, "remap", bindings={"n": N, "m": 3})
    # one condition (c1) x inputs-live variation, m is bound: 4 scenarios
    assert len(scenarios) == 4
    assert {s.conditions["c1"] for s in scenarios} == {False, True}

    # with m unbound at compile time, the trip axis adds zero/one/many choices
    cons_free = _constructions(FIG12, {"n": N})
    scenarios = enumerate_scenarios(cons_free, "remap", bindings={"n": N})
    trips = {s.bindings["m"] for s in scenarios}
    assert trips == {0, 1, 3}


def test_enumerate_scenarios_caps_deterministically():
    src_lines = ["subroutine main()", "  integer n", "  real A(n)",
                 "!hpf$ dynamic A", "!hpf$ distribute A(block)"]
    for i in range(8):  # 2^8 condition assignments > the cap
        src_lines += [f"  if c{i} then", "!hpf$   redistribute A(cyclic)",
                      "    compute reads A", "!hpf$   redistribute A(block)",
                      "  endif"]
    src_lines += ["  compute reads A", "end"]
    cons = _constructions("\n".join(src_lines), {"n": 16})
    a = enumerate_scenarios(cons, "main", bindings={"n": 16}, max_scenarios=32)
    b = enumerate_scenarios(cons, "main", bindings={"n": 16}, max_scenarios=32)
    assert len(a) <= 33  # cap plus the forced far corner
    assert [s.describe() for s in a] == [s.describe() for s in b]


def test_estimate_range_bounds_are_ordered():
    compiled = compile_program(FIG12, bindings={"n": N, "m": 3}, processors=4)
    cons = {n: cs.construction for n, cs in compiled.subroutines.items()}
    codes = {n: cs.code for n, cs in compiled.subroutines.items()}
    rng = estimate_range(cons, codes, "remap", bindings={"n": N, "m": 3})
    assert rng.lo.dominated_by(rng.hi)
    assert rng.hi.bytes > 0
