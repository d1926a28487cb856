"""One walker for the Sec. 5 runtime: the executor and the traffic
simulator are two sets of hooks under the same
:class:`~repro.remap.walker.DescriptorWalker`.

Pinned here:

* **same walk** -- driven as ``Executor`` or as ``TrafficSimulator``, the
  walker makes the same ordered allocate/copy/compute hook calls;
* **hygiene** -- the walker module pulls in neither NumPy nor the spmd,
  runtime or compiler packages;
* **one condition resolver** -- a callable condition predicts as it runs;
* **harness contract** -- wrapping the copy functions the executor module
  imported by name (as ``benchmarks/layers/probes.py::PATCHES`` does) still
  intercepts every performed copy.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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
from repro.apps.workloads import random_environment, random_legal_subroutine
from repro.runtime import executor as executor_module
from repro.runtime.mpbackend import MPBackend, MPExecutor
from repro.spmd.traffic import Scenario, TrafficSimulator
from repro.spmd.transport import fork_available
from test_schedule import FIGURES


class HookLog:
    """Records the walker's data-plane hook calls, then performs them."""

    def __init__(self, *args, **kwargs):
        self.calls: list[tuple] = []
        super().__init__(*args, **kwargs)

    def _allocate(self, state, version, poison):
        self.calls.append(("allocate", state.name, version, poison))
        return super()._allocate(state, version, poison)

    def _remap_copy(self, state, src, leaving, tag):
        self.calls.append(("copy", state.name, src, leaving))
        return super()._remap_copy(state, src, leaving, tag)

    def _compute(self, frame, stmt):
        self.calls.append(("compute", id(stmt)))
        return super()._compute(frame, stmt)


class LoggedExecutor(HookLog, Executor):
    pass


class LoggedSimulator(HookLog, TrafficSimulator):
    pass


def hook_calls_both_ways(source, bindings, conditions, inputs, level):
    compiled = compile_program(
        source, bindings=bindings, processors=4, options=CompilerOptions(level=level)
    )
    entry = next(iter(compiled.subroutines))
    env = ExecutionEnv(conditions=conditions, bindings=bindings, inputs=inputs)
    ex = LoggedExecutor(compiled, Machine(compiled.processors), env)
    ex.run(entry)
    subs = compiled.subroutines
    sim = LoggedSimulator(
        {name: cs.construction for name, cs in subs.items()},
        {name: cs.code for name, cs in subs.items()},
        Scenario(conditions=conditions, bindings=bindings, inputs=frozenset(inputs)),
    )
    sim.run(entry)
    return ex.calls, sim.calls


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figures_same_hook_sequence_as_executor_and_simulator(name, level):
    w = FIGURES[name]
    as_executor, as_simulator = hook_calls_both_ways(
        w["source"], w["bindings"], w["conditions"], w["inputs"], level
    )
    assert as_executor == as_simulator
    assert any(call[0] == "compute" for call in as_executor)


def test_workload_seeds_same_hook_sequence_as_executor_and_simulator():
    copies = 0
    for seed in range(51):
        rng = np.random.default_rng(seed)
        program = random_legal_subroutine(rng, n_arrays=3, length=8, depth=2)
        conditions, inputs = random_environment(rng, n_arrays=3)
        for level in (0, 1, 2, 3):
            as_executor, as_simulator = hook_calls_both_ways(
                program, {}, conditions, inputs, level
            )
            assert as_executor == as_simulator, (seed, level)
            copies += sum(call[0] == "copy" for call in as_executor)
    assert copies > 0


def test_walker_module_imports_no_data_plane():
    """Loaded past the eager package ``__init__``s, the walker brings in
    only the language, effects and codegen modules it is written against."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = f"""
import sys, types
for name, path in (("repro", "{src}/repro"), ("repro.remap", "{src}/repro/remap")):
    pkg = types.ModuleType(name)
    pkg.__path__ = [path]
    sys.modules[name] = pkg
import repro.remap.walker
heavy = ("numpy", "repro.spmd", "repro.runtime", "repro.compiler")
print(sorted(m for m in sys.modules if m.startswith(heavy)))
"""
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_callable_condition_predicts_as_it_runs():
    w = FIGURES["fig12-then"]
    compiled = compile_program(w["source"], bindings=w["bindings"], processors=4)
    flips = iter([True])
    predicted = predict_traffic(
        compiled,
        conditions={"c1": lambda: next(flips)},
        bindings=w["bindings"],
        inputs=set(w["inputs"]),
    )
    env = ExecutionEnv(
        conditions={"c1": lambda: True}, bindings=w["bindings"], inputs=w["inputs"]
    )
    observed = Executor(compiled, Machine(compiled.processors), env).run("remap")
    assert predicted.bytes == observed.stats.bytes > 0
    assert predicted.messages == observed.stats.messages


# ---------------------------------------------------------------------------
# the layered benchmark's contract with the executor
# ---------------------------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Wrap, the way the harness does, the executor module's reference to
    the copy function and the mp executor's movement hook; each call is
    logged with the policy of the plan it was handed."""
    calls: dict[str, list] = {}

    def wrap(owner, attr, plan_at):
        fn = getattr(owner, attr)

        def call(*args, **kwargs):
            calls.setdefault(attr, []).append(args[plan_at].policy)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, call)

    wrap(executor_module, "execute_comm_schedule", 0)
    wrap(MPExecutor, "_run_plan", 1)  # args[0] is the executor
    return calls


def run_fig16(policy, backend=None):
    w = FIGURES["fig16"]
    compiled = compile_program(
        w["source"],
        bindings=w["bindings"],
        processors=4,
        options=CompilerOptions(level=0, schedule=policy),
    )
    env = ExecutionEnv(bindings=w["bindings"], inputs=w["inputs"])
    if backend is not None:
        return backend.execute(compiled, env=env)
    return executor_module.execute(compiled, env=env)


def test_harness_wrappers_see_every_scheduled_copy(counted):
    for policy in ("naive", "round-robin", "aggregate"):
        counted.clear()
        result = run_fig16(policy)
        assert counted == {"execute_comm_schedule": [policy] * result.stats.remaps_performed}
        assert result.stats.remaps_performed == 10 and result.fusion.replays == 0


def test_harness_wrappers_see_every_unscheduled_copy(counted):
    result = run_fig16(None)
    assert counted == {"execute_comm_schedule": [None] * result.stats.remaps_performed}
    assert result.stats.remaps_performed == 10 and result.fusion.replays == 0


@pytest.mark.skipif(not fork_available(), reason="mp transport requires fork")
def test_harness_wrappers_see_every_mp_copy(counted):
    policies = (None, "naive", "round-robin", "aggregate")
    with MPBackend(4) as backend:
        results = [run_fig16(policy, backend) for policy in policies]
    assert all(r.stats.remaps_performed == 10 and r.fusion.replays == 0 for r in results)
    assert counted == {"_run_plan": [p for p in policies for _ in range(10)]}
