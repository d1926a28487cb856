"""Unit tests for the runtime descriptors and the memory manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeadCopyError, OutOfMemoryError, RuntimeRemapError
from repro.mapping import DistFormat, Mapping, ProcessorArrangement
from repro.runtime.memory import MemoryManager, blocks_needed
from repro.runtime.status import ArrayRuntime
from repro.spmd import DistributedArray, Machine

P4 = ProcessorArrangement("P", (4,))


def mk_mapping(fmt=None):
    return Mapping.simple((16,), (fmt or DistFormat.block(),), P4)


def mk_state(machine=None, nversions=2):
    machine = machine or Machine(P4)
    versions = [mk_mapping(DistFormat.block()), mk_mapping(DistFormat.cyclic())][
        :nversions
    ]
    state = ArrayRuntime("a", versions)
    return state, machine


# ---------------------------------------------------------------------------
# ArrayRuntime
# ---------------------------------------------------------------------------


def test_initial_descriptor_all_dead():
    state, _ = mk_state()
    assert state.status == 0
    assert state.live == [False, False]
    assert state.insts == [None, None]
    assert state.live_versions() == []


def test_require_current_values_dead_raises():
    state, _ = mk_state()
    with pytest.raises(DeadCopyError):
        state.require_current_values()


def test_require_current_values_poisoned_raises():
    state, machine = mk_state()
    state.insts[0] = DistributedArray("a_0", state.versions[0], machine)
    state.live[0] = True
    state.poisoned = True
    with pytest.raises(DeadCopyError):
        state.require_current_values()


def test_mark_stale_siblings():
    state, machine = mk_state()
    state.live = [True, True]
    state.mark_stale_siblings(1)
    assert state.live == [False, True]


def test_free_version_respects_caller_ownership():
    state, machine = mk_state()
    inst = DistributedArray("a_0", state.versions[0], machine)
    state.insts[0] = inst
    state.live[0] = True
    state.caller_owned.add(0)
    freed = state.free_version(0)
    assert freed == 0  # not actually freed
    assert state.insts[0] is inst  # storage intact
    assert not state.live[0]  # but marked dead


def test_free_version_releases_memory():
    state, machine = mk_state()
    inst = DistributedArray("a_0", state.versions[0], machine)
    state.insts[0] = inst
    state.live[0] = True
    before = machine.mem_used(0)
    freed = state.free_version(0)
    assert freed > 0
    assert machine.mem_used(0) < before
    assert state.insts[0] is None


def test_live_copies_consistency_check():
    state, machine = mk_state()
    for v in (0, 1):
        state.insts[v] = DistributedArray(f"a_{v}", state.versions[v], machine)
        state.insts[v].scatter_from_global(np.arange(16.0))
        state.live[v] = True
    assert state.check_live_copies_consistent()
    state.insts[1].set((3,), 99.0)
    assert not state.check_live_copies_consistent()


# ---------------------------------------------------------------------------
# MemoryManager
# ---------------------------------------------------------------------------


def test_blocks_needed_per_rank():
    needed = blocks_needed(mk_mapping(), Machine(P4), 8)
    assert needed == {0: 32, 1: 32, 2: 32, 3: 32}


def test_allocate_without_limit(monkeypatch):
    # no limit to test a budget against: the per-rank ``needed`` map is not built
    monkeypatch.setattr("repro.runtime.memory.blocks_needed", None)
    machine = Machine(P4)
    mm = MemoryManager(machine)
    inst = mm.allocate("a_0", mk_mapping())
    assert inst.total_local_bytes() == 16 * 8
    assert [machine.mem_used(r) for r in range(4)] == [32] * 4


def test_allocate_evicts_largest_candidate():
    machine = Machine(P4, memory_limit=80)
    state, _ = mk_state(machine)
    mm = MemoryManager(machine, lambda: [(state, v) for v in (0, 1)])
    # fill both versions: 32 + 32 = 64 <= 80
    state.insts[0] = mm.allocate("a_0", state.versions[0])
    state.live[0] = True
    state.insts[1] = mm.allocate("a_1", state.versions[1])
    state.live[1] = True
    state.status = 1
    # a third allocation (32) exceeds the limit: version 0 must be evicted
    third = mm.allocate("a_2", mk_mapping(DistFormat.cyclic(2)))
    assert machine.stats.evictions == 1
    assert state.insts[0] is None and not state.live[0]
    assert third.total_local_bytes() == 128


def test_allocate_never_evicts_current_or_caller_owned():
    machine = Machine(P4, memory_limit=40)
    state, _ = mk_state(machine)
    mm = MemoryManager(machine, lambda: [(state, v) for v in (0, 1)])
    state.insts[0] = mm.allocate("a_0", state.versions[0])
    state.live[0] = True
    state.status = 0  # current: not evictable
    with pytest.raises(OutOfMemoryError):
        mm.allocate("a_1", state.versions[1])


def test_condition_sequences_and_callables():
    from repro.runtime.executor import ExecutionEnv

    env = ExecutionEnv(conditions={"a": [True, False], "b": True, "c": lambda: False})
    assert env.condition("a") is True
    assert env.condition("a") is False
    with pytest.raises(RuntimeRemapError):
        env.condition("a")  # exhausted
    assert env.condition("b") is True
    assert env.condition("c") is False
    with pytest.raises(RuntimeRemapError):
        env.condition("missing")


def test_executor_machine_size_mismatch():
    from repro import ExecutionEnv, Executor, compile_program

    compiled = compile_program(
        "subroutine s()\n  real A(8)\n  compute reads A\nend\n",
        processors=4,
    )
    with pytest.raises(RuntimeRemapError):
        Executor(compiled, Machine(3), ExecutionEnv())
