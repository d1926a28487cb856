"""Unit tests for the runtime descriptors and the memory manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeadCopyError, OutOfMemoryError, RuntimeRemapError
from repro.mapping import DistFormat, Mapping, ProcessorArrangement
from repro.runtime.memory import MemoryManager
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


def test_allocate_without_limit():
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


def test_a_released_version_is_revived_for_its_layout():
    """A freed heap version gives its accounting back and stays as the spare
    of its layout: the next version of that layout and dtype is the same
    object on the same buffer, accounted again and refilled."""
    machine = Machine(P4)
    mm = MemoryManager(machine)
    first = mm.allocate("a_0", mk_mapping())
    first.data[:] = 7.0
    buffer = first.data
    mm.release(first)
    assert first.freed and [machine.mem_used(r) for r in range(4)] == [0] * 4
    # another layout, or another dtype, builds its own version
    other = mm.allocate("a_1", mk_mapping(DistFormat.cyclic()))
    wide = mm.allocate("a_2", mk_mapping(), np.float32)
    assert first not in (other, wide)
    again = mm.allocate("b_0", mk_mapping())
    assert again is first and again.data is buffer and again.name == "b_0"
    assert not again.freed and np.all(again.data == 0.0)
    assert all(np.shares_memory(b, buffer) for b in again.blocks.values())
    assert again.total_local_bytes() == 16 * 8
    mm.release(again)
    poisoned = mm.allocate("b_1", mk_mapping(), poison=True)
    assert poisoned is first and np.all(np.isnan(poisoned.data))
    assert np.all(np.isnan(mm.allocate("c_0", mk_mapping(), poison=True).data))
    # a revived version is accounted exactly as a new one
    assert machine.stats.allocations == 6 * 4 and machine.stats.frees == 2 * 4
    assert [machine.mem_used(r) for r in range(4)] == [32 + 16 + 32 + 32] * 4
    mm.drop_spares()
    assert mm._spares == {}


def test_a_revived_version_that_does_not_fit_evicts_and_retries():
    machine = Machine(P4, memory_limit=64)
    mm = MemoryManager(machine, lambda: [(state, v) for v in (0, 1)])
    state = ArrayRuntime("a", [mk_mapping(), mk_mapping(DistFormat.cyclic())], memory=mm)
    state.insts[0] = mm.allocate("a_0", state.versions[0])
    state.insts[1] = mm.allocate("a_1", state.versions[1])
    state.live[:] = [True, True]
    state.status = 1
    spare = mm.allocate("b_0", mk_mapping(DistFormat.cyclic(2)))
    mm.release(spare)  # 32 + 32 on every rank: no room for its revival
    revived = mm.allocate("b_1", mk_mapping(DistFormat.cyclic(2)))
    assert revived is spare and revived.name == "b_1"
    assert machine.stats.evictions == 1
    assert state.insts[0] is None and not state.live[0]
    assert [machine.mem_used(r) for r in range(4)] == [64] * 4


def test_a_revived_version_without_room_is_an_error_that_keeps_the_spare():
    machine = Machine(P4, memory_limit=40)
    mm = MemoryManager(machine)
    spare = mm.allocate("a_0", mk_mapping())
    mm.release(spare)
    assert [machine.mem_used(r) for r in range(4)] == [0] * 4
    other = [(r, 16) for r in range(4)]
    machine.allocate_set("other", other)
    before = machine.stats.snapshot()
    with pytest.raises(OutOfMemoryError, match="no live copy is evictable"):
        mm.allocate("a_1", mk_mapping())
    assert spare.freed and machine.stats.snapshot() == before
    machine.free_set(other)
    assert [machine.mem_used(r) for r in range(4)] == [0] * 4
    assert mm.allocate("a_1", mk_mapping()) is spare


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
