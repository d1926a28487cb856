"""End-to-end tests: compile + execute on the simulated machine.

These are the paper's claims made executable: values survive arbitrary
remapping chains, useless remappings cost nothing after optimization, live
copies are reused without communication, statuses are restored around
calls, and the naive baseline always agrees numerically while paying more.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import (
    CompilerOptions,
    CompilerSession,
    ExecutionEnv,
    Executor,
    Machine,
    compile_program,
)
from repro.apps.figures import FIG1, FIG2, FIG10, FIG13, FIG15, FIG16, FIG16_READ_ONLY, RUNS
from repro.errors import DeadCopyError
from repro.obs import REGISTRY, snapshot_diff
from repro.runtime.executor import default_kernel
from repro.runtime.memory import SPARES_PER_LAYOUT, MemoryManager
from repro.spmd import DistributedArray
from repro.spmd.schedule import POLICIES
from test_schedule import _env


def run(
    src: str,
    sub: str | None = None,
    level: int = 3,
    conditions=None,
    bindings=None,
    inputs=None,
    nprocs: int = 4,
    check_invariants: bool = True,
    kernels=None,
    schedule=None,
):
    bindings = {"n": 16, **(bindings or {})}
    compiled = compile_program(
        src,
        bindings=bindings,
        processors=nprocs,
        options=CompilerOptions(level=level, schedule=schedule),
    )
    name = sub or next(iter(compiled.subroutines))
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions=conditions or {},
        bindings=bindings,
        inputs=inputs or {},
        check_invariants=check_invariants,
        kernels=kernels or {},
    )
    result = Executor(compiled, machine, env).run(name)
    return result, machine, compiled


SIMPLE = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ redistribute A(cyclic)
  compute writes A reads A
!hpf$ redistribute A(block)
  compute reads A
end
"""


def test_values_survive_remapping_chain():
    data = np.arange(16.0)
    result, machine, _ = run(SIMPLE, inputs={"a": data})
    # default kernel: A = 0.5*A + sum(A)*1e-3 + 1 at the middle compute
    acc = data.sum() * 1e-3
    expected = 0.5 * data + acc + 1.0
    assert np.allclose(result.value("a"), expected)
    assert machine.stats.remaps_performed >= 1


def test_naive_and_optimized_agree_numerically():
    data = np.linspace(-1, 1, 16)
    r0, m0, _ = run(SIMPLE, level=0, inputs={"a": data})
    r3, m3, _ = run(SIMPLE, level=3, inputs={"a": data})
    assert np.allclose(r0.value("a"), r3.value("a"))
    # the optimized version cannot move more data
    assert m3.stats.bytes <= m0.stats.bytes


def test_useless_remap_costs_nothing_optimized():
    src = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ redistribute A(cyclic)
!hpf$ redistribute A(block)
  compute reads A
end
"""
    _, m_naive, _ = run(src, level=0, inputs={"a": np.ones(16)})
    _, m_opt, _ = run(src, level=3, inputs={"a": np.ones(16)})
    assert m_naive.stats.messages > 0
    assert m_opt.stats.messages == 0
    assert m_opt.stats.remaps_performed == 0

    # Fig. 1: a realign immediately followed by a redistribute is two
    # copies of A through an unused intermediate mapping when compiled
    # naively, one direct copy after removal
    inputs = {"a": np.arange(256.0).reshape(16, 16), "b": np.ones((16, 16))}
    _, m_naive, _ = run(FIG1, level=0, inputs=inputs)
    _, m_opt, _ = run(FIG1, level=3, inputs=inputs)
    assert m_naive.stats.remaps_performed == m_opt.stats.remaps_performed + 1
    assert m_opt.stats.bytes < m_naive.stats.bytes

    # Fig. 2: C follows its template out and back without being referenced
    # (no bytes for C at all); B is read in between, so it goes out once
    # and comes back onto its still-live original copy
    inputs = {"b": np.ones((16, 16)), "c": np.arange(256.0).reshape(16, 16)}
    _, m_naive, _ = run(FIG2, level=0, inputs=inputs)
    _, m_opt, _ = run(FIG2, level=3, inputs=inputs)
    assert m_naive.stats.remaps_performed == 4  # B and C, out and back
    assert m_opt.stats.remaps_performed == 1
    assert m_opt.stats.remaps_skipped_live == 1
    assert not any(k.startswith("c_") for k in m_opt.stats.per_array_bytes)


def test_live_copy_reused_without_communication():
    src = """
subroutine main(m)
  integer n, m
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  do i = 1, m
!hpf$   redistribute A(cyclic)
    compute reads A
!hpf$   redistribute A(block)
    compute reads A
  enddo
end
"""
    _, m2, _ = run(src, level=2, bindings={"m": 5}, inputs={"a": np.ones(16)})
    # A is only read inside the loop, so copy 0 never goes stale: the very
    # first block->cyclic copy is the ONLY communication; every other
    # remapping (including the first cyclic->block) reuses a live copy
    assert m2.stats.remaps_performed == 1
    assert m2.stats.remaps_skipped_live == 9
    _, m0, _ = run(src, level=0, bindings={"m": 5}, inputs={"a": np.ones(16)})
    assert m0.stats.remaps_performed == 10
    assert m0.stats.bytes == 10 * m2.stats.bytes
    # Sec. 4.3's "inexpensive check": on the modeled machine clock the nine
    # skipped remappings cost far less than the copies they avoid
    assert m2.elapsed < m0.elapsed / 5


def test_status_check_skips_noop_remap():
    src = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ redistribute A(cyclic)
  compute reads A
!hpf$ redistribute A(cyclic)
  compute reads A
end
"""
    _, m1, compiled = run(src, level=1, inputs={"a": np.ones(16)})
    # the second redistribute is statically known to be a no-op: no vertex
    assert m1.stats.remaps_performed == 1


def test_flow_dependent_live_copy_fig13():
    data = np.arange(256.0).reshape(16, 16)
    # else path: A only read under the temporary mapping; the original block
    # copy is still live, so the final remapping back is free
    _, m_else, _ = run(FIG13, level=2, conditions={"c": False}, inputs={"a": data})
    # then path: A written under the temporary mapping; copy 0 is stale and
    # the final remapping must communicate
    _, m_then, _ = run(FIG13, level=2, conditions={"c": True}, inputs={"a": data})
    assert m_else.stats.remaps_skipped_live == 1
    assert m_then.stats.remaps_skipped_live == 0
    assert m_then.stats.remaps_performed > m_else.stats.remaps_performed
    assert m_then.stats.bytes > m_else.stats.bytes


def test_fig13_numerics_match_naive_on_both_paths():
    # A is written after the remapping back, so its values flow out
    src = FIG13.replace("  compute reads A\nend", "  compute writes A reads A\nend")
    data = np.arange(256.0).reshape(16, 16)
    for c in (True, False):
        r0, _, _ = run(src, level=0, conditions={"c": c}, inputs={"a": data})
        r3, _, _ = run(src, level=3, conditions={"c": c}, inputs={"a": data})
        assert np.allclose(r0.value("a"), r3.value("a"))


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------

CALLS = """
subroutine foo(X)
  integer n
  real X(n)
  intent in X
!hpf$ distribute X(cyclic)
  compute "read_x" reads X
end

subroutine bump(X)
  integer n
  real X(n)
  intent inout X
!hpf$ distribute X(cyclic)
  compute "bump_x" writes X
end

subroutine main()
  integer n
  real Y(n)
!hpf$ dynamic Y
!hpf$ distribute Y(block)
  compute writes Y
  call foo(Y)
  call foo(Y)
  call bump(Y)
  compute reads Y
end
"""


def bump_kernel(ctx):
    ctx.set_value("x", ctx.value("x") + 1.0)


def test_call_storage_handoff_and_restore():
    data = np.arange(16.0)
    result, machine, _ = run(
        CALLS,
        sub="main",
        inputs={"y": data},
        kernels={"bump_x": bump_kernel, "read_x": lambda ctx: None},
    )
    base = 0.5 * data + 1.0  # main's first compute ("writes Y", no reads)
    assert np.allclose(result.value("y"), base + 1.0)  # + bump in callee
    assert result.status("y") == 0  # restored to the declared mapping


def test_fig4_no_traffic_between_consecutive_calls():
    data = np.arange(16.0)
    _, m_opt, _ = run(
        CALLS,
        sub="main",
        level=3,
        inputs={"y": data},
        kernels={"bump_x": bump_kernel, "read_x": lambda ctx: None},
    )
    _, m_naive, _ = run(
        CALLS,
        sub="main",
        level=0,
        inputs={"y": data},
        kernels={"bump_x": bump_kernel, "read_x": lambda ctx: None},
    )
    # naive: 3 x (copy-in + copy-back) = 6 copies; optimized: copy-in once,
    # stay cyclic across all three calls, copy-back once at the end
    assert m_naive.stats.remaps_performed == 6
    assert m_opt.stats.remaps_performed == 2
    assert m_opt.stats.bytes < m_naive.stats.bytes

    # the paper's own Fig. 4 has only intent(in) callees: the block copy
    # stays live across all three calls, so the final copy back is free too
    all_in = CALLS.replace("call bump(Y)", "call foo(Y)")
    kernels = {"read_x": lambda ctx: None}
    _, m_opt, _ = run(all_in, sub="main", level=3, inputs={"y": data}, kernels=kernels)
    _, m_naive, _ = run(all_in, sub="main", level=0, inputs={"y": data}, kernels=kernels)
    assert m_naive.stats.remaps_performed == 6
    assert m_opt.stats.remaps_performed == 1
    assert m_opt.stats.remaps_skipped_live == 1
    assert m_opt.stats.bytes * 6 == m_naive.stats.bytes


def test_restore_after_ambiguous_reaching_mapping_fig15_naive():
    """Paper Fig. 15/18: the call is legal despite the ambiguous reaching
    mapping (v_b resolves it); the save/restore re-establishes it after the
    call.  At level 0 the restore really executes on the path taken."""
    data = np.arange(16.0)
    for c in (True, False):
        result, machine, _ = run(
            FIG15,
            sub="main",
            level=0,
            conditions={"c": c},
            inputs={"a": data},
            kernels={"touch": lambda ctx: ctx.set_value("x", ctx.value("x") * 2)},
        )
        base = 0.5 * data + 1.0  # "writes A" has no reads
        assert np.allclose(result.value("a"), base * 2)


def test_fig15_restore_removed_when_unused():
    """With restriction 1 in force, an ambiguous restore can never be
    referenced before the next remapping, so Appendix C always removes it:
    the array stays in the dummy mapping and the next remapping copies
    directly from it."""
    data = np.arange(16.0)
    kernels = {"touch": lambda ctx: ctx.set_value("x", ctx.value("x") * 2)}
    for c in (True, False):
        result, machine, compiled = run(
            FIG15,
            sub="main",
            level=3,
            conditions={"c": c},
            inputs={"a": data},
            kernels=kernels,
        )
        base = 0.5 * data + 1.0
        assert np.allclose(result.value("a"), base * 2)
        # naive pays the restore + pin; optimized goes dummy -> block directly
        _, m0, _ = run(
            FIG15,
            sub="main",
            level=0,
            conditions={"c": c},
            inputs={"a": data},
            kernels=kernels,
        )
        assert machine.stats.remaps_performed < m0.stats.remaps_performed
    from repro.ir.cfg import NodeKind

    g = compiled.get("main").graph
    vas = [v for v in g.vertices.values() if v.kind is NodeKind.CALL_AFTER]
    assert vas and all("a" in v.removed for v in vas if "a" in v.S)


def test_intent_out_copy_in_elided():
    src = """
subroutine init(X)
  integer n
  real X(n)
  intent out X
!hpf$ distribute X(cyclic)
  compute "fill" defines X
end

subroutine main()
  integer n
  real Y(n)
!hpf$ dynamic Y
!hpf$ distribute Y(block)
  compute writes Y
  call init(Y)
  compute reads Y
end
"""
    result, machine, _ = run(
        src,
        sub="main",
        inputs={"y": np.zeros(16)},
        kernels={"fill": lambda ctx: ctx.set_value("x", np.full(16, 7.0))},
    )
    assert np.allclose(result.value("y"), 7.0)
    # copy-in at v_b has U = D: allocated without communication
    assert machine.stats.remaps_dead_copy >= 1


# ---------------------------------------------------------------------------
# kill directive
# ---------------------------------------------------------------------------


def test_kill_elides_copy_and_poisons():
    src = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ kill A
!hpf$ redistribute A(cyclic)
  compute defines A
  compute reads A
end
"""
    data = np.arange(16.0)
    r, m, _ = run(src, inputs={"a": data})
    assert m.stats.messages == 0  # the remapping moved no values
    assert not r.poisoned("a")  # the define revived the array

    # a full redefinition needs no directive (U = D is derived from the
    # effects) ...
    no_kill = src.replace("!hpf$ kill A\n", "")
    _, m, _ = run(no_kill, inputs={"a": data})
    assert m.stats.bytes == 0 and m.stats.remaps_dead_copy == 1
    # ... the directive matters when the next statement only *partially*
    # writes A as far as the effects can tell (proper effect W: the old
    # values must be shipped) but the user knows it covers everything
    kernels = {"overwrite": lambda ctx: ctx.set_value("a", np.full(16, 2.5))}
    partial = src.replace("compute defines A", 'compute "overwrite" writes A')
    r_kill, m_kill, _ = run(partial, inputs={"a": data}, kernels=kernels)
    r_plain, m_plain, _ = run(
        partial.replace("!hpf$ kill A\n", ""), inputs={"a": data}, kernels=kernels
    )
    assert m_plain.stats.bytes > 0
    assert m_kill.stats.bytes == 0 and m_kill.stats.remaps_dead_copy == 1
    assert np.array_equal(r_plain.value("a"), r_kill.value("a"))


def test_registry_counts_every_decided_remap_dead_ones_included(monkeypatch):
    """``repro.runtime.remaps_performed + remaps_skipped`` is every
    remapping the walker decides: a copy dead on arrival (``U = D``) is
    skipped, not lost between the two."""
    src = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ redistribute A(cyclic)
  compute defines A
!hpf$ redistribute A(block)
  compute reads A
end
"""
    decided = []
    real = Executor._remapped

    def counting(self, state, outcome):
        decided.append(outcome)
        real(self, state, outcome)

    monkeypatch.setattr(Executor, "_remapped", counting)
    before = REGISTRY.snapshot()
    _, m, _ = run(src, inputs={"a": np.arange(16.0)})
    delta = {
        d["name"]: d["delta"]
        for d in snapshot_diff(before, REGISTRY.snapshot())["diff"]
        if d["name"].startswith("repro.runtime.remaps_")
    }
    assert m.stats.remaps_dead_copy == 1 and m.stats.remaps_performed == 1
    performed = delta.get("repro.runtime.remaps_performed", 0)
    assert performed + delta.get("repro.runtime.remaps_skipped", 0) == len(decided) == 2


def test_read_after_kill_detected():
    src = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A
!hpf$ kill A
!hpf$ redistribute A(cyclic)
  compute reads A
end
"""
    with pytest.raises(DeadCopyError):
        run(src, inputs={"a": np.ones(16)})


# ---------------------------------------------------------------------------
# loops / motion
# ---------------------------------------------------------------------------


def test_fig16_motion_reduces_dynamic_remaps():
    t = 6
    _, m3, _ = run(FIG16, level=3, bindings={"t": t}, inputs={"a": np.ones(16)})
    _, m0, _ = run(FIG16, level=0, bindings={"t": t}, inputs={"a": np.ones(16)})
    # the paper's exact claim (Sec. 4.3): naive pays 2t dynamic remappings;
    # after sinking the trailing restore, the loop-top remapping only fires
    # at the first iteration ("the runtime will notice the array is already
    # mapped as required"), so 2t becomes 2: one copy in, one sunk copy out
    assert m0.stats.remaps_performed == 2 * t
    assert m3.stats.remaps_performed == 2
    assert m3.stats.remaps_skipped_status == t - 1
    assert m3.stats.bytes * t == m0.stats.bytes
    r3, _, _ = run(FIG16, level=3, bindings={"t": t}, inputs={"a": np.ones(16)})
    r0, _, _ = run(FIG16, level=0, bindings={"t": t}, inputs={"a": np.ones(16)})
    assert np.allclose(r0.value("a"), r3.value("a"))


def test_fig16_read_only_loop_remaps_twice_total():
    t = 6
    _, m3, _ = run(FIG16_READ_ONLY, level=3, bindings={"t": t}, inputs={"a": np.ones(16)})
    # read-only body: after motion + live copies, iteration 1 pays one copy,
    # later iterations skip via status/liveness, the sunk restore is free
    assert m3.stats.remaps_performed == 1
    assert m3.stats.remaps_skipped_live + m3.stats.remaps_skipped_status >= t


def test_zero_trip_loop():
    _, m, _ = run(FIG16, level=3, bindings={"t": 0}, inputs={"a": np.ones(16)})
    # no iteration: the only dynamic remapping is the sunk one, which is a
    # status no-op (A is still block)
    assert m.stats.remaps_performed == 0
    # Fig. 12: C is only used under the loop's mappings, so its
    # instantiation is delayed into the loop and never happens at zero trips
    inputs = {"a": np.ones((8, 8))}
    for m_trips, c_moves in ((0, False), (2, True)):
        _, m, _ = run(FIG10, level=3, bindings={"n": 8, "m": m_trips},
                      conditions={"c1": True}, inputs=inputs)
        assert any(k.startswith("c_") for k in m.stats.per_array_bytes) == c_moves


BRANCHY_LOOP = """
subroutine main()
  integer n, t
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute defines A
  do i = 1, t
    if c1 then
!hpf$   redistribute A(cyclic)
    else
!hpf$   redistribute A(cyclic(2))
    endif
!hpf$ redistribute A(block)
    compute writes A reads A
  enddo
  compute reads A
end
"""

NESTED = """
subroutine main()
  integer n, t, u
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute defines A
  do i = 1, t
    do j = 1, u
!hpf$ redistribute A(cyclic)
      compute writes A reads A
!hpf$ redistribute A(block)
      compute writes A reads A
    enddo
    compute reads A
  enddo
end
"""

#: name -> (source, run() keywords, naive remaps_performed counted by hand)
LOOP_PROGRAMS = {
    # the branch flips every trip: each trip copies out to one of the two
    # cyclic mappings and back
    "branchy-alternating": (
        BRANCHY_LOOP,
        dict(bindings={"t": 10}, conditions={"c1": [bool(i % 2) for i in range(10)]}),
        2 * 10,
    ),
    "nested-zero-trip-inner": (NESTED, dict(bindings={"t": 6, "u": 0}), 0),
    "nested": (NESTED, dict(bindings={"t": 5, "u": 4}), 2 * 5 * 4),
    **{
        # naive remaps the whole aligned family: A and B at the branch (C
        # holds nothing yet), then A, B and C twice per trip
        f"fig12-{policy or 'unscheduled'}": (
            FIG10,
            dict(
                bindings={"n": 8, "m": 10},
                conditions={"c1": True},
                inputs={"a": np.linspace(0.0, 1.0, 64).reshape(8, 8)},
                schedule=policy,
            ),
            2 + 2 * 3 * 10,
        )
        for policy in (None, *POLICIES)
    },
}


@pytest.mark.parametrize("name", sorted(LOOP_PROGRAMS))
def test_loop_programs_optimized_matches_naive(name):
    src, kw, naive_remaps = LOOP_PROGRAMS[name]
    r0, m0, _ = run(src, level=0, **kw)  # run() checks live-copy invariants
    r3, m3, _ = run(src, level=3, **kw)
    assert np.array_equal(r0.value("a"), r3.value("a"))
    assert m0.stats.remaps_performed == naive_remaps
    assert m3.stats.bytes <= m0.stats.bytes
    assert m3.stats.remaps_performed <= naive_remaps


# ---------------------------------------------------------------------------
# level ablation
# ---------------------------------------------------------------------------

#: every optimization at once: a useless out-and-back (Fig. 2), an aligned
#: family with partial use (Fig. 3), consecutive intent(in) calls (Fig. 4),
#: a read-only loop (Fig. 16) and a flow-dependent live copy (Fig. 13)
MIXED = """
subroutine stage(X)
  integer n
  real X(n)
  intent in X
!hpf$ distribute X(cyclic)
  compute "consume" reads X
end

subroutine main(t)
  integer n, t
  real A(n), B(n), U(n), V(n)
!hpf$ template T(n)
!hpf$ align with T :: U, V
!hpf$ dynamic A, B, U, V
!hpf$ distribute A(block)
!hpf$ distribute B(block)
!hpf$ distribute T(block)
  compute writes A, U reads B
!hpf$ redistribute B(cyclic)
!hpf$ redistribute B(block)
  compute reads B
!hpf$ redistribute T(cyclic)
  compute reads U
  call stage(A)
  call stage(A)
  do i = 1, t
!hpf$   redistribute A(cyclic(2))
    compute reads A
!hpf$   redistribute A(block)
  enddo
  if c then
!hpf$   redistribute B(cyclic(4))
    compute writes B
  else
!hpf$   redistribute B(cyclic(2))
    compute reads B
  endif
!hpf$ redistribute B(cyclic)
  compute reads A, B, U
end
"""


def test_each_level_buys_something_on_the_mixed_program():
    """Level 1 adds removal + status checks (Appendix C), level 2 dynamic
    live copies (Appendix D), level 3 loop-invariant motion (Fig. 16/17)."""
    rows, values = {}, {}
    for level in (0, 1, 2, 3):
        r, m, _ = run(
            MIXED,
            sub="main",
            level=level,
            bindings={"n": 64, "t": 6},
            conditions={"c": False},
            inputs={k: np.arange(64.0) for k in "abuv"},
            kernels={"consume": lambda ctx: ctx.value("x")},
        )
        rows[level] = m.stats.snapshot()
        values[level] = {a: r.value(a) for a in "abuv"}
    for level in (1, 2, 3):
        for a in "abuv":
            assert np.array_equal(values[0][a], values[level][a])
    assert rows[1]["bytes"] < rows[0]["bytes"]  # removal
    assert rows[2]["bytes"] < rows[1]["bytes"]  # live copies
    assert rows[3]["remaps_performed"] <= rows[2]["remaps_performed"]
    assert rows[3]["bytes"] <= rows[2]["bytes"]
    assert rows[3]["bytes"] < rows[0]["bytes"] / 2


#: remaps performed and bytes moved at levels 0..3, P = 4, per standard run
#: of :mod:`repro.apps.figures` (Fig. 1 at n = 16, Fig. 12 at n = 16, m = 3,
#: Fig. 16 at n = 16, t = 5)
WHAT_EACH_LEVEL_BUYS = {
    "fig1": [(3, 4608), (2, 3072), (2, 3072), (2, 3072)],
    "fig12-then": [(20, 30720), (13, 19968), (9, 13824), (9, 13824)],
    "fig12-else": [(20, 29696), (12, 17920), (7, 10240), (7, 10240)],
    "fig16": [(10, 960), (10, 960), (6, 576), (2, 192)],
}


@pytest.mark.parametrize("name", sorted(WHAT_EACH_LEVEL_BUYS))
def test_what_each_level_buys_on_the_figures(name):
    """The paper's optimizations counted exactly on its own programs:
    removal and status checks (level 1), live copies (level 2) and motion
    (level 3) each cut what the previous level performed, and every level
    computes the same values."""
    rows, values = [], []
    for level in (0, 1, 2, 3):
        w = RUNS[name]()
        session = CompilerSession(4, CompilerOptions(level=level))
        result = session.run(
            w["source"], bindings=w["bindings"], conditions=w["conditions"], inputs=w["inputs"]
        )
        snapshot = result.stats.snapshot()
        rows.append((snapshot["remaps_performed"], snapshot["bytes"]))
        values.append({a: result.value(a) for a in w["inputs"]})
    assert rows == WHAT_EACH_LEVEL_BUYS[name]
    for level in (1, 2, 3):
        for a, value in values[0].items():
            assert np.array_equal(values[level][a], value), (level, a)


# ---------------------------------------------------------------------------
# memory pressure
# ---------------------------------------------------------------------------


EVICTING_LOOP = """
subroutine main(m)
  integer n, m
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  do i = 1, m
!hpf$   redistribute A(cyclic)
    compute reads A
!hpf$   redistribute A(cyclic(2))
    compute reads A
!hpf$   redistribute A(block)
    compute reads A
  enddo
end
"""


def test_memory_eviction_regenerates_copy():
    bindings = {"n": 16, "m": 3}
    compiled = compile_program(
        EVICTING_LOOP, bindings=bindings, processors=4, options=CompilerOptions(level=2)
    )
    # three versions are worth keeping (read-only loop), but there is room
    # for just over two copies per processor (copy = 4 elements * 8B = 32B):
    # the runtime must evict a live copy and regenerate it later
    machine = Machine(compiled.processors, memory_limit=72)
    env = ExecutionEnv(bindings=bindings, inputs={"a": np.arange(16.0)})
    result = Executor(compiled, machine, env).run("main")
    assert machine.stats.evictions > 0
    assert machine.mem_peak() <= 72
    # values still correct despite evictions
    data = np.arange(16.0)
    expected = 0.5 * data + 1.0  # written once before the loop, then only read
    assert np.allclose(result.value("a"), expected)
    # an unconstrained machine performs fewer copies (no regeneration)
    m_free = Machine(compiled.processors)
    env2 = ExecutionEnv(bindings=bindings, inputs={"a": np.arange(16.0)})
    Executor(compiled, m_free, env2).run("main")
    assert m_free.stats.remaps_performed <= machine.stats.remaps_performed
    assert m_free.stats.evictions == 0


def test_memory_limit_exceeded_without_candidates():
    src = """
subroutine main()
  integer n
  real A(n), B(n)
!hpf$ distribute A(block)
!hpf$ distribute B(block)
  compute writes A, B
end
"""
    from repro.errors import OutOfMemoryError

    compiled = compile_program(src, bindings={"n": 64}, processors=2)
    machine = Machine(compiled.processors, memory_limit=100)  # < 2 arrays
    with pytest.raises(OutOfMemoryError):
        Executor(compiled, machine, ExecutionEnv()).run("main")


# ---------------------------------------------------------------------------
# array version recycling
# ---------------------------------------------------------------------------

SWAP_LOOP = """
subroutine main(t)
  integer n, m, t
  real A(n), B(m)
!hpf$ dynamic A, B
!hpf$ distribute A(block)
!hpf$ distribute B(cyclic)
  compute writes A, B
  do i = 1, t
!hpf$   redistribute A(cyclic)
!hpf$   redistribute B(block)
    compute writes A, B reads A, B
!hpf$   redistribute A(block)
!hpf$   redistribute B(cyclic)
    compute writes A, B reads A, B
  enddo
end
"""

def no_recycling(monkeypatch) -> None:
    """Every freed version is simply freed, as before versions were recycled."""
    monkeypatch.setattr(MemoryManager, "release", lambda self, inst: inst.free())


def count_new_buffers(monkeypatch) -> list:
    """Record the array and layout of every buffer a version builds."""
    built: list = []
    new_buffer = DistributedArray._new_buffer

    def counted(self):
        built.append((self.name.rsplit("_", 1)[0], self.mapping.signature))
        return new_buffer(self)

    monkeypatch.setattr(DistributedArray, "_new_buffer", counted)
    return built


def observed(compiled, env, machine=None):
    machine = machine or Machine(compiled.processors)
    name = next(iter(compiled.subroutines))
    result = Executor(compiled, machine, env).run(name)
    values = {a: result.value(a) for a in compiled.get(name).sub.arrays}
    return values, machine.stats.snapshot(), machine.mem_peak()


def assert_same_observations(got, want):
    assert got[0].keys() == want[0].keys()
    for a in want[0]:
        assert np.array_equal(got[0][a], want[0][a], equal_nan=True), a
    assert got[1] == want[1]
    assert got[2] == want[2]


def test_a_remapping_loop_builds_one_buffer_per_layout(monkeypatch):
    """16 trips of block <-> cyclic on two arrays perform 64 copies but
    build at most one buffer per layout of each array: every later version
    revives a spare a freed version of its layout left -- also at ``n ==
    m``, where the two arrays share their layouts and, swapping in
    lockstep, each frees a version of the layout the other takes next."""
    built = count_new_buffers(monkeypatch)
    for m in (32, 64):
        bindings = {"n": 64, "m": m, "t": 16}
        compiled = compile_program(SWAP_LOOP, bindings=bindings, processors=4)
        del built[:]
        _, stats, _ = observed(compiled, ExecutionEnv(bindings=bindings))
        assert stats["remaps_performed"] == 64
        assert len(built) <= 4, m
        if m == 32:  # four layouts, one buffer each
            assert len(built) == len(set(built))
    # with recycling off, every remapping builds its target
    no_recycling(monkeypatch)
    del built[:]
    observed(compiled, ExecutionEnv(bindings=bindings))
    assert len(built) > 64


PHASE_SWITCH = """
subroutine main
  integer n
  real A(n), B(n), C(n), D(n)
!hpf$ dynamic A, B, C, D
!hpf$ distribute A(block)
!hpf$ distribute B(block)
!hpf$ distribute C(block)
!hpf$ distribute D(block)
  compute writes A, B, C, D
!hpf$ redistribute A(cyclic)
!hpf$ redistribute B(cyclic)
!hpf$ redistribute C(cyclic)
!hpf$ redistribute D(cyclic)
  compute writes A, B, C, D reads A, B, C, D
  compute writes A, B, C, D reads A, B, C, D
end
"""


def test_a_phase_freeing_many_versions_of_a_layout_keeps_few_spares(monkeypatch):
    """Four arrays leave one layout for good: four versions of it are
    freed, and the run keeps at most ``SPARES_PER_LAYOUT`` of their
    buffers, the others freed outright -- with the values, counts and
    peak of a run that keeps none."""
    kept_bytes: list[int] = []
    release = MemoryManager.release

    def counted(self, inst):
        release(self, inst)
        kept_bytes.append(
            sum(spare.total_local_bytes() for stack in self._spares.values() for spare, _ in stack)
        )

    monkeypatch.setattr(MemoryManager, "release", counted)
    bindings = {"n": 64}
    compiled = compile_program(PHASE_SWITCH, bindings=bindings, processors=4)
    recycled = observed(compiled, ExecutionEnv(bindings=bindings))
    assert len(kept_bytes) == 4
    assert max(kept_bytes) == SPARES_PER_LAYOUT * 64 * 8 < 4 * 64 * 8
    no_recycling(monkeypatch)
    assert_same_observations(recycled, observed(compiled, ExecutionEnv(bindings=bindings)))


@pytest.mark.parametrize("policy", [None, *POLICIES])
@pytest.mark.parametrize("name", ["fig1", "fig12-then", "fig12-else", "fig16", "swap"])
def test_recycling_changes_no_value_count_or_peak(monkeypatch, name, policy):
    """Values, the traffic snapshot and the memory peak are those of a run
    that builds every version anew."""
    if name == "swap":
        w = dict(
            source=SWAP_LOOP,
            bindings={"n": 16, "m": 8, "t": 4},
            conditions={},
            inputs={"a": np.arange(16.0), "b": np.arange(8.0)},
        )
    else:
        w = RUNS[name]()
    compiled = compile_program(
        w["source"],
        bindings=w["bindings"],
        processors=4,
        options=CompilerOptions(level=3, schedule=policy),
    )
    recycled = observed(compiled, _env(w))
    no_recycling(monkeypatch)
    assert_same_observations(recycled, observed(compiled, _env(w)))


def test_recycling_keeps_the_evictions_under_a_memory_limit(monkeypatch):
    """A revived version is fit-checked like a new one: under a limit that
    forces evictions the run evicts, regenerates and peaks exactly as one
    that builds every version anew."""
    bindings = {"n": 16, "m": 3}
    compiled = compile_program(
        EVICTING_LOOP, bindings=bindings, processors=4, options=CompilerOptions(level=2)
    )

    def limited():
        machine = Machine(compiled.processors, memory_limit=72)
        env = ExecutionEnv(bindings=bindings, inputs={"a": np.arange(16.0)})
        return observed(compiled, env, machine)

    recycled = limited()
    assert recycled[1]["evictions"] > 0 and recycled[2] <= 72
    no_recycling(monkeypatch)
    assert_same_observations(recycled, limited())


def test_a_run_drops_its_spares_when_it_ends():
    """Returning or raising, a run ends holding no spare, and a freed
    version's buffer dies with the run, without a cyclic collection."""
    compiled = compile_program(FIG16, bindings={"n": 16, "t": 3}, processors=4)
    bufs = []

    def keep_a_ref(ctx):
        if "cyclic" in ctx.mapping("a").short():
            bufs.append(weakref.ref(ctx.darray("a").data))
        default_kernel(ctx)

    env = ExecutionEnv(bindings={"n": 16, "t": 3}, kernels={"": keep_a_ref})
    ex = Executor(compiled, Machine(compiled.processors), env)
    gc.disable()
    try:
        result = ex.run("main")
        assert ex.memory._spares == {}
        assert bufs and all(ref() is None for ref in bufs)
    finally:
        gc.enable()
    assert result.status("a") == 0

    def fail_late(ctx):
        if "cyclic" not in ctx.mapping("a").short():
            bufs.append(weakref.ref(ctx.darray("a").data))
        elif ctx.loop_index("i") == 3:
            raise ValueError("kernel failed")
        default_kernel(ctx)

    # the block version is the spare when the last trip's kernel raises
    del bufs[:]
    env = ExecutionEnv(bindings={"n": 16, "t": 3}, kernels={"": fail_late})
    ex = Executor(compiled, Machine(compiled.processors), env)
    gc.disable()
    try:
        with pytest.raises(ValueError, match="kernel failed"):
            ex.run("main")
        assert ex.memory._spares == {}
        assert bufs and all(ref() is None for ref in bufs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# alignment family execution (Fig. 3)
# ---------------------------------------------------------------------------


def test_fig3_only_used_arrays_communicate():
    src = """
subroutine main()
  integer n
  real A(n), B(n), C(n), D(n), E(n)
!hpf$ template T(n)
!hpf$ align with T :: A, B, C, D, E
!hpf$ dynamic A, B, C, D, E
!hpf$ distribute T(block)
  compute reads A, B, C, D, E
!hpf$ redistribute T(cyclic)
  compute reads A, D
end
"""
    inputs = {k: np.arange(16.0) for k in "abcde"}
    _, m_opt, _ = run(src, level=3, inputs=inputs)
    _, m_naive, _ = run(src, level=0, inputs=inputs)
    assert m_opt.stats.remaps_performed == 2  # A and D only
    assert m_naive.stats.remaps_performed == 5
    assert m_opt.stats.bytes == pytest.approx(m_naive.stats.bytes * 2 / 5)
