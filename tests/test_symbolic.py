"""Symbolic-shape templates: compile once, instantiate every (n, P).

The acceptance differential for the symbolic subsystem
(:mod:`repro.symbolic`, the ``symbolize`` pass and
:class:`repro.compiler.template.SymbolicTemplate`):

* **bit-identity** -- on the paper figures (Fig. 1, 12, 16), an artifact
  instantiated from a cached symbolic template executes bit-identically
  (array values, total bytes, message count) to a from-scratch compile at
  the same ``(n, P)``, across a sweep of shape/processor pairs, all three
  schedule policies and the unscheduled executor;
* **workload sweep** -- seeds 0..200 of the random legal workload
  generator produce identical values under symbolic and concrete options
  (literal extents degrade symbolize to the concrete path);
* **level monotonicity** -- optimization levels stay byte-monotone under
  symbolic options (spot check of seeds 0..500);
* **plan table** -- instantiations run on the process's plans
  (:data:`~repro.spmd.schedule.PLANS`), shared with eager compiles of the
  same shape; the bounded, thread-safe :class:`CommPlanTable` evicts and
  rebuilds bit-identically and collapses insert races to one kept plan, and
  a template carries no plan (artifact bytes never depend on traffic
  history);
* **store integration** -- templates round-trip through the artifact
  store and pass ``verify --deep``; a fresh process instantiates on first
  contact.
"""

from __future__ import annotations

import gc
import pickle
import threading
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
    predict_traffic,
)
from repro.apps.workloads import random_environment, random_legal_subroutine
from repro.compiler.template import SymbolicTemplate
from repro.mapping import ProcessorArrangement, ownership
from repro.spmd import traffic
from repro.spmd.schedule import PLANS, CommPlanTable
from repro.store import ArtifactStore

FIG1 = """
subroutine main()
  integer n
  real A(n, n), B(n, n)
!hpf$ align with B :: A
!hpf$ dynamic A, B
!hpf$ distribute B(block, *)
  compute reads A, B
!hpf$ realign A(i, j) with B(j, i)
!hpf$ redistribute B(cyclic, *)
  compute reads A, B
end
"""

FIG12 = """
subroutine remap(A, m)
  integer m, n, p
  real A(n,n), B(n,n), C(n,n)
  intent inout A
!hpf$ align with A :: B, C
!hpf$ dynamic A, B, C
!hpf$ distribute A(block, *)
  compute "init" writes B reads A
  if c1 then
!hpf$   redistribute A(cyclic, *)
    compute writes A, p reads A, B
  else
!hpf$   redistribute A(block, block)
    compute writes p reads A
  endif
  do i = 1, m
!hpf$   redistribute A(*, block)
    compute writes C reads A
!hpf$   redistribute A(block, *)
    compute writes A reads A, C
  enddo
end
"""

FIG16 = """
subroutine main(t)
  integer n, t
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  do i = 1, t
!hpf$   redistribute A(cyclic)
    compute writes A reads A
!hpf$   redistribute A(block)
  enddo
  compute reads A
end
"""


def _fig1(n):
    return dict(
        source=FIG1,
        bindings={"n": n},
        conditions={},
        inputs={
            "a": np.arange(n * n, dtype=float).reshape(n, n),
            "b": np.ones((n, n)),
        },
    )


def _fig12_then(n):
    return dict(
        source=FIG12,
        bindings={"n": n, "m": 3},
        conditions={"c1": True},
        inputs={"a": np.arange(n * n, dtype=float).reshape(n, n)},
    )


def _fig12_else(n):
    w = _fig12_then(n)
    w["conditions"] = {"c1": False}
    return w


def _fig16(n):
    return dict(
        source=FIG16,
        bindings={"n": n, "t": 5},
        conditions={},
        inputs={"a": np.arange(float(n))},
    )


CASES = {
    "fig1": _fig1,
    "fig12-then": _fig12_then,
    "fig12-else": _fig12_else,
    "fig16": _fig16,
}

#: the (n, P) sweep of the acceptance criterion: four distinct shapes,
#: three distinct processor counts, none matching the template probes
PAIRS = [(8, 2), (12, 3), (16, 4), (24, 4)]

POLICIES = (None, "naive", "round-robin", "aggregate")
SCHEDULED = ("naive", "round-robin", "aggregate")


def _run(compiled, w):
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions=dict(w["conditions"]),
        bindings=dict(w["bindings"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
        check_invariants=True,
    )
    name = next(iter(compiled.subroutines))
    result = Executor(compiled, machine, env).run(name)
    values = {a: result.value(a) for a in compiled.get(name).sub.arrays}
    return values, machine.stats


def _assert_identical(got, ref, context):
    g_values, g_stats = got
    r_values, r_stats = ref
    for a in r_values:
        assert np.array_equal(g_values[a], r_values[a]), (*context, a)
    assert g_stats.bytes == r_stats.bytes, context
    assert g_stats.local_bytes == r_stats.local_bytes, context
    assert g_stats.messages == r_stats.messages, context
    assert g_stats.phases == r_stats.phases, context


# ---------------------------------------------------------------------------
# acceptance differential: figures x (n, P) sweep x policies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p or "unscheduled")
@pytest.mark.parametrize("name", sorted(CASES))
def test_instantiated_bit_identical_to_from_scratch(name, policy):
    """One warm compile, then every other (n, P) is served by template
    instantiation -- and each instantiated artifact executes bit-identically
    to from-scratch compiles at that exact shape, both under the same
    symbolic options (the cache-transparency contract) and under plain
    concrete options (the paper's eager baseline)."""
    opts = CompilerOptions.symbolic(level=3, schedule=policy)
    session = CompilerSession(options=opts)
    for i, (n, p) in enumerate(PAIRS):
        w = CASES[name](n)
        compiled, tier = session.compile_traced(
            w["source"], bindings=w["bindings"], processors=p
        )
        assert tier == ("compiled" if i == 0 else "instantiated"), (name, n, p, tier)
        got = _run(compiled, w)
        scratch = compile_program(
            w["source"], bindings=w["bindings"], processors=p, options=opts
        )
        _assert_identical(got, _run(scratch, w), (name, policy, n, p, "symbolic"))
        eager = compile_program(
            w["source"],
            bindings=w["bindings"],
            processors=p,
            options=CompilerOptions(level=3, schedule=policy),
        )
        _assert_identical(got, _run(eager, w), (name, policy, n, p, "eager"))
    assert session.stats["instantiations"] == len(PAIRS) - 1


def test_workload_seeds_symbolic_equals_concrete():
    """Acceptance sweep: seeds 0..200, policy rotating per seed, symbolic
    options produce bit-identical values to concrete options.  Random
    workloads have literal extents, so symbolize classifies nothing
    shape-symbolic and must degrade to the concrete path."""
    for seed in range(201):
        rng = np.random.default_rng(seed)
        program = random_legal_subroutine(rng, n_arrays=2, length=5, depth=1)
        conditions, inputs = random_environment(rng, n_arrays=2)
        w = dict(bindings={}, conditions=conditions, inputs=inputs)
        policy = SCHEDULED[seed % 3]
        sym = compile_program(
            program,
            processors=4,
            options=CompilerOptions.symbolic(level=3, schedule=policy),
        )
        ref = compile_program(
            program, processors=4, options=CompilerOptions(level=3, schedule=policy)
        )
        values, _ = _run(sym, w)
        ref_values, _ = _run(ref, w)
        for a in ref_values:
            assert np.array_equal(values[a], ref_values[a]), (seed, policy, a)


@pytest.mark.parametrize("seed", range(0, 501, 25))
def test_symbolized_levels_stay_monotone(seed):
    """Level monotonicity holds under symbolic options too (spot check of
    seeds 0..500): total communicated bytes never increase with level."""
    rng = np.random.default_rng(seed)
    program = random_legal_subroutine(rng, n_arrays=2, length=5, depth=1)
    conditions, inputs = random_environment(rng, n_arrays=2)
    w = dict(bindings={}, conditions=conditions, inputs=inputs)
    totals = []
    for level in (0, 1, 2, 3):
        compiled = compile_program(
            program, processors=4, options=CompilerOptions.symbolic(level=level)
        )
        _, stats = _run(compiled, w)
        totals.append(stats.bytes)
    assert all(a >= b for a, b in zip(totals, totals[1:])), (seed, totals)


# ---------------------------------------------------------------------------
# the template artifact itself
# ---------------------------------------------------------------------------


def _warm_template(policy="round-robin"):
    """Compile FIG16 once under symbolic options; return (session, template)."""
    opts = CompilerOptions.symbolic(level=3, schedule=policy)
    session = CompilerSession(options=opts)
    w = _fig16(16)
    session.compile_traced(w["source"], bindings=w["bindings"], processors=4)
    assert len(session._templates) == 1
    return session, next(iter(session._templates.values()))


def test_template_instantiation_is_deterministic():
    """Two instantiations at the same (n, P) are interchangeable: identical
    values, bytes, messages and phases under execution -- and they run the
    same plan objects, the process's, so the second builds nothing.  An
    eager compile of the same program and shape reads the same ledger."""
    _, template = _warm_template()
    w = _fig16(24)
    procs = ProcessorArrangement("P", (3,))
    a = template.instantiate({"n": 24}, procs)
    b = template.instantiate({"n": 24}, procs)
    got_a = _run(a, w)
    built = PLANS.stats()["misses"]
    assert built == len(PLANS) > 0
    got_b = _run(b, w)
    assert PLANS.stats()["misses"] == built
    _assert_identical(got_a, got_b, ("determinism",))
    eager = compile_program(
        w["source"], bindings=w["bindings"], processors=3,
        options=CompilerOptions(level=3, schedule="round-robin"),
    )
    assert _run(eager, w)[1].snapshot() == got_a[1].snapshot() == got_b[1].snapshot()


def test_eager_compile_and_instantiation_share_plans(monkeypatch):
    """A plan belongs to its policy and its two layouts: an eager compile
    and a template instantiation at the same ``(n, P)`` and policy run the
    same plan objects, whichever runs first builds them and the other
    builds nothing."""
    from test_schedule import ran_plans

    ran = ran_plans(monkeypatch)
    _, template = _warm_template()
    w = _fig16(24)
    eager = compile_program(
        w["source"], bindings=w["bindings"], processors=3,
        options=CompilerOptions(level=3, schedule="round-robin"),
    )
    got_eager = _run(eager, w)
    eager_plans, built = list(ran), PLANS.stats()["misses"]
    assert built == len(PLANS) > 0
    del ran[:]
    got = _run(template.instantiate({"n": 24}, ProcessorArrangement("P", (3,))), w)
    assert PLANS.stats()["misses"] == built
    assert len(ran) == len(eager_plans) and all(a is b for a, b in zip(ran, eager_plans))
    _assert_identical(got, got_eager, ("shared plans",))


def test_template_rejects_missing_shapes():
    _, template = _warm_template()
    assert template.missing_shapes({}) == ["n"]
    assert template.missing_shapes({"n": 16}) == []


def test_frozen_template_survives_pickle_with_empty_memo():
    """Artifact bytes must not depend on which shapes a session served: a
    template carries no plan, so serving a shape leaves its pickle alone,
    and the revived template still instantiates correctly."""
    _, template = _warm_template()
    unserved = pickle.dumps(template)
    # serve and run one shape so the process's plans are warm
    _run(template.instantiate({"n": 16}, ProcessorArrangement("P", (4,))), _fig16(16))
    assert len(PLANS) > 0
    payload = pickle.dumps(template)
    assert payload == unserved
    revived = pickle.loads(payload)
    assert isinstance(revived, SymbolicTemplate)
    # a template carries exactly what instantiation uses, nothing else
    assert set(vars(revived)) - {"_frozen"} == {
        "program", "options", "classification", "fixed_bindings"
    }
    assert b"repro.symbolic.affine" not in payload
    assert b"repro.symbolic.ownership" not in payload
    assert b"CommPlanTable" not in payload and b"CommSchedule" not in payload
    w = _fig16(12)
    got = _run(revived.instantiate({"n": 12}, ProcessorArrangement("P", (3,))), w)
    ref = _run(template.instantiate({"n": 12}, ProcessorArrangement("P", (3,))), w)
    _assert_identical(got, ref, ("pickle",))


# ---------------------------------------------------------------------------
# the shared plan table
# ---------------------------------------------------------------------------


def _redist_pair(n, p):
    from repro.mapping import DistFormat, Mapping

    procs = ProcessorArrangement("P", (p,))
    src = Mapping.simple((n,), (DistFormat.block(),), procs, "A")
    dst = Mapping.simple((n,), (DistFormat.cyclic(),), procs, "A")
    return src, dst


def test_plan_memo_evicts_and_rebuilds_bit_identically(monkeypatch):
    monkeypatch.setattr("repro.spmd.schedule.PLAN_TABLE_CAPACITY", 2)
    table = CommPlanTable()
    first = table.obtain("round-robin", *_redist_pair(16, 4))
    table.obtain("round-robin", *_redist_pair(24, 4))
    table.obtain("round-robin", *_redist_pair(32, 4))  # evicts (16, 4)
    assert table.stats()["evictions"] == 1
    assert len(table) == 2
    rebuilt = table.obtain("round-robin", *_redist_pair(16, 4))
    assert rebuilt is not first
    assert rebuilt == first and rebuilt.statically_verified
    assert table.stats()["misses"] == 4


def test_plan_memo_keys_embed_shape_and_grid():
    """Distinct (n, P) must never cross-serve plans through the table."""
    table = CommPlanTable()
    a = table.obtain("naive", *_redist_pair(16, 4))
    b = table.obtain("naive", *_redist_pair(16, 2))
    c = table.obtain("naive", *_redist_pair(8, 4))
    assert table.stats()["misses"] == 3
    assert len({id(x) for x in (a, b, c)}) == 3


def test_plan_memo_insert_race_collapses_to_one_build():
    table = CommPlanTable()
    src, dst = _redist_pair(32, 4)
    results = [None] * 8
    barrier = threading.Barrier(8)

    def worker(i):
        barrier.wait(10.0)
        results[i] = table.obtain("aggregate", src, dst)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
        assert not t.is_alive()
    stats = table.stats()
    # however many racers built, one plan was kept and everyone got it
    assert stats["entries"] == 1 and stats["misses"] >= 1
    assert stats["hits"] + stats["misses"] == 8
    assert len({id(r) for r in results}) == 1


# ---------------------------------------------------------------------------
# the process-wide layout and copy-price caches stay bounded
# ---------------------------------------------------------------------------


def test_shape_sweep_leaves_process_caches_bounded():
    """Shape-diverse traffic is what templates exist to serve, so nothing a
    new shape touches may grow for the life of the process."""
    _, template = _warm_template(None)
    shapes = [(n, p) for n in range(8, 508) for p in range(1, 5)]
    for i, (n, p) in enumerate(shapes):
        compiled = template.instantiate({"n": n}, ProcessorArrangement("P", (p,)))
        predict_traffic(compiled, bindings={"n": n, "t": 1})
        if i == len(shapes) - 600:
            # 1 200 layouts from the end: recently, but surely, evicted
            versions = compiled.get("main").construction.versions
            evicted = weakref.ref(ownership.layout_of(versions.versions("a")[0]))
    assert 0 < len(ownership._LAYOUTS) <= ownership._LAYOUTS_CAP
    assert 0 < len(traffic._COPY_PRICES) <= traffic._COPY_PRICES_CAP
    del compiled, versions
    gc.collect()
    assert evicted() is None  # an evicted layout is collectable


def test_run_straddling_cache_evictions_is_bit_identical(monkeypatch):
    w = _fig16(16)
    opts = CompilerOptions(level=3, schedule="aggregate")

    def observe():
        compiled = compile_program(
            w["source"], bindings=w["bindings"], processors=4, options=opts
        )
        values, stats = _run(compiled, w)
        return values, stats.snapshot(), predict_traffic(compiled, bindings=w["bindings"])

    ref_values, ref_snapshot, ref_predicted = observe()
    # one slot each, and Fig. 16 alternates two layouts and two copies: from
    # empty caches every other lookup evicts what the run is still using
    monkeypatch.setattr(ownership, "_LAYOUTS_CAP", 1)
    monkeypatch.setattr(traffic, "_COPY_PRICES_CAP", 1)
    ownership._LAYOUTS.clear()
    traffic._COPY_PRICES.clear()
    values, snapshot, predicted = observe()
    assert len(ownership._LAYOUTS) == len(traffic._COPY_PRICES) == 1
    for a in ref_values:
        assert np.array_equal(values[a], ref_values[a]), a
    assert snapshot == ref_snapshot
    assert predicted == ref_predicted


# ---------------------------------------------------------------------------
# store integration
# ---------------------------------------------------------------------------


def test_template_roundtrips_through_store_and_deep_verify(tmp_path):
    opts = CompilerOptions.symbolic(level=3, schedule="aggregate")
    store = ArtifactStore(tmp_path / "store")
    s1 = CompilerSession(store=store, options=opts)
    w = _fig16(16)
    _, tier = s1.compile_traced(w["source"], bindings=w["bindings"], processors=4)
    assert tier == "compiled"
    # symbolized sources write the shape-erased template, not the concrete
    assert store.stats["entries_template"] == 1
    assert store.stats["entries_concrete"] == 0
    report = store.verify(deep=True)
    assert report["ok"] == 1
    assert report["corrupt"] == 0
    assert report["invariant_violations"] == 0

    # a fresh session sharing only the directory instantiates on first
    # contact with a shape it has never compiled
    s2 = CompilerSession(store=store, options=opts)
    w2 = _fig16(24)
    compiled, tier2 = s2.compile_traced(
        w2["source"], bindings=w2["bindings"], processors=3
    )
    assert tier2 == "instantiated"
    _assert_identical(
        _run(compiled, w2),
        _run(
            compile_program(
                w2["source"], bindings=w2["bindings"], processors=3, options=opts
            ),
            w2,
        ),
        ("store-roundtrip",),
    )
    assert store.stats["hits_template"] >= 1
    assert store.stats["shape_reuse_ratio"] == 1.0


def test_shape_diverse_traffic_collapses_to_one_disk_entry(tmp_path):
    """The shape-erased key: eight (n, P) shapes of one program occupy one
    store entry, and the hit-by-kind counters expose the reuse ratio."""
    opts = CompilerOptions.symbolic(level=3, schedule=None)
    store = ArtifactStore(tmp_path / "store")
    shapes = [(8, 2), (12, 3), (16, 4), (20, 2), (24, 4), (32, 4), (40, 5), (48, 8)]
    for n, p in shapes:
        # a fresh session per shape: every request after the first must be
        # answered by loading the one template from disk
        session = CompilerSession(store=store, options=opts)
        w = _fig16(n)
        _, tier = session.compile_traced(
            w["source"], bindings=w["bindings"], processors=p
        )
        assert tier == ("compiled" if (n, p) == shapes[0] else "instantiated")
    assert store.stats["entries_template"] == 1
    assert store.stats["entries_concrete"] == 0
    assert store.stats["hits_template"] == len(shapes) - 1
    assert store.stats["stores_template"] == 1
    assert store.stats["shape_reuse_ratio"] == 1.0
    kinds = store.entries_by_kind()
    assert kinds == {"template": 1} or kinds.get("template") == 1
