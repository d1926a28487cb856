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
* **plan memo** -- instantiations run on the process's plans
  (:data:`~repro.spmd.schedule.PLANS`), shared with eager compiles of the
  same shape; the bounded, thread-safe memo evicts and rebuilds
  bit-identically and collapses insert races to one kept plan, and a
  template carries no plan (artifact bytes never depend on traffic
  history);
* **store integration** -- templates round-trip through the artifact
  store and pass its ``verify``; a fresh process instantiates on first
  contact;
* **one artifact per request** -- a symbolized compile serves its request
  by instantiating the template it cut, so the artifact a fresh session
  compiles and the one a session holding the template instantiates have
  the same motion report, diagnostics, traffic estimate and generated
  code, and run bit-identically (figures and workload seeds made
  shape-symbolic, four policies, four ``(n, P)`` including n = P).
"""

from __future__ import annotations

import gc
import os
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
from repro.compiler.artifacts import passes_for_level
from repro.compiler.template import SymbolicTemplate
from repro.errors import SemanticError
from repro.lang.printer import print_program
from repro.mapping import ProcessorArrangement, ownership
from repro.remap.codegen import render_code
from repro.spmd.schedule import PLANS, obtain_plan
from repro.store import ArtifactStore
from repro.symbolic.classify import classify_bindings
from repro.util.memo import clear_process_memos

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
    return session, next(iter(session._templates._entries.values()))


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
    """What a request must bind is read from the template's AST, as the
    session reads it; a request without it raises resolve's error."""
    _, template = _warm_template()
    shapes = classify_bindings(template.program).shape_symbolic
    assert sorted(shapes) == ["n"]
    with pytest.raises(SemanticError):
        template.instantiate({}, ProcessorArrangement("P", (4,)))


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
    # a template carries exactly what instantiation uses, nothing else: its
    # structure holds no resolved subroutine, mapping or layout, and its
    # binding classification is read from its AST
    assert set(vars(revived)) - {"_frozen"} == {
        "program", "options", "fixed_bindings", "report", "structure"
    }
    assert revived.classification == template.classification
    assert revived.structure is not None
    assert b"ResolvedSubroutine" not in payload and b"repro.mapping" not in payload
    assert b"repro.symbolic.affine" not in payload
    assert b"repro.symbolic.ownership" not in payload
    assert b"repro.util.memo" not in payload and b"CommSchedule" not in payload
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
    monkeypatch.setattr(PLANS, "cap", 2)
    first = obtain_plan("round-robin", *_redist_pair(16, 4))
    obtain_plan("round-robin", *_redist_pair(24, 4))
    obtain_plan("round-robin", *_redist_pair(32, 4))  # evicts (16, 4)
    assert PLANS.stats()["evictions"] == 1
    assert len(PLANS) == 2
    rebuilt = obtain_plan("round-robin", *_redist_pair(16, 4))
    assert rebuilt is not first
    assert rebuilt == first
    assert PLANS.stats()["misses"] == 4


def test_plan_memo_keys_embed_shape_and_grid():
    """Distinct (n, P) must never cross-serve plans through the memo."""
    a = obtain_plan("naive", *_redist_pair(16, 4))
    b = obtain_plan("naive", *_redist_pair(16, 2))
    c = obtain_plan("naive", *_redist_pair(8, 4))
    assert PLANS.stats()["misses"] == 3
    assert len({id(x) for x in (a, b, c)}) == 3


def test_plan_memo_insert_race_collapses_to_one_build():
    src, dst = _redist_pair(32, 4)
    results = [None] * 8
    barrier = threading.Barrier(8)

    def worker(i):
        barrier.wait(10.0)
        results[i] = obtain_plan("aggregate", src, dst)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
        assert not t.is_alive()
    stats = PLANS.stats()
    # however many racers built, one plan was kept and everyone got it
    assert stats["entries"] == 1 and stats["misses"] >= 1
    assert stats["hits"] + stats["misses"] == 8
    assert len({id(r) for r in results}) == 1


# ---------------------------------------------------------------------------
# the process-wide layout and plan memos stay bounded
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
    assert 0 < len(ownership._LAYOUTS) <= ownership._LAYOUTS.cap
    assert 0 < len(PLANS) <= PLANS.cap
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
    monkeypatch.setattr(ownership._LAYOUTS, "cap", 1)
    monkeypatch.setattr(PLANS, "cap", 1)
    clear_process_memos()
    values, snapshot, predicted = observe()
    assert len(ownership._LAYOUTS) == len(PLANS) == 1
    assert ownership._LAYOUTS.evictions > 0 and PLANS.evictions > 0
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
    report = store.verify()
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


# ---------------------------------------------------------------------------
# one artifact per request, whichever tier serves it
# ---------------------------------------------------------------------------

def _estimating(policy):
    """Symbolic level 3 plus the traffic estimate (``report.traffic``)."""
    return CompilerOptions(
        passes=passes_for_level(3) + ("symbolize", "traffic-estimate"), schedule=policy
    )


def _motion_notes(compiled):
    return [d for d in compiled.report.diagnostics if d.pass_name == "motion"]


def test_instantiation_reports_the_motion_of_the_compile_that_cut_it():
    session = CompilerSession(processors=4, options=CompilerOptions.symbolic(level=3))
    compiled, tier = session.compile_traced(FIG16, bindings={"n": 32, "t": 5})
    assert tier == "compiled" and compiled.report.motion["main"].count == 1
    instantiated, tier = session.compile_traced(FIG16, bindings={"n": 64, "t": 5})
    assert tier == "instantiated"
    assert instantiated.report.motion == compiled.report.motion
    assert instantiated.report.motion["main"] == compiled.report.motion["main"]
    assert _motion_notes(instantiated) == _motion_notes(compiled)
    # each trace holds what ran: the compile ran the front and the code
    # passes, the instantiation patched the structure those built
    assert compiled.trace.pass_names[:3] == ("parse", "motion", "symbolize")
    assert compiled.trace.pass_names[3:] == passes_for_level(3)[2:]  # resolve .. codegen
    assert instantiated.trace.pass_names == ("patch",)


def test_instantiation_estimates_traffic_like_a_fresh_compile():
    options = _estimating(None)
    session = CompilerSession(processors=4, options=options)
    assert session.compile_traced(FIG16, bindings={"n": 32, "t": 5})[1] == "compiled"
    instantiated, tier = session.compile_traced(FIG16, bindings={"n": 64, "t": 5})
    assert tier == "instantiated"
    fresh = compile_program(FIG16, bindings={"n": 64, "t": 5}, processors=4, options=options)
    assert instantiated.report.traffic and instantiated.report.traffic == fresh.report.traffic


def test_first_symbolized_miss_probes_the_store_once(tmp_path):
    """A source with a template key is never stored under its concrete key,
    so its first miss looks up the template entry only."""
    store = ArtifactStore(tmp_path / "store")
    session = CompilerSession(processors=4, store=store, options=CompilerOptions.symbolic())
    assert session.compile_traced(FIG16, bindings={"n": 32, "t": 5})[1] == "compiled"
    assert store.stats["misses"] == 1 and store.stats["stores_template"] == 1


def test_a_missing_shape_binding_raises_the_compiles_semantic_error():
    session = CompilerSession(processors=4, options=CompilerOptions.symbolic())
    session.compile(FIG16, bindings={"n": 32, "t": 5})
    with pytest.raises(SemanticError, match="symbolic extent 'n' has no binding"):
        session.compile(FIG16, bindings={"t": 5})


def _workload(seed, n):
    """Workload ``seed`` with its extents made shape-symbolic, at extent ``n``."""
    rng = np.random.default_rng(seed)
    text = print_program(random_legal_subroutine(rng))
    source = text.replace("(16)", "(n)").replace("main()\n", "main()\n  integer n\n", 1)
    conditions, _ = random_environment(rng)
    inputs = {f"a{i}": np.random.default_rng(seed + i).normal(size=n) for i in range(3)}
    return dict(source=source, bindings={"n": n}, conditions=conditions, inputs=inputs)


#: (n, P) of the tier sweep: n = P among them; every workload extent is
#: block(8)-coverable (n <= 8 P)
TIER_PAIRS = [(4, 4), (8, 2), (12, 3), (16, 4)]
#: workload seeds of the tier sweep (0..200 in CI's random profile)
TIER_SEEDS = range(201) if os.environ.get("HYPOTHESIS_PROFILE") == "random" else range(0, 201, 20)


def _tier_cases():
    for name in ("fig1", "fig12-then", "fig16"):
        yield name, CASES[name]
    for seed in TIER_SEEDS:
        yield f"workload-{seed}", lambda n, seed=seed: _workload(seed, n)


def _assert_one_artifact(compiled, instantiated, w, context):
    assert instantiated.report.motion == compiled.report.motion, context
    assert instantiated.report.diagnostics == compiled.report.diagnostics, context
    assert instantiated.report.traffic == compiled.report.traffic, context
    assert compiled.report.traffic, context  # the estimate ran in both
    for name, cs in compiled.subroutines.items():
        assert render_code(instantiated.get(name).code) == render_code(cs.code), context
    _assert_identical(_run(instantiated, w), _run(compiled, w), context)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p or "unscheduled")
def test_compiled_and_instantiated_tiers_serve_one_artifact(policy):
    """For each request, the artifact a fresh session compiles and the one a
    session holding the template instantiates are the same artifact: equal
    motion reports, diagnostics, traffic estimates and generated code, and
    bit-identical runs."""
    options = _estimating(policy)
    compared = 0
    for name, case in _tier_cases():
        warm = CompilerSession(options=options)
        w = case(24)
        assert warm.compile_traced(w["source"], w["bindings"], 6)[1] == "compiled"
        for n, p in TIER_PAIRS:
            w = case(n)
            compiled, tier = CompilerSession(options=options).compile_traced(
                w["source"], w["bindings"], p
            )
            assert tier == "compiled", (name, n, p)
            instantiated, tier = warm.compile_traced(w["source"], w["bindings"], p)
            assert tier == "instantiated", (name, n, p)
            _assert_one_artifact(compiled, instantiated, w, (name, policy, n, p))
            compared += 1
    assert compared == len(TIER_PAIRS) * (3 + len(TIER_SEEDS))
