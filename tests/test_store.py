"""Persistent artifact store: integrity, staleness, concurrency, soundness.

The load path's contract is *degrade, never lie*: a truncated entry, a
flipped bit, a schema drift (repro version, source tree) or a racing
writer must each resolve to a clean recompile -- never an exception on
the serving path and never a wrong artifact.  Disk-loaded artifacts must
be frozen exactly like memory-cached ones, and must execute bit-identically
(values and total bytes) to fresh compiles under every schedule policy.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ArtifactStore,
    CompileService,
    CompilerOptions,
    CompilerSession,
    ExecutionEnv,
    Executor,
    Machine,
    compile_program,
    schema_fingerprint,
)
from repro.apps.figures import FIG16, RUNS
from repro.apps.workloads import random_environment, random_legal_subroutine
from repro.compiler.pipeline import Pipeline
from repro.compiler.template import SymbolicTemplate
from repro.errors import ArtifactFrozenError, SemanticError, ShapeError
from repro.ir.cfg import NodeKind
from repro.lang.ast_nodes import ArrayDecl
from repro.lang.printer import print_program
from repro.spmd import CommSchedule
from repro.spmd.schedule import PLANS
from repro.store.cli import main as store_cli
from repro.util.memo import Memo
from test_lowering import counted

REPO = Path(__file__).resolve().parent.parent


#: every execution mode: the legacy unphased executor plus each policy
POLICIES = (None, "naive", "round-robin", "aggregate")


def _options(policy):
    return CompilerOptions(level=3, schedule=policy)


def _run(compiled, w):
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions=dict(w["conditions"]),
        bindings=dict(w["bindings"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
    )
    name = next(iter(compiled.subroutines))
    result = Executor(compiled, machine, env).run(name)
    values = {a: result.value(a) for a in compiled.get(name).sub.arrays}
    return values, machine.stats


def _store_then_load(tmp_path, w, policy, subdir="s"):
    """Compile fresh, write to a store, load back; returns both artifacts."""
    store = ArtifactStore(tmp_path / subdir)
    session = CompilerSession(processors=4, options=_options(policy), store=store)
    fresh, tier = session.compile_traced(w["source"], bindings=w["bindings"])
    assert tier == "compiled"
    key = session.cache_key(w["source"], bindings=w["bindings"])
    loaded = store.load(key)
    assert loaded is not None
    return fresh, loaded


# ---------------------------------------------------------------------------
# round trip and freezing
# ---------------------------------------------------------------------------


def test_round_trip_returns_equivalent_frozen_artifact(tmp_path):
    w = RUNS["fig12-then"]()
    fresh, loaded = _store_then_load(tmp_path, w, "round-robin")
    assert loaded is not fresh
    assert loaded.frozen
    assert loaded.options == fresh.options
    assert set(loaded.subroutines) == set(fresh.subroutines)
    with pytest.raises(ArtifactFrozenError):
        loaded.bindings = {}
    with pytest.raises(ArtifactFrozenError):
        loaded.get("remap").code = None


def test_stored_artifacts_are_plan_free(tmp_path, monkeypatch):
    """Plans are derived state, never artifact content: no plan and no plan
    table reaches a pickle, executing an artifact leaves its bytes alone,
    and a disk-loaded artifact builds (and proves) exactly the pairs it
    performs in a restarted process, at most those in a warm one."""

    def refuse(self, protocol):
        raise AssertionError(f"a {type(self).__name__} reached a pickle")

    w = RUNS["fig12-then"]()
    for policy in POLICIES:
        fresh, loaded = _store_then_load(tmp_path, w, policy, subdir=f"free-{policy}")
        # a Mapping keeps its normal form in its (pickled) __dict__ once
        # asked, and a run asks: ask first, so only plans could differ
        for cs in fresh.subroutines.values():
            for array in cs.versions.arrays():
                assert all(m.signature for m in cs.versions.versions(array))
        before = pickle.dumps(fresh)
        PLANS.clear()
        ref_values, ref_stats = _run(fresh, w)
        performed = dict(PLANS._entries)
        assert performed
        with monkeypatch.context() as patch:
            patch.setattr(CommSchedule, "__reduce_ex__", refuse)
            patch.setattr(Memo, "__reduce_ex__", refuse)
            assert pickle.dumps(fresh) == before
            pickle.dumps(loaded)

        warm = PLANS.stats()["misses"]
        values, stats = _run(loaded, w)
        assert PLANS.stats()["misses"] == warm  # at most the pairs: none new
        assert stats.snapshot() == ref_stats.snapshot(), policy

        PLANS.clear()  # a restarted process
        values, stats = _run(loaded, w)
        table = PLANS.stats()
        assert table["misses"] == table["entries"] == len(performed)
        assert table["hits"] + table["misses"] == stats.remaps_performed
        assert PLANS._entries.keys() == performed.keys()
        rebuilt = list(PLANS._entries.values())
        assert sorted(map(repr, rebuilt)) == sorted(map(repr, performed.values()))
        for a in ref_values:
            assert np.array_equal(values[a], ref_values[a]), (policy, a)
        assert stats.snapshot() == ref_stats.snapshot(), policy


def test_differential_soundness_on_figures(tmp_path):
    """Disk-loaded artifacts execute bit-identically to fresh compiles."""
    for name in sorted(RUNS):
        w = RUNS[name]()
        for policy in POLICIES:
            fresh, loaded = _store_then_load(
                tmp_path, w, policy, subdir=f"{name}-{policy}"
            )
            ref_values, ref_stats = _run(fresh, w)
            values, stats = _run(loaded, w)
            for a in ref_values:
                assert np.array_equal(values[a], ref_values[a]), (name, policy, a)
            assert stats.bytes == ref_stats.bytes, (name, policy)
            assert stats.local_bytes == ref_stats.local_bytes, (name, policy)
            assert stats.messages == ref_stats.messages, (name, policy)


def test_differential_soundness_on_workload_seeds(tmp_path):
    """Acceptance sweep: seeds 0..50, every policy, disk-loaded == fresh."""
    store = ArtifactStore(tmp_path / "seeds")
    for seed in range(51):
        rng = np.random.default_rng(seed)
        program = random_legal_subroutine(rng, n_arrays=2, length=5, depth=1)
        conditions, inputs = random_environment(rng, n_arrays=2)
        w = dict(bindings={}, conditions=conditions, inputs=inputs)
        for policy in POLICIES:
            session = CompilerSession(
                processors=4, options=_options(policy), store=store
            )
            fresh, tier = session.compile_traced(program)
            assert tier == "compiled"
            loaded = store.load(session.cache_key(program))
            assert loaded is not None, (seed, policy)
            ref_values, ref_stats = _run(fresh, w)
            values, stats = _run(loaded, w)
            for a in ref_values:
                assert np.array_equal(values[a], ref_values[a]), (seed, policy, a)
            assert stats.bytes == ref_stats.bytes, (seed, policy)


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 10_000), policy=st.sampled_from(POLICIES))
def test_prop_artifacts_compare_by_value(seed, policy):
    """A recompile from a fresh parse, a pickle round trip and a deep copy
    of a compiled workload are ``==`` in generated code and version
    annotations (both keyed by CFG node, never by statement object), and
    each runs bit-identically."""
    rng = np.random.default_rng(seed)
    text = print_program(random_legal_subroutine(rng, n_arrays=2, length=5, depth=1))
    conditions, inputs = random_environment(rng, n_arrays=2)
    w = dict(bindings={}, conditions=conditions, inputs=inputs)
    first = compile_program(text, processors=4, options=_options(policy))
    ref_values, ref_stats = _run(first, w)
    for other in (
        compile_program(text, processors=4, options=_options(policy)),
        pickle.loads(pickle.dumps(first)),
        copy.deepcopy(first),
    ):
        for name, cs in first.subroutines.items():
            assert other.get(name).code == cs.code, (seed, policy)
            assert (
                other.get(name).construction.stmt_versions
                == cs.construction.stmt_versions
            ), (seed, policy)
        values, stats = _run(other, w)
        for a in ref_values:
            assert np.array_equal(values[a], ref_values[a], equal_nan=True), (seed, policy, a)
        assert stats.snapshot() == ref_stats.snapshot(), (seed, policy)


# ---------------------------------------------------------------------------
# corruption and staleness: every defect degrades to a clean recompile
# ---------------------------------------------------------------------------


def _populate(tmp_path, subdir="c"):
    store = ArtifactStore(tmp_path / subdir)
    session = CompilerSession(processors=4, options=_options(None), store=store)
    w = RUNS["fig16"]()
    session.compile(w["source"], bindings=w["bindings"])
    key = session.cache_key(w["source"], bindings=w["bindings"])
    path = store.entry_path(key)
    assert path.is_file()
    return store, key, path, w


def test_truncated_entry_degrades_to_recompile(tmp_path):
    store, key, path, w = _populate(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert store.load(key) is None
    assert not path.exists(), "corrupt entry must be evicted"
    assert store.stats["corrupt_evicted"] == 1
    # a store-backed session recompiles cleanly (miss, not an exception)
    session = CompilerSession(processors=4, options=_options(None), store=store)
    compiled, tier = session.compile_traced(w["source"], bindings=w["bindings"])
    assert tier == "compiled"
    values, _ = _run(compiled, w)
    assert values  # executed fine


def test_digest_mismatch_degrades_to_recompile(tmp_path):
    store, key, path, _ = _populate(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip one payload bit; header length still matches
    path.write_bytes(bytes(blob))
    assert store.load(key) is None
    assert not path.exists()
    assert store.stats["corrupt_evicted"] == 1


def test_garbage_header_degrades_to_recompile(tmp_path):
    store, key, path, _ = _populate(tmp_path)
    path.write_bytes(b"\x80\x05not a header\n" + b"\x00" * 64)
    assert store.load(key) is None
    assert not path.exists()


# ---------------------------------------------------------------------------
# a stored template is checked once, where it is loaded
# ---------------------------------------------------------------------------

SYMBOLIC = CompilerOptions.symbolic(level=3, schedule="aggregate")


def _seed_template(tmp_path, source=FIG16, bindings=None, processors=4):
    """A store holding one template (by default Fig. 16's, written by a
    compile at a shape no later request asks for); returns (store, template
    key, template)."""
    store = ArtifactStore(tmp_path / "tpl")
    writer = CompilerSession(store=store, options=SYMBOLIC)
    bindings = bindings or {"n": 64, "t": 5}
    _, tier = writer.compile_traced(source, bindings=bindings, processors=processors)
    assert tier == "compiled" and store.stats["entries_template"] == 1
    ((tkey, template),) = writer._templates._entries.items()
    assert store.entry_path(tkey).is_file()
    return store, tkey, template


def _without_decl(template, kind):
    """``template`` with its one subroutine's declarations of ``kind`` dropped."""
    (main,) = template.program.subroutines
    broken = dataclasses.replace(
        main, decls=tuple(d for d in main.decls if not isinstance(d, kind))
    )
    assert broken != main
    return dataclasses.replace(
        template, program=dataclasses.replace(template.program, subroutines=(broken,))
    )


def _with_misplaced_distribution_hole(template):
    """``template`` whose first ``distribution`` hole names a compute's CFG
    node: the version counts are unchanged, but patching it would read a
    distribution from a statement that names none."""
    main = template.structure.subroutines["main"]
    compute = min(nid for nid, node in main.cfg.nodes.items() if node.kind is NodeKind.COMPUTE)
    k = next(i for i, hole in enumerate(main.holes) if hole[0] == "distribution")
    holes = (*main.holes[:k], ("distribution", compute), *main.holes[k + 1 :])
    mangled = dataclasses.replace(
        template.structure, subroutines={"main": dataclasses.replace(main, holes=holes)}
    )
    return dataclasses.replace(template, structure=mangled)


def _without_redistribute_holes(template):
    """``template`` whose carried structure lost the holes of the versions
    its graph leaves with."""
    structure = template.structure
    main = structure.subroutines["main"]
    holes = tuple(h for h in main.holes if h[0] != "redistribute")
    assert len(holes) < len(main.holes)
    mangled = dataclasses.replace(
        structure, subroutines={"main": dataclasses.replace(main, holes=holes)}
    )
    return dataclasses.replace(template, structure=mangled)


def _served_as_a_fresh_compile(compiled, w, processors=4):
    values, stats = _run(compiled, w)
    ref_values, ref_stats = _run(
        Pipeline(SYMBOLIC).compile(w["source"], bindings=w["bindings"], processors=processors), w
    )
    for a in ref_values:
        assert np.array_equal(values[a], ref_values[a]), a
    assert stats.snapshot() == ref_stats.snapshot()


def _evicted_by_its_load_then_rewritten(store, tkey, capsys):
    """The entry at ``tkey`` is flagged offline and by a load, a restarted
    process is served by a clean compile that rewrites it, and the next one
    instantiates."""
    root = str(store.root)
    assert store_cli(["verify", "--keep", "--dir", root]) == 1
    assert json.loads(capsys.readouterr().out)["invariant_violations"] == 1
    assert store.entry_path(tkey).is_file()
    assert store.load(tkey) is None
    assert store.stats["semantic_evicted"] == 1 and not store.entry_path(tkey).exists()

    w = RUNS["fig16"]()
    reader = CompilerSession(store=store, options=SYMBOLIC)
    compiled, tier = reader.compile_traced(w["source"], bindings=w["bindings"], processors=4)
    assert tier == "compiled" and reader.stats["instantiations"] == 0
    _served_as_a_fresh_compile(compiled, w)

    # the compile rewrote the entry; the next restarted process is served by it
    again = CompilerSession(store=store, options=SYMBOLIC)
    instantiated, tier = again.compile_traced(
        w["source"], bindings={"n": 24, "t": 5}, processors=3
    )
    assert tier == "instantiated" and instantiated.trace.pass_names == ("patch",)
    assert store.stats["semantic_evicted"] == 1
    assert store_cli(["verify", "--dir", root]) == 0
    capsys.readouterr()


def test_template_missing_an_array_declaration_is_evicted_by_its_load(tmp_path, capsys):
    """A hash-valid template whose AST lost its array declaration: no
    ``declared`` hole is left without its declaration, so the load flags it."""
    store, tkey, template = _seed_template(tmp_path)
    assert store.store(tkey, _without_decl(template, ArrayDecl))  # digest valid
    _evicted_by_its_load_then_rewritten(store, tkey, capsys)


def test_template_with_a_mangled_structure_is_evicted_by_its_load(tmp_path, capsys):
    """A hash-valid template whose structure lost the holes of the versions
    its graph leaves with: the graph names versions the holes do not make."""
    store, tkey, template = _seed_template(tmp_path)
    assert store.store(tkey, _without_redistribute_holes(template))
    _evicted_by_its_load_then_rewritten(store, tkey, capsys)


def test_template_with_a_misplaced_distribution_hole_is_evicted_by_its_load(
    tmp_path, capsys
):
    """A template whose distribution hole names a compute: the version
    counts agree with its graph, but the load checks the hole against the
    node it names."""
    store, tkey, template = _seed_template(tmp_path)
    assert store.store(tkey, _with_misplaced_distribution_hole(template))
    _evicted_by_its_load_then_rewritten(store, tkey, capsys)


def test_deep_verify_keeps_a_template_the_probe_shape_does_not_fit(tmp_path):
    """A fixed ``block(2)`` cannot hold n = 8 on 2 processors, the shape
    the offline check once probed at.  ``verify`` checks the template at no
    shape, keeps the sound entry, and the template serves the shapes it
    can hold."""
    text = FIG16.replace("distribute A(block)", "distribute A(block(2))")
    store, _, _ = _seed_template(tmp_path, text, {"n": 4, "t": 2}, processors=2)
    report = store.verify(evict=False)
    assert report["invariant_violations"] == 0 and report["ok"] == 1
    assert store_cli(["verify", "--dir", str(store.root)]) == 0
    reader = CompilerSession(store=store, options=SYMBOLIC)
    _, tier = reader.compile_traced(text, bindings={"n": 6, "t": 2}, processors=3)
    assert tier == "instantiated"


def test_a_request_outside_a_loaded_templates_domain_keeps_the_entry(tmp_path):
    """A restarted process asking a ``block(2)`` template for a shape it
    cannot hold gets the ``ShapeError`` a compile raises; the sound entry
    is neither evicted nor counted corrupt, and the next restarted process
    instantiates from it."""
    text = FIG16.replace("distribute A(block)", "distribute A(block(2))")
    store, tkey, _ = _seed_template(tmp_path, text, {"n": 4, "t": 2}, processors=2)
    with pytest.raises(ShapeError):
        CompilerSession(store=store, options=SYMBOLIC).compile(
            text, bindings={"n": 8, "t": 2}, processors=2
        )
    assert store.stats["semantic_evicted"] == 0 and store.entry_path(tkey).is_file()
    reader = CompilerSession(store=store, options=SYMBOLIC)
    _, tier = reader.compile_traced(text, bindings={"n": 6, "t": 2}, processors=3)
    assert tier == "instantiated"


def _failing_requests_load_once_and_compile_nothing(monkeypatch, tmp_path, bindings):
    """Three ``block(2)`` requests with ``bindings`` the template cannot
    serve read the store once and run no pipeline: each raises the error a
    compile raises, and the loaded template stays in memory.  The entry
    stays, and an in-domain request is then instantiated from memory with
    no further load."""
    text = FIG16.replace("distribute A(block)", "distribute A(block(2))")
    store, tkey, _ = _seed_template(tmp_path, text, {"n": 4, "t": 2}, processors=2)
    with pytest.raises(Exception) as compiled:
        Pipeline(SYMBOLIC).compile(text, bindings=bindings, processors=2)
    serves = counted(monkeypatch, Pipeline, "serve")
    misses = store.stats["misses"]
    session = CompilerSession(store=store, options=SYMBOLIC)
    for _ in range(3):
        with pytest.raises(Exception) as raised:
            session.compile(text, bindings=bindings, processors=2)
        assert (type(raised.value), str(raised.value)) == (
            type(compiled.value),
            str(compiled.value),
        )
    assert serves == [] and session.stats["misses"] == 3
    assert store.stats["hits_template"] == 1 and store.stats["misses"] == misses
    assert store.stats["semantic_evicted"] == 0 and store.entry_path(tkey).is_file()
    assert session.stats["templates"] == 1
    before = dict(store.stats)
    _, tier = session.compile_traced(text, bindings={"n": 6, "t": 2}, processors=3)
    assert tier == "instantiated"
    assert store.stats == before  # served from memory: nothing read, missed or written
    return compiled.value


def test_repeated_requests_outside_a_templates_domain_load_it_once(monkeypatch, tmp_path):
    error = _failing_requests_load_once_and_compile_nothing(
        monkeypatch, tmp_path, {"n": 8, "t": 2}
    )
    assert isinstance(error, ShapeError)


def test_repeated_requests_missing_a_shape_binding_load_the_template_once(
    monkeypatch, tmp_path
):
    error = _failing_requests_load_once_and_compile_nothing(monkeypatch, tmp_path, {"t": 2})
    assert isinstance(error, SemanticError) and "'n' has no binding" in str(error)


def test_service_counts_a_request_its_trusted_template_fails_as_an_error(tmp_path):
    """A request the loaded template cannot serve ends as an error and in
    no tier: every completed request is one tier count or one error, and
    the entry is kept."""
    text = FIG16.replace("distribute A(block)", "distribute A(block(2))")
    store, tkey, _ = _seed_template(tmp_path, text, {"n": 4, "t": 2}, processors=2)
    asks = (({"n": 8, "t": 2}, 2), ({"t": 2}, 2), ({"n": 6, "t": 2}, 3), ({"n": 6, "t": 2}, 3))
    requests = [{"source": text, "bindings": b, "processors": p} for b, p in asks]
    with CompileService(workers=1, options=SYMBOLIC, store=store) as svc:
        results = [svc.run_batch([request])[0] for request in requests * 2]
        snap = svc.stats.snapshot()
    assert [r.ok for r in results] == [False, False, True, True] * 2
    assert isinstance(results[0].error, ShapeError)
    assert isinstance(results[1].error, SemanticError)
    assert [r.cache_source for r in results if r.ok] == ["instantiated"] + ["memory"] * 3
    tiers = ("compile_hits", "instantiations", "store_hits", "compile_misses", "dedup_saves")
    assert sum(snap[t] for t in tiers) + snap["errors"] == snap["completed"] == 8
    assert snap["errors"] == 4 and snap["compile_misses"] == 0
    assert store.stats["hits_template"] == 1 and store.stats["semantic_evicted"] == 0
    assert store.entry_path(tkey).is_file()


def test_a_block_k_template_with_a_mangled_structure_is_flagged_offline(tmp_path):
    """No shape is needed to check a template, so one whose fixed
    ``block(k)`` holds few shapes is checked like any other."""
    text = FIG16.replace("distribute A(block)", "distribute A(block(2))")
    store, tkey, template = _seed_template(tmp_path, text, {"n": 4, "t": 2}, processors=2)
    assert store.store(tkey, _without_redistribute_holes(template))
    report = store.verify(evict=False)
    assert report["invariant_violations"] == 1 and report["ok"] == 0
    assert store_cli(["verify", "--dir", str(store.root)]) == 1
    assert not store.entry_path(tkey).exists()


def test_a_load_checks_its_template_once_and_no_instantiation_checks_it(
    tmp_path, monkeypatch
):
    """One load runs ``verify_template`` once; the instantiations after it
    run no verifier; a template that fails the check is evicted by the load
    and the request is compiled."""
    import repro.analysis.verify as verify_mod

    store, tkey, _ = _seed_template(tmp_path)
    w = RUNS["fig16"]()
    templates = counted(monkeypatch, verify_mod, "verify_template")
    artifacts = counted(monkeypatch, verify_mod, "verify_artifact")
    session = CompilerSession(store=store, options=SYMBOLIC)
    for n, p in ((16, 4), (24, 3)):
        _, tier = session.compile_traced(w["source"], bindings={"n": n, "t": 5}, processors=p)
        assert tier == "instantiated"
    assert len(templates) == 1 and artifacts == []
    assert store.stats["semantic_evicted"] == 0

    issue = verify_mod.VerificationIssue("graph", "seeded")
    monkeypatch.setattr(verify_mod, "verify_template", lambda template: [issue])
    restarted = CompilerSession(store=store, options=SYMBOLIC)
    _, tier = restarted.compile_traced(w["source"], bindings=w["bindings"], processors=4)
    assert tier == "compiled"
    assert store.stats["semantic_evicted"] == 1 and restarted.stats["instantiations"] == 0
    assert store.entry_path(tkey).is_file(), "the compile writes the template back"


def test_load_instantiates_nothing_and_the_first_request_once(tmp_path, monkeypatch):
    store, tkey, _ = _seed_template(tmp_path)
    instantiated = counted(monkeypatch, SymbolicTemplate, "instantiate")
    assert isinstance(store.load(tkey), SymbolicTemplate)
    assert store.verify()["ok"] == 1
    assert instantiated == []  # neither a load nor the offline check instantiates
    w = RUNS["fig16"]()
    restarted = CompilerSession(store=store, options=SYMBOLIC)
    _, tier = restarted.compile_traced(w["source"], bindings=w["bindings"], processors=4)
    assert tier == "instantiated" and len(instantiated) == 1


def test_disk_loaded_first_run_builds_each_plan_once(tmp_path, monkeypatch):
    """Proving a plan no longer rebuilds its schedule: one ``RedistSchedule``
    (whoever imported ``build_schedule``) per plan the run obtains -- every
    pair it performs in a restarted process, none once the process has them."""
    import repro.spmd.redistribution as redistribution

    w = RUNS["fig12-then"]()
    _, loaded = _store_then_load(tmp_path, w, "round-robin")
    built = counted(monkeypatch, redistribution, "RedistSchedule")
    PLANS.clear()  # a restarted process
    _run(loaded, w)
    assert len(built) == PLANS.stats()["misses"] == len(PLANS) > 0
    del built[:]
    _run(loaded, w)
    assert built == [] and PLANS.stats()["misses"] == len(PLANS)


def test_lru_eviction_bounds_store_size(tmp_path):
    store, key, path, w = _populate(tmp_path)
    entry_size = path.stat().st_size
    small = ArtifactStore(tmp_path / "c", max_bytes=int(entry_size * 1.5))
    # touch the existing entry (recent), then write a second one: budget
    # holds at most one, so the older entry is evicted
    assert small.load(key) is not None
    session = CompilerSession(processors=4, options=_options(None), store=small)
    w2 = RUNS["fig1"]()
    session.compile(w2["source"], bindings=w2["bindings"])
    assert small.entry_count == 1
    assert small.total_bytes <= small.max_bytes
    assert small.stats["lru_evicted"] == 1


def test_gc_never_touches_non_store_directories(tmp_path):
    """The store root is a user-supplied path: gc removes only
    fingerprint-shaped generation directories, never anything else."""
    root = tmp_path / "shared"
    precious = root / "my_precious_data"
    precious.mkdir(parents=True)
    (precious / "file.txt").write_text("irreplaceable")
    stale = root / ("0" * 16)  # fingerprint-shaped: a stale generation
    stale.mkdir()
    (stale / "x.art").write_bytes(b"old entry")
    store = ArtifactStore(root)
    report = store.gc()
    assert report["stale_fingerprints_removed"] == 1
    assert not stale.exists()
    assert (precious / "file.txt").read_text() == "irreplaceable"


def test_fingerprint_covers_package_source(tmp_path):
    """The schema fingerprint must reflect the package's own code, not
    just pass names: a bug fix inside an existing pass has to orphan
    artifacts the old code compiled."""
    from repro.store import store as store_mod

    baseline = schema_fingerprint()
    original = store_mod.source_tree_digest()
    store_mod._source_tree_digest_cache = "f" * 12  # simulate edited source
    try:
        assert schema_fingerprint() != baseline
    finally:
        store_mod._source_tree_digest_cache = original
    assert schema_fingerprint() == baseline


def test_gc_sweeps_orphan_locks(tmp_path):
    """Per-entry lock files whose entries are gone are debris: gc removes
    them, so the store directory is bounded by its *live* content, not by
    everything ever written."""
    store, key, path, _ = _populate(tmp_path, subdir="gcdebris")
    lock = path.with_suffix(".lock")
    assert lock.exists()
    # while the entry lives, gc keeps its lock
    report = store.gc()
    assert report["lock_files_removed"] == 0
    assert "sidecars_removed" not in report
    # drop the entry (as corruption eviction would); the debris follows
    path.unlink()
    (path.parent / "gc.lock").touch()  # the eviction guard, once created
    report = store.gc()
    assert report["lock_files_removed"] == 1
    assert not lock.exists()
    # the gc guard lock itself is never swept
    assert (path.parent / "gc.lock").exists()


# ---------------------------------------------------------------------------
# cross-process: one key in every process, and racing writers
# ---------------------------------------------------------------------------

_WORKER = r"""
import sys, time
sys.path.insert(0, {src!r})
from repro import ArtifactStore, CompilerOptions, CompilerSession
from repro.apps.figures import FIG16

store = ArtifactStore({root!r})
session = CompilerSession(
    processors=4, options=CompilerOptions(level=3, schedule="round-robin"),
    store=store,
)
compiled, tier = session.compile_traced(FIG16, bindings={{"n": 16, "t": 3}})
print(tier, session.cache_key(FIG16, bindings={{"n": 16, "t": 3}}) ==
      session.cache_key(FIG16, bindings={{"n": 16, "t": 9}}))
"""


def _spawn_worker(tmp_path):
    code = _WORKER.format(src=str(REPO / "src"), root=str(tmp_path / "xproc"))
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_two_processes_racing_on_one_key(tmp_path):
    """Two real processes compile-and-store the same key concurrently;
    afterwards the entry is valid and a third (in-process) consumer is
    served from disk with bit-identical execution."""
    procs = [_spawn_worker(tmp_path) for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    for p, (out, err) in zip(procs, outs):
        assert p.returncode == 0, err
        tier, keys_equal = out.split()
        # a worker that starts after the other has published the entry is
        # legitimately served from disk; what must never happen is a
        # memory hit (the processes share no memory)
        assert tier in ("compiled", "disk")
        # the runtime-only binding `t` is excluded from the key, so the
        # key matches across binding variants
        assert keys_equal == "True"
    store = ArtifactStore(tmp_path / "xproc")
    assert store.verify(evict=False)["corrupt"] == 0
    session = CompilerSession(
        processors=4,
        options=CompilerOptions(level=3, schedule="round-robin"),
        store=store,
    )
    w = RUNS["fig16"]()
    loaded, tier = session.compile_traced(w["source"], bindings=w["bindings"])
    assert tier == "disk"
    fresh = CompilerSession(
        processors=4, options=CompilerOptions(level=3, schedule="round-robin")
    ).compile(w["source"], bindings=w["bindings"])
    ref_values, ref_stats = _run(fresh, w)
    values, stats = _run(loaded, w)
    for a in ref_values:
        assert np.array_equal(values[a], ref_values[a])
    assert stats.bytes == ref_stats.bytes


def test_fresh_process_computes_the_writers_key(tmp_path):
    """A fresh session classifies the source at first contact exactly as
    the writing process did, so runtime-only binding variants are disk
    hits, not misses."""
    p = _spawn_worker(tmp_path)
    out, err = p.communicate(timeout=120)
    assert p.returncode == 0, err
    store = ArtifactStore(tmp_path / "xproc")
    session = CompilerSession(
        processors=4,
        options=CompilerOptions(level=3, schedule="round-robin"),
        store=store,
    )
    # different runtime-only trip count than the writer used
    compiled, tier = session.compile_traced(FIG16, bindings={"n": 16, "t": 11})
    assert tier == "disk"
    assert session.stats["store_hits"] == 1
    assert session.stats["passes_run"] == 0
    # the wrapper carries *this* caller's bindings
    assert compiled.bindings.get("t") == 11


# ---------------------------------------------------------------------------
# session and service integration
# ---------------------------------------------------------------------------


def test_session_tier_order_memory_disk_compile(tmp_path):
    store = ArtifactStore(tmp_path / "tiers")
    w = RUNS["fig16"]()
    s1 = CompilerSession(processors=4, options=_options(None), store=store)
    assert s1.compile_traced(w["source"], bindings=w["bindings"])[1] == "compiled"
    assert s1.compile_traced(w["source"], bindings=w["bindings"])[1] == "memory"
    assert s1.stats["store_writes"] == 1
    # a restarted session (same store, empty memory) is served from disk,
    # and from memory afterwards
    s2 = CompilerSession(processors=4, options=_options(None), store=store)
    assert s2.compile_traced(w["source"], bindings=w["bindings"])[1] == "disk"
    assert s2.compile_traced(w["source"], bindings=w["bindings"])[1] == "memory"
    assert s2.stats["store_hits"] == 1
    assert s2.stats["passes_run"] == 0


def test_evicted_source_is_served_from_disk(tmp_path):
    """LRU eviction must not wedge the disk tier: after a source's memory
    entry (and its memoized classification) are evicted, the next compile
    computes the same key again and is served from disk."""
    store = ArtifactStore(tmp_path / "evict")
    session = CompilerSession(
        processors=4, options=_options(None), store=store, max_entries=1
    )
    w16, w1 = RUNS["fig16"](), RUNS["fig1"]()
    assert session.compile_traced(w16["source"], bindings=w16["bindings"])[1] == "compiled"
    # distinct source evicts fig16's entry and its classification
    assert session.compile_traced(w1["source"], bindings=w1["bindings"])[1] == "compiled"
    assert session.cache_size == 1
    # same source, different runtime-only trip count: must be a disk hit
    # (the key excludes "t"), not a full recompile
    bindings = dict(w16["bindings"], t=9)
    compiled, tier = session.compile_traced(w16["source"], bindings=bindings)
    assert tier == "disk"
    assert compiled.bindings.get("t") == 9


def test_generation_directory_holds_entries_and_locks_only(tmp_path):
    """Nothing but ``*.art`` entries and their ``*.lock`` files is ever
    written, and the entries alone are the whole disk tier: a fresh
    session over a copy of just them is served without a single pass."""
    store = ArtifactStore(tmp_path / "full")
    eager, symbolic = _options("aggregate"), CompilerOptions.symbolic(level=3)
    writer = CompilerSession(processors=4, store=store)
    for name in ("fig16", "fig12-then"):
        w = RUNS[name]()
        for options in (eager, symbolic):
            _, tier = writer.compile_traced(w["source"], w["bindings"], options=options)
            assert tier == "compiled"
    store.gc()  # creates the eviction guard lock; sweeps nothing live
    generation = store.root / store.fingerprint
    names = sorted(p.name for p in generation.iterdir())
    assert names and {Path(n).suffix for n in names} == {".art", ".lock"}
    assert len([n for n in names if n.endswith(".art")]) == 4

    bare = ArtifactStore(tmp_path / "bare")
    for art in generation.glob("*.art"):
        (bare.root / bare.fingerprint / art.name).write_bytes(art.read_bytes())
    reader = CompilerSession(processors=4, store=bare)
    for name in ("fig16", "fig12-then"):
        w = RUNS[name]()
        shape = dict(w["bindings"], n=24)  # a shape the writer never compiled
        assert reader.compile_traced(w["source"], w["bindings"], options=eager)[1] == "disk"
        assert reader.compile_traced(w["source"], shape, options=symbolic)[1] == "instantiated"
    assert reader.stats["passes_run"] == 0 and reader.stats["store_hits"] == 4


def test_service_warm_starts_from_store(tmp_path):
    """A restarted service serves identical requests from disk: cache
    provenance is per-request (`cache_source`) and aggregate
    (`store_hits`), and results match the first service's bit-for-bit."""
    w = RUNS["fig12-then"]()
    request = {
        "source": w["source"],
        "bindings": w["bindings"],
        "conditions": w["conditions"],
        "inputs": w["inputs"],
    }
    with CompileService(processors=4, workers=2, store=tmp_path / "svc") as svc:
        first = svc.run_batch([request, request])
        assert [r.cache_source for r in first if not r.deduped][0] == "compiled"
        ref = first[0].value("a")
    # "restart": a new service over a new session, same store directory
    with CompileService(processors=4, workers=2, store=tmp_path / "svc") as svc2:
        second = svc2.run_batch([request])
        assert second[0].ok
        assert second[0].cache_source == "disk"
        assert second[0].cached and not second[0].deduped
        assert np.array_equal(second[0].value("a"), ref)
        snap = svc2.stats.snapshot()
        assert snap["store_hits"] == 1
        assert snap["compile_misses"] == 0
        assert svc2.session.stats["store_hits"] == 1
        assert svc2.session.stats["passes_run"] == 0


def test_service_without_store_reports_sources(tmp_path):
    w = RUNS["fig16"]()
    request = {"source": w["source"], "bindings": w["bindings"]}
    with CompileService(processors=4, workers=2) as svc:
        results = svc.run_batch([request, request, request])
        sources = sorted(r.cache_source for r in results if not r.deduped)
        deduped = [r for r in results if r.deduped]
        # one real compile; the rest are memory hits or single-flight waits
        assert sources.count("compiled") == 1
        assert set(sources) <= {"compiled", "memory"}
        assert all(r.cache_source == "compiled" for r in deduped)
        snap = svc.stats.snapshot()
        assert snap["store_hits"] == 0
        assert (
            snap["compile_hits"] + snap["compile_misses"] + snap["dedup_saves"]
            == snap["completed"]
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_refuses_missing_store_dir(tmp_path, capsys):
    """Management commands inspect; they must not conjure an empty store
    out of a typo'd path and report it healthy."""
    missing = tmp_path / "no-such-store"
    assert store_cli(["verify", "--dir", str(missing)]) == 2
    assert store_cli(["stats", "--dir", str(missing)]) == 2
    assert not missing.exists(), "read-only CLI must not create directories"
    capsys.readouterr()


def test_cli_stats_gc_verify(tmp_path, capsys):
    store, key, path, _ = _populate(tmp_path, subdir="cli")
    root = str(tmp_path / "cli")
    assert store_cli(["stats", "--dir", root]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 1 and stats["total_bytes"] > 0
    assert store_cli(["verify", "--dir", root]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "entries": 1,
        "ok": 1,
        "corrupt": 0,
        "invariant_violations": 0,
    }
    # corrupt the entry: verify reports (and evicts) it, exit code 1
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    assert store_cli(["verify", "--dir", root]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["corrupt"] == 1
    assert not path.exists()
    assert store_cli(["gc", "--dir", root]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["entries_after"] == 0
