"""Persistent artifact store: integrity, staleness, concurrency, soundness.

The load path's contract is *degrade, never lie*: a truncated entry, a
flipped bit, a schema drift (repro version, source tree) or a racing
writer must each resolve to a clean recompile -- never an exception on
the serving path and never a wrong artifact.  Disk-loaded artifacts must
be frozen exactly like memory-cached ones, and must execute bit-identically
(values and total bytes) to fresh compiles under every schedule policy.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    ArtifactStore,
    CompileService,
    CompilerOptions,
    CompilerSession,
    ExecutionEnv,
    Executor,
    Machine,
    schema_fingerprint,
)
from repro.apps.workloads import random_environment, random_legal_subroutine
from repro.compiler.pipeline import Pipeline
from repro.compiler.template import SymbolicTemplate
from repro.errors import ArtifactFrozenError
from repro.lang.ast_nodes import ArrayDecl
from repro.spmd import CommSchedule
from repro.spmd.schedule import PLANS
from repro.store.cli import main as store_cli
from repro.util.memo import Memo
from test_lowering import counted

REPO = Path(__file__).resolve().parent.parent

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

N = 16

FIGURES = {
    "fig1": dict(
        source=FIG1,
        bindings={"n": N},
        conditions={},
        inputs={
            "a": np.arange(N * N, dtype=float).reshape(N, N),
            "b": np.ones((N, N)),
        },
    ),
    "fig12-then": dict(
        source=FIG12,
        bindings={"n": N, "m": 3},
        conditions={"c1": True},
        inputs={"a": np.arange(N * N, dtype=float).reshape(N, N)},
    ),
    "fig12-else": dict(
        source=FIG12,
        bindings={"n": N, "m": 3},
        conditions={"c1": False},
        inputs={"a": np.arange(N * N, dtype=float).reshape(N, N)},
    ),
    "fig16": dict(
        source=FIG16,
        bindings={"n": N, "t": 5},
        conditions={},
        inputs={"a": np.arange(float(N))},
    ),
}

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
    w = FIGURES["fig12-then"]
    fresh, loaded = _store_then_load(tmp_path, w, "round-robin")
    assert loaded is not fresh
    assert loaded.frozen
    assert loaded.options == fresh.options
    assert set(loaded.subroutines) == set(fresh.subroutines)
    with pytest.raises(ArtifactFrozenError):
        loaded.program = None
    with pytest.raises(ArtifactFrozenError):
        loaded.get("remap").code = None


def test_stored_artifacts_are_plan_free(tmp_path, monkeypatch):
    """Plans are derived state, never artifact content: no plan and no plan
    table reaches a pickle, executing an artifact leaves its bytes alone,
    and a disk-loaded artifact builds (and proves) exactly the pairs it
    performs in a restarted process, at most those in a warm one."""

    def refuse(self, protocol):
        raise AssertionError(f"a {type(self).__name__} reached a pickle")

    w = FIGURES["fig12-then"]
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
        assert policy is None or all(p.statically_verified for p in rebuilt)
        assert sorted(map(repr, rebuilt)) == sorted(map(repr, performed.values()))
        for a in ref_values:
            assert np.array_equal(values[a], ref_values[a]), (policy, a)
        assert stats.snapshot() == ref_stats.snapshot(), policy


def test_differential_soundness_on_figures(tmp_path):
    """Disk-loaded artifacts execute bit-identically to fresh compiles."""
    for name, w in sorted(FIGURES.items()):
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


# ---------------------------------------------------------------------------
# corruption and staleness: every defect degrades to a clean recompile
# ---------------------------------------------------------------------------


def _populate(tmp_path, subdir="c"):
    store = ArtifactStore(tmp_path / subdir)
    session = CompilerSession(processors=4, options=_options(None), store=store)
    w = FIGURES["fig16"]
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
# a stored template is verified as the artifact it serves
# ---------------------------------------------------------------------------

SYMBOLIC = CompilerOptions.symbolic(level=3, schedule="aggregate")


def _seed_template(tmp_path):
    """A store holding Fig. 16's template, written by a compile at a shape
    no later request asks for; returns (store, template key, template)."""
    store = ArtifactStore(tmp_path / "tpl")
    writer = CompilerSession(store=store, options=SYMBOLIC)
    _, tier = writer.compile_traced(FIG16, bindings={"n": 64, "t": 5}, processors=4)
    assert tier == "compiled" and store.stats["entries_template"] == 1
    ((tkey, template),) = writer._templates._entries.items()
    assert store.entry_path(tkey).is_file()
    return store, tkey, template


def test_mutated_template_is_evicted_by_its_first_request(tmp_path, capsys):
    """A hash-valid template whose AST lost its array declaration: the load
    has nothing to say against it, the first request's instantiation does,
    and the request is served by a clean compile that rewrites the entry."""
    store, tkey, template = _seed_template(tmp_path)
    (main,) = template.program.subroutines
    broken = dataclasses.replace(
        main, decls=tuple(d for d in main.decls if not isinstance(d, ArrayDecl))
    )
    mutant = SymbolicTemplate(
        program=dataclasses.replace(template.program, subroutines=(broken,)),
        options=template.options,
        classification=template.classification,
        fixed_bindings=dict(template.fixed_bindings),
    )
    assert store.store(tkey, mutant)  # the store's own writer: digest valid

    assert isinstance(store.load(tkey), SymbolicTemplate)
    assert store.stats["semantic_evicted"] == 0
    root = str(tmp_path / "tpl")
    assert store_cli(["verify", "--deep", "--keep", "--dir", root]) == 1
    assert json.loads(capsys.readouterr().out)["invariant_violations"] == 1
    assert store.entry_path(tkey).is_file()

    w = FIGURES["fig16"]
    reader = CompilerSession(store=store, options=SYMBOLIC)
    compiled, tier = reader.compile_traced(w["source"], bindings=w["bindings"], processors=4)
    assert tier == "compiled"
    assert store.stats["semantic_evicted"] == 1
    assert reader.stats["instantiations"] == 0
    values, stats = _run(compiled, w)
    ref_values, ref_stats = _run(
        Pipeline(SYMBOLIC).compile(w["source"], bindings=w["bindings"], processors=4),
        w,
    )
    assert np.array_equal(values["a"], ref_values["a"])
    assert stats.snapshot() == ref_stats.snapshot()

    # the compile rewrote the entry; the next restarted process is served by it
    again = CompilerSession(store=store, options=SYMBOLIC)
    _, tier = again.compile_traced(w["source"], bindings={"n": 24, "t": 5}, processors=3)
    assert tier == "instantiated"
    assert store.stats["semantic_evicted"] == 1
    assert store_cli(["verify", "--deep", "--dir", root]) == 0
    capsys.readouterr()


def test_template_failing_verification_of_its_first_artifact_is_evicted(tmp_path, monkeypatch):
    """The other way a first instantiation fails: it returns an artifact the
    static checker rejects.  Only the first artifact from a loaded template
    is checked; one that passed is not checked again."""
    import repro.analysis.verify as verify_mod

    store, tkey, _ = _seed_template(tmp_path)
    w = FIGURES["fig16"]
    checked = counted(monkeypatch, verify_mod, "verify_artifact")
    session = CompilerSession(store=store, options=SYMBOLIC)
    for n, p in ((16, 4), (24, 3)):
        _, tier = session.compile_traced(w["source"], bindings={"n": n, "t": 5}, processors=p)
        assert tier == "instantiated"
    assert len(checked) == 1 and store.stats["semantic_evicted"] == 0

    issue = verify_mod.VerificationIssue("graph", "seeded")
    monkeypatch.setattr(verify_mod, "verify_artifact", lambda compiled: [issue])
    restarted = CompilerSession(store=store, options=SYMBOLIC)
    _, tier = restarted.compile_traced(w["source"], bindings=w["bindings"], processors=4)
    assert tier == "compiled"
    assert store.stats["semantic_evicted"] == 1 and restarted.stats["instantiations"] == 0
    assert store.entry_path(tkey).is_file(), "the compile writes the template back"


def test_load_instantiates_nothing_and_the_first_request_once(tmp_path, monkeypatch):
    store, tkey, _ = _seed_template(tmp_path)
    instantiated = counted(monkeypatch, SymbolicTemplate, "instantiate")
    assert isinstance(store.load(tkey), SymbolicTemplate)
    assert instantiated == []
    w = FIGURES["fig16"]
    restarted = CompilerSession(store=store, options=SYMBOLIC)
    _, tier = restarted.compile_traced(w["source"], bindings=w["bindings"], processors=4)
    assert tier == "instantiated" and len(instantiated) == 1
    assert store.verify(deep=True)["ok"] == 1 and len(instantiated) == 2  # the offline probe


def test_disk_loaded_first_run_builds_each_plan_once(tmp_path, monkeypatch):
    """Proving a plan no longer rebuilds its schedule: one ``RedistSchedule``
    (whoever imported ``build_schedule``) per plan the run obtains -- every
    pair it performs in a restarted process, none once the process has them."""
    import repro.spmd.redistribution as redistribution

    w = FIGURES["fig12-then"]
    _, loaded = _store_then_load(tmp_path, w, "round-robin")
    built = counted(monkeypatch, redistribution, "RedistSchedule")
    PLANS.clear()  # a restarted process
    _run(loaded, w)
    assert len(built) == PLANS.stats()["misses"] == len(PLANS) > 0
    assert all(p.statically_verified for p in PLANS._entries.values())
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
    w2 = FIGURES["fig1"]
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

FIG16 = {fig16!r}
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
    code = _WORKER.format(
        src=str(REPO / "src"), fig16=FIG16, root=str(tmp_path / "xproc")
    )
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
    w = FIGURES["fig16"]
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
    assert compiled.get("main").sub.bindings.get("t") == 11


# ---------------------------------------------------------------------------
# session and service integration
# ---------------------------------------------------------------------------


def test_session_tier_order_memory_disk_compile(tmp_path):
    store = ArtifactStore(tmp_path / "tiers")
    w = FIGURES["fig16"]
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
    w16, w1 = FIGURES["fig16"], FIGURES["fig1"]
    assert session.compile_traced(w16["source"], bindings=w16["bindings"])[1] == "compiled"
    # distinct source evicts fig16's entry and its classification
    assert session.compile_traced(w1["source"], bindings=w1["bindings"])[1] == "compiled"
    assert session.cache_size == 1
    # same source, different runtime-only trip count: must be a disk hit
    # (the key excludes "t"), not a full recompile
    bindings = dict(w16["bindings"], t=9)
    compiled, tier = session.compile_traced(w16["source"], bindings=bindings)
    assert tier == "disk"
    assert compiled.get("main").sub.bindings.get("t") == 9


def test_generation_directory_holds_entries_and_locks_only(tmp_path):
    """Nothing but ``*.art`` entries and their ``*.lock`` files is ever
    written, and the entries alone are the whole disk tier: a fresh
    session over a copy of just them is served without a single pass."""
    store = ArtifactStore(tmp_path / "full")
    eager, symbolic = _options("aggregate"), CompilerOptions.symbolic(level=3)
    writer = CompilerSession(processors=4, store=store)
    for name in ("fig16", "fig12-then"):
        w = FIGURES[name]
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
        w = FIGURES[name]
        shape = dict(w["bindings"], n=24)  # a shape the writer never compiled
        assert reader.compile_traced(w["source"], w["bindings"], options=eager)[1] == "disk"
        assert reader.compile_traced(w["source"], shape, options=symbolic)[1] == "instantiated"
    assert reader.stats["passes_run"] == 0 and reader.stats["store_hits"] == 4


def test_service_warm_starts_from_store(tmp_path):
    """A restarted service serves identical requests from disk: cache
    provenance is per-request (`cache_source`) and aggregate
    (`store_hits`), and results match the first service's bit-for-bit."""
    w = FIGURES["fig12-then"]
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
    w = FIGURES["fig16"]
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
