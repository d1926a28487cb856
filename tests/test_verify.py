"""The static artifact verifier: clean on real compiles, loud on mutants.

Positive controls are mutation-style: take a genuinely compiled artifact,
break exactly one invariant the way a real bug would (stale ``id(stmt)``
keys after deserialization, dangling remap-graph edges, impossible
version annotations), and require the verifier to name the broken check.
The negative control is silence over the paper figures and the four
application kernels at every level and schedule option.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import (
    ArtifactStore,
    CompilerOptions,
    CompilerSession,
    ExecutionEnv,
    Executor,
    Machine,
    compile_program,
)
from repro.analysis.verify import assert_verified, verify_artifact
from repro.apps.adi import build_adi_program
from repro.apps.fft2d import build_fft2d_program
from repro.apps.lu import build_lu_program
from repro.apps.sar import build_sar_program
from repro.errors import ArtifactVerificationError
from repro.store.cli import main as store_cli

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

BINDINGS = {"n": 16, "m": 3}


def _compiled(schedule=None, level=3, source=FIG12, bindings=None):
    return compile_program(
        source,
        bindings=BINDINGS if bindings is None else bindings,
        processors=4,
        options=CompilerOptions(level=level, schedule=schedule),
    )


# ---------------------------------------------------------------------------
# negative control: real artifacts verify clean
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("schedule", [None, "aggregate"])
def test_fig12_verifies_clean_at_every_level(level, schedule):
    assert verify_artifact(_compiled(schedule=schedule, level=level)) == []


@pytest.mark.parametrize(
    "builder",
    [
        lambda: build_adi_program(16),
        lambda: build_fft2d_program(16),
        lambda: build_lu_program(16, 4)[0],
        lambda: build_sar_program(16),
    ],
    ids=["adi", "fft2d", "lu", "sar"],
)
def test_apps_verify_clean(builder):
    compiled = _compiled(schedule="round-robin", source=builder(), bindings={})
    assert verify_artifact(compiled) == []
    assert assert_verified(compiled) is compiled


def test_verify_pass_runs_in_pipeline():
    """The opt-in ``verify`` pass runs last and records its counters."""
    options = CompilerOptions(
        passes=(
            "parse", "resolve", "construction", "remove-useless",
            "status-checks", "codegen", "verify",
        ),
        schedule="round-robin",
    )
    compiled = compile_program(FIG12, bindings=BINDINGS, processors=4, options=options)
    assert compiled.trace is not None
    assert compiled.trace.pass_names[-1] == "verify"
    assert compiled.trace.counter("verify", "issues") == 0
    assert compiled.trace.counter("verify", "subroutines") == len(compiled.subroutines)


# ---------------------------------------------------------------------------
# mutation-style positive controls
# ---------------------------------------------------------------------------


def test_stale_stmt_keys_are_caught():
    """The PR-5 bug class: ``id(stmt)``-keyed maps drifting out of sync
    with the CFG's statements (as after a careless deserialization)."""
    mutant = copy.deepcopy(_compiled())
    cfg = mutant.get("remap").construction.cfg
    # shift every key: hash-valid data, semantically stale identities
    cfg.stmt_nodes = {k + 1: v for k, v in cfg.stmt_nodes.items()}
    issues = verify_artifact(mutant)
    assert issues, "stale stmt_nodes must not verify"
    assert any(i.check == "stmt-keys" for i in issues), issues
    with pytest.raises(ArtifactVerificationError) as exc:
        assert_verified(mutant)
    assert exc.value.issues


def test_dangling_graph_edge_is_caught():
    mutant = copy.deepcopy(_compiled())
    graph = mutant.get("remap").construction.graph
    src = next(iter(graph.vertices))
    graph.edges[(src, 9999)] = {"a"}
    issues = verify_artifact(mutant)
    assert any(i.check == "graph" for i in issues), issues


def test_impossible_version_annotation_is_caught():
    """A reference annotated with a version no path can produce."""
    mutant = copy.deepcopy(_compiled())
    res = mutant.get("remap").construction
    sid, vers = next(iter(res.stmt_versions.items()))
    res.stmt_versions[sid] = {a: 9999 for a in vers}
    issues = verify_artifact(mutant)
    assert any(i.check in ("versions", "graph") for i in issues), issues


# ---------------------------------------------------------------------------
# store integration: hash-valid but invariant-violating entries
# ---------------------------------------------------------------------------


W12 = dict(
    bindings=BINDINGS,
    conditions={"c1": True},
    inputs={"a": np.arange(256.0).reshape(16, 16)},
)


def _run(compiled, w):
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions=dict(w["conditions"]),
        bindings=dict(w["bindings"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
    )
    name = next(iter(compiled.subroutines))
    result = Executor(compiled, machine, env).run(name)
    return {a: result.value(a) for a in compiled.get(name).sub.arrays}


def test_semantically_corrupt_entry_evicted_never_executed(tmp_path):
    """A stored artifact whose payload digest is VALID but whose graph
    violates an invariant must be evicted on load and degrade to a
    recompile -- the corrupt artifact is never served, never executed."""
    store = ArtifactStore(tmp_path / "sem")
    options = CompilerOptions(level=3, schedule="round-robin")
    session = CompilerSession(processors=4, options=options, store=store)
    session.compile(FIG12, bindings=BINDINGS)
    key = session.cache_key(FIG12, bindings=BINDINGS)

    # overwrite with a mutant through the store's own writer: the entry on
    # disk is hash-valid (digest recomputed at write) but semantically bad
    mutant = copy.deepcopy(_compiled(schedule="round-robin"))
    src = next(iter(mutant.get("remap").construction.graph.vertices))
    mutant.get("remap").construction.graph.edges[(src, 9999)] = {"a"}
    assert store.store(key, mutant)

    assert store.load(key) is None, "invariant-violating entry must not serve"
    assert store.stats["semantic_evicted"] == 1
    assert not store.entry_path(key).exists(), "bad entry must be evicted"

    # a store-backed session degrades to a clean recompile and runs fine
    fresh_session = CompilerSession(processors=4, options=options, store=store)
    compiled, tier = fresh_session.compile_traced(FIG12, bindings=BINDINGS)
    assert tier == "compiled"
    assert _run(compiled, W12)


def test_store_cli_deep_verify_exit_codes(tmp_path, capsys):
    """``verify --deep`` finds (and with eviction, removes) entries that
    pass the shallow integrity check but fail the invariant checker."""
    store = ArtifactStore(tmp_path / "cli")
    options = CompilerOptions(level=3, schedule="round-robin")
    session = CompilerSession(processors=4, options=options, store=store)
    session.compile(FIG12, bindings=BINDINGS)
    key = session.cache_key(FIG12, bindings=BINDINGS)

    mutant = copy.deepcopy(_compiled(schedule="round-robin"))
    cfg = mutant.get("remap").construction.cfg
    cfg.stmt_nodes = {k + 1: v for k, v in cfg.stmt_nodes.items()}
    assert store.store(key, mutant)

    root = str(tmp_path / "cli")
    # shallow verify: digest is fine, exit 0, entry stays
    assert store_cli(["verify", "--keep", "--dir", root]) == 0
    # deep verify (dry run): reported but kept
    assert store_cli(["verify", "--deep", "--keep", "--dir", root]) == 1
    assert store.entry_path(key).exists()
    # deep verify with eviction: reported and removed
    assert store_cli(["verify", "--deep", "--dir", root]) == 1
    assert not store.entry_path(key).exists()
    # now clean
    assert store_cli(["verify", "--deep", "--dir", root]) == 0
    capsys.readouterr()
