"""CompilerSession: artifact caching, key sensitivity, session-driven runs."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CompilerOptions,
    CompilerSession,
    ExecutionEnv,
    Executor,
    Machine,
    compile_program,
    execute,
    predict_traffic,
)
from repro.apps.adi import adi_kernels, build_adi_program
from repro.apps.figures import FIG16
from repro.apps.workloads import random_legal_subroutine
from repro.compiler import pipeline as pipeline_mod
from repro.compiler.session import source_digest
from repro.compiler.template import TemplateStructure
from repro.errors import ParseError
from repro.fuzz.generator import generate_case
from repro.lang.parser import parse_program
from repro.lang.printer import print_program
from repro.symbolic.classify import classify_bindings
from test_lowering import counted

SRC = """
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


SRC2 = """
subroutine other()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(cyclic)
  compute reads A
!hpf$ redistribute A(block)
  compute reads A
end
"""


def test_warm_compile_hits_cache_with_zero_pass_work():
    s = CompilerSession(processors=4)
    cold = s.compile(SRC, bindings={"n": 32})
    assert s.stats["misses"] == 1 and s.stats["hits"] == 0
    passes_after_cold = s.stats["passes_run"]
    assert passes_after_cold == len(cold.trace.records) > 0

    warm = s.compile(SRC, bindings={"n": 32})
    assert warm is cold  # the artifact itself, not a recompile
    assert s.stats["hits"] == 1
    # zero parse/construction work on the warm path: no new pass records
    assert s.stats["passes_run"] == passes_after_cold
    assert s.stats["hit_rate"] == 0.5


def test_runtime_only_bindings_do_not_recompile():
    # `t` is a declared scalar (a runtime loop bound): only extents are in
    # the key, so varying `t` re-serves the same artifact
    s = CompilerSession(processors=4)
    prog = build_adi_program(16)
    cold = s.compile(prog, bindings={"t": 2})
    warm = s.compile(prog, bindings={"t": 5})
    assert s.stats["hits"] == 1 and s.stats["misses"] == 1
    # the expensive products are shared; only the binding wrapper differs,
    # carrying the *current* caller's bindings for the run to read
    assert warm.get("adi").code is cold.get("adi").code
    assert warm.get("adi").construction is cold.get("adi").construction
    assert warm.subroutines is cold.subroutines and warm.report is cold.report
    assert warm.bindings["t"] == 5
    assert cold.bindings["t"] == 2
    assert s.compile(prog, bindings={"t": 2}) is cold  # exact match: verbatim
    assert s.stats["hits"] == 2 and s.stats["misses"] == 1
    # and the runs still honour the varying bound (2 vs 5 sweeps)
    u0 = np.ones((16, 16))
    r2 = s.run(prog, bindings={"t": 2}, kernels=adi_kernels(0.1), inputs={"u": u0})
    r5 = s.run(prog, bindings={"t": 5}, kernels=adi_kernels(0.1), inputs={"u": u0})
    assert not np.allclose(r2.value("u"), r5.value("u"))
    assert s.stats["misses"] == 1  # still the one cold compile


def test_served_artifact_predicts_what_it_runs():
    """A hit served with another runtime-only bound predicts the traffic its
    run moves: the run and the prediction read the artifact's one
    ``bindings`` field, not the bindings of whoever compiled first."""
    s = CompilerSession(processors=4, options=CompilerOptions(level=1))
    s.compile(FIG16, bindings={"n": 16, "t": 3})
    served = s.compile(FIG16, bindings={"n": 16, "t": 1})
    assert s.stats["misses"] == 1 and s.stats["hits"] == 1
    predicted = predict_traffic(served)
    observed = execute(served).observed_traffic()
    assert (predicted.bytes, predicted.messages) == (observed.bytes, observed.messages)
    assert (observed.bytes, observed.messages) == (192, 24)


@settings(max_examples=30, deadline=None)
@given(
    first=st.integers(0, 4),
    second=st.integers(0, 4),
    level=st.integers(0, 3),
    schedule=st.sampled_from((None, "round-robin", "aggregate")),
    symbolic=st.booleans(),
)
def test_prop_served_artifact_predicts_its_run(first, second, level, schedule, symbolic):
    """Two requests to one session differ only in a runtime-only loop bound:
    the second is served from the first's artifact, and its prediction
    equals its run in bytes and messages."""
    options = (
        CompilerOptions.symbolic(level=level, schedule=schedule)
        if symbolic
        else CompilerOptions(level=level, schedule=schedule)
    )
    s = CompilerSession(processors=4, options=options)
    s.compile(FIG16, bindings={"n": 16, "t": first})
    served = s.compile(FIG16, bindings={"n": 16, "t": second})
    assert s.stats["misses"] == 1 and s.stats["hits"] == 1
    assert served.bindings == {"n": 16, "t": second}
    predicted = predict_traffic(served)
    observed = execute(served).observed_traffic()
    assert (predicted.bytes, predicted.messages) == (observed.bytes, observed.messages)


def test_cache_hit_executes_with_its_own_callers_bound():
    # executing the artifacts directly, with an env that carries no
    # bindings: the loop bound comes from the artifact's wrapper, so the
    # cache hit runs its own caller's 5 sweeps, not the cold compile's 2
    s = CompilerSession(processors=4)
    prog = build_adi_program(16)
    cold = s.compile(prog, bindings={"t": 2})
    warm = s.compile(prog, bindings={"t": 5})
    assert warm.get("adi").construction is cold.get("adi").construction
    performed = {}
    for t, compiled in ((2, cold), (5, warm)):
        env = ExecutionEnv(kernels=adi_kernels(0.1), inputs={"u": np.ones((16, 16))})
        performed[t] = execute(compiled, env=env).stats.remaps_performed
    # two copies a sweep, less the first iteration's status no-op
    assert performed == {2: 3, 5: 9}


def test_cache_key_sensitivity():
    s = CompilerSession(processors=4)
    base = s.compile(SRC, bindings={"n": 32})
    assert s.compile(SRC, bindings={"n": 64}) is not base  # bindings differ
    assert s.compile(SRC2, bindings={"n": 32}) is not base  # source differs
    assert s.compile(SRC, bindings={"n": 32}, processors=2) is not base
    assert (
        s.compile(SRC, bindings={"n": 32}, options=CompilerOptions(level=1))
        is not base
    )
    # level=3 and its desugared pass list are the *same* key
    assert (
        s.compile(
            SRC,
            bindings={"n": 32},
            options=CompilerOptions(passes=CompilerOptions(level=3).pass_names),
        )
        is base
    )
    assert s.stats["misses"] == 5 and s.stats["hits"] == 1


def test_lru_eviction_bound():
    s = CompilerSession(processors=4, max_entries=2)
    s.compile(SRC, bindings={"n": 8})
    s.compile(SRC, bindings={"n": 16})
    s.compile(SRC, bindings={"n": 8})  # refresh: 8 is now most recent
    s.compile(SRC, bindings={"n": 32})  # evicts 16
    assert s.stats["evictions"] == 1
    assert s.cache_size == 2
    s.compile(SRC, bindings={"n": 8})  # still cached
    assert s.stats["hits"] == 2
    s.compile(SRC, bindings={"n": 16})  # was evicted: recompiles
    assert s.stats["misses"] == 4


def test_ast_sources_are_cacheable():
    s = CompilerSession(processors=4)
    prog = build_adi_program(16)
    a = s.compile(prog)
    b = s.compile(prog)
    assert a is b and s.stats["hits"] == 1
    # a structurally identical rebuild hits too (content digest, not id)
    c = s.compile(build_adi_program(16))
    assert c is a
    assert s.compile(build_adi_program(32)) is not a


def test_session_run_matches_manual_executor():
    n = 16
    u0 = np.arange(n * n, dtype=float).reshape(n, n)
    s = CompilerSession(processors=4)
    res = s.run(
        build_adi_program(n),
        bindings={"t": 2},
        kernels=adi_kernels(0.1),
        inputs={"u": u0},
    )

    compiled = compile_program(build_adi_program(n), processors=4)
    machine = Machine(compiled.processors)
    env = ExecutionEnv(bindings={"t": 2}, kernels=adi_kernels(0.1), inputs={"u": u0})
    manual = Executor(compiled, machine, env).run("adi")

    assert np.allclose(res.value("u"), manual.value("u"))
    assert res.machine.stats.snapshot() == machine.stats.snapshot()


def test_session_run_reuses_artifact_across_runs():
    s = CompilerSession(processors=4)
    n = 8
    for _ in range(3):
        r = s.run(
            SRC.replace("main", "m1"),
            bindings={"n": n},
            inputs={"a": np.ones(n)},
        )
        assert r.stats.snapshot()["remaps_performed"] >= 1
    assert s.stats["misses"] == 1 and s.stats["hits"] == 2


def test_session_defaults_and_overrides():
    s = CompilerSession(processors=4, options=CompilerOptions(level=0))
    cp = s.compile(SRC, bindings={"n": 8})
    assert cp.options.naive
    cp3 = s.compile(SRC, bindings={"n": 8}, options=CompilerOptions(level=3))
    assert not cp3.options.naive and cp3 is not cp


def test_bad_session_arguments():
    with pytest.raises(ValueError):
        CompilerSession(max_entries=0)
    s = CompilerSession(processors=4)
    with pytest.raises(TypeError):
        s.compile(12345)  # type: ignore[arg-type]


def test_cost_model_is_part_of_the_cache_key():
    """Two sessions (or two options) with different machine cost models
    must not share artifacts: the motion pass's cost guard makes different
    code-motion decisions under different latency/bandwidth/status-check
    parameters, so an artifact compiled for one machine model may be wrong
    traffic-wise for another."""
    from repro import CostModel

    # constant zero-trip Fig. 16 shape: the sink decision flips with the
    # status-check cost (see test_cost_guard), so the artifacts really differ
    src = """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  do i = 1, 0
!hpf$   redistribute A(cyclic)
    compute reads A
!hpf$   redistribute A(block)
  enddo
  compute reads A
end
"""
    s = CompilerSession(processors=4)
    default_model = s.compile(src, bindings={"n": 16})
    free_checks = s.compile(
        src,
        bindings={"n": 16},
        options=CompilerOptions(level=3, cost=CostModel(delta=0.0)),
    )
    assert s.stats["misses"] == 2 and s.stats["hits"] == 0
    assert free_checks is not default_model
    # the cached artifacts embody different motion decisions
    assert default_model.report.motion["main"].count == 0
    assert free_checks.report.motion["main"].count == 1

    # same cost model again: a hit, served from cache
    again = s.compile(src, bindings={"n": 16})
    assert again is default_model and s.stats["hits"] == 1

    # session-level default cost models separate sessions' keys too
    s2 = CompilerSession(
        processors=4, options=CompilerOptions(level=3, cost=CostModel(delta=0.0))
    )
    via_session_default = s2.compile(src, bindings={"n": 16})
    assert via_session_default.report.motion["main"].count == 1


# ---------------------------------------------------------------------------
# first contact: a source is classified where its digest is first met
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), fuzz=st.booleans())
def test_prop_first_contact_classification_is_the_symbolize_passs(seed, fuzz):
    """What the session keys on at first contact (the classification of the
    parsed text, before any pass ran) is what the ``symbolize`` pass cuts
    into the template from the post-motion AST -- on generated workloads and
    fuzz cases."""
    if fuzz:
        case = generate_case(seed)
        program, bindings = case.program, case.bindings
    else:
        rng = np.random.default_rng(seed)
        program = random_legal_subroutine(rng, n_arrays=3, length=6, depth=2)
        bindings = None
    text = print_program(program)
    options = CompilerOptions.symbolic(level=3)
    session = CompilerSession(processors=4, options=options)
    session.compile(text, bindings=bindings)
    (first_contact, _), = session._sources._entries.values()
    assert first_contact == classify_bindings(parse_program(text))
    ctx = pipeline_mod.Pipeline(options).run_context(text, bindings, 4)
    assert first_contact == classify_bindings(ctx.program)
    # a template is cut exactly where the session keys one
    assert (ctx.cut is not None) == bool(first_contact.shape_symbolic)


def test_cache_key_is_the_same_before_and_after_the_first_compile():
    s = CompilerSession(processors=4, max_entries=1)
    before = s.cache_key(FIG16, bindings={"n": 16, "t": 3})
    assert before == s.cache_key(FIG16, bindings={"n": 16, "t": 9})  # t: runtime-only
    assert before != s.cache_key(FIG16, bindings={"n": 24, "t": 3})  # n: an extent
    cold = s.compile(FIG16, bindings={"n": 16, "t": 3})
    assert s.cache_key(FIG16, bindings={"n": 16, "t": 3}) == before
    assert s.compile(FIG16, bindings={"n": 16, "t": 9}).get("main").code is cold.get("main").code
    assert s.stats["misses"] == 1 and s.stats["hits"] == 1
    # another source evicts FIG16's artifact and its classification
    s.compile(SRC2, bindings={"n": 16})
    assert s.cache_size == 1 and list(s._sources._entries) == [source_digest(SRC2)]
    assert s.cache_key(FIG16, bindings={"n": 16, "t": 7}) == before


def test_text_is_parsed_once_at_first_contact_and_never_on_a_hit(tmp_path, monkeypatch):
    # first contact converts a source with the pipeline's one helper
    parses = counted(monkeypatch, pipeline_mod, "parse_program")
    eager = CompilerOptions(level=3)
    symbolic = CompilerOptions.symbolic(level=3)
    writer = CompilerSession(processors=4, store=tmp_path)
    for options in (eager, symbolic):
        assert writer.compile_traced(FIG16, {"n": 16, "t": 2}, options=options)[1] == "compiled"
    assert len(parses) == 1  # the second cold compile reused the parsed program
    assert writer.compile_traced(FIG16, {"n": 16, "t": 5}, options=eager)[1] == "memory"
    assert writer.compile_traced(FIG16, {"n": 16, "t": 7}, options=symbolic)[1] == "memory"
    assert len(parses) == 1
    # a fresh session over the same store: one parse per first contact,
    # whichever tier ends up serving it
    for options, bindings, tier in (
        (eager, {"n": 16, "t": 4}, "disk"),
        (symbolic, {"n": 40, "t": 4}, "instantiated"),
    ):
        del parses[:]
        reader = CompilerSession(processors=4, store=tmp_path)
        assert reader.compile_traced(FIG16, bindings, options=options)[1] == tier
        assert reader.compile_traced(FIG16, bindings, options=options)[1] == "memory"
        assert len(parses) == 1 and reader.stats["passes_run"] == 0
    # a Program source is classified as it is
    del parses[:]
    s = CompilerSession(processors=4)
    assert s.compile_traced(parse_program(FIG16), {"n": 16, "t": 2})[1] == "compiled"
    assert s.compile_traced(parse_program(FIG16), {"n": 16, "t": 3})[1] == "memory"
    assert parses == []


def test_unparsable_source_has_no_key_and_counts_nothing():
    s = CompilerSession(processors=4)
    bad = "subroutine broken(\n"
    with pytest.raises(ParseError) as direct:
        parse_program(bad)
    for call in (s.cache_key, s.compile):
        with pytest.raises(ParseError) as raised:
            call(bad)
        assert str(raised.value) == str(direct.value)
    assert s.stats["misses"] == 0 and s.stats["hits"] == 0 and not s._sources


#: every extent a literal: nothing is shape-symbolic
LITERAL = """
subroutine main()
  real A(16)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
!hpf$ redistribute A(cyclic)
  compute reads A
end
"""


def test_a_literal_extent_source_cuts_no_template(tmp_path, monkeypatch):
    """A symbolized compile of a source with no shape-symbolic name takes
    no template structure and returns no template; its artifact is cached
    and stored under its artifact key, as an eager compile's is."""
    structures = counted(monkeypatch, TemplateStructure, "of")
    options = CompilerOptions.symbolic(level=3)
    compiled, template = pipeline_mod.Pipeline(options).serve(LITERAL, None, 4)
    assert template is None and structures == []
    assert compiled.trace.counter("symbolize", "shape_symbolic") == 0
    writer = CompilerSession(processors=4, options=options, store=tmp_path)
    assert writer.compile_traced(LITERAL)[1] == "compiled"
    assert writer.compile_traced(LITERAL)[1] == "memory"
    assert structures == [] and writer.cache_size == 1
    reader = CompilerSession(processors=4, options=options, store=tmp_path)
    assert reader.compile_traced(LITERAL)[1] == "disk"
    assert reader.stats["passes_run"] == 0


def test_concurrent_misses_of_one_key_run_the_pipeline_once(monkeypatch):
    """Four threads missing one never-seen key at once: the first serves it,
    the other three wait on its flight and are neither hits nor misses."""
    runs, real = [], pipeline_mod.Pipeline.serve

    def slow_serve(self, *args, **kwargs):
        runs.append(1)
        time.sleep(0.25)  # hold the flight open while the others arrive
        return real(self, *args, **kwargs)

    monkeypatch.setattr(pipeline_mod.Pipeline, "serve", slow_serve)
    s = CompilerSession(processors=4)
    barrier = threading.Barrier(4, timeout=30)

    def call(t):
        barrier.wait()
        return s.compile(FIG16, bindings={"n": 16, "t": t})

    with ThreadPoolExecutor(max_workers=4) as pool:
        served = list(pool.map(call, range(1, 5), timeout=60))
    assert len(runs) == 1
    assert s.stats["misses"] == 1 and s.stats["hits"] == 0
    # each caller's artifact carries its own runtime-only bindings
    assert [c.bindings["t"] for c in served] == [1, 2, 3, 4]
