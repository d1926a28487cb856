"""The generative differential fuzzer itself: generator legality,
oracle teeth, shrinker quality, corpus round-trips, profiles, CLI.

The corpus *contents* are replayed in ``tests/test_fuzz_corpus.py``;
this module tests the machinery that produced them.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import verify_artifact
from repro.compiler.artifacts import CompilerOptions
from repro.compiler.session import CompilerSession
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.corpus import load_corpus, pin_case
from repro.fuzz.generator import (
    FuzzSpec,
    case_inputs,
    generate_case,
    runtime_conditions,
)
from repro.fuzz.oracle import OracleConfig, OracleFinding, run_oracle
from repro.fuzz.profiles import PROFILES, load_profile_from_env
from repro.fuzz.shrink import shrink_case
from repro.lang.ast_nodes import walk_statements
from repro.lang.printer import print_program

#: the oracle slice the teeth tests run: every level, unscheduled,
#: eager, fresh -- the cheapest column that still exposes the
#: level-monotonicity contract
TEETH = OracleConfig(
    levels=(0, 1, 2, 3),
    schedules=(None,),
    variants=("eager",),
    provenances=("fresh",),
    lint=False,
    unguarded_motion=True,
)


# ---------------------------------------------------------------- generator


def test_generator_is_deterministic():
    a, b = generate_case(7), generate_case(7)
    assert print_program(a.program) == print_program(b.program)
    assert a.bindings == b.bindings
    assert a.conditions == b.conditions
    for name in a.inputs:
        np.testing.assert_array_equal(a.inputs[name], b.inputs[name])


def test_generator_seeds_differ():
    sources = {print_program(generate_case(s).program) for s in range(8)}
    assert len(sources) > 1


@pytest.mark.parametrize("seed", range(5))
def test_generated_programs_compile_and_verify_at_level_3(seed):
    case = generate_case(seed)
    session = CompilerSession(processors=4)
    compiled = session.compile(
        case.program, bindings=case.bindings, options=CompilerOptions(level=3)
    )
    assert verify_artifact(compiled) == []


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=8, deadline=None)
def test_generated_cases_survive_the_smoke_oracle(seed):
    case = generate_case(seed, FuzzSpec(length=4, depth=1))
    assert run_oracle(case, OracleConfig.smoke()) == []


def test_runtime_conditions_cycle_and_replay():
    conds = runtime_conditions({"c0": True, "c1": [True, False, False]})
    assert conds["c0"] is True
    seq = [conds["c1"]() for _ in range(6)]
    assert seq == [True, False, False, True, False, False]
    # a fresh call rebuilds fresh iterators: identical replay
    again = runtime_conditions({"c0": True, "c1": [True, False, False]})
    assert [again["c1"]() for _ in range(6)] == seq


def test_case_inputs_keyed_by_seed_and_name():
    one = case_inputs(3, ["a0", "a1"], 16)
    two = case_inputs(3, ["a1", "a0"], 16)
    np.testing.assert_array_equal(one["a0"], two["a0"])
    assert not np.array_equal(one["a0"], one["a1"])
    assert not np.array_equal(case_inputs(4, ["a0"], 16)["a0"], one["a0"])


# ------------------------------------------------------------------- teeth


def test_oracle_has_teeth():
    """With the motion CostGuard disabled, a bounded fixed-seed budget
    must rediscover a seed-2558-class level-monotonicity violation."""
    for seed in range(100):
        case = generate_case(seed)
        findings = run_oracle(case, TEETH)
        if any(f.kind == "bytes-not-monotone" for f in findings):
            break
    else:
        pytest.fail("no bytes-not-monotone finding in seeds 0..99")
    # the guarded compiler must be clean on the very same case
    guarded = OracleConfig(
        levels=(0, 1, 2, 3),
        schedules=(None,),
        variants=("eager",),
        provenances=("fresh",),
        lint=False,
    )
    assert run_oracle(case, guarded) == []


def test_shrinker_minimizes_the_teeth_counter_example():
    case = generate_case(56)
    original = sum(1 for _ in walk_statements(case.program.subroutines[0].body))
    shrunk, findings = shrink_case(
        case, TEETH, target_kinds={"bytes-not-monotone"}, max_attempts=150
    )
    assert any(f.kind == "bytes-not-monotone" for f in findings)
    size = sum(1 for _ in walk_statements(shrunk.program.subroutines[0].body))
    assert size < min(original, 10)


def test_unguarded_motion_switch_restores_the_guard():
    from repro.compiler import pipeline
    from repro.fuzz.oracle import _motion_unguarded

    before = pipeline.MotionPass.__dict__["_guard"]
    with _motion_unguarded():
        assert pipeline.MotionPass._guard(None) is None
    assert pipeline.MotionPass.__dict__["_guard"] is before
    # a guarded compile after the teeth run must behave normally
    case = generate_case(0, FuzzSpec(length=4, depth=1))
    assert run_oracle(case, OracleConfig.smoke()) == []


def test_prediction_axis_has_teeth(monkeypatch):
    """A static predictor that overprices every copy by 8 bytes is caught
    on exactly the cells that perform one -- the executor charges its own
    plans' ledgers, the predictor walks no storage, so the two really are
    two computations."""
    from repro.fuzz import oracle
    from repro.spmd import traffic

    # the entry whose copies are all removable: only its level-0 cells move data
    corpus = load_corpus(Path(__file__).parent / "fuzz_corpus")
    (entry,) = [e for e in corpus if e.name == "fuzz-96faae7400a9"]
    case = entry.to_case()
    config = OracleConfig(lint=False)
    performed = []  # remaps_performed per cell, in config.cells() order
    real_run_cell = oracle._run_cell

    def recording(case, compiled):
        result, snap = real_run_cell(case, compiled)
        performed.append(snap["remaps_performed"])
        return result, snap

    real_price = traffic._copy_price

    def overpriced(*args):
        price = real_price(*args)
        return dataclasses.replace(price, bytes=price.bytes + 8)

    monkeypatch.setattr(oracle, "_run_cell", recording)
    monkeypatch.setattr(traffic, "_copy_price", overpriced)  # wraps the price cache too
    findings = run_oracle(case, config)
    copying = {c.label() for c, n in zip(config.cells(), performed, strict=True) if n}
    assert 0 < len(copying) < len(performed)
    assert {f.cell for f in findings if f.kind == "prediction"} == copying

    monkeypatch.setattr(traffic, "_copy_price", real_price)
    assert run_oracle(case, config) == []


# ------------------------------------------------------------------ corpus


def test_corpus_pin_and_load_round_trip(tmp_path):
    case = generate_case(11, FuzzSpec(length=4, depth=1))
    findings = [OracleFinding("bytes-not-monotone", "L3/x/y/z", "demo")]
    path = pin_case(case, findings, tmp_path, covers=("demo",), note="round trip")
    assert path.exists()
    (entry,) = load_corpus(tmp_path)
    assert entry.kinds == ("bytes-not-monotone",)
    assert entry.covers == ("demo",)
    rebuilt = entry.to_case()
    assert print_program(rebuilt.program) == print_program(case.program)
    assert rebuilt.bindings == case.bindings
    assert rebuilt.conditions == case.conditions
    for name in case.inputs:
        np.testing.assert_array_equal(rebuilt.inputs[name], case.inputs[name])


# ---------------------------------------------------------------- profiles


def test_profiles_registry_names():
    assert {"deterministic", "random", "fuzz-smoke"} <= set(PROFILES)


def test_load_profile_from_env(monkeypatch):
    monkeypatch.setenv("HYPOTHESIS_PROFILE", "fuzz-smoke")
    assert load_profile_from_env() == "fuzz-smoke"
    monkeypatch.setenv("HYPOTHESIS_PROFILE", "no-such-profile")
    with pytest.raises(KeyError):
        load_profile_from_env()
    monkeypatch.undo()
    load_profile_from_env()  # back to whatever this suite runs under


# --------------------------------------------------------------------- CLI


def test_cli_clean_run_exits_zero(capsys):
    rc = fuzz_main(["--programs", "2", "--matrix", "smoke", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 case(s) explored" in out


def test_cli_infrastructure_error_exits_two(tmp_path, capsys):
    (tmp_path / "broken.json").write_text("{not json")
    rc = fuzz_main(["--programs", "0", "--corpus", str(tmp_path)])
    capsys.readouterr()
    assert rc == 2


def test_cli_pins_counter_examples(tmp_path, capsys):
    # seed 56 fails under teeth; the CLI path is exercised with the
    # guarded oracle, so emulate a failure via a corpus regression:
    # pin a teeth case's *finding kinds* but replay guarded -> clean,
    # hence assert the clean path instead (the failing path is covered
    # by test_oracle_has_teeth + the shrinker test above)
    rc = fuzz_main(
        [
            "--programs",
            "1",
            "--matrix",
            "smoke",
            "--seed",
            "1",
            "--pin-dir",
            str(tmp_path / "pins"),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    assert not (tmp_path / "pins").exists()  # nothing to pin on a clean run


# ----------------------------------------------------- session regression


def test_store_round_trip_serves_symbolic_after_eager_adoption(tmp_path):
    """Found by the fuzzer's store cells, when keys were still learned: a
    reader session that first touched a source through an *eager* request
    never learned its shape names, so a later *symbolic* request for the
    same source fell through to a cold compile instead of instantiating
    the stored template.  A key is now a pure function of the request;
    the tiers stay pinned."""
    case = generate_case(2, FuzzSpec(length=4, depth=1))
    eager = CompilerOptions(level=3)
    symbolic = CompilerOptions.symbolic(level=3)
    writer = CompilerSession(processors=4, store=tmp_path)
    writer.compile(case.program, bindings=case.bindings, options=eager)
    writer.compile(case.program, bindings=case.bindings, options=symbolic)

    reader = CompilerSession(processors=4, store=tmp_path)
    _, tier = reader.compile_traced(
        case.program, bindings=case.bindings, options=eager
    )
    assert tier == "disk"
    _, tier = reader.compile_traced(
        case.program, bindings=case.bindings, options=symbolic
    )
    assert tier == "instantiated"


def test_corpus_files_are_canonical_json():
    corpus_dir = Path(__file__).parent / "fuzz_corpus"
    for path in sorted(corpus_dir.glob("*.json")):
        data = json.loads(path.read_text())
        canonical = json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert path.read_text() == canonical, f"{path.name} is not canonical"
        assert data["name"] == path.stem
