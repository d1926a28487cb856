"""The cost guard prices a sink on the family it moves.

Two claims carry :func:`repro.remap.costguard.project`:

* traffic decomposes by alignment family -- in every scenario of the full
  grid, a program's simulated traffic is the sum of its projections' onto
  each of its families;
* the projected decision is the whole-program one -- ``CostGuard._price``
  on the *unprojected* subroutines, kept here (and only here) as the
  oracle -- wherever the whole grid fits the cap and every shape probe
  resolves, up to exact ties the whole program's float sums round away.
  In those three places the projection may turn a reject into a sink; one
  example of each is pinned and checked clean under the full differential
  oracle.

The deterministic profile runs a few dozen programs; the CI
``tests-random`` leg (``HYPOTHESIS_PROFILE=random``) runs fresh, wider
draws.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CompilerOptions, ExecutionEnv, Executor, Machine, compile_program
from repro.apps.adi import build_adi_program
from repro.apps.fft2d import build_fft2d_program
from repro.apps.lu import build_lu_program
from repro.apps.sar import build_sar_program
from repro.apps.workloads import random_environment, random_legal_subroutine
from repro.compiler import pipeline
from repro.errors import ReproError
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import FuzzCase, generate_case
from repro.fuzz.oracle import OracleConfig, run_oracle
from repro.lang.ast_nodes import Program
from repro.lang.parser import parse_program
from repro.lang.printer import print_subroutine
from repro.remap import costguard
from repro.remap.costguard import CostGuard, GuardDecision, family_index, project
from repro.remap.motion import _apply_script
from repro.spmd.cost import TrafficEstimate
from repro.spmd.traffic import enumerate_scenarios, simulate_traffic

from test_schedule import FIG1, FIG12, FIG16

WIDE = os.environ.get("HYPOTHESIS_PROFILE") == "random"
#: generated programs per property (the decision property compiles each six
#: times, twice priced)
DECOMPOSITION_EXAMPLES = 300 if WIDE else 40
DECISION_EXAMPLES = 150 if WIDE else 10
CORPUS = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
#: a modelled time delta below this, over a whole grid, is float rounding
TIE_SECONDS = 1e-12
#: the three compile-time scheduling policies x the two compile variants
CONFIGS = [
    (schedule, variant)
    for schedule in (None, "round-robin", "aggregate")
    for variant in ("eager", "symbolic")
]


def _generated(kind: str, seed: int) -> tuple[Program, dict[str, int]]:
    """One generated program and its compile bindings."""
    if kind == "workload":
        return random_legal_subroutine(np.random.default_rng(seed)), {}
    if kind == "compile_cold":  # the layered benchmark's compile_cold shape
        rng = np.random.default_rng(seed)
        return random_legal_subroutine(rng, n_arrays=4, length=16, depth=3), {}
    case = generate_case(seed)
    return case.program, case.bindings


# ---------------------------------------------------------------------------
# the projection itself
# ---------------------------------------------------------------------------

TWO_FAMILIES = """
subroutine main()
  integer n, t
  real A(n), B(n), C(n), D(n)
!hpf$ align with C :: D
!hpf$ dynamic A, B, C
!hpf$ distribute A(block)
!hpf$ distribute B(block)
!hpf$ distribute C(block)
  compute writes A, B reads C, D
  if c1 then
    compute reads B
  endif
  if c2 then
!hpf$ redistribute A(cyclic)
    compute reads A
  else
!hpf$ kill B
    compute defines B
  endif
  do i = 1, t
!hpf$ redistribute C(cyclic)
    compute reads B, D
  enddo
  call leaf(B)
end
"""


def test_projection_keeps_loops_calls_and_the_family():
    sub = parse_program(TWO_FAMILIES).subroutines[0]
    assert family_index(sub)["d"] == frozenset({"c", "d"})
    # b is declared because the call passes it; its statements are gone
    assert print_subroutine(project(sub, frozenset({"a"}))) == "\n".join([
        "subroutine main()",
        "  integer n, t",
        "  real a(n)",
        "  real b(n)",
        "!hpf$ dynamic a, b",
        "!hpf$ distribute a(block)",
        "!hpf$ distribute b(block)",
        "  compute writes a",
        "  if c2 then",
        "!hpf$ redistribute a(cyclic)",
        "    compute reads a",
        "  endif",
        "  do i = 1, t",
        "  enddo",
        "  call leaf(b)",
        "end",
    ])


@settings(max_examples=DECOMPOSITION_EXAMPLES, deadline=None)
@given(kind=st.sampled_from(["workload", "compile_cold", "fuzz"]), seed=st.integers(0, 10_000))
def test_moved_families_are_the_families_whose_projections_differ(kind, seed):
    """The guard compares projections only where two placements differ;
    that must name exactly the families whose whole projections differ."""
    sub = _generated(kind, seed)[0].subroutines[0]
    families = set(family_index(sub).values())
    decisions: list[bool] = []
    while True:  # every sink opportunity, each against the one before it
        current, _, _ = _apply_script(sub, decisions, probe=False)
        candidate, _, description = _apply_script(sub, decisions, probe=True)
        if description is None:
            break
        differ = [f for f in families if project(current, f) != project(candidate, f)]
        assert costguard._moved_families(current, candidate) == frozenset().union(*differ)
        decisions.append(len(decisions) % 2 == 0)


# ---------------------------------------------------------------------------
# traffic decomposes by family
# ---------------------------------------------------------------------------


def _decomposition_checks(program: Program, bindings: dict, policy: str | None) -> int:
    """Hold whole-program traffic to the sum of the family projections' in
    every scenario of the full grid; returns the number of scenarios."""
    sub = program.subroutines[0]
    guard = CostGuard(bindings=bindings, processors=4, schedule=policy)
    whole = guard._compile_variant(program, sub.name)
    parts = [
        guard._compile_variant(program.with_subroutine(project(sub, fam)), sub.name)
        for fam in set(family_index(sub).values())
    ]
    scenarios = enumerate_scenarios(
        whole[0], sub.name, bindings=bindings, pin_bound_trips=False, max_scenarios=4096
    )
    for sc in scenarios:
        total = simulate_traffic(*whole, sub.name, sc, policy=policy, cost=guard.cost)
        summed = TrafficEstimate.zero()
        for part in parts:
            summed += simulate_traffic(*part, sub.name, sc, policy=policy, cost=guard.cost)
        where = f"{print_subroutine(sub)}\n{sc.describe()}"
        assert math.isclose(total.makespan, summed.makespan, rel_tol=1e-12), where
        assert total == TrafficEstimate(**{**vars(summed), "makespan": total.makespan}), where
    return len(scenarios)


@settings(max_examples=DECOMPOSITION_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["workload", "compile_cold", "fuzz"]),
    seed=st.integers(0, 10_000),
    policy=st.sampled_from([None, "aggregate"]),
)
def test_traffic_decomposes_by_family(kind, seed, policy):
    program, bindings = _generated(kind, seed)
    assert _decomposition_checks(program, bindings, policy) > 0


@pytest.mark.parametrize("policy", [None, "aggregate"])
def test_traffic_decomposes_on_fixed_seeds(policy):
    checks = 0
    for kind in ("workload", "compile_cold", "fuzz"):
        for seed in range(4):
            checks += _decomposition_checks(*_generated(kind, seed), policy)
    assert checks > 100


# ---------------------------------------------------------------------------
# decisions against the whole-program oracle
# ---------------------------------------------------------------------------


class _WholeProgramOracle(CostGuard):
    """Decides as the guard does, and logs the whole-program decision on the
    same two placements beside it."""

    log: list[tuple[str, GuardDecision, GuardDecision]] = []

    def evaluate(self, program, base_sub, candidate_sub, description=""):
        decision = super().evaluate(program, base_sub, candidate_sub, description)
        try:
            whole = self._decide(
                self._price(program, base_sub), self._price(program, candidate_sub)
            )
        except ReproError as exc:
            whole = GuardDecision(False, 0, 0.0, 0, f"not estimable: {exc}")
        self.log.append((description, decision, whole))
        return decision


@contextmanager
def _oracle_guards():
    """Every guard the pipeline builds (each shape probe's too) logs."""
    log: list = []
    with mock.patch.object(_WholeProgramOracle, "log", log), mock.patch.object(
        costguard, "CostGuard", _WholeProgramOracle
    ), mock.patch.object(pipeline, "CostGuard", _WholeProgramOracle):
        yield log


def _compile_logged(source, bindings, schedule, variant):
    options = (
        CompilerOptions.symbolic(level=3, schedule=schedule)
        if variant == "symbolic"
        else CompilerOptions(level=3, schedule=schedule)
    )
    with _oracle_guards() as log:
        compiled = compile_program(source, processors=4, options=options, bindings=bindings)
    return compiled, log


def _is_tie(decision: GuardDecision) -> bool:
    """Priced, no byte moved either way and a time delta that is float
    rounding: the whole program's makespan sums may round an exact tie to
    either side."""
    return (
        not decision.reason.startswith("not estimable")
        and decision.delta_bytes == 0
        and abs(decision.delta_time) < TIE_SECONDS
    )


def _assert_decisions_match(source, bindings) -> int:
    pairs = 0
    for schedule, variant in CONFIGS:
        _, log = _compile_logged(source, bindings, schedule, variant)
        for description, decision, whole in log:
            if whole.reason.startswith("not estimable"):
                continue  # over the cap, or a probe that does not resolve
            pairs += 1
            assert decision.hoist == whole.hoist or (_is_tie(decision) and _is_tie(whole)), (
                f"{schedule}/{variant} {description}: projected {decision}, whole {whole}"
            )
    return pairs


@settings(max_examples=DECISION_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["workload", "compile_cold", "fuzz"]),
    seed=st.integers(0, 10_000),
)
def test_decisions_match_whole_program_oracle(kind, seed):
    _assert_decisions_match(*_generated(kind, seed))


#: a call inside the moved loop passes another family's array: each
#: projection keeps the call whole and declares what it passes
CALL_IN_LOOP = """
subroutine foo(X)
  integer n
  real X(n)
  intent inout X
!hpf$ distribute X(block(8))
  compute "touch" writes X
end

subroutine main(t)
  integer n, t
  real A(n), B(n)
!hpf$ dynamic A, B
!hpf$ distribute A(block)
!hpf$ distribute B(cyclic)
  compute writes A, B
  do i = 1, t
!hpf$   redistribute A(cyclic)
    compute writes A reads A
    call foo(B)
!hpf$   redistribute A(block)
  enddo
  compute reads A, B
end
"""


#: the sink leaves A nothing inside the loop: A's projection keeps the empty
#: loop, so both placements are priced over the same trip counts of t
EMPTIED_LOOP = """
subroutine main(t)
  integer n, t
  real A(n), B(n)
!hpf$ dynamic A, B
!hpf$ distribute A(block)
!hpf$ distribute B(cyclic)
  compute writes A, B
  do i = 1, t
    compute writes B reads B
!hpf$   redistribute A(block)
  enddo
  compute reads A, B
end
"""


def _named_programs():
    yield "adi", build_adi_program(16), {"n": 16}
    yield "fft2d", build_fft2d_program(16), {}
    yield "lu", build_lu_program(16, 4)[0], {"steps": 4}
    yield "sar", build_sar_program(16), {"looks": 1}
    yield "fig1", FIG1, {"n": 16}
    yield "fig12", FIG12, {"n": 16, "m": 3}
    yield "fig16", FIG16, {"n": 16, "t": 5}
    yield "call-in-loop", CALL_IN_LOOP, {"n": 16, "t": 3}
    yield "emptied-loop", EMPTIED_LOOP, {"n": 16, "t": 3}
    for k, length in enumerate((8, 16, 24)):  # the compile_cold corpus
        rng = np.random.default_rng([1997, k])
        yield f"compile_cold-{k}", random_legal_subroutine(
            rng, n_arrays=4, length=length, depth=3
        ), {}
    for entry in load_corpus(CORPUS):
        yield entry.name, entry.to_case().program, entry.bindings


def test_decisions_match_whole_program_oracle_on_named_programs():
    pairs = sum(_assert_decisions_match(src, b) for _, src, b in _named_programs())
    assert pairs > 100


# ---------------------------------------------------------------------------
# where the projection decides and the whole program could not
# ---------------------------------------------------------------------------

#: ``if`` statements that touch only B put the whole grid (2^6 outcomes x
#: 4 trip counts of t x 2 input variants) over the cap; A's Fig. 16 loop is
#: priced on A's own grid (4 x 2)
FOREIGN_BRANCHES = "\n".join(
    [
        "subroutine main()",
        "  integer n, t",
        "  real A(n), B(n)",
        "!hpf$ dynamic A, B",
        "!hpf$ distribute A(block)",
        "!hpf$ distribute B(cyclic)",
        "  compute writes A, B",
        *(f"  if c{k} then\n    compute writes B reads B\n  endif" for k in range(6)),
        "  do i = 1, t",
        "!hpf$   redistribute A(cyclic)",
        "    compute writes A reads A",
        "!hpf$   redistribute A(block)",
        "  enddo",
        "  compute reads A, B",
        "end",
    ]
)


def _executed_bytes(source, level, conditions, t):
    compiled = compile_program(
        source, processors=4, options=CompilerOptions(level=level), bindings={"n": 16, "t": t}
    )
    env = ExecutionEnv(
        conditions=conditions,
        bindings={"n": 16, "t": t},
        inputs={"a": np.arange(16.0), "b": np.ones(16)},
        check_invariants=True,
    )
    machine = Machine(compiled.processors)
    Executor(compiled, machine, env).run("main")
    return machine.stats.bytes, compiled


def test_branches_of_another_family_do_not_block_a_sink():
    program = parse_program(FOREIGN_BRANCHES)
    sub = program.subroutines[0]
    guard = CostGuard(bindings={"n": 16, "t": 4}, processors=4)
    with pytest.raises(ReproError, match="exceeds the max_scenarios cap"):
        guard._price(program, sub)  # the whole program cannot be priced
    _, compiled = _executed_bytes(FOREIGN_BRANCHES, 3, {f"c{k}": False for k in range(6)}, 4)
    report = compiled.report.motion["main"]
    assert report.sunk == ["do i: sunk redistribute of a"]
    assert report.rejected_count == 0
    for outcomes in ((False,) * 6, (True,) * 6, (True, False) * 3, (False, True, True) * 2):
        conditions = {f"c{k}": v for k, v in enumerate(outcomes)}
        for t in (0, 1, 5):
            optimized, _ = _executed_bytes(FOREIGN_BRANCHES, 3, conditions, t)
            naive, _ = _executed_bytes(FOREIGN_BRANCHES, 0, conditions, t)
            assert optimized <= naive, (outcomes, t)


@pytest.mark.parametrize(
    "seed, variant, whole_reason",
    [
        (41, "eager", "exceeds the max_scenarios cap of 96"),  # 144 scenarios
        (40, "symbolic", "BLOCK(4) cannot hold extent 16 on 2 processors"),
    ],
)
def test_projection_prices_what_the_whole_program_could_not(seed, variant, whole_reason):
    """Fuzz seeds where the whole program is not estimable -- its grid is
    over the cap, or a shape probe fails on another family's mapping -- and
    the moved family is: a reject became a sink, and the program stays
    clean under the full differential oracle."""
    case = generate_case(seed)
    _, log = _compile_logged(case.program, case.bindings, None, variant)
    turned = [(d, w) for _, d, w in log if d.hoist != w.hoist]
    assert turned
    for decision, whole in turned:
        assert decision.hoist and whole_reason in whole.reason
    assert run_oracle(case, OracleConfig.full()) == []


def test_projection_finds_a_tie_the_whole_program_rounds_away():
    """A compile_cold-shaped program whose sink moves no byte and no modelled
    second on its family: the projection finds the tie exactly (ties go to
    the sink), the whole program's makespan sums round it to +3.5e-18 s (a
    reject).  The sink is clean under the full differential oracle."""
    rng = np.random.default_rng([7, 155])
    program = random_legal_subroutine(rng, n_arrays=4, length=16, depth=3)
    conditions, inputs = random_environment(rng, n_arrays=4)
    _, log = _compile_logged(program, {}, "aggregate", "eager")
    turned = [(d, w) for _, d, w in log if d.hoist != w.hoist]
    assert len(turned) == 1
    decision, whole = turned[0]
    assert decision.hoist and (decision.delta_bytes, decision.delta_time) == (0, 0.0)
    assert not whole.hoist and whole.delta_bytes == 0 and 0.0 < whole.delta_time < TIE_SECONDS
    case = FuzzCase(program, {}, conditions, inputs, seed=155)
    assert run_oracle(case, OracleConfig.full()) == []
