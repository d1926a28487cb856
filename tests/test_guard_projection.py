"""The cost guard prices a sink on the family it moves, inside its window.

The guard prices a sink at each of its points -- the request's
``(bindings, processors)``, or the distinct shape probes of a symbolized
compile -- and keeps it only if every point accepts.  A symbolized compile's
motion is the same whatever request shape triggered it, and a probe grid
with no shape-symbolic name prices each placement once per processor probe.

The guard compiles a placement with the pipeline's own passes, so its
variant of an unmoved program is the code ``compile_program`` generates with
motion off: checked at every level under every scheduling choice on the
figures, the apps, the corpus and workload seeds 0..200 (0..2000 in CI's
random profile).

Three claims carry :func:`repro.remap.costguard.window`:

* traffic decomposes by alignment family -- in every scenario of the full
  grid, a program's simulated traffic is the sum of its projections' onto
  each of its families;
* the projected decision is the whole-program one -- ``CostGuard._price``
  on the *unprojected* subroutines at the same point, kept here (and only
  here) as the oracle, compared point by point -- wherever the whole grid
  fits the cap and the point resolves, up to exact ties the whole program's float sums round away.
  In those three places the projection may turn a reject into a sink; one
  example of each is pinned and checked clean under the full differential
  oracle;
* the window cancels -- in every scenario of a family projection's grid,
  the sink's byte and message deltas are those of the window's scenario
  with the same values on the window's axes, and the windowed decision is
  the family-projected one (the guard's before windows, kept here as the
  second oracle) wherever the family could be priced.  Where it could not
  (a shape probe failing outside the window, a family grid over the cap
  whose window fits) the window turned a reject into a sink; those fuzz
  seeds are pinned and checked clean under the full differential oracle.

The deterministic profile runs a few dozen programs; the CI
``tests-random`` leg (``HYPOTHESIS_PROFILE=random``) runs fresh, wider
draws and the window's wide seed sweep.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import replace
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
from repro.obs import REGISTRY, snapshot_diff
from repro.remap import costguard
from repro.remap.codegen import render_code
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


#: A's Fig. 16 loop between two A-barriers (a redistribute of A, then a
#: compute that writes or defines A); B's loop is empty in A's projection
BARRIERS = """
subroutine main()
  integer n, t
  real A(n), B(n)
!hpf$ dynamic A, B
!hpf$ distribute A(block)
!hpf$ distribute B(cyclic)
  do i = 1, t
    compute reads A
  enddo
!hpf$ redistribute A(cyclic)
  compute reads A
  compute writes A reads B
  do j = 1, 3
    compute writes B
  enddo
  do i = 1, t
!hpf$   redistribute A(block)
    compute writes A reads A
!hpf$   redistribute A(cyclic)
  enddo
  compute reads A
!hpf$ redistribute A(block)
  compute defines A
  compute reads A
end
"""


def test_window_cuts_at_the_barriers_around_the_moved_nest():
    sub = parse_program(BARRIERS).subroutines[0]
    candidate, _, _ = _apply_script(sub, [], probe=True)
    moved = costguard._moved_families(sub, candidate)
    assert moved == frozenset({"a"})
    head = [
        "subroutine main()",
        "  integer n, t",
        "  real a(n)",
        "!hpf$ dynamic a",
    ]
    loop = [
        "  do i = 1, t",
        "!hpf$ redistribute a(block)",
        "    compute reads a writes a",
    ]
    exit_barrier = [
        "  compute reads a",
        "!hpf$ redistribute a(block)",
        "  compute defines a",
        "end",
    ]
    # the window opens at the entry barrier's closing compute, A distributed
    # as that barrier left it, and closes with the exit barrier's
    base, cand = costguard.window(sub, candidate, moved)
    opening = ["!hpf$ distribute a(cyclic)", "  compute writes a"]
    assert print_subroutine(base).split("\n") == [
        *head, *opening, *loop, "!hpf$ redistribute a(cyclic)", "  enddo", *exit_barrier
    ]
    assert print_subroutine(cand).split("\n") == [
        *head, *opening, *loop, "  enddo", "!hpf$ redistribute a(cyclic)", *exit_barrier
    ]
    # a dummy's initial mapping is the caller's: no entry cut
    dummy = [replace(s, params=("a",)) for s in (sub, candidate)]
    base, _ = costguard.window(*dummy, moved)
    assert print_subroutine(base).split("\n")[4:8] == [
        "!hpf$ distribute a(block)",
        "  do i = 1, t",
        "    compute reads a",
        "  enddo",
    ]


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
# the points a sink is priced at
# ---------------------------------------------------------------------------


def test_guard_points_are_the_request_or_the_distinct_shape_probes():
    eager = CostGuard(CompilerOptions(), {"n": 16, "t": 4}, 4)
    assert [(p.label, p.bindings, p.processors.shape) for p in eager.points] == [
        ("", {"n": 16, "t": 4}, (4,))
    ]
    symbolic = CompilerOptions.symbolic(level=3)
    probes = CostGuard(symbolic, {"n": 16, "t": 4}, 4, frozenset({"n"})).points
    assert [(p.bindings, p.processors.shape) for p in probes] == [
        ({"t": 4, "n": n}, (procs,))
        for n in costguard.PROBE_SHAPES
        for procs in costguard.PROBE_PROCS
    ]
    assert probes[1].label == "shape probe (n=8, P=4): "
    # no shape-symbolic name: the shape probes collapse onto the processor ones
    shapeless = CostGuard(symbolic, {"t": 4}, 4).points
    assert [(p.label, p.processors.shape) for p in shapeless] == [
        (f"shape probe (n=8, P={procs}): ", (procs,)) for procs in costguard.PROBE_PROCS
    ]


def test_a_shapeless_symbolized_compile_prices_each_placement_once_per_point():
    """No name of the program is shape-symbolic, so its probe grid holds
    two distinct points: each priced placement is compiled twice, once per
    processor probe."""
    program = random_legal_subroutine(np.random.default_rng(0))
    compiled_placements: list[str] = []
    compile_variant = CostGuard.compile_variant

    def counted(self, *args):
        program, entry = args[-2:]
        compiled_placements.append(print_subroutine(program.get(entry)))
        return compile_variant(self, *args)

    with mock.patch.object(CostGuard, "compile_variant", counted):
        compiled, template = pipeline.Pipeline(CompilerOptions.symbolic(level=3)).serve(
            program, processors=4
        )
    assert template is None  # nothing is shape-symbolic: no template is cut
    per_placement = {text: compiled_placements.count(text) for text in compiled_placements}
    assert len(per_placement) == 2 and set(per_placement.values()) == {2}
    report = compiled.report.motion["main"]
    assert report.sunk == ["do i: sunk redistribute of a1"] and report.rejected == []


@pytest.mark.parametrize("name, source, fixed", [
    ("fig1", FIG1, {}),
    ("fig12", FIG12, {"m": 3}),
    ("fig16", FIG16, {"t": 5}),
])
def test_symbolized_motion_does_not_depend_on_the_request(name, source, fixed):
    """A symbolized compile's motion is replayed at every shape, so every
    request shape -- n = P and a P no probe uses among them -- must yield
    the same post-motion program and the same motion reports."""
    shapes = [(16, 4), (8, 8), (24, 3), (12, 6)]  # no probe has P = 3 or 6
    results = []
    for n, procs in shapes:
        compiled, template = pipeline.Pipeline(CompilerOptions.symbolic(level=3)).serve(
            source, {"n": n, **fixed}, procs
        )
        results.append((template.program, compiled.report.motion))
    assert all(result == results[0] for result in results), name


# ---------------------------------------------------------------------------
# the guard compiles what the pipeline compiles
# ---------------------------------------------------------------------------

#: workload seeds of the compile-equivalence sweep
TAIL_SEEDS = range(2001 if WIDE else 201)
#: every level under every compile-time scheduling choice
TAIL_OPTIONS = [
    CompilerOptions(level=level, schedule=schedule)
    for level in range(4)
    for schedule in (None, "naive", "round-robin", "aggregate")
]


def _tail_programs():
    yield "fig1", FIG1, {"n": 16}
    yield "fig12", FIG12, {"n": 16, "m": 3}
    yield "fig16", FIG16, {"n": 16, "t": 5}
    yield "adi", build_adi_program(16), {"n": 16}
    yield "fft2d", build_fft2d_program(16), {}
    yield "lu", build_lu_program(16, 4)[0], {"steps": 4}
    yield "sar", build_sar_program(16), {"looks": 1}
    for entry in load_corpus(CORPUS):
        yield entry.name, entry.to_case().program, entry.bindings
    for seed in TAIL_SEEDS:
        yield f"workload-{seed}", random_legal_subroutine(np.random.default_rng(seed)), {}


def _assert_guard_compiles_as_pipeline(name, source, bindings, options) -> int:
    """The guard's variant of the unmoved program == the motion-less compile
    of it, subroutine by subroutine; returns the subroutines compared."""
    program = parse_program(source) if isinstance(source, str) else source
    unmoved = CompilerOptions(
        passes=tuple(n for n in options.pass_names if n != "motion"),
        cost=options.cost,
        schedule=options.schedule,
    )
    compiled = compile_program(program, processors=4, options=unmoved, bindings=bindings)
    guard = CostGuard(options, bindings, 4)
    compared = 0
    for entry in program.subroutines:
        variant = guard.compile_variant(guard.points[0], program, entry.name)
        assert entry.name in variant.constructions
        for sub, res in variant.constructions.items():
            where = f"{name} {options.describe()}: {entry.name} -> {sub}"
            want = compiled.subroutines[sub]
            assert list(res.graph.vertices) == list(want.graph.vertices), where
            assert res.graph.vertices == want.graph.vertices, where  # S, L, R, U, M, removed
            assert variant.report.removal.get(sub) == compiled.report.removal.get(sub), where
            assert render_code(variant.codes[sub]) == render_code(want.code), where
            compared += 1
    return compared


@pytest.mark.parametrize("options", TAIL_OPTIONS, ids=lambda o: o.describe())
def test_guard_compiles_what_the_pipeline_compiles(options):
    compared = sum(
        _assert_guard_compiles_as_pipeline(name, source, bindings, options)
        for name, source, bindings in _tail_programs()
    )
    assert compared >= 3 + 4 + 14 + len(TAIL_SEEDS)


def test_guard_variants_are_not_pipeline_runs():
    """A compile whose guard prices a sink counts one pipeline run and one
    construction pass, and its trace records the request's passes only."""
    variants: list[str] = []
    compile_variant = CostGuard.compile_variant

    def counted(self, point, program, entry):
        variants.append(entry)
        return compile_variant(self, point, program, entry)

    before = REGISTRY.snapshot()
    with mock.patch.object(CostGuard, "compile_variant", counted):
        compiled = compile_program(FIG16, processors=4, bindings={"n": 16, "t": 5})
    diff = {
        (d["name"], tuple(d["labels"].items())): d
        for d in snapshot_diff(before, REGISTRY.snapshot())["diff"]
    }
    assert compiled.report.motion["main"].count == 1 and len(variants) >= 2
    assert diff[("repro.compiler.pipelines_run", ())]["delta"] == 1
    assert diff[("repro.compiler.pass_seconds", (("pass", "construction"),))]["count_delta"] == 1
    assert compiled.trace.pass_names == CompilerOptions().pass_names


# ---------------------------------------------------------------------------
# traffic decomposes by family
# ---------------------------------------------------------------------------


def _decomposition_checks(program: Program, bindings: dict, policy: str | None) -> int:
    """Hold whole-program traffic to the sum of the family projections' in
    every scenario of the full grid; returns the number of scenarios."""
    sub = program.subroutines[0]
    guard = CostGuard(CompilerOptions(schedule=policy), bindings, 4)
    (point,) = guard.points
    cost = guard.options.cost
    whole = guard.compile_variant(point, program, sub.name)
    parts = [
        guard.compile_variant(point, program.with_subroutine(project(sub, fam)), sub.name)
        for fam in set(family_index(sub).values())
    ]
    scenarios = enumerate_scenarios(
        whole.constructions, sub.name, bindings=bindings, pin_bound_trips=False, max_scenarios=4096
    )
    for sc in scenarios:
        total = simulate_traffic(
            whole.constructions, whole.codes, sub.name, sc, policy=policy, cost=cost
        )
        summed = TrafficEstimate.zero()
        for part in parts:
            summed += simulate_traffic(
                part.constructions, part.codes, sub.name, sc, policy=policy, cost=cost
            )
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


class _Oracle(CostGuard):
    """Decides as the guard does, remembering the unwindowed placements it
    was asked about for the per-point oracle beside it."""

    def evaluate(self, program, base_sub, candidate_sub, description=""):
        self._asked = (base_sub, candidate_sub, description)
        return super().evaluate(program, base_sub, candidate_sub, description)


class _WholeProgramOracle(_Oracle):
    """Logs beside each point's decision the whole-program decision on the
    same two placements at that point."""

    log: list[tuple[str, GuardDecision, GuardDecision]] = []

    def evaluate_at(self, point, program, base, candidate):
        decision = super().evaluate_at(point, program, base, candidate)
        base_sub, candidate_sub, description = self._asked
        try:
            whole = self._decide(
                self._price(point, program, base_sub), self._price(point, program, candidate_sub)
            )
        except ReproError as exc:
            whole = GuardDecision(False, 0, 0.0, 0, f"not estimable: {exc}")
        self.log.append((description, decision, whole))
        return decision


class _FamilyOracle(_Oracle):
    """Logs beside each point's decision the family-projected decision on
    the same two placements at that point -- the guard's pricing before
    windows -- with both pricings of each, family and window (a pricing
    that fails is its error)."""

    log: list[tuple[str, GuardDecision, GuardDecision, list, list]] = []

    def evaluate_at(self, point, program, base, candidate):
        decision = super().evaluate_at(point, program, base, candidate)
        base_sub, candidate_sub, description = self._asked
        moved = costguard._moved_families(base_sub, candidate_sub)
        family = self._priced(
            point, program, [project(base_sub, moved), project(candidate_sub, moved)]
        )
        windowed = self._priced(point, program, [base, candidate])
        if isinstance(family, ReproError):
            family_decision = GuardDecision(False, 0, 0.0, 0, f"not estimable: {family}")
        else:
            family_decision = self._decide(*family)
        self.log.append((description, decision, family_decision, family, windowed))
        return decision

    def _priced(self, point, program, subs):
        try:
            return [self._price(point, program, sub) for sub in subs]
        except ReproError as exc:
            return exc


@contextmanager
def _oracle_guards(oracle=_WholeProgramOracle):
    """Every guard the pipeline builds logs, at each point it prices."""
    log: list = []
    with mock.patch.object(oracle, "log", log), mock.patch.object(pipeline, "CostGuard", oracle):
        yield log


def _compile_logged(source, bindings, schedule, variant, oracle=_WholeProgramOracle):
    options = (
        CompilerOptions.symbolic(level=3, schedule=schedule)
        if variant == "symbolic"
        else CompilerOptions(level=3, schedule=schedule)
    )
    with _oracle_guards(oracle) as log:
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
    yield "barriers", BARRIERS, {"n": 16, "t": 3}
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
# the window cancels: against the family projection
# ---------------------------------------------------------------------------

#: the window property's seed sweep per generator (the random profile's is
#: CI's wide one)
WINDOW_SEEDS = {
    "workload": range(2001) if WIDE else range(0, 2001, 50),
    "compile_cold": range(201) if WIDE else range(0, 201, 25),
    "fuzz": range(500) if WIDE else range(0, 500, 20),
}


def _assert_deltas_cancel(family: list, windowed: list, where: str) -> None:
    """Every scenario of the family grid has the byte and message deltas
    of the window's scenario with its values on the window's axes."""
    (fb, fc), (wb, wc) = family, windowed
    assert wb.scenarios == wc.scenarios and fb.scenarios == fc.scenarios, where
    conds = sorted(wb.scenarios[0].conditions)
    # a trip axis takes several values; a compile binding the window's
    # loops do not read stays at its one value
    binds = sorted(
        k for k in wb.scenarios[0].bindings if len({sc.bindings[k] for sc in wb.scenarios}) > 1
    )

    def axes(sc):
        return (
            tuple(sc.conditions[c] for c in conds),
            tuple(sc.bindings[b] for b in binds),
            sc.inputs,
            sc.itemsize,
        )

    window = {axes(sc): (b, c) for sc, b, c in zip(wb.scenarios, wb.estimates, wc.estimates)}
    assert len(window) == len(wb.scenarios), where
    for sc, b, c in zip(fb.scenarios, fb.estimates, fc.estimates):
        w_b, w_c = window[axes(sc)]
        assert (c.bytes - b.bytes, c.messages - b.messages) == (
            w_c.bytes - w_b.bytes,
            w_c.messages - w_b.messages,
        ), f"{where}\n{sc.describe()}"


def _assert_window_cancels(source, bindings) -> int:
    """Hold every evaluation of every config to the family projection;
    returns the evaluations the family could price."""
    checked = 0
    for schedule, variant in CONFIGS:
        _, log = _compile_logged(source, bindings, schedule, variant, _FamilyOracle)
        for description, decision, family_decision, family, windowed in log:
            if isinstance(family, ReproError):
                continue  # over the cap, or a probe that does not resolve
            where = (
                f"{schedule}/{variant} {description}: windowed {decision}, "
                f"family {family_decision}"
            )
            assert not isinstance(windowed, ReproError), where
            _assert_deltas_cancel(family, windowed, where)
            assert decision.hoist == family_decision.hoist or (
                _is_tie(decision) and _is_tie(family_decision)
            ), where
            checked += 1
    return checked


@settings(max_examples=DECISION_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["workload", "compile_cold", "fuzz"]),
    seed=st.integers(0, 10_000),
)
def test_window_cancels(kind, seed):
    _assert_window_cancels(*_generated(kind, seed))


@pytest.mark.parametrize("kind", sorted(WINDOW_SEEDS))
def test_window_cancels_on_seed_sweep(kind):
    checked = sum(_assert_window_cancels(*_generated(kind, seed)) for seed in WINDOW_SEEDS[kind])
    assert checked >= len(WINDOW_SEEDS[kind])


def test_window_cancels_on_named_programs():
    checked = sum(_assert_window_cancels(src, b) for _, src, b in _named_programs())
    assert checked > 100


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
    guard = CostGuard(CompilerOptions(), {"n": 16, "t": 4}, 4)
    with pytest.raises(ReproError, match="exceeds the max_scenarios cap"):
        guard._price(guard.points[0], program, sub)  # the whole program cannot be priced
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


CAP = "exceeds the max_scenarios cap of 96"
PROBE = "BLOCK(4) cannot hold extent 16 on 2 processors"


@pytest.mark.parametrize(
    "seed, variant, reason, oracle",
    [
        # the family, where the whole program is not estimable
        pytest.param(41, "eager", CAP, _WholeProgramOracle, id=f"41-eager-{CAP}"),  # 144
        pytest.param(40, "symbolic", PROBE, _WholeProgramOracle, id=f"40-symbolic-{PROBE}"),
        # the window, where the family is not estimable
        pytest.param(6, "symbolic", PROBE, _FamilyOracle, id="window-6-symbolic-probe"),
        pytest.param(264, "symbolic", PROBE, _FamilyOracle, id="window-264-symbolic-probe"),
        pytest.param(482, "eager", CAP, _FamilyOracle, id="window-482-eager-cap"),  # 192
        pytest.param(493, "eager", CAP, _FamilyOracle, id="window-493-eager-cap"),  # 144
    ],
)
def test_projection_prices_what_the_whole_program_could_not(seed, variant, reason, oracle):
    """Fuzz seeds where the oracle's pricing is not estimable -- its grid is
    over the cap, or a shape probe fails outside what the guard prices --
    and the guard's is: a reject became a sink, and the program stays clean
    under the full differential oracle."""
    case = generate_case(seed)
    _, log = _compile_logged(case.program, case.bindings, None, variant, oracle)
    turned = [(d, ref) for _, d, ref, *_ in log if d.hoist != ref.hoist]
    assert turned
    for decision, ref in turned:
        assert decision.hoist and reason in ref.reason
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
