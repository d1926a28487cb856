"""One grid walk against one walk per scenario.

:func:`repro.spmd.traffic.simulate_grid` walks a whole scenario list at
once, running each top-level statement once per group of scenarios that
reach it in one descriptor state and read equal axis values.  The
reference below walks each scenario from the entry to the exit on its own,
written against the :class:`~repro.remap.walker.DescriptorWalker` hooks
only -- the simulator as it was before the grid, kept here (and only here)
as the oracle.  Every scenario must get the reference's answer: its
``TrafficEstimate`` ``==`` (makespan floats included), or the same error
type and message, and the same evaluated branch conditions -- under
``policy=None`` and all three scheduling policies.

The deterministic profile covers the paper's figures, the four apps, the
pinned fuzz corpus (each through a level-3 compile, so every grid the cost
guard walks is held too), workload seeds 0..200 and fuzz seeds 0..99; the
CI ``tests-random`` leg and the nightly run (``HYPOTHESIS_PROFILE=random``)
widen the seeds to 0..2000 and 0..499.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import replace
from itertools import count
from unittest import mock

import numpy as np
import pytest

from repro import CompilerOptions, compile_program
from repro.analysis.lints import lint_program
from repro.apps.adi import build_adi_program
from repro.apps.fft2d import build_fft2d_program
from repro.apps.lu import build_lu_program
from repro.apps.sar import build_sar_program
from repro.apps.workloads import random_legal_subroutine
from repro.errors import ReproError, TrafficPredictionError
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import generate_case
from repro.lang.ast_nodes import If, walk_statements
from repro.remap import costguard
from repro.remap.walker import DescriptorWalker, resolve_condition
from repro.spmd.cost import CostModel, TrafficEstimate
from repro.spmd.schedule import POLICIES
from repro.spmd.traffic import (
    Scenario,
    TrafficRange,
    _copy_price,
    enumerate_scenarios,
    estimate_range,
    simulate_grid,
)

from test_construction import FIG4, FIG10
from test_schedule import FIG1, FIG12, FIG16

WIDE = os.environ.get("HYPOTHESIS_PROFILE") == "random"
WORKLOAD_SEEDS = 2001 if WIDE else 201
FUZZ_SEEDS = 500 if WIDE else 100
CHUNK = 50
CORPUS = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
ALL_POLICIES = (None, *POLICIES)


# ---------------------------------------------------------------------------
# the reference: one scenario, one walk
# ---------------------------------------------------------------------------


class ReferenceWalk(DescriptorWalker):
    """One scenario walked on its own, pricing each copy as it happens."""

    error = TrafficPredictionError

    def __init__(self, constructions, codes, scenario, policy, cost):
        super().__init__(constructions, codes, scenario.bindings)
        self.scenario, self.policy, self.cost = scenario, policy, cost
        self.copies, self.checks = TrafficEstimate.zero(), 0
        self.evaluated: set[str] = set()
        self.positions: dict = {}

    def _seed(self, state):
        return self.scenario.inputs is None or state.name in self.scenario.inputs

    def _allocate(self, state, version, poison):
        return True

    def _status_check(self):
        self.checks += 1

    def _remap_copy(self, state, src, leaving, tag):
        self.copies += _copy_price(
            state.versions[src], state.versions[leaving],
            self.policy, self.scenario.itemsize, self.cost,
        )

    def _condition(self, name):
        self.evaluated.add(name)
        return resolve_condition(self.scenario.conditions, self.positions, name, self.error)

    def _compute(self, frame, stmt):
        for name in stmt.reads + stmt.writes + stmt.defines:
            state = frame.arrays.get(name)
            if state is not None:
                self._ensure(state, state.status)


def reference_walk(constructions, codes, entry, scenario, policy=None, cost=None):
    """(estimate, (error type, message), evaluated conditions) of one walk."""
    walk = ReferenceWalk(constructions, codes, scenario, policy, cost or CostModel())
    try:
        walk.walk(entry)
    except ReproError as exc:
        return None, (type(exc), str(exc)), frozenset()
    return replace(walk.copies, status_checks=walk.checks), None, frozenset(walk.evaluated)


def assert_grid_matches(constructions, codes, entry, scenarios, policy=None, cost=None, where=""):
    """Every scenario of one grid walk agrees with its own reference walk."""
    grid = simulate_grid(constructions, codes, entry, scenarios, policy=policy, cost=cost)
    assert len(grid.estimates) == len(grid.errors) == len(grid.evaluated) == len(scenarios)
    for k, sc in enumerate(scenarios):
        error = grid.errors[k]
        got = (
            grid.estimates[k],
            None if error is None else (type(error), str(error)),
            grid.evaluated[k],
        )
        want = reference_walk(constructions, codes, entry, sc, policy, cost)
        assert got == want, f"{where} [{entry}, policy={policy}] {sc.describe()}"
    return grid


def check_compiled(compiled, bindings, where, policies=ALL_POLICIES) -> int:
    """Hold every subroutine's full scenario grid of ``compiled`` to the
    reference; returns the number of scenarios checked."""
    subs = compiled.subroutines
    constructions = {name: cs.construction for name, cs in subs.items()}
    codes = {name: cs.code for name, cs in subs.items()}
    checked = 0
    for entry in subs:
        scenarios = enumerate_scenarios(
            constructions, entry, bindings=bindings, pin_bound_trips=False, max_scenarios=4096
        )
        for policy in policies:
            assert_grid_matches(constructions, codes, entry, scenarios, policy, where=where)
        checked += len(scenarios)
    return checked


@contextmanager
def _every_guard_grid_checked():
    """Every grid the cost guard walks is held to the reference as it is
    walked; yields the count."""
    seen = [0]

    def checked(constructions, codes, entry, scenarios, policy=None, cost=None):
        seen[0] += 1
        return assert_grid_matches(constructions, codes, entry, scenarios, policy, cost, "guard")

    with mock.patch.object(costguard, "simulate_grid", checked):
        yield seen


# ---------------------------------------------------------------------------
# the named programs, the corpus and the seeds
# ---------------------------------------------------------------------------


#: after the ``if`` the two outcomes' descriptor states differ only in A's
#: poison, which decides whether the redistribute copies
KILL_IN_BRANCH = """
subroutine main()
  integer n
  real A(n), B(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
!hpf$ distribute B(block)
  compute writes A, B
  if c1 then
!hpf$   kill A
  endif
  compute reads B
!hpf$ redistribute A(cyclic)
  compute reads A
end
"""


def _named_programs():
    yield "kill-in-branch", KILL_IN_BRANCH, {"n": 16}
    yield "adi", build_adi_program(16), {"n": 16}
    yield "fft2d", build_fft2d_program(16), {}
    yield "lu", build_lu_program(16, 4)[0], {"steps": 4}
    yield "sar", build_sar_program(16), {"looks": 1}
    yield "fig1", FIG1, {"n": 16}
    yield "fig4", FIG4, {"n": 16}
    yield "fig10", FIG10, {"n": 16}
    yield "fig12", FIG12, {"n": 16, "m": 3}
    yield "fig16", FIG16, {"n": 16, "t": 5}
    for entry in load_corpus(CORPUS):
        yield entry.name, entry.to_case().program, entry.bindings


@pytest.mark.parametrize(
    "name, program, bindings", [pytest.param(*p, id=p[0]) for p in _named_programs()]
)
def test_named_programs_match_the_reference(name, program, bindings):
    """At levels 0 and 3, under every policy; the level-3 compile's own
    cost-guard grids are held as they are walked (under each policy the
    pipeline can price with)."""
    for level in (0, 3):
        compiled = compile_program(
            program, processors=4, options=CompilerOptions(level=level), bindings=bindings
        )
        assert check_compiled(compiled, bindings, f"{name} level {level}") >= 1
    for schedule in ALL_POLICIES:
        with _every_guard_grid_checked():
            compile_program(
                program, processors=4, bindings=bindings,
                options=CompilerOptions(level=3, schedule=schedule),
            )


def _check_seed_program(program, bindings, where):
    with _every_guard_grid_checked():
        compiled = compile_program(
            program, processors=4, options=CompilerOptions(level=3), bindings=bindings
        )
    return check_compiled(compiled, bindings, where)


@pytest.mark.parametrize("start", range(0, WORKLOAD_SEEDS, CHUNK))
def test_workload_seeds_match_the_reference(start):
    """Each seed's guard grids as the level-3 compile walks them, and its
    compiled program under every policy."""
    for seed in range(start, min(start + CHUNK, WORKLOAD_SEEDS)):
        program = random_legal_subroutine(np.random.default_rng(seed))
        _check_seed_program(program, {}, f"workload seed {seed}")


@pytest.mark.parametrize("start", range(0, FUZZ_SEEDS, CHUNK))
def test_fuzz_seeds_match_the_reference(start):
    for seed in range(start, min(start + CHUNK, FUZZ_SEEDS)):
        case = generate_case(seed)
        _check_seed_program(case.program, case.bindings, f"fuzz seed {seed}")


def test_the_grid_walks_fewer_statements_than_the_scenarios_do():
    """A scenario grid shares its common prefixes and merges equal states."""
    compiled = compile_program(FIG12, processors=4, bindings={"n": 16})
    constructions = {name: cs.construction for name, cs in compiled.subroutines.items()}
    codes = {name: cs.code for name, cs in compiled.subroutines.items()}
    scenarios = enumerate_scenarios(constructions, "remap", bindings={"n": 16})
    grid = simulate_grid(constructions, codes, "remap", scenarios)
    assert len(scenarios) == 12 and grid.statements == 3
    assert grid.executions < len(scenarios) * grid.statements


# ---------------------------------------------------------------------------
# what the three consumers read: errors, evaluated conditions, ranges
# ---------------------------------------------------------------------------

#: ``i`` is left unset when c0 is false, so those scenarios fail at the last
#: loop -- after evaluating c9, which no other scenario evaluates
PARTWAY = """
subroutine main()
  integer n, i
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  if c0 then
    do i = 1, 1
      compute reads A
    enddo
  else
    if c9 then
!hpf$   redistribute A(cyclic)
      compute reads A
!hpf$   redistribute A(block)
    endif
  endif
  if c1 then
    compute writes A
  endif
  do j = 1, i
    compute reads A
  enddo
end
"""


def _compiled_parts(source, bindings, level=3):
    compiled = compile_program(
        source, processors=4, options=CompilerOptions(level=level), bindings=bindings
    )
    subs = compiled.subroutines
    return (
        {name: cs.construction for name, cs in subs.items()},
        {name: cs.code for name, cs in subs.items()},
    )


def test_a_scenario_failing_partway_contributes_no_conditions():
    constructions, codes = _compiled_parts(PARTWAY, {"n": 16})
    scenarios = enumerate_scenarios(constructions, "main", bindings={"n": 16})
    grid = assert_grid_matches(constructions, codes, "main", scenarios)
    failed = [k for k, error in enumerate(grid.errors) if error is not None]
    assert failed and len(failed) < len(scenarios)
    assert all(not scenarios[k].conditions["c0"] for k in failed)
    assert all(grid.evaluated[k] == frozenset() for k in failed)
    # RPR005: conditions only a failing scenario evaluated count as never
    # evaluated, as the per-scenario reference says
    evaluated = set()
    for sc in scenarios:
        _, error, conds = reference_walk(constructions, codes, "main", sc)
        if error is None:
            evaluated |= conds
    conds = {s.cond for s in walk_statements(constructions["main"].sub.body) if isinstance(s, If)}
    assert conds - evaluated == {"c9"}
    flagged = [f for f in lint_program(PARTWAY, bindings={"n": 16}) if f.rule == "RPR005"]
    assert [f.snippet for f in flagged] == ["if c9 then"]
    # the traffic-estimate pass raises the first failed scenario's error
    with pytest.raises(TrafficPredictionError, match="no value provided for loop bound 'i'"):
        estimate_range(constructions, codes, "main", bindings={"n": 16})


@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize(
    "source, bindings",
    [(FIG12, {"n": 16}), (FIG16, {"n": 16}), (FIG1, {"n": 16})],
    ids=["fig12", "fig16", "fig1"],
)
def test_estimate_range_is_the_reference_range(source, bindings, policy):
    constructions, codes = _compiled_parts(source, bindings)
    entry = next(iter(constructions))
    scenarios = enumerate_scenarios(constructions, entry, bindings=bindings)
    estimates = [
        reference_walk(constructions, codes, entry, sc, policy)[0] for sc in scenarios
    ]
    lo = hi = estimates[0]
    for est in estimates[1:]:
        lo, hi = lo.meet(est), hi.join(est)
    got = estimate_range(constructions, codes, entry, bindings=bindings, policy=policy)
    assert got == TrafficRange(lo, hi, len(scenarios))


SEQUENCES = """
subroutine main(t)
  integer n, t
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  if c1 then
    compute reads A
  endif
  do i = 1, t
    if c1 then
!hpf$   redistribute A(cyclic)
      compute writes A reads A
    endif
!hpf$   redistribute A(block)
    compute reads A
  enddo
end
"""


def _alternating():
    """A callable condition with state: True, False, True, ..."""
    calls = count()
    return lambda: next(calls) % 2 == 0


def test_sequence_valued_conditions_walk_alone():
    """A condition sequence has a position and a callable may have state:
    such a scenario is walked as its own thread, never grouped or merged --
    here two scenarios even share one list object."""
    constructions, codes = _compiled_parts(SEQUENCES, {"n": 16, "t": 3})
    shared = [True, False, True, True]
    scenarios = [
        Scenario(conditions={"c1": shared}, bindings={"t": 3}),
        Scenario(conditions={"c1": [False, True, False, False]}, bindings={"t": 3}),
        Scenario(conditions={"c1": shared}, bindings={"t": 3}, inputs=frozenset()),
        Scenario(conditions={"c1": _alternating()}, bindings={"t": 3}),
        Scenario(conditions={"c1": (True, True, False, True)}, bindings={"t": 3}),
    ]
    grid = simulate_grid(constructions, codes, "main", scenarios)
    assert all(error is None for error in grid.errors)
    assert grid.executions == len(scenarios) * grid.statements
    # the callable's reference walk starts from a fresh callable
    scenarios[3] = replace(scenarios[3], conditions={"c1": _alternating()})
    for sc, est in zip(scenarios, grid.estimates):
        assert est == reference_walk(constructions, codes, "main", sc)[0], sc.describe()
    assert len({est.bytes for est in grid.estimates}) > 1
    # mixed with plain scenarios, and an exhausted sequence fails alone
    mixed = [
        scenarios[0],
        Scenario(conditions={"c1": [True]}, bindings={"t": 3}),
        Scenario(conditions={"c1": True}, bindings={"t": 3}),
        Scenario(conditions={"c1": False}, bindings={"t": 3}),
    ]
    grid = assert_grid_matches(constructions, codes, "main", mixed)
    assert [error is None for error in grid.errors] == [True, False, True, True]
    assert "exhausted" in str(grid.errors[1])
