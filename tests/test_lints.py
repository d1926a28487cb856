"""The RPR0xx lint rules: loud on seeded defects, silent on real programs.

Also pins the exit-code contract shared by the command-line gates --
``python -m repro.lint`` and ``python -m repro.store``: 0 = clean,
1 = findings, 2 = infrastructure error.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.lints import LINT_RULES, Finding, lint_program
from repro.apps.adi import build_adi_program
from repro.apps.fft2d import build_fft2d_program
from repro.apps.lu import build_lu_program
from repro.apps.sar import build_sar_program
from repro.compiler.diagnostics import CompileReport
from repro.lint import main as lint_cli

REPO = Path(__file__).resolve().parent.parent

N = 16

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

# Fig. 2's "useless remapping": remapped, never referenced again
DEAD_END = """
subroutine f()
  integer n
  real A(n), B(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
!hpf$ distribute B(block)
  compute reads A, B writes B
!hpf$ redistribute A(cyclic)
end
"""

# Fig. 2's there-and-back: remap, no use, remap straight back
ROUND_TRIP = """
subroutine f()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A writes A
!hpf$ redistribute A(cyclic)
!hpf$ redistribute A(block)
  compute reads A
end
"""

NOOP_REMAP = """
subroutine g()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
!hpf$ redistribute A(cyclic)
  compute reads A writes A
!hpf$ redistribute A(cyclic)
  compute reads A writes A
end
"""

DOUBLE_KILL = """
subroutine h()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute reads A writes A
!hpf$ kill A
!hpf$ kill A
end
"""

DEAD_BRANCH = """
subroutine d(m)
  integer n, m
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  do i = 1, m
    if c1 then
      compute reads A writes A
    else
      compute reads A
    endif
  enddo
  compute reads A
end
"""


def _rules(source, bindings=None):
    return [f.rule for f in lint_program(source, bindings=bindings or {"n": N})]


# ---------------------------------------------------------------------------
# each rule fires on its seeded defect
# ---------------------------------------------------------------------------


def test_rpr001_dead_end_remap():
    assert _rules(DEAD_END) == ["RPR001"]


def test_rpr001_round_trip_remap():
    assert _rules(ROUND_TRIP) == ["RPR001"]


def test_rpr002_noop_remap():
    assert _rules(NOOP_REMAP) == ["RPR002"]


def test_rpr003_double_kill():
    assert _rules(DOUBLE_KILL) == ["RPR003"]


def test_rpr005_scenario_unreachable_branch():
    # m is bound to 0: the loop never runs, the branch is never evaluated
    findings = lint_program(DEAD_BRANCH, bindings={"n": N, "m": 0})
    assert [f.rule for f in findings] == ["RPR005"]
    # with a positive trip count the same branch is reachable
    assert lint_program(DEAD_BRANCH, bindings={"n": N, "m": 2}) == []


def test_findings_carry_span_and_key():
    (f,) = lint_program(DEAD_END, bindings={"n": N})
    assert f.rule in LINT_RULES
    assert f.severity == "warning"
    assert f.subroutine == "f"
    assert f.node is not None
    assert "redistribute" in f.snippet
    assert f.key() == f"RPR001:f:{f.node}:a"
    as_json = f.to_json()
    assert as_json["rule"] == "RPR001" and as_json["key"] == f.key()
    assert str(f)  # renders without error


def test_findings_surface_through_compile_report():
    report = CompileReport()
    findings = lint_program(DEAD_END, bindings={"n": N}, report=report)
    assert findings
    lint_diags = [d for d in report.diagnostics if d.pass_name == "lint"]
    assert len(lint_diags) == len(findings)


# ---------------------------------------------------------------------------
# every rule is silent on the figures and the four applications
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,source,bindings",
    [
        ("fig1", FIG1, {"n": N}),
        ("fig12", FIG12, {"n": N, "m": 3}),
        ("fig16", FIG16, {"n": N, "t": 5}),
    ],
)
def test_figures_are_lint_clean(name, source, bindings):
    assert lint_program(source, bindings=bindings) == []


@pytest.mark.parametrize(
    "builder",
    [
        lambda: build_adi_program(N),
        lambda: build_fft2d_program(N),
        lambda: build_lu_program(N, 4)[0],
        lambda: build_sar_program(N),
    ],
    ids=["adi", "fft2d", "lu", "sar"],
)
def test_apps_are_lint_clean(builder):
    assert lint_program(builder()) == []


def test_committed_baseline_matches_current_findings():
    """CI gates on tests/lint_baseline.json; it must stay in sync with
    what the rules actually produce over apps + workload seeds 0..25."""
    from repro.apps.workloads import random_legal_subroutine

    keys = []
    for seed in range(26):
        rng = np.random.default_rng(seed)
        for f in lint_program(random_legal_subroutine(rng)):
            keys.append(f"workload-{seed}::{f.key()}")
    committed = set(json.loads((REPO / "tests" / "lint_baseline.json").read_text())["keys"])
    assert set(keys) == committed, (
        "lint rules drifted from tests/lint_baseline.json -- regenerate with "
        "`python -m repro.lint --apps --workloads 0:26 --write-baseline "
        "tests/lint_baseline.json`"
    )


# ---------------------------------------------------------------------------
# the shared 0/1/2 exit-code contract, pinned via real subprocesses
# ---------------------------------------------------------------------------


def _invoke(args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO,
        env=env,
        timeout=600,
    )


def test_lint_cli_exit_codes(tmp_path):
    clean = tmp_path / "clean.hpf"
    clean.write_text(FIG16)
    dirty = tmp_path / "dirty.hpf"
    dirty.write_text(DEAD_END)
    bindings = '{"n": 16, "t": 5}'

    assert _invoke(["-m", "repro.lint", str(clean), "--bindings", bindings]).returncode == 0
    r = _invoke(["-m", "repro.lint", str(dirty), "--bindings", '{"n": 16}'])
    assert r.returncode == 1
    assert "RPR001" in r.stdout
    assert _invoke(["-m", "repro.lint", str(tmp_path / "missing.hpf")]).returncode == 2
    assert _invoke(["-m", "repro.lint"]).returncode == 2  # nothing selected

    # JSON report + baseline round trip through the real CLI
    out = tmp_path / "report.json"
    base = tmp_path / "base.json"
    assert lint_cli([str(dirty), "--bindings", '{"n": 16}',
                     "--write-baseline", str(base)]) == 0
    assert lint_cli([str(dirty), "--bindings", '{"n": 16}',
                     "--baseline", str(base), "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["unexpected"] == 0 and report["total"] == 1


def test_store_cli_exit_codes(tmp_path):
    # 2: no store at the given root
    assert _invoke(["-m", "repro.store", "stats", "--dir", str(tmp_path / "no")]).returncode == 2
