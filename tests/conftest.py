"""Hypothesis profiles for the tier-1 suite.

All profile definitions live in :mod:`repro.fuzz.profiles` -- one
registry shared by this suite, the CI ``tests-random`` leg, and the
``fuzz-smoke`` leg (``python -m repro.fuzz``), so deadlines and
derandomization can no longer drift apart between consumers.  Select
with ``HYPOTHESIS_PROFILE``; the default is deterministic replay.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fuzz.profiles import load_profile_from_env
from repro.obs import TRACER
from repro.spmd.schedule import PLANS

load_profile_from_env()


@pytest.fixture(autouse=True)
def fresh_plans():
    """Start every test with the process's plan table empty, as a
    restarted process has it, so no test is served a plan an earlier
    one built."""
    PLANS.clear()


@pytest.fixture
def tracer():
    """Enable the global tracer for one test, restoring state afterwards."""
    prev = TRACER.enabled
    TRACER.enabled = True
    TRACER.clear()
    yield TRACER
    TRACER.enabled = prev
    TRACER.clear()


def _mp_ranks() -> set:
    import multiprocessing

    return {
        proc
        for proc in multiprocessing.active_children()
        if proc.name.startswith("repro-mp-")
    }


@pytest.fixture(autouse=True)
def no_orphan_ranks():
    """Fail any test that leaves a live ``repro-mp-*`` worker rank behind.

    Ranks alive before the test (a module- or session-scoped backend
    fixture's) are that fixture's to close; whatever the test itself
    started must be gone when it returns.
    """
    before = _mp_ranks()
    yield
    leaked = _mp_ranks() - before
    for proc in leaked:  # do not let one leak fail every later test too
        proc.kill()
        proc.join()
    assert not leaked, f"test left live mp worker ranks: {sorted(p.name for p in leaked)}"
