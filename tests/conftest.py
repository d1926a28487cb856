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

from repro.analysis.verify import verify_template
from repro.compiler.pipeline import Pipeline
from repro.fuzz.profiles import load_profile_from_env
from repro.obs import TRACER
from repro.util.memo import clear_process_memos

load_profile_from_env()


@pytest.fixture(autouse=True)
def fresh_plans():
    """Start every test with the process's memos -- plans and layouts --
    empty, as a restarted process has them, so no test is served a plan or
    a layout an earlier one built."""
    clear_process_memos()


@pytest.fixture(autouse=True)
def sound_templates(monkeypatch):
    """Every template a compile cuts -- one a session keeps and stores --
    passes the check a store load runs on it: no test's template would be
    evicted by its own load."""
    serve = Pipeline.serve

    def checked(self, *args, **kwargs):
        compiled, template = serve(self, *args, **kwargs)
        if template is not None:
            issues = verify_template(template)
            assert issues == [], f"a sound template fails its load check: {issues}"
        return compiled, template

    monkeypatch.setattr(Pipeline, "serve", checked)


@pytest.fixture
def tracer():
    """Enable the global tracer for one test, restoring state afterwards."""
    prev = TRACER.enabled
    TRACER.enabled = True
    TRACER.clear()
    yield TRACER
    TRACER.enabled = prev
    TRACER.clear()


def _service_threads() -> set:
    import threading

    return {t for t in threading.enumerate() if t.name.startswith("repro-service")}


@pytest.fixture(autouse=True)
def no_orphan_service_threads():
    """Fail any test that leaves a live ``repro-service*`` pool thread
    behind: a service the test opened must be closed by its end."""
    before = _service_threads()
    yield
    leaked = _service_threads() - before
    assert not leaked, f"test left live service threads: {sorted(t.name for t in leaked)}"


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
