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

load_profile_from_env()


@pytest.fixture
def tracer():
    """Enable the global tracer for one test, restoring state afterwards."""
    prev = TRACER.enabled
    TRACER.enabled = True
    TRACER.clear()
    yield TRACER
    TRACER.enabled = prev
    TRACER.clear()
