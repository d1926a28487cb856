"""Generative differential fuzzing of the remapping compiler.

The package closes the ROADMAP's scenario-fuzzing item: random—but legal
by construction—mini-HPF programs (:mod:`~repro.fuzz.generator`) are run
through the full compiler option matrix by a differential oracle
(:mod:`~repro.fuzz.oracle`) asserting bit-identical values, level-monotone
traffic, executed traffic equal to its static prediction, and
verifier/lint cleanliness.
Failures shrink to minimal programs (:mod:`~repro.fuzz.shrink`) and are
pinned into a committed corpus (:mod:`~repro.fuzz.corpus`) replayed as
regression tests, the way workload seed 2558 is pinned today.

``python -m repro.fuzz`` runs a time-boxed campaign
(:mod:`~repro.fuzz.cli`); :mod:`~repro.fuzz.profiles` is the single
registry behind every ``HYPOTHESIS_PROFILE`` consumer, so the CI legs
cannot silently diverge on deadline/derandomize settings.
"""

from repro.fuzz.corpus import CorpusEntry, load_corpus, pin_case
from repro.fuzz.generator import FuzzCase, FuzzSpec, generate_case
from repro.fuzz.oracle import OracleConfig, OracleFinding, run_oracle
from repro.fuzz.profiles import PROFILES, load_profile_from_env
from repro.fuzz.shrink import shrink_case

__all__ = [
    "CorpusEntry",
    "FuzzCase",
    "FuzzSpec",
    "OracleConfig",
    "OracleFinding",
    "PROFILES",
    "generate_case",
    "load_corpus",
    "load_profile_from_env",
    "pin_case",
    "run_oracle",
    "shrink_case",
]
