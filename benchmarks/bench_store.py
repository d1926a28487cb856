"""Experiment STORE: cross-process warm start from the persistent store.

The claim under test: compiled remapping code is expensive to derive and
cheap to load, so a *fresh process* (a restarted service, a new CI
runner) with a populated :class:`~repro.store.ArtifactStore` must obtain
its artifacts far faster than one that cold-compiles -- and must not be
slower to its first *result*.  Real subprocesses (no in-memory cache and
no process-global memo can possibly leak across) run the mixed
adi/fft2d/lu/sar workload (``_store_workload.py``) through
``_store_worker.py``:

* ``populate`` compiles everything through a store-backed session;
* ``warm`` is one restarted process served entirely from disk (tier
  asserted ``"disk"``), ``cold`` one process with no store (full
  pipeline); ``TRIALS`` processes of each, alternating, medians reported.

Shape asserted:

* **time to artifact, wall**: the warm process reaches the ``lu`` artifact
  >= 2x faster than the cold one (verified unpickle vs level-3 +
  traffic-estimate pipeline);
* **time to first result, wall** (``compile_traced`` + first run of
  ``lu``) is recorded, and gated only as "warm not slower than cold
  beyond 15 %": stored artifacts are plan-free, so both processes build,
  prove and lower the plans of the copies they perform, and that first
  use -- not the pipeline -- dominates a restarted process's first result;
* results are bit-identical across all processes (value digests) and
  match an in-process reference execution;
* every warm process did zero pipeline work (``passes_run == 0``,
  ``store_hits`` == workload size).

Results are written machine-readably to ``BENCH_store.json`` (or the
shared ``--json PATH`` flag); CI uploads the file as an artifact.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from _store_workload import NPROCS, OPTIONS, mixed_workload, run_and_digest

from repro import ArtifactStore, CompilerSession

REPO = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "_store_worker.py"

#: fresh processes per mode; medians are reported
TRIALS = 5
#: time to artifact, wall: warm must beat cold by at least this factor
MIN_ARTIFACT_SPEEDUP = 2.0
#: time to first result, wall: warm may exceed cold by at most this factor
MAX_FIRST_RESULT_RATIO = 1.15

TIMINGS = ("artifact_ms", "total_artifact_ms", "first_result_ms")


def _run_worker(mode: str, store_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(WORKER), mode, str(store_dir)],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert proc.returncode == 0, f"{mode} worker failed:\n{proc.stderr}"
    return json.loads(proc.stdout)


def _summary(trials: list[dict]) -> dict:
    """Per-timing median plus every trial's reading."""
    out: dict[str, object] = {k: statistics.median(t[k] for t in trials) for k in TIMINGS}
    out["trials"] = {k: [t[k] for t in trials] for k in TIMINGS}
    return out


def test_cross_process_warm_start(bench_json, tmp_path):
    store_dir = tmp_path / "store"
    populate = _run_worker("populate", store_dir)
    assert populate["tiers"] == ["compiled"] * 4
    assert populate["store_writes"] == 4

    warm_trials, cold_trials = [], []
    for i in range(TRIALS):
        order = ("warm", "cold") if i % 2 == 0 else ("cold", "warm")
        for mode in order:
            (warm_trials if mode == "warm" else cold_trials).append(
                _run_worker(mode, store_dir)
            )

    for warm in warm_trials:
        # a warm process never ran a pipeline: all four artifacts from disk
        assert warm["store_hits"] == 4
        assert warm["passes_run"] == 0
    # bit-identical results in every process, and vs this process
    for trial in warm_trials + cold_trials:
        assert trial["digests"] == populate["digests"]
    reference_session = CompilerSession(processors=NPROCS, options=OPTIONS)
    for w in mixed_workload():
        assert run_and_digest(reference_session, w) == populate["digests"][w["app"]], (
            f"{w['app']} diverged from in-process reference"
        )

    warm, cold = _summary(warm_trials), _summary(cold_trials)
    artifact_speedup = cold["artifact_ms"] / warm["artifact_ms"]
    total_artifact_speedup = cold["total_artifact_ms"] / warm["total_artifact_ms"]
    first_result_ratio = warm["first_result_ms"] / cold["first_result_ms"]
    assert artifact_speedup >= MIN_ARTIFACT_SPEEDUP, (
        f"time to artifact (wall): warm start only {artifact_speedup:.1f}x faster "
        f"({warm['artifact_ms']:.2f} ms vs {cold['artifact_ms']:.2f} ms cold)"
    )
    assert first_result_ratio <= MAX_FIRST_RESULT_RATIO, (
        f"time to first result (wall): warm start {first_result_ratio:.2f}x of cold "
        f"({warm['first_result_ms']:.1f} ms vs {cold['first_result_ms']:.1f} ms)"
    )

    store = ArtifactStore(store_dir)
    bench_json(
        "BENCH_store.json",
        {
            "experiment": "store-warm-start",
            "clock": "wall",
            "apps": [w["app"] for w in mixed_workload()],
            "processors": NPROCS,
            "passes": list(OPTIONS.pass_names),
            "trials": TRIALS,
            "min_artifact_speedup_asserted": MIN_ARTIFACT_SPEEDUP,
            "max_first_result_ratio_asserted": MAX_FIRST_RESULT_RATIO,
            "artifact_speedup": artifact_speedup,
            "total_artifact_speedup": total_artifact_speedup,
            "first_result_ratio": first_result_ratio,
            "warm": warm,
            "cold": cold,
            "store": {
                "entries": store.entry_count,
                "total_bytes": store.total_bytes,
                "fingerprint": store.fingerprint,
            },
        },
    )
