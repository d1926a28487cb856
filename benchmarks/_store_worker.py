"""Subprocess worker for the cross-process store benchmark.

``python _store_worker.py <mode> <store_dir>`` runs in a *fresh* Python
process -- that is the point: neither a session cache nor a process-global
memo (copy prices, layouts) of an earlier trial can leak in -- and prints
a JSON report on stdout:

* ``populate`` -- compile the mixed workload through a store-backed
  session (writing every artifact to disk), execute each app and report
  the result-value digests;
* ``warm``  -- one trial of a restarted process over the populated store
  (every compile asserted served from tier ``"disk"``);
* ``cold``  -- the same trial with no store attached (every compile runs
  the full pipeline).

One trial measures two things on the wall clock, first contact only:

* ``artifact_ms`` -- *time to artifact*: ``compile_traced`` of ``lu``, the
  costliest derivation, as the process's first request (``per_app_ms``
  and ``total_artifact_ms`` carry the same for the rest of the mix);
* ``first_result_ms`` -- *time to first result*, the request-level unit:
  that ``compile_traced`` plus the first run of ``lu``, which builds,
  proves and lowers the plans of the copies it performs.

Imports and interpreter start-up are excluded by construction -- timing
starts after the workload is built.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _store_workload import NPROCS, OPTIONS, mixed_workload, run_and_digest

from repro import ArtifactStore, CompilerSession


def main() -> int:
    mode, store_dir = sys.argv[1], sys.argv[2]
    workload = mixed_workload()
    report: dict[str, object] = {"mode": mode}

    if mode == "populate":
        store = ArtifactStore(store_dir)
        session = CompilerSession(processors=NPROCS, options=OPTIONS, store=store)
        tiers = [
            session.compile_traced(w["source"], bindings=w["bindings"])[1]
            for w in workload
        ]
        report["tiers"] = tiers
        report["store_writes"] = session.stats["store_writes"]
        report["digests"] = {w["app"]: run_and_digest(session, w) for w in workload}
        print(json.dumps(report))
        return 0

    expected_tier = {"warm": "disk", "cold": "compiled"}[mode]
    store = ArtifactStore(store_dir) if mode == "warm" else None
    session = CompilerSession(processors=NPROCS, options=OPTIONS, store=store)
    per_app: dict[str, float] = {}
    digests: dict[str, str] = {}
    for w in workload:
        t0 = time.perf_counter()
        _, tier = session.compile_traced(w["source"], bindings=w["bindings"])
        per_app[w["app"]] = (time.perf_counter() - t0) * 1e3
        assert tier == expected_tier, (w["app"], tier, expected_tier)
        if w is workload[0]:  # lu leads: its first run completes the first result
            digests[w["app"]] = run_and_digest(session, w)
            report["first_result_ms"] = (time.perf_counter() - t0) * 1e3
    lead = workload[0]["app"]
    report["artifact_ms"] = per_app[lead]
    report["total_artifact_ms"] = sum(per_app.values())
    report["per_app_ms"] = per_app
    if mode == "warm":
        report["store_hits"] = session.stats["store_hits"]
        report["passes_run"] = session.stats["passes_run"]
    # results must be bit-identical across processes and tiers
    for w in workload[1:]:
        digests[w["app"]] = run_and_digest(session, w)
    report["digests"] = digests
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
