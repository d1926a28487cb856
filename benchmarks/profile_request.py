"""Where a round's time goes: one workload of the layered benchmark under
cProfile.

    python3 benchmarks/profile_request.py --workload remap_fine [--rounds N] [--top K]

Builds the workload exactly as ``benchmarks/layers/run.py`` does (programs,
inputs and three warm-up rounds through the front door), then serves
``--rounds`` more rounds through ``workload.serve`` -- what ``run.py`` times,
so ``shape_tiers`` restarts its service every round and its requests are
store loads and template instantiations, not memory hits -- with the
profiler on and every service's requests run inline on this thread (a worker
thread would hide them from it), checks every result against the workload's
reference, and prints the cumulative table, the serving-tier counts, the
shares of the remapping walk (``remap/walker.py::_remap``) spent in the copy
(``PreparedMove.execute``) and in the ledger (``Machine.charge``), and the
share of request handling (``CompileService._handle``) spent in the motion
cost guard (``CostGuard.evaluate``; zero where every request is served
without compiling).

cProfile charges every Python call and no native work, so Python-heavy
layers read larger than they are: the output is shares for finding what
dominates, never milliseconds to claim.  Timings are claimed from
``benchmarks/layers/run.py`` with the profiler off.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tempfile
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "layers")]

import workloads  # noqa: E402  (benchmarks/layers/workloads.py, imported not edited)

from repro.remap.costguard import CostGuard  # noqa: E402
from repro.remap.walker import DescriptorWalker  # noqa: E402
from repro.service import service as service_module  # noqa: E402
from repro.spmd.machine import Machine  # noqa: E402
from repro.spmd.redistribution import PreparedMove  # noqa: E402

SEED = 1  # input values only; the traffic and the code path are the same for every seed

#: the shares reported: part -> (label, whole it is a share of)
SHARES = {
    PreparedMove.execute: ("PreparedMove.execute", DescriptorWalker._remap),
    Machine.charge: ("Machine.charge", DescriptorWalker._remap),
    CostGuard.evaluate: ("CostGuard.evaluate", service_module.CompileService._handle),
}


def cumulative(stats: pstats.Stats, fn) -> float:
    """Cumulative seconds of the function ``fn`` (0 if it never ran)."""
    code = fn.__code__
    row = stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return row[3] if row else 0.0


class InlineExecutor:
    """The service's worker pool, run on the submitting (profiled) thread."""

    def __init__(self, **_):
        pass

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # what a pool thread would have stored
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:
        pass


def profile(workload: workloads.Workload, rounds: int) -> tuple[pstats.Stats, Counter]:
    """Serve ``rounds`` rounds as ``run.py`` does, under the profiler; also
    the count of requests each tier served."""
    profiler = cProfile.Profile()
    tiers: Counter = Counter()
    for r in range(rounds):
        kinds = workload.round_kinds(r)
        profiler.enable()
        results, _ = workload.serve(kinds)
        profiler.disable()
        failed = [k.name for k, res in zip(kinds, results) if workloads.request_failed(k, res)]
        if failed:
            raise SystemExit(f"profile_request: round {r}: wrong or failed requests {failed}")
        tiers.update(res.cache_source for res in results)
    return pstats.Stats(profiler), tiers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--top", type=int, default=50, help="rows of the cumulative table")
    args = parser.parse_args(argv)

    # every service the workload opens (a restart included) serves inline
    service_module.ThreadPoolExecutor = InlineExecutor
    with tempfile.TemporaryDirectory(prefix="profile-request-") as tmp:
        workload = workloads.build(args.workload, SEED, Path(tmp))
        try:
            stats, tiers = profile(workload, args.rounds)
        finally:
            workload.close()

    stats.sort_stats("cumulative").print_stats(args.top)
    print("tiers: " + "  ".join(f"{tier} {n}" for tier, n in tiers.most_common()))
    for part, (label, whole) in SHARES.items():
        seconds, total = cumulative(stats, part), cumulative(stats, whole)
        share = f"{seconds / total:.1%}" if total else "-"
        print(
            f"{label}: {seconds:.3f} s = {share} of {whole.__qualname__} "
            f"({total:.3f} s cumulative over {args.rounds} rounds of {args.workload})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
