"""Where a warm request's time goes: one workload of the layered benchmark
under cProfile.

    python3 benchmarks/profile_request.py --workload remap_fine [--rounds N] [--top K]

Builds the workload exactly as ``benchmarks/layers/run.py`` does (programs,
inputs and three warm-up rounds through the front door), then serves
``--rounds`` more rounds by calling ``CompileService._handle`` on this
thread with the profiler on -- the worker pool would hide the request from
it -- checks every result against the workload's reference, and prints the
cumulative table followed by the shares of the remapping walk
(``remap/walker.py::_remap``) spent in the copy (``PreparedMove.execute``)
and in the ledger (``Machine.charge``).

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
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "layers")]

import workloads  # noqa: E402  (benchmarks/layers/workloads.py, imported not edited)

SEED = 1  # input values only; the traffic and the code path are the same for every seed

#: (file suffix, function) of the three frames whose ratio is reported
REMAP = ("remap/walker.py", "_remap")
SHARES = {
    "PreparedMove.execute": ("spmd/redistribution.py", "execute"),
    "Machine.charge": ("spmd/machine.py", "charge"),
}


def cumulative(stats: pstats.Stats, frame: tuple[str, str]) -> float:
    """Cumulative seconds of the one profiled function ``frame`` names."""
    suffix, name = frame
    hits = [
        row[3]
        for (path, _, func), row in stats.stats.items()
        if func == name and path.replace("\\", "/").endswith(suffix)
    ]
    if len(hits) != 1:
        raise SystemExit(f"profile_request: {len(hits)} profiled functions match {suffix}::{name}")
    return hits[0]


def profile(workload: workloads.Workload, rounds: int) -> pstats.Stats:
    """Serve ``rounds`` warm rounds on this thread under the profiler."""
    profiler = cProfile.Profile()
    for r in range(rounds):
        kinds = workload.round_kinds(r)
        profiler.enable()
        results = [workload.service._handle(kind.request, 0) for kind in kinds]
        profiler.disable()
        failed = [k.name for k, res in zip(kinds, results) if workloads.request_failed(k, res)]
        if failed:
            raise SystemExit(f"profile_request: round {r}: wrong or failed requests {failed}")
    return pstats.Stats(profiler)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--top", type=int, default=30, help="rows of the cumulative table")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="profile-request-") as tmp:
        workload = workloads.build(args.workload, SEED, Path(tmp))
        try:
            stats = profile(workload, args.rounds)
        finally:
            workload.close()

    stats.sort_stats("cumulative").print_stats(args.top)
    remap = cumulative(stats, REMAP)
    print(f"_remap: {remap:.3f} s cumulative over {args.rounds} rounds of {args.workload}")
    for label, frame in SHARES.items():
        seconds = cumulative(stats, frame)
        print(f"  {label}: {seconds:.3f} s = {seconds / remap:.1%} of _remap")
    return 0


if __name__ == "__main__":
    sys.exit(main())
