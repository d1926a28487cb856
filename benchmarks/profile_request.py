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
shares of request handling (``CompileService._handle``) spent in the motion
cost guard (``CostGuard.evaluate``), in the guard's scenario-grid walks
(``simulate_grid``) and in remapping-graph construction
(``build_remapping_graph``, the pipeline's and every guard variant's; all
zero where every request is served without compiling), in the mp backend's
wait on its ranks (``MPTransport._collect``) and in the rest of its
movement hook (``MPExecutor._run_plan`` outside that wait; both zero off
``mp_exchange``), what the guard's grid walks did over the profiled rounds
(scenarios priced, the statement runs the grids made, and scenarios x
statements -- what walking each scenario on its own would have made) and
what the guard's windows cut (the top-level statements of the windows it
priced, against those of the two family projections they were cut from), what
crossed the mp control pipes over the profiled rounds (control frames and
their bytes, and the per-rank wire programs shipped in them -- 0 after the
warm-up rounds, since the ranks keep every program), and what the
process's plan table (``repro.spmd.schedule.PLANS``) did over the profiled
rounds: plans obtained, built, served as hits and evicted, and the entries
it gained -- after the warm-up rounds, a workload that performs no new
mapping pair builds nothing.

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

from repro.remap import costguard  # noqa: E402
from repro.remap.construction import build_remapping_graph  # noqa: E402
from repro.remap.costguard import CostGuard, project, window  # noqa: E402
from repro.obs import REGISTRY  # noqa: E402
from repro.remap.walker import DescriptorWalker  # noqa: E402
from repro.runtime.mpbackend import MPExecutor  # noqa: E402
from repro.service import service as service_module  # noqa: E402
from repro.spmd import transport  # noqa: E402
from repro.spmd.machine import Machine  # noqa: E402
from repro.spmd.redistribution import PreparedMove  # noqa: E402
from repro.spmd.schedule import PLANS  # noqa: E402
from repro.spmd.traffic import simulate_grid  # noqa: E402

SEED = 1  # input values only; the traffic and the code path are the same for every seed

HANDLE = service_module.CompileService._handle

#: the shares reported: (label, part, part of it left out or None, whole it
#: is a share of)
SHARES = (
    ("PreparedMove.execute", PreparedMove.execute, None, DescriptorWalker._remap),
    ("Machine.charge", Machine.charge, None, DescriptorWalker._remap),
    ("CostGuard.evaluate", CostGuard.evaluate, None, HANDLE),
    ("simulate_grid", simulate_grid, None, HANDLE),
    ("build_remapping_graph", build_remapping_graph, None, HANDLE),
    ("MPTransport._collect", transport.MPTransport._collect, None, HANDLE),
    (
        "MPExecutor._run_plan outside MPTransport._collect",
        MPExecutor._run_plan,
        transport.MPTransport._collect,
        HANDLE,
    ),
)


#: what the guard's grid walks did: scenarios priced, statement runs made,
#: and scenarios x statements; and the top-level statements of its windows
#: and of the family projections they were cut from
WALKS: Counter = Counter()


def counted_grid(*args, **kwargs):
    """The guard's ``simulate_grid``, counting what each walk did."""
    walk = simulate_grid(*args, **kwargs)
    scenarios = len(walk.estimates)
    WALKS.update(
        scenarios=scenarios,
        executions=walk.executions,
        one_by_one=scenarios * walk.statements,
    )
    return walk


def counted_window(base_sub, candidate_sub, names):
    """The guard's ``window``, counting the top-level statements it keeps."""
    cut = window(base_sub, candidate_sub, names)
    WALKS.update(priced=sum(len(sub.body.stmts) for sub in cut))
    return cut


def counted_project(sub, names):
    """The guard's ``project``, counting the family projection's top-level
    statements."""
    projected = project(sub, names)
    WALKS.update(projected=len(projected.body.stmts))
    return projected


#: what the parent wrote on the mp control pipes: frames and their bytes
FRAMES: Counter = Counter()
_write_obj = transport._write_obj


def counted_write(fd: int, obj) -> int:
    """The transport's control-frame writer, counting what it wrote."""
    size = _write_obj(fd, obj)
    FRAMES.update(frames=1, bytes=size)
    return size


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


def profile(
    workload: workloads.Workload, rounds: int
) -> tuple[pstats.Stats, Counter, dict[str, int], Counter, Counter]:
    """Serve ``rounds`` rounds as ``run.py`` does, under the profiler; also
    the count of requests each tier served, and what :data:`PLANS`, the
    guard's grid walks and the mp control pipes counted over the rounds."""
    profiler = cProfile.Profile()
    tiers: Counter = Counter()
    start = PLANS.stats()
    walks_start = Counter(WALKS)
    frames_start = Counter(FRAMES)
    shipped = REGISTRY.counter("repro.mp.programs_shipped")
    shipped_start = shipped.value
    for r in range(rounds):
        kinds = workload.round_kinds(r)
        profiler.enable()
        results, _ = workload.serve(kinds)
        profiler.disable()
        failed = [k.name for k, res in zip(kinds, results) if workloads.request_failed(k, res)]
        if failed:
            raise SystemExit(f"profile_request: round {r}: wrong or failed requests {failed}")
        tiers.update(res.cache_source for res in results)
    plans = {k: v - start[k] for k, v in PLANS.stats().items()}
    frames = FRAMES - frames_start
    frames["shipped"] = int(shipped.value - shipped_start)
    return pstats.Stats(profiler), tiers, plans, WALKS - walks_start, frames


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--top", type=int, default=50, help="rows of the cumulative table")
    args = parser.parse_args(argv)

    # every service the workload opens (a restart included) serves inline
    service_module.ThreadPoolExecutor = InlineExecutor
    costguard.simulate_grid = counted_grid
    costguard.window = counted_window
    costguard.project = counted_project
    transport._write_obj = counted_write
    with tempfile.TemporaryDirectory(prefix="profile-request-") as tmp:
        workload = workloads.build(args.workload, SEED, Path(tmp))
        try:
            stats, tiers, plans, walks, frames = profile(workload, args.rounds)
        finally:
            workload.close()

    stats.sort_stats("cumulative").print_stats(args.top)
    print("tiers: " + "  ".join(f"{tier} {n}" for tier, n in tiers.most_common()))
    print(
        f"plans: obtains {plans['hits'] + plans['misses']}  builds {plans['misses']}  "
        f"hits {plans['hits']}  evictions {plans['evictions']}  entries {plans['entries']:+d} "
        f"({len(PLANS)} held) over {args.rounds} rounds"
    )
    print(
        f"walks: {walks['scenarios']} scenarios priced by the guard, "
        f"{walks['executions']} grid statement runs "
        f"(scenarios x statements {walks['one_by_one']}); top-level statements priced "
        f"{walks['priced']} of {walks['projected']} in the family projections "
        f"over {args.rounds} rounds"
    )
    print(
        f"frames: {frames['frames']} control frames, {frames['bytes']} control bytes, "
        f"{frames['shipped']} programs shipped over {args.rounds} rounds"
    )
    for label, part, less, whole in SHARES:
        seconds = cumulative(stats, part) - (cumulative(stats, less) if less else 0.0)
        total = cumulative(stats, whole)
        share = f"{seconds / total:.1%}" if total else "-"
        print(
            f"{label}: {seconds:.3f} s = {share} of {whole.__qualname__} "
            f"({total:.3f} s cumulative over {args.rounds} rounds of {args.workload})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
