"""Where a round's time goes: one workload of the layered benchmark under
cProfile.

    python3 benchmarks/profile_request.py --workload remap_fine [--rounds N] [--top K] [--cold]

Builds the workload exactly as ``benchmarks/layers/run.py`` does (programs,
inputs and three warm-up rounds through the front door), then serves
``--rounds`` more rounds through ``workload.serve`` -- what ``run.py`` times,
so ``shape_tiers`` restarts its service every round and its requests are
store loads and template instantiations, not memory hits -- with the
profiler on (a one-request ``run_batch`` runs its request on this thread, so
the profiler sees it), checks every result against the workload's
reference, and prints the cumulative table, the serving-tier counts, a
``copies:`` line (how many performed copies moved their data as one gather,
move by move, or on the mp backend's wire), a ``versions:`` line (how many
array versions the runs built anew and how many they revived from the
spare a freed version of the same layout left), a ``sweeps:`` line (the
kernels' local sweeps, the kernel calls they made -- one per run of
holders whose blocks have one shape, so one per sweep on ``apps_warm`` --
and the holders' blocks those calls stacked), the shares of the remapping walk
(``remap/walker.py::_remap``) spent in the simulator's data movement
(``LoweredPlan.execute``: the plan's gather or its moves) and in the ledger
(``Machine.charge``), and the
shares of request handling (``CompileService._handle``) spent in the motion
cost guard (``CostGuard.evaluate``), in the guard's scenario-grid walks
(``simulate_grid``) and in remapping-graph construction
(``build_remapping_graph``, the pipeline's and every guard variant's; all
zero where every request is served without compiling), in template
instantiation (``SymbolicTemplate.instantiate``), in the static checks of
what a store load decodes (``verify_artifact``, a concrete artifact's, and
``verify_template``, a template's, at no shape; no instantiation runs
either), in the plan layer
(``obtain_plan``: the plan memo's lookups and, on a miss, the plan's build
and proof) and in the proof alone (``prove_plan``; both near zero once the
memo holds every pair, so read them under ``--cold``), in getting array
versions (``MemoryManager.allocate``: the machine's fit check, then a new
buffer and its block views -- the simulator's heap or the mp backend's
arena -- or a spare's buffer refilled), in the kernels' local sweeps
(``DistributedArray.apply_along_local_dim``: the kernel layer; zero where
no request runs a kernel), in the mp backend's
wait on its ranks (``MPTransport._collect``) and in the rest of its
movement hook (``MPExecutor._run_plan`` outside that wait; both zero off
``mp_exchange``), what the guard's grid walks did over the profiled rounds
(scenarios priced, the statement runs the grids made, and scenarios x
statements -- what walking each scenario on its own would have made) and
what the guard's windows cut (the top-level statements of the windows it
priced, against those of the two family projections they were cut from), what
crossed the mp control pipes over the profiled rounds (control frames and
their bytes, and the per-rank wire programs shipped in them -- 0 after the
warm-up rounds, since the ranks keep every program), and, one line each,
what the process-wide memos (the plans, ``repro.spmd.schedule.PLANS``, and
the layouts) did over the profiled rounds, read as ``snapshot_diff``s of
their ``repro.memo.*`` series in ``REGISTRY``: values obtained, built,
served as hits and evicted, and the entries they gained -- after the
warm-up rounds, a workload that performs no new mapping pair builds no
plan -- and a ``service:`` line, the service-queueing layer: per step of
the cycle, the floor over the profiled rounds of the step's ``run_batch``
wall minus its ``CompileService._handle`` wall (a step that serves no
request, ``shape_tiers``' restart, is all outside ``_handle``), and their
sum.

``--cold`` forgets every process-wide memo before each profiled round
(``repro.util.memo.clear_process_memos``), as a restarted process has them:
``shape_tiers`` restarts its service inside this process, and without
``--cold`` the plans and layouts of earlier rounds survive that restart.

cProfile charges every Python call and no native work, so Python-heavy
layers read larger than they are: the output is shares for finding what
dominates, never milliseconds to claim; the ``service:`` line is wall time
under the profiler, for the same reading.  Timings are claimed from
``benchmarks/layers/run.py`` with the profiler off.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "layers")]

import workloads  # noqa: E402  (benchmarks/layers/workloads.py, imported not edited)

from repro.analysis.commsafety import prove_plan  # noqa: E402
from repro.analysis.verify import verify_artifact, verify_template  # noqa: E402
from repro.compiler.template import SymbolicTemplate  # noqa: E402
from repro.remap import costguard  # noqa: E402
from repro.remap.construction import build_remapping_graph  # noqa: E402
from repro.remap.costguard import CostGuard, project, window  # noqa: E402
from repro.obs import REGISTRY, snapshot_diff  # noqa: E402
from repro.remap.walker import DescriptorWalker  # noqa: E402
from repro.runtime.memory import MemoryManager  # noqa: E402
from repro.runtime.mpbackend import MPExecutor  # noqa: E402
from repro.service import service as service_module  # noqa: E402
from repro.spmd import transport  # noqa: E402
from repro.spmd.darray import DistributedArray  # noqa: E402
from repro.spmd.machine import Machine  # noqa: E402
from repro.spmd.schedule import LoweredPlan, obtain_plan  # noqa: E402
from repro.spmd.traffic import simulate_grid  # noqa: E402
from repro.util.memo import clear_process_memos  # noqa: E402

SEED = 1  # input values only; the traffic and the code path are the same for every seed

HANDLE = service_module.CompileService._handle

#: the shares reported: (label, part, part of it left out or None, whole it
#: is a share of)
SHARES = (
    ("LoweredPlan.execute", LoweredPlan.execute, None, DescriptorWalker._remap),
    ("Machine.charge", Machine.charge, None, DescriptorWalker._remap),
    ("CostGuard.evaluate", CostGuard.evaluate, None, HANDLE),
    ("simulate_grid", simulate_grid, None, HANDLE),
    ("build_remapping_graph", build_remapping_graph, None, HANDLE),
    ("SymbolicTemplate.instantiate", SymbolicTemplate.instantiate, None, HANDLE),
    ("verify_artifact", verify_artifact, None, HANDLE),
    ("verify_template", verify_template, None, HANDLE),
    ("obtain_plan", obtain_plan, None, HANDLE),
    ("prove_plan", prove_plan, None, HANDLE),
    ("MemoryManager.allocate", MemoryManager.allocate, None, HANDLE),
    (
        "DistributedArray.apply_along_local_dim",
        DistributedArray.apply_along_local_dim,
        None,
        HANDLE,
    ),
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


#: how the performed copies moved their data: one gather, move by move, or
#: on the mp backend's wire
COPIES: Counter = Counter()
_execute, _run_plan = LoweredPlan.execute, MPExecutor._run_plan


def counted_execute(lowered, source, target) -> None:
    """The simulator's data movement, counting the form each copy took."""
    COPIES["gather" if lowered.gathers else "moves"] += 1
    _execute(lowered, source, target)


def counted_run_plan(self, plan, source, target, tag: str, delta) -> None:
    """The mp backend's movement hook, counting its copies."""
    COPIES["wire"] += 1
    _run_plan(self, plan, source, target, tag, delta)


#: how the runs got their array versions: built anew or revived from a spare
VERSIONS: Counter = Counter()
_init, _revive = DistributedArray.__init__, DistributedArray.revive


def counted_init(self, *args, **kwargs) -> None:
    """A version built anew (either backend's), counted once it stands."""
    _init(self, *args, **kwargs)
    VERSIONS["built"] += 1


def counted_revive(self, *args) -> None:
    """A spare revived as a new version, counted once it stands."""
    _revive(self, *args)
    VERSIONS["revived"] += 1


#: what the kernels' local sweeps did: sweeps, kernel calls, and the
#: holders' blocks those calls stacked
SWEEPS: Counter = Counter()
_sweep = DistributedArray.apply_along_local_dim


def counted_sweep(self, fn, axis: int) -> None:
    """A local sweep, counting it, its kernel calls and the blocks each
    call stacks (the stack's leading axis)."""

    def kernel(stack, stack_axis):
        SWEEPS.update(calls=1, holders=len(stack))
        return fn(stack, stack_axis)

    SWEEPS["sweeps"] += 1
    _sweep(self, kernel, axis)


def cumulative(stats: pstats.Stats, fn) -> float:
    """Cumulative seconds of the function ``fn`` (0 if it never ran)."""
    code = fn.__code__
    row = stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return row[3] if row else 0.0


#: the wall seconds of each ``CompileService._handle`` call, in call order
HANDLED: list[float] = []


def timed_handle(self, request, index):
    """The service's ``_handle``, recording its wall seconds."""
    t0 = time.perf_counter()
    try:
        return HANDLE(self, request, index)
    finally:
        HANDLED.append(time.perf_counter() - t0)


def outside_handle(kinds: list, step_seconds: list[float], handled: list[float]) -> dict:
    """Each step's wall seconds outside ``_handle``, by step label: a step
    is one one-request ``run_batch``, after the steps that serve no request
    (``shape_tiers``' restart, its first)."""
    if len(handled) != len(kinds):
        raise SystemExit("profile_request: a step served other than one request")
    bare = len(step_seconds) - len(kinds)
    labels = ["restart"] * bare + [kind.name for kind in kinds]
    inside = [0.0] * bare + handled
    return {label: s - h for label, s, h in zip(labels, step_seconds, inside)}


def profile(
    workload: workloads.Workload, rounds: int, cold: bool = False
) -> tuple[
    pstats.Stats,
    Counter,
    dict[str, Counter],
    Counter,
    Counter,
    Counter,
    Counter,
    Counter,
    dict[str, float],
]:
    """Serve ``rounds`` rounds as ``run.py`` does, under the profiler (each
    from forgotten process memos if ``cold``); also the count of requests
    each tier served, what each process-wide memo, the guard's grid walks,
    the mp control pipes, the performed copies, the versions' origins and
    the local sweeps counted over the rounds, and each step's floor of wall seconds outside
    ``_handle``."""
    profiler = cProfile.Profile()
    tiers: Counter = Counter()
    memos: dict[str, Counter] = {}
    floors: dict[str, float] = {}
    walks_start = Counter(WALKS)
    frames_start = Counter(FRAMES)
    copies_start = Counter(COPIES)
    versions_start = Counter(VERSIONS)
    sweeps_start = Counter(SWEEPS)
    shipped = REGISTRY.counter("repro.mp.programs_shipped")
    shipped_start = shipped.value
    for r in range(rounds):
        kinds = workload.round_kinds(r)
        if cold:
            clear_process_memos()
        start = REGISTRY.snapshot()
        HANDLED.clear()
        profiler.enable()
        results, step_seconds = workload.serve(kinds)
        profiler.disable()
        for label, seconds in outside_handle(kinds, step_seconds, HANDLED).items():
            floors[label] = min(seconds, floors.get(label, seconds))
        for d in snapshot_diff(start, REGISTRY.snapshot())["diff"]:
            if d["name"].startswith("repro.memo."):
                count = d["name"].rsplit(".", 1)[1]
                memos.setdefault(d["labels"]["memo"], Counter())[count] += int(d["delta"])
        failed = [k.name for k, res in zip(kinds, results) if workloads.request_failed(k, res)]
        if failed:
            raise SystemExit(f"profile_request: round {r}: wrong or failed requests {failed}")
        tiers.update(res.cache_source for res in results)
    frames = FRAMES - frames_start
    frames["shipped"] = int(shipped.value - shipped_start)
    copies = COPIES - copies_start
    versions = VERSIONS - versions_start
    sweeps = SWEEPS - sweeps_start
    return (
        pstats.Stats(profiler),
        tiers,
        memos,
        WALKS - walks_start,
        frames,
        copies,
        versions,
        sweeps,
        floors,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--top", type=int, default=50, help="rows of the cumulative table")
    parser.add_argument(
        "--cold", action="store_true",
        help="forget every process-wide memo before each profiled round",
    )
    args = parser.parse_args(argv)

    service_module.CompileService._handle = timed_handle
    costguard.simulate_grid = counted_grid
    costguard.window = counted_window
    costguard.project = counted_project
    transport._write_obj = counted_write
    LoweredPlan.execute = counted_execute
    MPExecutor._run_plan = counted_run_plan
    DistributedArray.__init__ = counted_init
    DistributedArray.revive = counted_revive
    DistributedArray.apply_along_local_dim = counted_sweep
    with tempfile.TemporaryDirectory(prefix="profile-request-") as tmp:
        workload = workloads.build(args.workload, SEED, Path(tmp))
        try:
            stats, tiers, memos, walks, frames, copies, versions, sweeps, floors = profile(
                workload, args.rounds, args.cold
            )
        finally:
            workload.close()

    stats.sort_stats("cumulative").print_stats(args.top)
    print("tiers: " + "  ".join(f"{tier} {n}" for tier, n in tiers.most_common()))
    held = {
        m["labels"]["memo"]: int(m["value"])
        for m in REGISTRY.snapshot()["metrics"]
        if m["name"] == "repro.memo.entries"
    }
    for name, memo in sorted(memos.items()):
        print(
            f"{name}: obtains {memo['hits'] + memo['misses']}  builds {memo['misses']}  "
            f"hits {memo['hits']}  evictions {memo['evictions']}  "
            f"entries {memo['entries']:+d} ({held[name]} held) "
            f"over {args.rounds} rounds"
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
    performed = sum(copies.values())
    print(
        f"copies: {performed} performed, "
        + "  ".join(
            f"{form} {copies[form]} ({copies[form] / performed if performed else 0:.0%})"
            for form in ("gather", "moves", "wire")
        )
        + f" over {args.rounds} rounds"
    )
    got = versions["built"] + versions["revived"]
    print(
        f"versions: {got} obtained, built {versions['built']}  revived "
        f"{versions['revived']} ({versions['revived'] / got if got else 0:.0%}) "
        f"over {args.rounds} rounds"
    )
    print(
        f"sweeps: {sweeps['sweeps']} local sweeps, {sweeps['calls']} kernel calls "
        f"({sweeps['calls'] / args.rounds:g} a round) covering {sweeps['holders']} "
        f"holders' blocks over {args.rounds} rounds"
    )
    print(
        "service: run_batch outside _handle, floor per step over "
        f"{args.rounds} rounds (wall, under the profiler): "
        + "  ".join(f"{label} {seconds * 1e3:.3f} ms" for label, seconds in floors.items())
        + f"  sum {sum(floors.values()) * 1e3:.3f} ms"
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
