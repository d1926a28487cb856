"""The request-level, layer-attributed benchmark (see README.md beside this file).

Driver form, one workload, last stdout line is the result object::

    python3 benchmarks/layers/run.py --workload remap_fine --seed 0 --seconds 18 --trace 0

Without ``--workload`` it runs all five workloads (four interleaved
passes each, then the traced runs), prints every metric by name and unit
and writes ``benchmarks/layers/BASELINE.json``.  ``--aa`` runs the
end-to-end set twice and compares the two against the bounds; ``--quick``
is a ten-round smoke run that is never written; ``--self-test`` checks
the harness's own arithmetic.

Exit codes: 0 ok, 1 wrong outputs or an A/A difference beyond its bound,
2 infrastructure (a pass crashed, a compile was not deterministic, the
contract and the code disagree), 3 no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

_T0 = time.perf_counter()  # set-up is timed from here: the heavy imports are part of it

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
PASSES = 4
MIN_ROUNDS = 4  # per pass, however slow the host
QUICK_ROUNDS = 10
PASS_TIMEOUT = 40.0  # four passes of a hung program still end inside the driver's 180 s

#: which end-to-end metric each layer metric should move, and where it must not
INTERACTIONS = [
    {
        "falls": "spmd.redistribution.index_ms, spmd.machine.accounting_ms, "
        "spmd.schedule.messages_per_round",
        "moves": "round_floor_ms",
        "on": "remap_fine (large), mp_exchange (parent-side share only)",
        "not_on": "compile_cold, shape_tiers; apps_warm within bound",
    },
    {
        "falls": "spmd.redistribution.copy_ms, runtime.executor.kernel_ms, "
        "runtime.executor.interp_ms",
        "moves": "round_floor_ms",
        "on": "apps_warm",
        "not_on": "compile_cold, shape_tiers",
    },
    {
        "falls": "compiler.pipeline.pass.*_ms, lang.*_ms",
        "moves": "round_floor_ms",
        "on": "compile_cold",
        "not_on": "all warm workloads",
    },
    {
        "falls": "spmd.schedule.plan_build_ms",
        "moves": "round_floor_ms",
        "on": "compile_cold (schedule pass), shape_tiers (lazy plans); setup_s elsewhere",
        "not_on": "remap_fine, apps_warm (plans replayed)",
    },
    {
        "falls": "store.load_ms, compiler.template.instantiate_ms, compiler.session.lookup_ms",
        "moves": "round_floor_ms",
        "on": "shape_tiers",
        "not_on": "everything else",
    },
    {
        "falls": "store.artifact_bytes (rises)",
        "moves": "peak_rss_mb, store.load_ms",
        "on": "shape_tiers; setup_s everywhere",
        "not_on": "-- (the price of moving work to plan-build time; must be visible)",
    },
    {
        "falls": "spmd.transport.start_ms, spmd.transport.barrier_ms_per_phase",
        "moves": "round_floor_ms",
        "on": "mp_exchange",
        "not_on": "all sim workloads",
    },
    {
        "falls": "runtime.fusion.speedup, spmd.schedule.plans_reused_share (rise)",
        "moves": "round_floor_ms",
        "on": "remap_fine (loop kind), apps_warm (the lu and adi loops fuse too)",
        "not_on": "compile_cold, shape_tiers; mp_exchange (the mp backend never fuses)",
    },
    {
        "falls": "work moved from run to compile/instantiate",
        "moves": "setup_s up, round_floor_ms down warm, up on compile_cold/shape_tiers",
        "on": "--",
        "not_on": "a gain on one that costs the other shows as two rows",
    },
    {
        "falls": "remap_bytes_per_round",
        "moves": "itself (exact)",
        "on": "any",
        "not_on": "must never rise: level-monotonicity seen from outside",
    },
]


class Infrastructure(Exception):
    """The benchmark could not measure (exit 2), as opposed to a wrong output."""


def bootstrap() -> None:
    """Put the checkout's program and this directory on ``sys.path``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(3)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def contract() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise Infrastructure(f"cannot read BENCHMARK.json: {exc}") from None


# ---------------------------------------------------------------------------
# one pass: a fresh process sets a workload up and measures rounds
# ---------------------------------------------------------------------------


def run_pass(name: str, seed: int, seconds: float, max_rounds: int | None) -> dict:
    bootstrap()
    import workloads

    workdir = HERE / ".work" / f"pass-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.build(name, seed, workdir)
        setup_s = time.perf_counter() - _T0
        rounds, steps, moved, tiers = [], [], [], Counter()
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        try:
            while (time.perf_counter() < deadline or len(rounds) < MIN_ROUNDS) and (
                max_rounds is None or len(rounds) < max_rounds
            ):
                kinds = workload.round_kinds(len(rounds))
                t0 = time.perf_counter()
                results, step_seconds = workload.serve(kinds)
                rounds.append(time.perf_counter() - t0)
                steps.append(step_seconds)
                # checks and reference work stay outside the timed region
                attempted += len(kinds)
                failed += sum(workloads.request_failed(k, r) for k, r in zip(kinds, results))
                moved.append(workloads.remap_bytes(results))
                tiers.update(str(r.cache_source) for r in results)
        finally:
            workload.close()
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        return {
            "setup_s": setup_s,
            "rounds": rounds,
            "steps": steps,
            "bytes": moved,
            "attempted": attempted,
            "failed": failed,
            "tiers": dict(tiers),
            "rss_mb": usage / 1024.0,
            "describe": workload.describe(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def spawn(args: list[str], timeout: float = PASS_TIMEOUT) -> list[str]:
    """Run this script again in a fresh process; its stdout lines."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if done.returncode != 0:
        raise Infrastructure(
            f"run.py {' '.join(args)} exited {done.returncode}:\n{done.stderr.strip()[-2000:]}"
        )
    return done.stdout.splitlines()


def spawn_pass(name: str, seed: int, seconds: float, max_rounds: int | None = None) -> dict:
    args = ["--one-pass", "--workload", name, "--seed", str(seed), "--seconds", repr(seconds)]
    if max_rounds is not None:
        args += ["--rounds", str(max_rounds)]
    return json.loads(spawn(args)[-1])


def pool(reports: list[dict]) -> dict:
    """End-to-end metrics of one workload from its pooled passes."""
    from spans import percentile, round_floor, samples_beyond

    rounds = [t for rep in reports for t in rep["rounds"]]
    moved = [b for rep in reports for b in rep["bytes"]]
    attempted = sum(rep["attempted"] for rep in reports)
    failed = sum(rep["failed"] for rep in reports)
    tiers = Counter()
    for rep in reports:
        tiers.update(rep["tiers"])
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in reports),
        "round_floor_ms": round_floor([s for rep in reports for s in rep["steps"]]) * 1e3,
        "peak_rss_mb": max(rep["rss_mb"] for rep in reports),
        "remap_bytes_per_round": statistics.median_low(moved),
        # reported beside the gated four: what the host let through this time
        "failed_share": failed / attempted,
        "round_p50_ms": percentile(rounds, 0.5) * 1e3,
        "round_p90_ms": percentile(rounds, 0.9) * 1e3,
        "throughput_rps": (attempted - failed) / sum(rounds),
        "rounds": len(rounds),
        "beyond_p90": samples_beyond(len(rounds), 0.9),
        "bytes_repeat": len(set(moved)) == 1,
        "attempted": attempted,
        "failed": failed,
        "tiers": dict(tiers),
        "describe": reports[0]["describe"],
    }


#: printed and written beside the gated end-to-end metrics, never gated: on
#: the reference host their run-to-run spread exceeds any useful bound
REPORTED = [
    {"name": "round_p50_ms", "unit": "ms"},
    {"name": "round_p90_ms", "unit": "ms"},
    {"name": "throughput_rps", "unit": "1/s"},
    {"name": "failed_share", "unit": "ratio"},
]


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def run_traced(name: str, seed: int, seconds: float, names: list[str]):
    """Per-layer values (``None`` where a probe is gone), notes, attempted, failed."""
    bootstrap()
    import probes
    import workloads

    workdir = HERE / ".work" / f"trace-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.build(name, seed, workdir)
        try:
            traced = probes.TracedRun(workload, seconds, names)
            traced.run()
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    trace_path = HERE / "TRACE_layers.json"
    try:
        dump = json.loads(trace_path.read_text())
    except (OSError, ValueError):
        dump = {}
    dump[name] = traced.report()
    trace_path.write_text(json.dumps(dump))
    return traced.values, traced.notes, traced.attempted, traced.failed


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def show(title: str, specs: list[dict], values: dict) -> None:
    print(f"== {title}")
    for spec in specs:
        value = values.get(spec["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{spec['name']:<46} {shown:>14} {spec['unit']}")


def show_end_to_end(name: str, spec: dict, pooled: dict, mark: str = "") -> None:
    show(f"{name} end to end ({pooled['rounds']} rounds){mark}", spec["end_to_end"], pooled)
    show(
        f"{name} reported, not gated ({pooled['beyond_p90']} rounds beyond p90){mark}",
        REPORTED,
        pooled,
    )
    print(f"tiers {pooled['tiers']}")


def result_line(specs: list[dict], values: dict, attempted: int, failed: int) -> str:
    """The driver's result object; a probe that is gone reads 0 there."""
    metrics = {
        s["name"]: {"value": values.get(s["name"]) or 0.0, "unit": s["unit"]} for s in specs
    }
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def check_covered(specs: list[dict], values: dict) -> None:
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        raise Infrastructure(f"in BENCHMARK.json but not measured: {', '.join(missing)}")


def drive(name: str, seed: int, seconds: float, trace: bool) -> int:
    """The driver's form: one workload, one result object on the last line."""
    spec = contract()
    if name not in [w["name"] for w in spec["workloads"]]:
        raise Infrastructure(f"unknown workload {name!r}")
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, notes, attempted, failed = run_traced(name, seed, seconds, names)
        check_covered(spec["per_layer"], values)
        show(f"{name} per layer (traced run, seed {seed})", spec["per_layer"], values)
        for note in notes:
            print(f"note: {note}")
        print("#values " + json.dumps(values))
        print(result_line(spec["per_layer"], values, attempted, failed))
        return 0
    bootstrap()
    pooled = pool([spawn_pass(name, seed, seconds / PASSES) for _ in range(PASSES)])
    check_covered(spec["end_to_end"], pooled)
    show_end_to_end(name, spec, pooled, f" seed {seed}")
    print(result_line(spec["end_to_end"], pooled, pooled["attempted"], pooled["failed"]))
    return 0


# ---------------------------------------------------------------------------
# the whole benchmark: every workload, passes interleaved
# ---------------------------------------------------------------------------


def measure_set(names: list[str], seed: int, seconds: float, rounds: int | None) -> dict:
    """One end-to-end set: passes interleaved A B C D E, A B C D E, ..."""
    passes = 1 if rounds is not None else PASSES
    reports: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(passes):
        for name in names:
            reports[name].append(spawn_pass(name, seed, seconds / passes, rounds))
    return {name: pool(reps) for name, reps in reports.items()}


def provenance() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def compare_aa(name: str, metrics: list[dict], first: dict, second: dict) -> tuple[dict, bool]:
    """Two sets of the same code: per metric both values, how much worse the
    second reads, and whether that stays within the metric's own bound."""
    entries, within = {}, True
    for metric in metrics:
        a, b = first[metric["name"]], second[metric["name"]]
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        ok = abs(worse) <= metric["bound"]
        within = within and ok
        print(
            f"A/A {name} {metric['name']}: {a:.6g} vs {b:.6g} {metric['unit']}, "
            f"difference {worse:+.4f}, bound {metric['bound']} {'ok' if ok else 'EXCEEDS'}"
        )
        entries[metric["name"]] = {"aa_second_value": b, "aa_difference": worse}
    if first["failed"] != second["failed"]:
        print(f"A/A {name} failed: {first['failed']} vs {second['failed']} DIFFERS")
        within = False
    return entries, within


def whole(seed: int, seconds: float, out: Path, aa: bool, quick: bool) -> int:
    bootstrap()
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    rounds = QUICK_ROUNDS if quick else None
    first = measure_set(names, seed, seconds, rounds)
    second = measure_set(names, seed, seconds, rounds) if aa else None
    status = 0
    document = {
        "provenance": provenance(),
        "seed": seed,
        "seconds_per_workload": seconds,
        "passes": PASSES,
        "interactions": INTERACTIONS,
        "workloads": {},
    }
    for name in names:
        pooled = first[name]
        show_end_to_end(name, spec, pooled, " [quick]" if quick else "")
        if pooled["failed"] or not pooled["bytes_repeat"]:
            status = 1
        end_to_end = {
            m["name"]: {"value": pooled[m["name"]], "unit": m["unit"], "bound": m["bound"]}
            for m in spec["end_to_end"]
        }
        if second is not None:
            entries, within = compare_aa(name, spec["end_to_end"], pooled, second[name])
            for metric, entry in entries.items():
                end_to_end[metric].update(entry)
            if not within:
                status = 1
        values, notes = {}, []
        if not quick:
            args = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)]
            lines = spawn([*args, "--trace", "1"], timeout=4 * PASS_TIMEOUT)
            values = json.loads(next(ln for ln in lines if ln.startswith("#values "))[8:])
            notes = [line[6:] for line in lines if line.startswith("note: ")]
            show(f"{name} per layer (traced run)", spec["per_layer"], values)
            for note in notes:
                print(f"note: {note}")
        document["workloads"][name] = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
            **pooled["describe"],
            "rounds": pooled["rounds"],
            "samples_beyond_p90": pooled["beyond_p90"],
            "attempted": pooled["attempted"],
            "failed": pooled["failed"],
            "tiers": pooled["tiers"],
            "end_to_end": end_to_end,
            "reported": {
                m["name"]: {"value": pooled[m["name"]], "unit": m["unit"]} for m in REPORTED
            },
            "per_layer": {
                m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                for m in spec["per_layer"]
            },
            "notes": notes,
        }
    if not quick:
        out.write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {out}")
    return status


# ---------------------------------------------------------------------------
# self-test: the harness's own arithmetic
# ---------------------------------------------------------------------------


def self_test() -> int:
    bootstrap()
    import re

    import numpy as np
    import workloads
    from reference import interpret
    from spans import Span, percentile, round_floor, samples_beyond, self_times

    # self time: children clipped to the parent, overlap counted once
    spans = [
        Span("request", 1, None, 0.0, 10.0),
        Span("compile", 1, 0, 1.0, 4.0),
        Span("run", 1, 0, 3.0, 9.0),
        Span("kernel", 1, 2, 5.0, 6.0),
        Span("late", 1, 0, 9.5, 12.0),
    ]
    assert np.allclose(self_times(spans), [1.5, 3.0, 5.0, 1.0, 2.5]), self_times(spans)
    # pooled percentiles
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert percentile(list(range(101)), 0.9) == 90 and samples_beyond(101, 0.9) == 10
    assert percentile([7.0], 0.9) == 7.0
    # the round floor: every step of the cycle at its fastest, wherever it occurred
    assert round_floor([[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 2.0, 4.5]]) == 2.0 + 1.0 + 4.5
    # the reference interpreter against values computed by hand
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    fig1 = interpret(workloads.FIG1, {"n": 2}, {}, {"a": a})
    assert np.array_equal(fig1["a"], a) and not fig1["b"].any()
    fig12 = interpret(workloads.FIG12, {"n": 2, "m": 1}, {"c1": True}, {"a": a})
    assert np.allclose(fig12["b"], 1.01, rtol=0, atol=1e-12)
    assert np.allclose(fig12["c"], 1.00905616, rtol=0, atol=1e-12)
    assert np.allclose(
        fig12["a"],
        [[1.77011238464, 2.02011238464], [2.27011238464, 2.52011238464]],
        rtol=0,
        atol=1e-12,
    )
    fig16 = interpret(workloads.FIG16, {"n": 4, "t": 2}, {}, {"a": np.array([0.0, 2.0, 4.0, 6.0])})
    assert np.allclose(fig16["a"], [1.76404, 2.01404, 2.26404, 2.51404], rtol=0, atol=1e-12)
    # the contract names what the code measures
    spec = contract()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(name_ok.match(n) for n in names) and len(set(names)) == len(names)
    print("self-test ok")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "BASELINE.json")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.one_pass:
            print(json.dumps(run_pass(args.workload, args.seed, args.seconds, args.rounds)))
            return 0
        if args.self_test:
            return self_test()
        seconds = args.seconds if args.seconds is not None else contract()["run_seconds"]
        if args.workload:
            return drive(args.workload, args.seed, seconds, bool(args.trace))
        return whole(args.seed, seconds, args.out, args.aa, args.quick)
    except Infrastructure as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    except Exception:  # whatever else stopped a measurement is infrastructure too
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
