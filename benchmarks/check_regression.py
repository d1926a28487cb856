"""Perf-regression gate: fresh benchmark output vs committed baselines.

CI's ``bench-smoke`` leg runs the schedule, service, store, symbolic and
mp-transport benchmarks, then invokes this script to compare the freshly
produced ``BENCH_schedule.json`` / ``BENCH_service.json`` /
``BENCH_store.json`` / ``BENCH_symbolic.json`` / ``BENCH_mp.json`` against
the committed baselines in ``benchmarks/baselines/``.  The perf trajectory
is thereby *gated*, not merely uploaded.  When ``$GITHUB_STEP_SUMMARY`` is
set the verdict is additionally appended there as markdown, so the run's
summary page shows what was gated and what regressed.

Tolerances are deliberately generous -- runners differ in cores, clock
and load -- so only regressions that cannot be machine noise fail:

* **makespan-ordering violations** (exact, model-derived): round-robin
  must never exceed the naive makespan, aggregation must never increase
  the message count and never change the bytes, on every benchmarked
  case in the fresh output;
* **modelled metrics drifting past the slowdown bound** (default 2x):
  per-case makespans and message counts are deterministic functions of
  the schedule subsystem, so fresh > 2x baseline means the *code*, not
  the machine, got slower;
* **throughput loss past the bound**: warm requests-per-second per
  worker count below half the committed baseline.  The warm sweep is
  I/O-modelled (the sleep dominates), which keeps it comparable across
  machines;
* **store warm start (wall)**: a restarted process over a populated store
  must reach its first artifact >= 2x faster than a cold compile and must
  not be slower to its first result beyond 15%; time to artifact from
  disk must stay within the slowdown bound of the committed baseline;
* **symbolic-template floors**: the shape-diverse sweep must keep its
  >= 0.9 store hit rate, collapse to one shape-erased entry, and keep
  instantiation >= 20x cheaper than a concrete compile;
* **instrumentation price ceilings**: the warm service batch priced with
  metric publication on must stay within 1% of the metrics-disabled
  floor, and within 5% with tracing enabled;
* **mp-transport discipline**: round-robin's *measured* one-port-clock
  makespan must not exceed naive's, the transport's deterministic
  traffic accounting must match the baseline exactly, and the
  measured-vs-predicted calibration ratio must stay within a wide band
  of the committed one.

Every fresh BENCH json must additionally embed a well-formed registry
snapshot under ``"obs"`` (schema-versioned, histograms internally
consistent); a missing or malformed snapshot is an infrastructure
failure (exit 2), because it means the benchmarks and the gate no
longer speak one schema.

Only worker counts / cases present in *both* files are compared, so CI's
smaller smoke sweeps gate against the full committed baselines.  Exit
codes: 0 clean, 1 regression(s) found, 2 missing/unreadable inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: makespans are floats computed by one formula on both sides; the
#: epsilon only forgives float-sum ordering jitter, not real contention
EPS = 1e-9

#: registry snapshot schema every fresh BENCH json must embed under
#: "obs" (kept in sync with repro.obs.metrics.SCHEMA_VERSION by
#: tests/test_perf_gate.py)
OBS_SCHEMA = 1

#: instrumentation price ceilings on the warm service batch: metric
#: publication alone must stay under 1%, full tracing under 5%
MAX_METRICS_OVERHEAD = 0.01
MAX_TRACING_OVERHEAD = 0.05


def check_obs_snapshot(fresh: dict, name: str) -> list[str]:
    """Validate the registry snapshot a fresh BENCH json must embed.

    Infrastructure-grade checks (the caller exits 2 on any finding): the
    ``obs`` block must exist, carry the expected schema version, and
    every histogram must be internally consistent -- ``count`` equal to
    the sum of its bucket counts (a torn histogram means the snapshot
    raced a writer, which the locking is supposed to prevent).
    """
    obs = fresh.get("obs")
    if not isinstance(obs, dict):
        return [f"{name}: missing embedded registry snapshot ('obs' key)"]
    if obs.get("schema") != OBS_SCHEMA:
        return [
            f"{name}: obs snapshot schema {obs.get('schema')!r} != "
            f"expected {OBS_SCHEMA}"
        ]
    problems = []
    metrics = obs.get("metrics")
    if not isinstance(metrics, list):
        return [f"{name}: obs snapshot has no metrics list"]
    for m in metrics:
        if not isinstance(m, dict) or "name" not in m or "kind" not in m:
            problems.append(f"{name}: malformed obs metric entry {m!r}")
            continue
        if m["kind"] == "histogram" and m["count"] != sum(m["counts"]):
            problems.append(
                f"{name}: torn histogram {m['name']} -- count {m['count']} "
                f"!= bucket sum {sum(m['counts'])}"
            )
    return problems


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        print(f"perf-gate: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    except ValueError as exc:
        print(f"perf-gate: {path} is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def check_schedule(
    fresh: dict, baseline: dict, max_slowdown: float
) -> tuple[list[str], int]:
    """Problems found plus how many cases were actually compared.

    Zero comparisons means the gate checked nothing -- the caller must
    treat that as an infrastructure failure (schema drift, disjoint case
    sets), not as a pass: a silently disabled gate is exactly the
    failure mode this script exists to prevent.
    """
    problems: list[str] = []
    compared = 0
    fresh_results = fresh.get("results", {})
    base_results = baseline.get("results", {})
    for case, r in sorted(fresh_results.items()):
        rr, naive, agg = r["round-robin"], r["naive"], r["aggregate"]
        if rr["makespan_us"] > naive["makespan_us"] + EPS:
            problems.append(
                f"schedule[{case}]: makespan-ordering violation -- round-robin "
                f"{rr['makespan_us']:.3f}us > naive {naive['makespan_us']:.3f}us"
            )
        if agg["messages"] > rr["messages"]:
            problems.append(
                f"schedule[{case}]: aggregation increased messages "
                f"({agg['messages']} > {rr['messages']})"
            )
        if agg["bytes"] != rr["bytes"]:
            problems.append(
                f"schedule[{case}]: aggregation changed bytes "
                f"({agg['bytes']} != {rr['bytes']})"
            )
    fp = fresh.get("verified_fast_path")
    if fp is not None:
        # deterministic invariant: statically-verified plans must move the
        # exact same traffic; and the skipped runtime validation must not
        # somehow make warm replay slower beyond clear machine noise
        if float(fp["speedup"]) < 0.8:
            problems.append(
                f"schedule[verified-fast-path]: certified plan replay is "
                f"{1 / float(fp['speedup']):.2f}x SLOWER than unverified "
                f"({fp['verified_us']:.0f}us vs {fp['unverified_us']:.0f}us)"
            )
        base_fp = baseline.get("verified_fast_path")
        if base_fp is not None and base_fp.get("pattern") != fp.get("pattern"):
            base_fp = None  # smoke sweep at another machine size: incomparable
        if base_fp is not None and (
            fp["bytes"] != base_fp["bytes"] or fp["messages"] != base_fp["messages"]
        ):
            problems.append(
                "schedule[verified-fast-path]: traffic drifted from baseline "
                f"(bytes {fp['bytes']} vs {base_fp['bytes']}, messages "
                f"{fp['messages']} vs {base_fp['messages']})"
            )
    for case in sorted(set(fresh_results) & set(base_results)):
        compared += 1
        for policy in ("naive", "round-robin", "aggregate"):
            f, b = fresh_results[case][policy], base_results[case][policy]
            if b["makespan_us"] > 0 and f["makespan_us"] > max_slowdown * b["makespan_us"]:
                problems.append(
                    f"schedule[{case}][{policy}]: makespan regressed "
                    f"{f['makespan_us']:.3f}us vs baseline {b['makespan_us']:.3f}us "
                    f"(> {max_slowdown:g}x)"
                )
            if b["messages"] > 0 and f["messages"] > max_slowdown * b["messages"]:
                problems.append(
                    f"schedule[{case}][{policy}]: message count regressed "
                    f"{f['messages']} vs baseline {b['messages']} (> {max_slowdown:g}x)"
                )
    return problems, compared


def check_service(
    fresh: dict, baseline: dict, max_slowdown: float
) -> tuple[list[str], int]:
    """Problems found plus how many worker counts were compared (see
    :func:`check_schedule` on why zero comparisons must not pass)."""
    problems: list[str] = []
    compared = 0
    fresh_results = fresh.get("results", {})
    base_results = baseline.get("results", {})
    for workers in sorted(set(fresh_results) & set(base_results), key=int):
        compared += 1
        f_rps = float(fresh_results[workers]["warm_rps"])
        b_rps = float(base_results[workers]["warm_rps"])
        if b_rps > 0 and f_rps < b_rps / max_slowdown:
            problems.append(
                f"service[workers={workers}]: warm throughput lost more than "
                f"{max_slowdown:g}x -- {f_rps:.1f} rps vs baseline {b_rps:.1f} rps"
            )
    speedup = fresh.get("warm_speedup_4_vs_1")
    if speedup is not None and speedup < 2.0:
        problems.append(
            f"service: warm 4-worker speedup {speedup:.2f}x fell below the "
            "asserted 2x floor"
        )
    overhead = fresh.get("overhead")
    if overhead is not None:
        compared += 1
        mo = float(overhead["metrics_overhead"])
        to = float(overhead["tracing_overhead"])
        if mo > MAX_METRICS_OVERHEAD:
            problems.append(
                f"service[overhead]: metric publication costs {mo:.2%} of the "
                f"warm batch (ceiling: {MAX_METRICS_OVERHEAD:.0%})"
            )
        if to > MAX_TRACING_OVERHEAD:
            problems.append(
                f"service[overhead]: tracing costs {to:.2%} of the warm batch "
                f"(ceiling: {MAX_TRACING_OVERHEAD:.0%})"
            )
    return problems, compared


#: the store benchmark's own floors (bench_store.py asserts the same)
MIN_STORE_ARTIFACT_SPEEDUP = 2.0
MAX_STORE_FIRST_RESULT_RATIO = 1.15


def check_store(
    fresh: dict, baseline: dict, max_slowdown: float
) -> tuple[list[str], int]:
    """Gate the cross-process warm start; every number here is wall clock
    (see :func:`check_schedule` on why zero comparisons must not pass).

    Two absolute floors, re-checked so a weakened assertion cannot slip
    through -- time to artifact from disk vs cold compile, and time to
    first result warm vs cold -- plus a relative bound on the disk load
    itself vs the committed baseline.
    """
    problems: list[str] = []
    compared = 1
    speedup = float(fresh["artifact_speedup"])
    if speedup < MIN_STORE_ARTIFACT_SPEEDUP:
        problems.append(
            f"store[time-to-artifact, wall]: warm start only {speedup:.2f}x faster "
            f"than cold compile (asserted floor: {MIN_STORE_ARTIFACT_SPEEDUP:g}x)"
        )
    ratio = float(fresh["first_result_ratio"])
    if ratio > MAX_STORE_FIRST_RESULT_RATIO:
        problems.append(
            f"store[time-to-first-result, wall]: warm start takes {ratio:.2f}x the "
            f"cold process's time (ceiling: {MAX_STORE_FIRST_RESULT_RATIO:g}x)"
        )
    if fresh.get("apps") == baseline.get("apps"):
        compared += 1
        f_ms = float(fresh["warm"]["artifact_ms"])
        b_ms = float(baseline["warm"]["artifact_ms"])
        if b_ms > 0 and f_ms > max_slowdown * b_ms:
            problems.append(
                f"store[time-to-artifact, wall]: disk load regressed {f_ms:.2f}ms "
                f"vs baseline {b_ms:.2f}ms (> {max_slowdown:g}x)"
            )
    return problems, compared


def check_symbolic(
    fresh: dict, baseline: dict, max_slowdown: float
) -> tuple[list[str], int]:
    """Gate the symbolic-template trajectory (see :func:`check_schedule`
    on why zero comparisons must not pass).

    Two absolute floors (the benchmark's headline claims, re-checked here
    so a weakened assertion cannot slip through) plus a relative bound on
    the instantiation latency vs the committed baseline.
    """
    problems: list[str] = []
    compared = 0
    cold, warm = fresh["cold"], fresh["warm"]
    compared += 1
    if float(cold["store_hit_rate"]) < 0.9:
        problems.append(
            f"symbolic: store hit rate {float(cold['store_hit_rate']):.3f} fell "
            "below the asserted 0.9 floor"
        )
    if int(cold["store_entries"]) != 1:
        problems.append(
            f"symbolic: shape-diverse sweep left {cold['store_entries']} store "
            "entries (shape-erased keying must collapse them to 1)"
        )
    if float(warm["speedup"]) < 20.0:
        problems.append(
            f"symbolic: instantiation only {float(warm['speedup']):.1f}x cheaper "
            "than concrete compile (asserted floor: 20x)"
        )
    base_warm = baseline.get("warm")
    if base_warm is not None and fresh.get("pairs") == baseline.get("pairs"):
        compared += 1
        f_ms = float(warm["instantiate_ms_mean"])
        b_ms = float(base_warm["instantiate_ms_mean"])
        if b_ms > 0 and f_ms > max_slowdown * b_ms:
            problems.append(
                f"symbolic: per-pair instantiation regressed {f_ms:.2f}ms vs "
                f"baseline {b_ms:.2f}ms (> {max_slowdown:g}x)"
            )
    return problems, compared


def check_mp(
    fresh: dict, baseline: dict, max_slowdown: float
) -> tuple[list[str], int]:
    """Gate the mp transport's measured trajectory (see
    :func:`check_schedule` on why zero comparisons must not pass).

    Deterministic fields (per-policy messages/bytes/phases) must match
    the baseline exactly when the experiment shape matches -- the
    transport moving different traffic than it used to is a correctness
    drift, not noise.  The measured fields get two kinds of bound: the
    recorded makespan ordering (round-robin <= naive on the one-port
    clock) is exact, while the calibration ratio -- measured time over
    the cost model's prediction, a property of the host's pipes as much
    as of the code -- is only gated within a deliberately wide
    ``10 * max_slowdown`` band, enough to catch an accidental sync/sleep
    in the transport without flaking on slower runners.
    """
    problems: list[str] = []
    compared = 0
    results = fresh["results"]
    rr, naive, agg = results["round-robin"], results["naive"], results["aggregate"]
    compared += 1
    if rr["port_us"] > naive["port_us"] + EPS:
        problems.append(
            f"mp: measured makespan-ordering violation -- round-robin "
            f"{rr['port_us']:.0f}us > naive {naive['port_us']:.0f}us on the "
            "one-port clock"
        )
    if agg["messages"] > rr["messages"]:
        problems.append(
            f"mp: aggregation increased real messages "
            f"({agg['messages']} > {rr['messages']})"
        )
    if agg["bytes"] != rr["bytes"]:
        problems.append(
            f"mp: aggregation changed moved bytes ({agg['bytes']} != {rr['bytes']})"
        )
    for policy, r in results.items():
        c = float(r["calibration"])
        if not (c > 0):
            problems.append(f"mp[{policy}]: calibration ratio {c!r} is not positive")

    same_shape = all(
        fresh.get(k) == baseline.get(k) for k in ("nprocs", "n", "trips")
    )
    if same_shape:
        cal_bound = 10.0 * max_slowdown
        for policy in ("naive", "round-robin", "aggregate"):
            f, b = results[policy], baseline["results"][policy]
            compared += 1
            for key in ("messages", "bytes", "phases"):
                if f[key] != b[key]:
                    problems.append(
                        f"mp[{policy}]: deterministic {key} drifted from "
                        f"baseline ({f[key]} != {b[key]})"
                    )
            fc, bc = float(f["calibration"]), float(b["calibration"])
            if bc > 0 and fc > cal_bound * bc:
                problems.append(
                    f"mp[{policy}]: calibration ratio regressed {fc:.2f} vs "
                    f"baseline {bc:.2f} (> {cal_bound:g}x band)"
                )
    return problems, compared


def write_step_summary(lines: list[str], path: str | None = None) -> bool:
    """Append a markdown report to ``$GITHUB_STEP_SUMMARY`` when set.

    CI surfaces the gate's verdict on the run's summary page instead of
    burying it in the log.  Returns whether anything was written; a
    missing/unset variable is a silent no-op (local runs).
    """
    target = path if path is not None else os.environ.get("GITHUB_STEP_SUMMARY")
    if not target:
        return False
    try:
        with open(target, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"perf-gate: cannot write step summary: {exc}", file=sys.stderr)
        return False
    return True


def _summary_lines(
    status: str, problems: list[str], compared: dict[str, int]
) -> list[str]:
    lines = ["## Perf gate", "", f"**{status}**", ""]
    if compared:
        lines += ["| benchmark | cases compared |", "| --- | --- |"]
        lines += [f"| `{name}` | {n} |" for name, n in sorted(compared.items())]
        lines.append("")
    if problems:
        lines.append(f"{len(problems)} problem(s):")
        lines.append("")
        lines += [f"- {p}" for p in problems]
        lines.append("")
    return lines


def main(argv: list[str] | None = None) -> int:
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description="gate fresh BENCH json vs baselines")
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=Path("."),
        help="directory holding the freshly produced BENCH_*.json (default: .)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=here / "baselines",
        help="directory holding the committed baselines",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=2.0,
        help="fail when a gated metric regresses past this factor (default: 2)",
    )
    args = parser.parse_args(argv)

    problems: list[str] = []
    compared_by_file: dict[str, int] = {}
    for name, check in (
        ("BENCH_schedule.json", check_schedule),
        ("BENCH_service.json", check_service),
        ("BENCH_store.json", check_store),
        ("BENCH_symbolic.json", check_symbolic),
        ("BENCH_mp.json", check_mp),
    ):
        fresh_path = args.fresh_dir / name
        base_path = args.baseline_dir / name
        try:
            fresh = _load(fresh_path)
            baseline = _load(base_path)
        except SystemExit:
            write_step_summary(
                _summary_lines(
                    ":warning: infrastructure failure (exit 2)",
                    [f"{name}: missing or unreadable (fresh or baseline)"],
                    compared_by_file,
                )
            )
            raise
        infra = check_obs_snapshot(fresh, name)
        if name == "BENCH_service.json" and "overhead" not in fresh:
            infra.append(f"{name}: missing the instrumentation 'overhead' block")
        if not infra:
            try:
                found, compared = check(fresh, baseline, args.max_slowdown)
            except (KeyError, TypeError, ValueError) as exc:
                # a renamed/missing policy or metric key is schema drift --
                # an infrastructure failure (2), not a perf regression (1)
                infra.append(
                    f"{name} does not match the expected benchmark schema "
                    f"({type(exc).__name__}: {exc})"
                )
            else:
                if compared == 0:
                    infra.append(
                        f"{name} has no cases in common with its baseline "
                        "(schema drift or disjoint sweeps?) -- the gate "
                        "checked nothing"
                    )
        if infra:
            for p in infra:
                print(f"perf-gate: {p} -- refusing to gate", file=sys.stderr)
            write_step_summary(
                _summary_lines(
                    ":warning: infrastructure failure (exit 2)",
                    infra,
                    compared_by_file,
                )
            )
            return 2
        problems += found
        compared_by_file[name] = compared

    total_compared = sum(compared_by_file.values())
    if problems:
        print(f"perf-gate: {len(problems)} regression(s) found:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        write_step_summary(
            _summary_lines(
                f":x: {len(problems)} regression(s) found (exit 1)",
                problems,
                compared_by_file,
            )
        )
        return 1
    print(f"perf-gate: OK ({total_compared} cases within tolerances)")
    write_step_summary(
        _summary_lines(
            f":white_check_mark: OK -- {total_compared} cases within tolerances",
            [],
            compared_by_file,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
