"""The perf-regression gate's decision logic (benchmarks/check_regression.py).

The gate must catch what can only be a code regression (makespan-ordering
violations, deterministic metrics drifting past the slowdown bound,
throughput collapse) while ignoring machine noise within the generous
tolerance; it compares only cases present in both files so smoke sweeps
gate against fuller baselines, and it must refuse to pass when nothing
was comparable (a silently disabled gate is the failure it exists to
prevent).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(spec)
sys.modules["check_regression"] = check_regression
spec.loader.exec_module(check_regression)

check_schedule = check_regression.check_schedule
check_service = check_regression.check_service
check_store = check_regression.check_store
check_symbolic = check_regression.check_symbolic
check_mp = check_regression.check_mp
check_obs_snapshot = check_regression.check_obs_snapshot
write_step_summary = check_regression.write_step_summary


def _store(speedup=4.8, ratio=0.9, warm_ms=9.0, apps=("lu", "adi")):
    return {
        "apps": list(apps),
        "artifact_speedup": speedup,
        "first_result_ratio": ratio,
        "warm": {"artifact_ms": warm_ms},
    }


def test_store_gate_floors_and_baseline_drift():
    assert check_store(_store(warm_ms=15.0), _store(), 2.0) == ([], 2)
    for bad, needle in (
        (_store(speedup=1.5), "time-to-artifact, wall"),
        (_store(ratio=1.3), "time-to-first-result, wall"),
        (_store(warm_ms=20.0), "disk load regressed"),
    ):
        problems, _ = check_store(bad, _store(), 2.0)
        assert len(problems) == 1 and needle in problems[0], problems
    # another app mix is incomparable on latency; the floors still gate
    assert check_store(_store(warm_ms=90.0, apps=("lu",)), _store(), 2.0) == ([], 1)


def _symbolic(hit_rate=0.97, entries=1, speedup=36.0, inst_ms=1.0, pairs=32):
    return {
        "pairs": pairs,
        "cold": {"store_hit_rate": hit_rate, "store_entries": entries},
        "warm": {"speedup": speedup, "instantiate_ms_mean": inst_ms},
    }


def test_symbolic_clean_within_tolerance():
    problems, compared = check_symbolic(_symbolic(inst_ms=1.8), _symbolic(), 2.0)
    assert problems == [] and compared == 2


def test_symbolic_floors_fail():
    assert check_symbolic(_symbolic(hit_rate=0.5), _symbolic(), 2.0)[0]
    assert check_symbolic(_symbolic(entries=32), _symbolic(), 2.0)[0]
    assert check_symbolic(_symbolic(speedup=12.0), _symbolic(), 2.0)[0]


def test_symbolic_latency_drift_past_bound_fails():
    problems, _ = check_symbolic(_symbolic(inst_ms=3.0), _symbolic(inst_ms=1.0), 2.0)
    assert any("instantiation regressed" in p for p in problems)


def test_symbolic_different_sweeps_skip_latency_comparison():
    # a smoke sweep at another pair count is incomparable on latency, but
    # the absolute floors still gate (compared stays >= 1)
    problems, compared = check_symbolic(
        _symbolic(inst_ms=50.0, pairs=8), _symbolic(), 2.0
    )
    assert problems == [] and compared == 1


def _case(naive_ms=10.0, rr_ms=5.0, agg_msgs=4, rr_msgs=8, bytes_=640):
    return {
        "naive": {"makespan_us": naive_ms, "messages": rr_msgs, "bytes": bytes_},
        "round-robin": {"makespan_us": rr_ms, "messages": rr_msgs, "bytes": bytes_},
        "aggregate": {"makespan_us": rr_ms, "messages": agg_msgs, "bytes": bytes_},
    }


def test_schedule_clean_within_tolerance():
    fresh = {"results": {"a@P4": _case(rr_ms=6.0)}}
    base = {"results": {"a@P4": _case(rr_ms=4.0)}}  # 1.5x: inside 2x
    problems, compared = check_schedule(fresh, base, 2.0)
    assert problems == [] and compared == 1


def test_schedule_ordering_violation_fails():
    fresh = {"results": {"a@P4": _case(naive_ms=5.0, rr_ms=10.0)}}
    problems, _ = check_schedule(fresh, fresh, 2.0)
    assert any("makespan-ordering violation" in p for p in problems)


def test_schedule_aggregation_regression_fails():
    bad = _case()
    bad["aggregate"]["messages"] = 99
    problems, _ = check_schedule({"results": {"a@P4": bad}}, {"results": {"a@P4": bad}}, 2.0)
    assert any("aggregation increased messages" in p for p in problems)


def test_schedule_makespan_drift_past_bound_fails():
    fresh = {"results": {"a@P4": _case(rr_ms=9.0)}}
    base = {"results": {"a@P4": _case(rr_ms=4.0)}}  # 2.25x > 2x
    problems, _ = check_schedule(fresh, base, 2.0)
    assert any("makespan regressed" in p for p in problems)


def test_schedule_compares_only_overlapping_cases():
    fresh = {"results": {"a@P4": _case()}}
    base = {"results": {"a@P4": _case(), "b@P16": _case(rr_ms=0.001)}}
    problems, compared = check_schedule(fresh, base, 2.0)
    assert problems == [] and compared == 1


def test_zero_overlap_is_reported_not_passed():
    """Disjoint case sets / schema drift must not look like a clean gate."""
    fresh = {"results": {"a@P4": _case()}}
    base = {"results": {"b@P16": _case()}}
    _, compared = check_schedule(fresh, base, 2.0)
    assert compared == 0
    _, compared = check_schedule({"wrong-key": {}}, base, 2.0)
    assert compared == 0
    _, compared = check_service({"results": {"1": {"warm_rps": 1.0}}}, {}, 2.0)
    assert compared == 0


def test_service_throughput_loss_fails_and_gain_passes():
    base = {"results": {"1": {"warm_rps": 100.0}, "4": {"warm_rps": 300.0}}}
    ok = {"results": {"1": {"warm_rps": 60.0}, "4": {"warm_rps": 900.0}}}
    problems, compared = check_service(ok, base, 2.0)
    assert problems == [] and compared == 2
    bad = {"results": {"4": {"warm_rps": 100.0}}}  # 3x loss on workers=4
    problems, _ = check_service(bad, base, 2.0)
    assert any("warm throughput lost" in p for p in problems)


def test_service_speedup_floor():
    base = {"results": {"1": {"warm_rps": 100.0}}}
    fresh = {"results": {"1": {"warm_rps": 100.0}}, "warm_speedup_4_vs_1": 1.4}
    problems, _ = check_service(fresh, base, 2.0)
    assert any("fell below the asserted 2x floor" in p for p in problems)


def test_main_exit_codes(tmp_path, capsys):
    """0 clean, 1 regression, 2 missing inputs / nothing comparable."""
    import json

    import pytest

    base_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
    # missing fresh files -> 2 (infrastructure, not a regression)
    with pytest.raises(SystemExit) as exc:
        check_regression.main(["--fresh-dir", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()
    # fresh == committed baselines -> clean
    assert (
        check_regression.main(
            ["--fresh-dir", str(base_dir), "--baseline-dir", str(base_dir)]
        )
        == 0
    )
    capsys.readouterr()
    # a real throughput collapse -> 1
    svc = json.loads((base_dir / "BENCH_service.json").read_text())
    for r in svc["results"].values():
        r["warm_rps"] = float(r["warm_rps"]) / 10.0
    for name in (
        "BENCH_schedule.json",
        "BENCH_store.json",
        "BENCH_symbolic.json",
        "BENCH_mp.json",
    ):
        (tmp_path / name).write_text((base_dir / name).read_text())
    (tmp_path / "BENCH_service.json").write_text(json.dumps(svc))
    assert (
        check_regression.main(
            ["--fresh-dir", str(tmp_path), "--baseline-dir", str(base_dir)]
        )
        == 1
    )
    capsys.readouterr()


def test_schema_drift_exits_2_not_1(tmp_path, capsys):
    """A renamed policy key is infrastructure failure (2), never read as
    a perf regression (1) via an uncaught KeyError."""
    import json

    base_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
    sched = json.loads((base_dir / "BENCH_schedule.json").read_text())
    for case in sched["results"].values():
        case["rr"] = case.pop("round-robin")
    (tmp_path / "BENCH_schedule.json").write_text(json.dumps(sched))
    (tmp_path / "BENCH_service.json").write_text(
        (base_dir / "BENCH_service.json").read_text()
    )
    rc = check_regression.main(
        ["--fresh-dir", str(tmp_path), "--baseline-dir", str(base_dir)]
    )
    assert rc == 2
    assert "schema" in capsys.readouterr().err


def _obs(schema=check_regression.OBS_SCHEMA, count=3):
    return {
        "schema": schema,
        "metrics": [
            {"name": "repro.x", "labels": {}, "kind": "counter", "value": 1.0},
            {
                "name": "repro.h",
                "labels": {},
                "kind": "histogram",
                "count": count,
                "sum": 0.5,
                "bounds": [1.0],
                "counts": [2, 1],
            },
        ],
    }


def test_obs_schema_constant_matches_library():
    """The gate's OBS_SCHEMA pin and the library's snapshot schema must
    move together -- this is the sync the gate docstring promises."""
    from repro.obs import SCHEMA_VERSION

    assert check_regression.OBS_SCHEMA == SCHEMA_VERSION


def test_obs_snapshot_clean_passes():
    assert check_obs_snapshot({"obs": _obs()}, "B.json") == []


def test_obs_snapshot_missing_or_wrong_schema_flagged():
    assert any("missing" in p for p in check_obs_snapshot({}, "B.json"))
    problems = check_obs_snapshot({"obs": _obs(schema=99)}, "B.json")
    assert any("schema" in p for p in problems)
    problems = check_obs_snapshot({"obs": {"schema": 1, "metrics": None}}, "B.json")
    assert any("no metrics list" in p for p in problems)


def test_obs_snapshot_torn_histogram_and_malformed_entry_flagged():
    problems = check_obs_snapshot({"obs": _obs(count=5)}, "B.json")
    assert any("torn histogram" in p for p in problems)
    mangled = _obs()
    mangled["metrics"].append({"value": 1.0})  # no name/kind
    problems = check_obs_snapshot({"obs": mangled}, "B.json")
    assert any("malformed" in p for p in problems)


def test_service_overhead_ceilings():
    base = {"results": {"1": {"warm_rps": 100.0}}}

    def fresh(metrics, tracing):
        return {
            "results": {"1": {"warm_rps": 100.0}},
            "overhead": {"metrics_overhead": metrics, "tracing_overhead": tracing},
        }

    ok, compared = check_service(fresh(0.004, 0.03), base, 2.0)
    assert ok == [] and compared == 2  # the overhead block counts as a case
    problems, _ = check_service(fresh(0.02, 0.03), base, 2.0)
    assert any("metric publication costs" in p for p in problems)
    problems, _ = check_service(fresh(0.004, 0.08), base, 2.0)
    assert any("tracing costs" in p for p in problems)
    # a negative measured overhead (faster than the disabled floor, i.e.
    # machine noise) is never a regression
    assert check_service(fresh(-0.02, -0.01), base, 2.0)[0] == []


def test_missing_overhead_block_is_infrastructure_failure(tmp_path, capsys):
    """A service payload without the overhead block means the benchmark
    and the gate no longer speak one schema: exit 2, never a silent pass."""
    import json

    base_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
    for name in ("BENCH_schedule.json", "BENCH_service.json", "BENCH_symbolic.json"):
        (tmp_path / name).write_text((base_dir / name).read_text())
    svc = json.loads((tmp_path / "BENCH_service.json").read_text())
    del svc["overhead"]
    (tmp_path / "BENCH_service.json").write_text(json.dumps(svc))
    rc = check_regression.main(
        ["--fresh-dir", str(tmp_path), "--baseline-dir", str(base_dir)]
    )
    assert rc == 2
    assert "overhead" in capsys.readouterr().err


def test_stripped_obs_snapshot_is_infrastructure_failure(tmp_path, capsys):
    import json

    base_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
    for name in ("BENCH_schedule.json", "BENCH_service.json", "BENCH_symbolic.json"):
        (tmp_path / name).write_text((base_dir / name).read_text())
    sched = json.loads((tmp_path / "BENCH_schedule.json").read_text())
    del sched["obs"]
    (tmp_path / "BENCH_schedule.json").write_text(json.dumps(sched))
    rc = check_regression.main(
        ["--fresh-dir", str(tmp_path), "--baseline-dir", str(base_dir)]
    )
    assert rc == 2
    assert "refusing to gate" in capsys.readouterr().err


def test_gate_passes_on_committed_baselines_shape():
    """The committed baselines themselves are ordering-clean."""
    import json

    base_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
    sched = json.loads((base_dir / "BENCH_schedule.json").read_text())
    svc = json.loads((base_dir / "BENCH_service.json").read_text())
    sym = json.loads((base_dir / "BENCH_symbolic.json").read_text())
    mp = json.loads((base_dir / "BENCH_mp.json").read_text())
    store = json.loads((base_dir / "BENCH_store.json").read_text())
    assert check_schedule(sched, sched, 2.0)[0] == []
    assert check_service(svc, svc, 2.0)[0] == []
    assert check_store(store, store, 2.0) == ([], 2)
    assert check_symbolic(sym, sym, 2.0)[0] == []
    assert check_mp(mp, mp, 2.0)[0] == []


# ---------------------------------------------------------------------------
# the mp-transport gate
# ---------------------------------------------------------------------------


def _mp(
    rr_port=2500.0,
    naive_port=5200.0,
    agg_msgs=12,
    rr_msgs=48,
    bytes_=4096,
    calibration=2.0,
    nprocs=8,
):
    def policy(port, msgs):
        return {
            "port_us": port,
            "wall_us": port * 3,
            "predicted_us": port / calibration,
            "calibration": calibration,
            "messages": msgs,
            "bytes": bytes_,
            "phases": 7,
        }

    return {
        "experiment": "mp-transport",
        "nprocs": nprocs,
        "n": 4096,
        "trips": 4,
        "results": {
            "naive": policy(naive_port, rr_msgs),
            "round-robin": policy(rr_port, rr_msgs),
            "aggregate": policy(rr_port, agg_msgs),
        },
    }


def test_mp_clean_within_tolerance():
    problems, compared = check_mp(_mp(), _mp(), 2.0)
    assert problems == [] and compared == 4


def test_mp_measured_ordering_violation_fails():
    fresh = _mp(rr_port=9000.0, naive_port=5000.0)
    problems, _ = check_mp(fresh, fresh, 2.0)
    assert any("makespan-ordering violation" in p for p in problems)


def test_mp_aggregation_regression_fails():
    fresh = _mp(agg_msgs=99)
    problems, _ = check_mp(fresh, fresh, 2.0)
    assert any("aggregation increased real messages" in p for p in problems)


def test_mp_deterministic_traffic_drift_fails():
    problems, _ = check_mp(_mp(rr_msgs=50), _mp(rr_msgs=48), 2.0)
    assert any("deterministic messages drifted" in p for p in problems)
    problems, _ = check_mp(_mp(bytes_=1), _mp(), 2.0)
    assert any("deterministic bytes drifted" in p for p in problems)


def test_mp_calibration_band_is_wide_but_bounded():
    # 10x worse calibration: a slow runner, inside the 10*max_slowdown band
    problems, _ = check_mp(_mp(calibration=20.0), _mp(calibration=2.0), 2.0)
    assert problems == []
    # 25x: an accidental sync/sleep in the transport, outside the band
    problems, _ = check_mp(_mp(calibration=50.0), _mp(calibration=2.0), 2.0)
    assert any("calibration ratio regressed" in p for p in problems)


def test_mp_different_experiment_shape_skips_baseline_comparison():
    # a smoke sweep at another machine size is incomparable against the
    # baseline, but the fresh ordering invariants still gate
    problems, compared = check_mp(
        _mp(nprocs=4, rr_msgs=5000, calibration=99.0), _mp(), 2.0
    )
    assert problems == [] and compared == 1


def test_mp_nonpositive_calibration_flagged():
    fresh = _mp()
    fresh["results"]["naive"]["calibration"] = 0.0
    problems, _ = check_mp(fresh, fresh, 2.0)
    assert any("not positive" in p for p in problems)


# ---------------------------------------------------------------------------
# the GITHUB_STEP_SUMMARY writer
# ---------------------------------------------------------------------------


def test_step_summary_unset_is_silent_noop(tmp_path, monkeypatch):
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    assert write_step_summary(["## Perf gate"]) is False


def test_step_summary_appends_markdown(tmp_path, monkeypatch):
    target = tmp_path / "summary.md"
    target.write_text("# Earlier step\n")
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(target))
    assert write_step_summary(["## Perf gate", "", "**OK**"]) is True
    text = target.read_text()
    assert text.startswith("# Earlier step\n")  # appended, not clobbered
    assert "## Perf gate" in text and "**OK**" in text


def test_main_writes_step_summary_on_every_verdict(tmp_path, monkeypatch, capsys):
    import json

    base_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
    names = (
        "BENCH_schedule.json",
        "BENCH_service.json",
        "BENCH_store.json",
        "BENCH_symbolic.json",
        "BENCH_mp.json",
    )

    # clean run -> OK verdict with the per-benchmark comparison table
    summary = tmp_path / "ok.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert check_regression.main(
        ["--fresh-dir", str(base_dir), "--baseline-dir", str(base_dir)]
    ) == 0
    text = summary.read_text()
    assert "## Perf gate" in text and "OK" in text
    assert "BENCH_mp.json" in text
    capsys.readouterr()

    # regression run -> the violation lands in the summary markdown
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for name in names:
        (fresh / name).write_text((base_dir / name).read_text())
    mp = json.loads((fresh / "BENCH_mp.json").read_text())
    mp["results"]["round-robin"]["port_us"] = (
        mp["results"]["naive"]["port_us"] * 10.0
    )
    (fresh / "BENCH_mp.json").write_text(json.dumps(mp))
    summary = tmp_path / "bad.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert check_regression.main(
        ["--fresh-dir", str(fresh), "--baseline-dir", str(base_dir)]
    ) == 1
    assert "makespan-ordering violation" in summary.read_text()
    capsys.readouterr()

    # infrastructure failure -> exit 2, also surfaced in the summary
    summary = tmp_path / "infra.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    with __import__("pytest").raises(SystemExit) as exc:
        check_regression.main(
            ["--fresh-dir", str(tmp_path), "--baseline-dir", str(base_dir)]
        )
    assert exc.value.code == 2
    assert "infrastructure failure" in summary.read_text()
    capsys.readouterr()


def test_missing_mp_json_is_infrastructure_failure(tmp_path, capsys):
    """The bench-smoke leg must actually run bench_mp: a missing fresh
    BENCH_mp.json exits 2, never a silent pass."""
    import pytest

    base_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
    for name in (
        "BENCH_schedule.json",
        "BENCH_service.json",
        "BENCH_store.json",
        "BENCH_symbolic.json",
    ):
        (tmp_path / name).write_text((base_dir / name).read_text())
    with pytest.raises(SystemExit) as exc:
        check_regression.main(
            ["--fresh-dir", str(tmp_path), "--baseline-dir", str(base_dir)]
        )
    assert exc.value.code == 2
    capsys.readouterr()
