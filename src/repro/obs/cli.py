"""Observability CLI: ``python -m repro.obs <command>``.

* ``snapshot [FILE]`` -- print a metrics-registry snapshot as JSON (or
  ``--prometheus`` text).  Without ``FILE`` the current process's
  registry is snapshotted (mostly useful under ``REPRO_TRACE``-style
  in-process tooling); with ``FILE`` a saved snapshot is reprinted --
  both raw ``{schema, metrics}`` dumps and benchmark payloads that
  embed one under an ``"obs"`` key are accepted.
* ``diff BEFORE AFTER`` -- per-metric deltas between two snapshot
  files (zero-delta rows are dropped unless ``--all``).
* ``top-spans TRACE [-n N]`` -- aggregate a Chrome ``trace_event``
  JSON (as written by :meth:`~repro.obs.trace.Tracer.write_chrome_trace`)
  into total/self time by span name.

Exit codes (shared with ``python -m repro.store`` and
``python -m repro.lint``): 0 = ok, 2 = infrastructure error
(unreadable or structurally invalid input).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.catalog import CATALOG, REGISTRY
from repro.obs.metrics import prometheus_from_snapshot, snapshot_diff
from repro.obs.trace import top_spans, validate_spans


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="inspect repro metrics snapshots and trace dumps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    snap = sub.add_parser(
        "snapshot", help="print a registry snapshot (current process or a file)"
    )
    snap.add_argument("file", nargs="?", help="saved snapshot JSON (default: this process)")
    snap.add_argument(
        "--prometheus", action="store_true", help="Prometheus text format instead of JSON"
    )
    diff = sub.add_parser("diff", help="per-metric deltas between two snapshots")
    diff.add_argument("before")
    diff.add_argument("after")
    diff.add_argument("--all", action="store_true", help="include zero-delta metrics")
    tops = sub.add_parser("top-spans", help="hottest span names of a Chrome trace")
    tops.add_argument("trace")
    tops.add_argument("-n", type=int, default=10, metavar="N", help="rows (default 10)")
    tops.add_argument(
        "--validate", action="store_true", help="also check span nesting; exit 1 on problems"
    )
    return parser


def _load_snapshot(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "obs" in data and "metrics" not in data:
        data = data["obs"]  # a benchmark payload embedding its snapshot
    if not isinstance(data.get("metrics"), list):
        raise ValueError(f"{path}: not a metrics snapshot (no 'metrics' list)")
    return data


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "snapshot":
            snap = _load_snapshot(args.file) if args.file else REGISTRY.snapshot()
            if args.prometheus:
                sys.stdout.write(prometheus_from_snapshot(snap, CATALOG))
            else:
                print(json.dumps(snap, indent=2, sort_keys=True))
        elif args.command == "diff":
            diff = snapshot_diff(_load_snapshot(args.before), _load_snapshot(args.after))
            if not args.all:
                diff["diff"] = [
                    d
                    for d in diff["diff"]
                    if d.get("delta") or d.get("count_delta") or d.get("sum_delta")
                ]
            print(json.dumps(diff, indent=2, sort_keys=True))
        else:  # top-spans
            with open(args.trace, encoding="utf-8") as fh:
                trace = json.load(fh)
            if not isinstance(trace.get("traceEvents"), list):
                raise ValueError(f"{args.trace}: not a Chrome trace (no 'traceEvents')")
            rows = top_spans(trace, args.n)
            width = max((len(r["name"]) for r in rows), default=4)
            print(f"{'span':<{width}}  {'count':>7}  {'total_ms':>10}  {'self_ms':>10}")
            for r in rows:
                print(
                    f"{r['name']:<{width}}  {r['count']:>7}  "
                    f"{r['total_us'] / 1e3:>10.3f}  {r['self_us'] / 1e3:>10.3f}"
                )
            if args.validate:
                problems = validate_spans(trace)
                for p in problems:
                    print(f"problem: {p}", file=sys.stderr)
                if problems:
                    return 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"repro.obs: {exc}", file=sys.stderr)
        return 2
    return 0
