"""Command-line lint driver: ``python -m repro.lint``.

Runs every RPR0xx rule (:mod:`repro.analysis.lints`) over mini-HPF
sources and prints the findings, one per line::

    python -m repro.lint program.hpf
    python -m repro.lint --apps                 # the four built-in kernels
    python -m repro.lint --workloads 0:26       # random workload seeds
    python -m repro.lint --apps --json out.json --baseline expected.json

Each finding is keyed ``source::rule:subroutine:node:array`` so a run can
be compared against a committed *baseline*: with ``--baseline``, only
findings whose keys are absent from the baseline count as unexpected
(CI gates on "zero unexpected findings" while random workloads keep
their known, intentional lint hits).  ``--write-baseline`` records the
current findings as the new expectation.

Exit codes (shared with ``python -m repro.store`` and
``python -m repro.obs``): 0 = clean (no unexpected
findings), 1 = findings, 2 = infrastructure error (unreadable source,
compile failure, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.symbolic.scenarios import SCENARIO_CAP

__all__ = ["main"]

#: default problem size for ``--apps`` (matches the benchmark defaults)
_APP_SIZE = 16
_LU_BLOCK = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="run the RPR0xx IR lints over mini-HPF programs",
    )
    parser.add_argument(
        "sources",
        nargs="*",
        metavar="FILE",
        help="mini-HPF source files to lint",
    )
    parser.add_argument(
        "--apps",
        action="store_true",
        help=f"lint the four built-in application kernels (n={_APP_SIZE})",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        metavar="LO:HI",
        help="lint random legal workloads for seeds LO..HI-1 (e.g. 0:26)",
    )
    parser.add_argument(
        "--bindings",
        default=None,
        metavar="JSON",
        help='symbol bindings for FILE sources, e.g. \'{"n": 16}\'',
    )
    parser.add_argument(
        "--workload-bindings",
        default=None,
        metavar="JSON",
        help=(
            "list of binding dicts the source serves, e.g. "
            '\'[{"n": 16}, {"n": 16}]\'; enables the RPR006 '
            "constant-shape-symbol rule"
        ),
    )
    parser.add_argument(
        "--processors", type=int, default=4, metavar="P", help="SPMD processor count"
    )
    parser.add_argument(
        "--max-scenarios",
        type=int,
        default=SCENARIO_CAP,
        metavar="N",
        help="cap on enumerated scenarios for the RPR005 reachability rule",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the full findings report as JSON",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="JSON baseline of expected finding keys; only new keys fail",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="write the current finding keys as a baseline and exit 0",
    )
    return parser


def _gather_jobs(args) -> list[tuple[str, object, dict[str, int]]]:
    """Resolve CLI selections to ``(label, source, bindings)`` jobs."""
    jobs: list[tuple[str, object, dict[str, int]]] = []
    bindings: dict[str, int] = {}
    if args.bindings:
        bindings = {str(k): int(v) for k, v in json.loads(args.bindings).items()}
    for path in args.sources:
        jobs.append((Path(path).name, Path(path).read_text(), bindings))
    if args.apps:
        from repro.apps.adi import build_adi_program
        from repro.apps.fft2d import build_fft2d_program
        from repro.apps.lu import build_lu_program
        from repro.apps.sar import build_sar_program

        jobs.append(("adi", build_adi_program(_APP_SIZE), {}))
        jobs.append(("fft2d", build_fft2d_program(_APP_SIZE), {}))
        jobs.append(("lu", build_lu_program(_APP_SIZE, _LU_BLOCK)[0], {}))
        jobs.append(("sar", build_sar_program(_APP_SIZE), {}))
    if args.workloads:
        import numpy as np

        from repro.apps.workloads import random_legal_subroutine

        lo, _, hi = args.workloads.partition(":")
        for seed in range(int(lo), int(hi or int(lo) + 1)):
            rng = np.random.default_rng(seed)
            jobs.append((f"workload-{seed}", random_legal_subroutine(rng), {}))
    return jobs


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (0/1/2)."""
    from repro.analysis.lints import lint_program
    from repro.errors import ReproError

    args = _build_parser().parse_args(argv)
    try:
        jobs = _gather_jobs(args)
    except (OSError, ValueError) as e:
        print(f"repro.lint: {e}", file=sys.stderr)
        return 2
    if not jobs:
        print("repro.lint: nothing to lint (give FILEs, --apps or --workloads)",
              file=sys.stderr)
        return 2

    baseline: set[str] = set()
    if args.baseline:
        try:
            baseline = set(json.loads(Path(args.baseline).read_text())["keys"])
        except (OSError, ValueError, KeyError) as e:
            print(f"repro.lint: bad baseline {args.baseline}: {e}", file=sys.stderr)
            return 2

    workload = None
    if args.workload_bindings:
        try:
            workload = [
                {str(k): int(v) for k, v in w.items()}
                for w in json.loads(args.workload_bindings)
            ]
        except (ValueError, AttributeError) as e:
            print(f"repro.lint: bad --workload-bindings: {e}", file=sys.stderr)
            return 2

    report: list[dict] = []
    unexpected = 0
    for label, source, bindings in jobs:
        try:
            findings = lint_program(
                source,
                bindings=bindings,
                processors=args.processors,
                max_scenarios=args.max_scenarios,
                workload=workload,
            )
        except ReproError as e:
            print(f"repro.lint: {label}: compile failed: {e}", file=sys.stderr)
            return 2
        for f in findings:
            entry = f.to_json()
            entry["source"] = label
            entry["key"] = f"{label}::{f.key()}"
            entry["expected"] = entry["key"] in baseline
            if not entry["expected"]:
                unexpected += 1
                print(f"{label}: {f}")
            report.append(entry)

    keys = sorted(e["key"] for e in report)
    if args.write_baseline:
        Path(args.write_baseline).write_text(
            json.dumps({"keys": keys}, indent=2) + "\n"
        )
        print(f"repro.lint: wrote baseline with {len(keys)} key(s)")
        return 0
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "sources": [label for label, _, _ in jobs],
                    "findings": report,
                    "total": len(report),
                    "unexpected": unexpected,
                },
                indent=2,
            )
            + "\n"
        )
    suppressed = len(report) - unexpected
    tail = f" ({suppressed} baselined)" if suppressed else ""
    print(f"repro.lint: {len(jobs)} program(s), {unexpected} unexpected finding(s){tail}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
