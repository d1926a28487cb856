"""Management CLI for the persistent artifact store.

``python -m repro.store <command>`` operates on the store at
``--dir`` (default: ``$REPRO_STORE_DIR`` or ``.repro-store``):

* ``stats``  -- print counters and the on-disk footprint as JSON;
* ``gc``     -- enforce the size budget (LRU), drop stale schema
  generations and sweep orphaned temp files;
* ``verify`` -- re-check every entry as a load does: integrity (header,
  length, payload digest, unpickle), then the static invariant checks of
  :mod:`repro.analysis.verify` (a concrete artifact's, or a template's at
  no shape), catching hash-valid but semantically corrupt entries.
  Defective entries are evicted unless ``--keep`` is given.  Exits
  non-zero when corruption was found, so CI can gate on a clean store.

Exit codes (shared with ``python -m repro.lint`` and
``python -m repro.obs``): 0 = clean, 1 = findings, 2 =
infrastructure error (no store at the given root).
"""

from __future__ import annotations

import argparse
import json

from repro.store.store import (
    DEFAULT_MAX_BYTES,
    ArtifactStore,
    default_store_dir,
    schema_fingerprint,
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--dir",
        default=None,
        metavar="PATH",
        help="store root (default: $REPRO_STORE_DIR or .repro-store)",
    )
    common.add_argument(
        "--max-bytes",
        type=int,
        default=DEFAULT_MAX_BYTES,
        metavar="N",
        help="size budget enforced by gc (default: %(default)s)",
    )
    parser = argparse.ArgumentParser(
        prog="repro.store",
        description="manage the persistent compiled-artifact store",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "stats", parents=[common], help="print store statistics as JSON"
    )
    sub.add_parser(
        "gc", parents=[common], help="enforce size budget, drop stale generations"
    )
    verify = sub.add_parser(
        "verify", parents=[common], help="check every entry as a load does"
    )
    verify.add_argument(
        "--keep",
        action="store_true",
        help="report corrupt entries without evicting them (dry run)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    import sys
    from pathlib import Path

    args = _build_parser().parse_args(argv)
    root = Path(args.dir or default_store_dir())
    if not root.is_dir():
        # management commands inspect an existing store; creating a fresh
        # empty tree here would make a typo'd --dir look like a healthy
        # (trivially clean) store and leave debris behind
        print(f"repro.store: no store at {root} (nothing to manage)", file=sys.stderr)
        return 2
    store = ArtifactStore(root, max_bytes=args.max_bytes, create=False)
    if args.command == "stats":
        report: dict[str, object] = dict(store.stats)
        report["schema_fingerprint"] = schema_fingerprint()
    elif args.command == "gc":
        report = dict(store.gc())
        report["entries_bytes"] = store.total_bytes
    else:  # verify
        report = dict(store.verify(evict=not args.keep))
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.command == "verify" and (
        report.get("corrupt") or report.get("invariant_violations")
    ):
        return 1
    return 0
