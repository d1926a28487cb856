"""Shared by the two wall-clock instruments kept beside ``layers/``.

``bench_store.py`` and ``bench_mp.py`` each name a default output file
(``BENCH_store.json``, ``BENCH_mp.json``) that the ``--json PATH`` flag
overrides, so CI can collect the numbers as artifacts.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import REGISTRY


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store",
        default=None,
        metavar="PATH",
        help="write machine-readable benchmark results to PATH "
        "(overrides each benchmark's default output file)",
    )


@pytest.fixture
def bench_json(request):
    """Write one benchmark's results as JSON.

    ``bench_json(default_path, payload)`` honours ``--json PATH`` when
    given, else writes to the benchmark's own default file.  The payload
    embeds a full metrics-registry snapshot under the ``"obs"`` key, so
    every BENCH json doubles as a metrics export (``python -m repro.obs
    snapshot FILE`` reads it).
    """

    def _write(default_path: str, payload: dict) -> None:
        path = request.config.getoption("--json") or default_path
        payload.setdefault("obs", REGISTRY.snapshot())
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return _write
