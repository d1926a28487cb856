"""The mixed four-app workload shared by the store benchmark tooling.

One place defines the adi/fft2d/lu/sar request mix (the paper's Sec. 1
application classes) so the cross-process benchmark driver
(``bench_store.py``) and its subprocess worker (``_store_worker.py``)
measure *exactly* the same artifacts -- same sources, bindings, options
and inputs, hence the same session cache keys and store entries.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import CompilerOptions
from repro.apps.adi import adi_kernels, build_adi_program
from repro.apps.fft2d import build_fft2d_program, fft2d_kernels
from repro.apps.lu import build_lu_program, lu_kernels
from repro.apps.sar import (
    build_sar_program,
    chirp,
    sar_kernels,
    synthesize_raw,
    synthetic_scene,
)

NPROCS = 4
#: Problem size.  40 keeps the whole benchmark under a second while the
#: biggest artifact (lu: one subroutine per elimination step) is genuinely
#: expensive to derive -- the regime the warm-start claim is about.
N = 40

#: The compile configuration under benchmark: the full analysis pipeline
#: a serving deployment runs -- level-3 optimization under the round-robin
#: policy (the cost guard prices scheduled placements) and the
#: traffic-estimate pass (per-subroutine best/worst traffic predictions
#: over the scenario grid).  The derivation is expensive (scenario
#: enumeration, cost guard); the stored artifact is a verified unpickle.
#: Plans are not stored: each process builds them on first use.
OPTIONS = CompilerOptions(
    passes=(
        "parse",
        "motion",
        "resolve",
        "construction",
        "remove-useless",
        "live-copies",
        "status-checks",
        "codegen",
        "traffic-estimate",
    ),
    schedule="round-robin",
)


def mixed_workload() -> list[dict]:
    """The four apps as (source, bindings, kernels, inputs, ...) requests."""
    rng = np.random.default_rng(0)
    u0 = rng.normal(size=(N, N))
    x0 = rng.normal(size=(N, N))
    lu_prog, steps = build_lu_program(N, block=8)
    a0 = rng.normal(size=(N, N)) + N * np.eye(N)
    range_ref, azimuth_ref = chirp(N, rate=7.0), chirp(N, rate=3.0)
    raw = synthesize_raw(synthetic_scene(N, seed=0), range_ref, azimuth_ref)
    # lu first: the costliest derivation leads, so time to artifact and time
    # to first result are measured where a restarted service hurts most
    return [
        dict(
            app="lu",
            source=lu_prog,
            bindings={"steps": steps},
            kernels=lu_kernels(N, block=8),
            inputs={"a": a0},
            dtype=np.float64,
            array="a",
        ),
        dict(
            app="adi",
            source=build_adi_program(N),
            bindings={"t": 2},
            kernels=adi_kernels(alpha=0.1),
            inputs={"u": u0},
            dtype=np.float64,
            array="u",
        ),
        dict(
            app="fft2d",
            source=build_fft2d_program(N),
            bindings={},
            kernels=fft2d_kernels(),
            inputs={"x": x0},
            dtype=np.complex128,
            array="x",
        ),
        dict(
            app="sar",
            source=build_sar_program(N),
            bindings={"looks": 1},
            kernels=sar_kernels(range_ref, azimuth_ref),
            inputs={"img": raw},
            dtype=np.complex128,
            array="img",
        ),
    ]


def value_digest(value: np.ndarray) -> str:
    """A content digest of one result array (dtype/shape/bytes)."""
    h = hashlib.sha256()
    h.update(str(value.dtype).encode())
    h.update(repr(value.shape).encode())
    h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def run_and_digest(session, w: dict) -> str:
    """Execute one request on a session and digest its result array."""
    result = session.run(
        w["source"],
        bindings=w["bindings"],
        kernels=w["kernels"],
        inputs=w["inputs"],
        dtype=w["dtype"],
    )
    return value_digest(result.value(w["array"]))
