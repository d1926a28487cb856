"""SAR-style signal processing pipeline (paper Sec. 1, reference [17]).

Meisl, Ito & Cumming (cited by the paper) parallelize synthetic-aperture
radar processing as two 1-D matched-filtering stages separated by a
*corner turn* -- a full transpose of the data matrix, which in HPF is a
remapping.  We reproduce the computational shape:

1. **range compression**: per-row FFT, multiply by the range reference
   filter, inverse FFT (rows local under ``(block, *)``);
2. **corner turn**: redistribute to ``(*, block)``;
3. **azimuth compression**: the same matched filtering per column;
4. optional multi-look passes re-reading the image under both mappings,
   which is where live copies pay off.

Since the data (raw radar echoes) is proprietary in real life, the input
is synthetic point targets plus noise -- the code path (two filtering
stages + corner turn remapping) is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler import CompilerOptions, compile_program
from repro.lang.builder import SubroutineBuilder, program
from repro.runtime import ExecutionEnv, Executor
from repro.spmd import Machine


def matched_filter(x: np.ndarray, ref: np.ndarray, axis: int) -> np.ndarray:
    """Frequency-domain correlation with a reference chirp along ``axis``."""
    f = np.fft.fft(x, axis=axis)
    shape = [1] * x.ndim
    shape[axis] = len(ref)
    f = f * np.conj(np.fft.fft(ref)).reshape(shape)
    return np.fft.ifft(f, axis=axis)


def chirp(n: int, rate: float) -> np.ndarray:
    t = np.arange(n)
    return np.exp(1j * np.pi * rate * (t - n / 2) ** 2 / n)


def sar_reference(
    raw: np.ndarray, range_ref: np.ndarray, azimuth_ref: np.ndarray, looks: int
) -> np.ndarray:
    img = matched_filter(raw, range_ref, axis=1)
    img = matched_filter(img, azimuth_ref, axis=0)
    for _ in range(looks):
        img = img * 0.5  # multi-look scaling passes (reads + rescale)
    return img


def build_sar_program(n: int):
    b = SubroutineBuilder("sar", params=("looks",))
    b.scalar("looks")
    b.array("img", (n, n))
    b.dynamic("img")
    b.distribute("img", "block", "*")
    b.compute("range_compress", reads=("img",), writes=("img",))
    b.redistribute("img", "*", "block")  # corner turn
    b.compute("azimuth_compress", reads=("img",), writes=("img",))
    with b.do("l", 1, "looks"):
        b.compute("multilook", reads=("img",), writes=("img",))
    return program(b)


def sar_kernels(range_ref: np.ndarray, azimuth_ref: np.ndarray):
    def range_compress(ctx) -> None:
        ctx.darray("img").apply_along_local_dim(
            lambda blocks, axis: matched_filter(blocks, range_ref, axis), 1
        )

    def azimuth_compress(ctx) -> None:
        ctx.darray("img").apply_along_local_dim(
            lambda blocks, axis: matched_filter(blocks, azimuth_ref, axis), 0
        )

    def multilook(ctx) -> None:
        ctx.darray("img").apply_along_local_dim(
            lambda blocks, axis: blocks * 0.5, 0
        )

    return {
        "range_compress": range_compress,
        "azimuth_compress": azimuth_compress,
        "multilook": multilook,
    }


@dataclass
class SARResult:
    value: np.ndarray
    reference: np.ndarray
    stats: dict[str, int]
    elapsed: float

    @property
    def max_error(self) -> float:
        return float(np.max(np.abs(self.value - self.reference)))

    @property
    def correct(self) -> bool:
        return bool(np.allclose(self.value, self.reference, atol=1e-9))


def convolve_circular(x: np.ndarray, ref: np.ndarray, axis: int) -> np.ndarray:
    """Circular convolution with the reference chirp along ``axis``."""
    f = np.fft.fft(x, axis=axis)
    shape = [1] * x.ndim
    shape[axis] = len(ref)
    return np.fft.ifft(f * np.fft.fft(ref).reshape(shape), axis=axis)


def synthetic_scene(n: int, seed: int) -> np.ndarray:
    """A few bright point targets plus weak noise."""
    rng = np.random.default_rng(seed)
    scene = np.zeros((n, n), dtype=np.complex128)
    for _ in range(5):
        i, j = rng.integers(0, n, size=2)
        scene[i, j] = 3.0 + rng.normal() + 1j * rng.normal()
    noise = 0.01 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return scene + noise


def synthesize_raw(
    scene: np.ndarray, range_ref: np.ndarray, azimuth_ref: np.ndarray
) -> np.ndarray:
    """Spread the scene with both chirps: what the radar would record."""
    raw = convolve_circular(scene, range_ref, axis=1)
    return convolve_circular(raw, azimuth_ref, axis=0)


def run_sar(
    n: int = 64, looks: int = 2, nprocs: int = 4, level: int = 3, seed: int = 0
) -> SARResult:
    range_ref = chirp(n, rate=7.0)
    azimuth_ref = chirp(n, rate=3.0)
    raw = synthesize_raw(synthetic_scene(n, seed), range_ref, azimuth_ref)
    compiled = compile_program(
        build_sar_program(n), processors=nprocs, options=CompilerOptions(level=level)
    )
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        bindings={"looks": looks},
        kernels=sar_kernels(range_ref, azimuth_ref),
        inputs={"img": raw},
        dtype=np.complex128,
    )
    result = Executor(compiled, machine, env).run("sar")
    return SARResult(
        value=result.value("img"),
        reference=sar_reference(raw, range_ref, azimuth_ref, looks),
        stats=machine.stats.snapshot(),
        elapsed=machine.elapsed,
    )
