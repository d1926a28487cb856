"""2-D FFT via transpose remapping (paper Sec. 1, reference [10]).

The classic distributed 2-D FFT: 1-D FFTs along rows (local under
``(block, *)``), a redistribution to ``(*, block)`` -- the "transpose"
whose communication is the whole cost of the method -- then 1-D FFTs along
columns.  Gupta et al. [10], cited by the paper, study exactly this
data-redistribution formulation.

The row/column FFT stages run on each processor's local block (one
batched ``np.fft.fft`` over all the blocks, stacked); the only
communication is the remapping the compiler generated, so the measured
traffic is the method's true all-to-all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler import CompilerOptions, compile_program
from repro.lang.builder import SubroutineBuilder, program
from repro.runtime import ExecutionEnv, Executor
from repro.spmd import Machine


def build_fft2d_program(n: int):
    b = SubroutineBuilder("fft2d")
    b.array("x", (n, n))
    b.dynamic("x")
    b.distribute("x", "block", "*")
    b.compute("fft_rows", reads=("x",), writes=("x",))
    b.redistribute("x", "*", "block")
    b.compute("fft_cols", reads=("x",), writes=("x",))
    return program(b)


def fft2d_kernels():
    def fft_rows(ctx) -> None:
        ctx.darray("x").apply_along_local_dim(
            lambda blocks, axis: np.fft.fft(blocks, axis=axis), 1
        )

    def fft_cols(ctx) -> None:
        ctx.darray("x").apply_along_local_dim(
            lambda blocks, axis: np.fft.fft(blocks, axis=axis), 0
        )

    return {"fft_rows": fft_rows, "fft_cols": fft_cols}


@dataclass
class FFTResult:
    value: np.ndarray
    reference: np.ndarray
    stats: dict[str, int]
    elapsed: float

    @property
    def max_error(self) -> float:
        return float(np.max(np.abs(self.value - self.reference)))

    @property
    def correct(self) -> bool:
        return bool(np.allclose(self.value, self.reference))


def run_fft2d(
    n: int = 64, nprocs: int = 4, level: int = 3, seed: int = 0
) -> FFTResult:
    """Compile and execute the 2-D FFT; validate against ``numpy.fft.fft2``."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    compiled = compile_program(
        build_fft2d_program(n), processors=nprocs, options=CompilerOptions(level=level)
    )
    machine = Machine(compiled.processors)
    env = ExecutionEnv(kernels=fft2d_kernels(), inputs={"x": x0}, dtype=np.complex128)
    result = Executor(compiled, machine, env).run("fft2d")
    return FFTResult(
        value=result.value("x"),
        reference=np.fft.fft2(x0),
        stats=machine.stats.snapshot(),
        elapsed=machine.elapsed,
    )
