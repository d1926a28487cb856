"""ADI: alternating-direction-implicit sweeps (paper Sec. 1 and Fig. 10).

Each time step solves tridiagonal systems first along rows, then along
columns.  A sweep is only SPMD-local when the swept dimension is
undistributed, so the array is remapped between ``(block, *)`` and
``(*, block)`` every iteration -- the exact pattern of the paper's running
example and of its loop-invariant-motion discussion (Fig. 16/17).

The tridiagonal solves run on each processor's local block via
:meth:`DistributedArray.apply_along_local_dim` -- genuinely local
computation, which is the whole point of remapping.  All processors'
sweeps run at once: the blocks are stacked along a leading holder axis
and solved in one vectorized call, each processor's systems still
independent of every other's.

The system has constant coefficients, so its inverse depends on the extent
``n`` and ``alpha`` only: :class:`ConstantTridiagonal` inverts it once, and
a sweep is one matrix product instead of one NumPy statement per row.
:func:`thomas_constant` keeps the sequential Thomas algorithm as the
independent reference (:func:`adi_reference`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler import CompilerOptions, compile_program
from repro.lang.builder import SubroutineBuilder, program
from repro.runtime import ExecutionEnv, Executor
from repro.spmd import Machine


def thomas_constant(rhs: np.ndarray, axis: int, alpha: float) -> np.ndarray:
    """Solve ``-alpha*u[i-1] + (1+2 alpha)*u[i] - alpha*u[i+1] = rhs[i]``
    along ``axis``, vectorized over the remaining axes (Thomas algorithm)."""
    x = np.moveaxis(np.array(rhs, dtype=np.float64, copy=True), axis, 0)
    n = x.shape[0]
    b = 1.0 + 2.0 * alpha
    cp = np.empty(n)
    # forward elimination with constant coefficients
    cp[0] = -alpha / b
    x[0] = x[0] / b
    for i in range(1, n):
        denom = b + alpha * cp[i - 1]
        cp[i] = -alpha / denom
        x[i] = (x[i] + alpha * x[i - 1]) / denom
    # back substitution
    for i in range(n - 2, -1, -1):
        x[i] = x[i] - cp[i] * x[i + 1]
    return np.moveaxis(x, 0, axis)


class ConstantTridiagonal:
    """The system :func:`thomas_constant` solves, at one extent ``n``,
    inverted once: a solve is one matrix product with the inverse.

    That is ``O(n^2)`` work per column against the loop's ``O(n)``, but in
    one BLAS call instead of ``2n`` NumPy statements, the faster of the two
    at the extents the apps run; the inverse is an ``n x n`` table
    (288 KiB at n = 192).
    """

    def __init__(self, n: int, alpha: float):
        t = (
            np.diag(np.full(n, 1.0 + 2.0 * alpha))
            + np.diag(np.full(n - 1, -alpha), 1)
            + np.diag(np.full(n - 1, -alpha), -1)
        )
        self.n = n
        #: ``T^-1`` transposed, to right-multiply the rows of the last axis
        self.inverse_t = np.linalg.inv(t).T.copy()

    def solve(self, rhs: np.ndarray, axis: int) -> np.ndarray:
        """The solution along ``axis``, vectorized over the remaining axes;
        ``rhs`` is only read."""
        if rhs.shape[axis] != self.n:
            raise ValueError(f"extent {rhs.shape[axis]} along axis {axis}, inverted for {self.n}")
        return np.moveaxis(np.moveaxis(rhs, axis, -1) @ self.inverse_t, -1, axis)


def adi_reference(u0: np.ndarray, steps: int, alpha: float) -> np.ndarray:
    """Sequential reference: row sweep then column sweep per step."""
    u = np.array(u0, dtype=np.float64, copy=True)
    for _ in range(steps):
        u = thomas_constant(u, axis=1, alpha=alpha)
        u = thomas_constant(u, axis=0, alpha=alpha)
    return u


def build_adi_program(n: int):
    """The ADI time loop as a mini-HPF subroutine (paper Fig. 10 shape)."""
    b = SubroutineBuilder("adi", params=("t",))
    b.scalar("t")
    b.array("u", (n, n))
    b.dynamic("u")
    b.distribute("u", "block", "*")
    with b.do("i", 1, "t"):
        # ensure rows are local; a status no-op at the first iteration
        b.redistribute("u", "block", "*")
        b.compute("sweep_rows", reads=("u",), writes=("u",))
        b.redistribute("u", "*", "block")
        b.compute("sweep_cols", reads=("u",), writes=("u",))
    return program(b)


def adi_kernels(alpha: float):
    # the inverse of the latest extent swept, swapped whole when the extent
    # changes: lock-free, since a racing sweep at worst builds the same
    # inverse again, so workers may share one kernel set
    inverted: ConstantTridiagonal | None = None

    def solve(blocks: np.ndarray, axis: int) -> np.ndarray:
        nonlocal inverted
        solver = inverted
        if solver is None or solver.n != blocks.shape[axis]:
            solver = inverted = ConstantTridiagonal(blocks.shape[axis], alpha)
        return solver.solve(blocks, axis)

    def sweep_rows(ctx) -> None:
        # rows are swept along dim 1, local under (block, *)
        ctx.darray("u").apply_along_local_dim(solve, 1)

    def sweep_cols(ctx) -> None:
        ctx.darray("u").apply_along_local_dim(solve, 0)

    return {"sweep_rows": sweep_rows, "sweep_cols": sweep_cols}


@dataclass
class AppResult:
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


def run_adi(
    n: int = 64,
    steps: int = 4,
    nprocs: int = 4,
    level: int = 3,
    alpha: float = 0.1,
    seed: int = 0,
) -> AppResult:
    """Compile and execute ADI on the simulated machine; validate vs NumPy."""
    rng = np.random.default_rng(seed)
    u0 = rng.normal(size=(n, n))
    compiled = compile_program(
        build_adi_program(n), processors=nprocs, options=CompilerOptions(level=level)
    )
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        bindings={"t": steps}, kernels=adi_kernels(alpha), inputs={"u": u0}
    )
    result = Executor(compiled, machine, env).run("adi")
    return AppResult(
        value=result.value("u"),
        reference=adi_reference(u0, steps, alpha),
        stats=machine.stats.snapshot(),
        elapsed=machine.elapsed,
    )
