"""The five workloads of the layered benchmark.

Each workload is a fixed *cycle* of request kinds; one **round** is one
pass over the cycle through ``CompileService.run_batch`` (one client,
``workers=1``, requests back to back).  Rounds are the timing samples:
they are homogeneous, so their median is steady where a per-request
median over a mixed cycle sits between two modes.

``--seed`` feeds the input *values* (and, on ``compile_cold``, the
identifiers that make every source text new).  It does not pick shapes
or program structure: the traffic a round moves is then the same for
every seed, which is what lets ``remap_bytes_per_round`` be gated
exactly and keeps the timing metrics comparable across seeds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from reference import arrays_match, interpret, scale_reference

from repro import (
    ArtifactStore,
    CompilerOptions,
    CompilerSession,
    CompileRequest,
    CompileService,
)
from repro.apps.adi import adi_kernels, adi_reference, build_adi_program
from repro.apps.fft2d import build_fft2d_program, fft2d_kernels
from repro.apps.lu import build_lu_program, lu_kernels, lu_reference
from repro.apps.sar import (
    build_sar_program,
    chirp,
    sar_kernels,
    sar_reference,
    synthesize_raw,
    synthetic_scene,
)
from repro.apps.workloads import random_environment, random_legal_subroutine
from repro.lang.printer import print_program

NPROCS = 4
WARMUP_ROUNDS = 3

#: block <-> ``{fmt}`` with a write under each mapping, so both remappings of
#: every trip move data (a body that used one mapping only would have its
#: second remapping hoisted out of the loop -- Fig. 16 -- and measure nothing)
REMAP_SRC = """
subroutine remap(t)
  integer n, t
  real a(n)
!hpf$ dynamic a
!hpf$ distribute a(block)
  do i = 1, t
!hpf$   redistribute a({fmt})
    compute "scale" writes a
!hpf$   redistribute a(block)
    compute "scale" writes a
  enddo
end
"""

FIG1 = """
subroutine main()
  integer n
  real A(n, n), B(n, n)
!hpf$ align with B :: A
!hpf$ dynamic A, B
!hpf$ distribute B(block, *)
  compute reads A, B
!hpf$ realign A(i, j) with B(j, i)
!hpf$ redistribute B(cyclic, *)
  compute reads A, B
end
"""

#: the paper's Fig. 10 program; Fig. 12 is its optimized remapping graph
FIG12 = """
subroutine remap(A, m)
  integer m, n, p
  real A(n,n), B(n,n), C(n,n)
  intent inout A
!hpf$ align with A :: B, C
!hpf$ dynamic A, B, C
!hpf$ distribute A(block, *)
  compute "init" writes B reads A
  if c1 then
!hpf$   redistribute A(cyclic, *)
    compute writes A, p reads A, B
  else
!hpf$   redistribute A(block, block)
    compute writes p reads A
  endif
  do i = 1, m
!hpf$   redistribute A(*, block)
    compute writes C reads A
!hpf$   redistribute A(block, *)
    compute writes A reads A, C
  enddo
end
"""

FIG16 = """
subroutine main(t)
  integer n, t
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  do i = 1, t
!hpf$   redistribute A(cyclic)
    compute writes A reads A
!hpf$   redistribute A(block)
  enddo
  compute reads A
end
"""


def scale_kernel(ctx) -> None:
    """``x -> 0.5 x + 1`` in place on every local block (no communication)."""
    for block in ctx.darray("a").blocks.values():
        block *= 0.5
        block += 1.0


@dataclass
class Kind:
    """One request of a cycle, its reference values and its stated input size."""

    name: str
    request: CompileRequest
    expected: dict[str, np.ndarray]
    size: str
    atol: float = 1e-9


def request_failed(kind: Kind, result) -> bool:
    """True when a request raised, returned ``error`` or missed its reference."""
    if result.error is not None or result.result is None:
        return True
    try:
        return not arrays_match(result, kind.expected, kind.atol)
    except Exception:  # a result that cannot even be read is a failed request
        return True


def remap_bytes(results) -> int:
    """The paper's own cost of a round: bytes moved by remapping copies."""
    return sum(r.result.stats.snapshot()["bytes"] for r in results if r.result is not None)


@dataclass
class Workload:
    """A cycle of kinds served by one ``CompileService``; see the subclasses."""

    seed: int
    workdir: Path
    name: str = ""
    options: CompilerOptions | None = None
    kinds: list[Kind] = field(default_factory=list)
    service: CompileService | None = None

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng([self.seed, sorted(WORKLOADS).index(self.name)])
        self.build()
        self.service = self.open_service()
        for r in range(-WARMUP_ROUNDS, 0):
            self.serve(self.round_kinds(r))

    def build(self) -> None:
        raise NotImplementedError

    def open_service(self) -> CompileService:
        return CompileService(processors=NPROCS, workers=1, options=self.options)

    def round_kinds(self, r: int) -> list[Kind]:
        """The requests of round ``r`` (off the clock); the fixed cycle by default."""
        return self.kinds

    def serve(self, kinds: list[Kind]) -> tuple[list, list[float]]:
        """One round, on the clock: the cycle through the public front door.

        One client in a closed loop waits for each reply before it sends
        the next request, so the cycle goes in one request at a time;
        returns the results and the wall seconds of each step of the cycle.
        """
        results, seconds = [], []
        for kind in kinds:
            t0 = time.perf_counter()
            results.extend(self.service.run_batch([kind.request]))
            seconds.append(time.perf_counter() - t0)
        return results, seconds

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "cycle": [{"kind": k.name, "size": k.size} for k in self.round_kinds(0)],
            "options": self.options.describe() if self.options else "per request",
        }

    def remap_kind(self, name: str, fmt: str, n: int, t: int, **fields) -> Kind:
        x0 = self.rng.normal(size=n)
        return Kind(
            name,
            CompileRequest(
                REMAP_SRC.format(fmt=fmt),
                bindings={"n": n, "t": t},
                inputs={"a": x0},
                kernels={"scale": scale_kernel},
                **fields,
            ),
            {"a": scale_reference(x0, 2 * t)},
            f"n={n} t={t} P={NPROCS} float64",
        )


class RemapFine(Workload):
    def build(self) -> None:
        self.options = CompilerOptions(level=3, schedule="round-robin")
        self.kinds = [
            self.remap_kind("block-cyclic", "cyclic", 640, 1),
            self.remap_kind("block-cyclic3", "cyclic(3)", 640, 1),
            self.remap_kind("block-cyclic-loop16", "cyclic", 256, 16),
        ]


class AppsWarm(Workload):
    N = 192

    def build(self) -> None:
        n, rng = self.N, self.rng
        self.options = CompilerOptions()
        size = f"n={n} P={NPROCS}"
        u0 = rng.normal(size=(n, n))
        x0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a0 = rng.normal(size=(n, n)) + n * np.eye(n)
        lu_prog, steps = build_lu_program(n, block=8)
        range_ref, azimuth_ref = chirp(n, rate=7.0), chirp(n, rate=3.0)
        raw = synthesize_raw(
            synthetic_scene(n, seed=int(rng.integers(1 << 31))), range_ref, azimuth_ref
        )
        self.kinds = [
            Kind(
                "adi",
                CompileRequest(
                    build_adi_program(n),
                    bindings={"t": 4},
                    kernels=adi_kernels(alpha=0.1),
                    inputs={"u": u0},
                ),
                {"u": adi_reference(u0, 4, 0.1)},
                size + " t=4 float64",
                atol=1e-8,
            ),
            Kind(
                "fft2d",
                CompileRequest(
                    build_fft2d_program(n),
                    kernels=fft2d_kernels(),
                    inputs={"x": x0},
                    dtype=np.complex128,
                ),
                {"x": np.fft.fft2(x0)},
                size + " complex128",
                atol=1e-8,
            ),
            Kind(
                "lu",
                CompileRequest(
                    lu_prog,
                    bindings={"steps": steps},
                    kernels=lu_kernels(n, block=8),
                    inputs={"a": a0},
                ),
                {"a": lu_reference(a0)},
                size + " block=8 float64",
                atol=1e-8,
            ),
            Kind(
                "sar",
                CompileRequest(
                    build_sar_program(n),
                    bindings={"looks": 1},
                    kernels=sar_kernels(range_ref, azimuth_ref),
                    inputs={"img": raw},
                    dtype=np.complex128,
                ),
                {"img": sar_reference(raw, range_ref, azimuth_ref, 1)},
                size + " looks=1 complex128",
            ),
        ]


class CompileCold(Workload):
    #: the three program structures are a fixed seeded draw, so every round
    #: (and every seed) compiles the same amount of work; only identifiers
    #: and input values are new
    CORPUS_SEED = 1997
    LENGTHS = (8, 16, 24)

    def build(self) -> None:
        self.options = CompilerOptions(level=3, schedule="round-robin")
        self.corpus = []
        for k, length in enumerate(self.LENGTHS):
            rng = np.random.default_rng([self.CORPUS_SEED, k])
            text = print_program(
                random_legal_subroutine(rng, n_arrays=4, length=length, depth=3)
            )
            conditions, _ = random_environment(rng, n_arrays=4)
            self.corpus.append((text, conditions))
        self.check_deterministic()

    def check_deterministic(self) -> None:
        """Compile every structure twice: traffic and artifact size must repeat."""
        for k, (text, conditions) in enumerate(self.corpus):
            seen = set()
            for attempt in range(2):
                store = ArtifactStore(self.workdir / f"det-{k}-{attempt}")
                session = CompilerSession(NPROCS, self.options, store=store)
                stats = session.run(text, conditions=conditions).stats.snapshot()
                seen.add((stats["bytes"], stats["messages"], artifact_bytes(store)))
            if len(seen) != 1:
                raise NondeterministicCompile(f"compile_cold structure {k}: {sorted(seen)}")

    def open_service(self) -> CompileService:
        # never-seen sources never hit the cache; a small one is full after the
        # warm-up rounds, so memory is at its steady state while rounds are
        # measured instead of growing with however many rounds the host allows
        return CompileService(
            processors=NPROCS, workers=1, options=self.options, shards=1, max_entries_per_shard=8
        )

    def round_kinds(self, r: int) -> list[Kind]:
        kinds = []
        for k, (text, conditions) in enumerate(self.corpus):
            fresh = f"cold_s{self.seed}_r{r + WARMUP_ROUNDS}_k{k}"
            source = text.replace("subroutine main(", f"subroutine {fresh}(")
            inputs = {f"a{i}": self.rng.normal(size=16) for i in range(4)}
            kinds.append(
                Kind(
                    f"generated-len{self.LENGTHS[k]}",
                    CompileRequest(source, conditions=conditions, inputs=inputs),
                    interpret(source, {}, conditions, inputs),
                    f"4 arrays of 16, length={self.LENGTHS[k]} depth=3 P={NPROCS}",
                )
            )
        return kinds


class ShapeTiers(Workload):
    def build(self) -> None:
        self.symbolic = CompilerOptions.symbolic(level=3, schedule="aggregate")
        self.eager = CompilerOptions(level=3, schedule="aggregate")
        self.store_dir = self.workdir / "store"
        rng = self.rng

        def figure(name, source, options, n, procs, bindings, conditions=None, square=True):
            shape = (n, n) if square else (n,)
            inputs = {"a": rng.normal(size=shape)}
            bindings = {"n": n, **bindings}
            return Kind(
                name,
                CompileRequest(
                    source,
                    bindings=bindings,
                    conditions=conditions,
                    inputs=inputs,
                    processors=procs,
                    options=options,
                ),
                interpret(source, bindings, conditions, inputs),
                f"n={n} P={procs} float64",
            )

        u0 = rng.normal(size=(32, 32))
        adi = Kind(
            "adi/disk",
            CompileRequest(
                build_adi_program(32),
                bindings={"t": 1},
                kernels=adi_kernels(alpha=0.1),
                inputs={"u": u0},
                options=self.eager,
            ),
            {"u": adi_reference(u0, 1, 0.1)},
            "n=32 t=1 P=4 float64",
            atol=1e-8,
        )
        fig16 = figure("fig16/template-disk", FIG16, self.symbolic, 32, 4, {"t": 1}, square=False)
        self.kinds = [
            fig16,
            figure("fig16/template-memory", FIG16, self.symbolic, 48, 3, {"t": 1}, square=False),
            figure("fig1/template-disk", FIG1, self.symbolic, 16, 4, {}),
            figure("fig12/template-disk", FIG12, self.symbolic, 16, 4, {"m": 1}, {"c1": True}),
            figure("fig12/disk", FIG12, self.eager, 16, 4, {"m": 1}, {"c1": False}),
            adi,
            Kind("fig16/memory", fig16.request, fig16.expected, fig16.size),
            Kind("adi/memory", adi.request, adi.expected, adi.size, atol=1e-8),
        ]
        # populate the store once, the way an earlier process would have:
        # each source compiled at a shape the rounds never ask for again
        with CompileService(processors=NPROCS, workers=1, store=str(self.store_dir)) as svc:
            seeded = svc.run_batch(
                [
                    CompileRequest(FIG16, bindings={"n": 64, "t": 3}, options=self.symbolic),
                    CompileRequest(FIG1, bindings={"n": 24}, options=self.symbolic),
                    CompileRequest(
                        FIG12,
                        bindings={"n": 24, "m": 1},
                        conditions={"c1": True},
                        options=self.symbolic,
                    ),
                    self.kinds[4].request,
                    adi.request,
                ]
            )
        for res in seeded:
            if res.error is not None:
                raise res.error

    def open_service(self) -> CompileService:
        return CompileService(processors=NPROCS, workers=1, store=str(self.store_dir))

    def serve(self, kinds: list[Kind]) -> tuple[list, list[float]]:
        # a restarted service: nothing in memory, everything in the store;
        # the restart is the first step of the cycle
        t0 = time.perf_counter()
        self.service.close()
        self.service = self.open_service()
        restart = time.perf_counter() - t0
        results, seconds = super().serve(kinds)
        return results, [restart, *seconds]


class MpExchange(Workload):
    def build(self) -> None:
        def kind(policy: str, n: int) -> Kind:
            return self.remap_kind(
                policy,
                "cyclic(3)",
                n,
                1,
                options=CompilerOptions(level=3, schedule=policy),
                backend="mp",
            )

        self.kinds = [kind("round-robin", 384), kind("aggregate", 4096), kind("naive", 384)]


class NondeterministicCompile(RuntimeError):
    """Two compiles of one source disagreed: an infrastructure failure (exit 2)."""


def artifact_bytes(store: ArtifactStore) -> int:
    """Serialized payload bytes of every entry of a store (generated-code size).

    Read from the entry headers: the file size itself carries a timestamp
    of varying width.
    """
    total = 0
    for path in sorted(Path(store.root).rglob("*.art")):
        with open(path, "rb") as fh:
            total += json.loads(fh.readline())["payload_bytes"]
    return total


WORKLOADS: dict[str, type[Workload]] = {
    "remap_fine": RemapFine,
    "apps_warm": AppsWarm,
    "compile_cold": CompileCold,
    "shape_tiers": ShapeTiers,
    "mp_exchange": MpExchange,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Set one workload up: programs, inputs, references, store, warm-up rounds."""
    return WORKLOADS[name](seed=seed, workdir=workdir, name=name)
