"""Real multi-process transport: shared arenas, worker ranks, phased pipes.

Everything below this module is simulated; everything in it is real.  An
:class:`MPTransport` owns N ``multiprocessing`` worker processes (forked,
one per machine rank) and one shared-memory :class:`SharedArena` per rank.
Distributed-array blocks live inside the arenas
(:class:`SharedDistributedArray` places them there), so the parent -- which
runs the interpreter, kernels and gather/scatter -- and the workers -- which
move remapping bytes -- address the *same* pages.

A remapping executes as a sequence of :class:`TransferRound` barriers: the
parent ships each worker its per-round send/receive program (rectangle
gathers out of its own arena, scatters into it), the workers exchange the
payloads over per-ordered-pair OS pipes, and the parent waits for every
worker's completion report before releasing the next round -- the same
bulk-synchronous discipline :meth:`~repro.spmd.machine.Machine.charge`
models.  A contention-free round is re-validated with the same
:func:`~repro.spmd.message.check_one_port` authority a plan's ledger uses, and
every worker's actually-moved message and byte counts are checked against
the round's prescription (:exc:`~repro.errors.TransportError` on any
mismatch), so the send/recv-once discipline holds on the wire, not just in
the model.

The worker engine is single-threaded and deadlock-free by construction:
data pipes are non-blocking and a ``select`` loop interleaves partial
sends with draining whatever has arrived, so cyclic exchange patterns
(every contended all-to-all) cannot wedge on full pipe buffers.

Timing: each worker accumulates, per message, the wall time it actively
spent packing/writing (sender side) and reading/scattering (receiver
side).  The parent takes the max of the two endpoint times as the
message's measured cost and composes the round's *port-clock duration*
with the same formula :meth:`~repro.spmd.cost.CostModel.phase_time`
applies to modeled costs -- contention-free rounds last as long as their
slowest message, contended rounds as long as their busiest port's
serialized work.  This is how a one-port machine's clock would read the
measured traffic, and it is deliberately reported *alongside* the raw
wall-clock span of each round (which, on a time-sliced host with more
ranks than cores, mostly measures the scheduler, not the network).
"""

from __future__ import annotations

import mmap
import os
import pickle
import select
import struct
import time
from collections import deque
from dataclasses import dataclass, field

import multiprocessing as _mp

import numpy as np

from repro.errors import ShapeError, TransportError
from repro.mapping.mapping import Mapping
from repro.obs.catalog import REGISTRY as _OBS
from repro.obs.trace import TRACER as _TRACER
from repro.spmd.darray import DistributedArray
from repro.spmd.machine import Machine
from repro.spmd.message import check_one_port

#: Shared address space reserved per rank.  Pages are mapped lazily, so a
#: generous default costs nothing until blocks actually touch it.
DEFAULT_ARENA_BYTES = 1 << 26  # 64 MiB

_ALIGN = 64  # block alignment inside an arena
_CHUNK = 1 << 16  # pipe read/write granularity
_LEN = struct.Struct("<Q")  # control-pipe frame header


# ---------------------------------------------------------------------------
# shared arenas and block placement
# ---------------------------------------------------------------------------


class SharedArena:
    """One rank's block storage: an anonymous shared mapping + free list.

    Created in the parent *before* the workers fork, so both sides address
    the same physical pages.  Allocation is parent-side only (first fit,
    64-byte aligned, coalescing free list); workers receive plain
    ``(offset, shape, dtype)`` descriptors and view the bytes through
    :meth:`view`.
    """

    def __init__(self, nbytes: int = DEFAULT_ARENA_BYTES):
        if nbytes <= 0:
            raise TransportError(f"arena size must be positive, got {nbytes}")
        self.nbytes = nbytes
        # fileno=-1 maps MAP_SHARED|MAP_ANONYMOUS: fork children inherit it
        self.buf = mmap.mmap(-1, nbytes)
        self._free: list[tuple[int, int]] = [(0, nbytes)]  # (offset, size)

    @staticmethod
    def _round(n: int) -> int:
        return max(_ALIGN, (n + _ALIGN - 1) // _ALIGN * _ALIGN)

    def allocate(self, nbytes: int) -> int:
        """First-fit allocate; returns the block offset."""
        need = self._round(nbytes)
        for i, (off, size) in enumerate(self._free):
            if size >= need:
                if size == need:
                    del self._free[i]
                else:
                    self._free[i] = (off + need, size - need)
                return off
        raise TransportError(
            f"shared arena exhausted: need {need} bytes, "
            f"{self.free_bytes()} free of {self.nbytes} "
            "(raise arena_bytes on the transport)"
        )

    def release(self, offset: int, nbytes: int) -> None:
        """Return a block to the free list, coalescing neighbours."""
        need = self._round(nbytes)
        self._free.append((offset, need))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for off, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((off, size))
        self._free = merged

    def free_bytes(self) -> int:
        return sum(size for _, size in self._free)

    def view(self, offset: int, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A writable ndarray over the block's bytes (valid on both sides)."""
        dt = np.dtype(dtype)
        n = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        return np.frombuffer(memoryview(self.buf)[offset : offset + n], dtype=dt).reshape(shape)

    def close(self) -> None:
        try:
            self.buf.close()
        except BufferError:
            # live ndarray views still export the buffer; the mapping is
            # reclaimed with the process instead
            pass


class SharedDistributedArray(DistributedArray):
    """A distributed array whose blocks live in the transport's arenas.

    Drop-in for :class:`~repro.spmd.darray.DistributedArray`: the parent
    reads and writes blocks exactly as the simulator does (scatter/gather,
    kernels, :meth:`~repro.spmd.redistribution.PreparedMove.execute` for
    local copies), while the owning worker rank sees the same bytes through its
    arena -- which is what makes parent-side verification of worker-side
    communication meaningful.
    """

    def __init__(
        self,
        name: str,
        mapping: Mapping,
        machine: Machine,
        transport: "MPTransport",
        dtype=np.float64,
        account_memory: bool = True,
    ):
        self._transport = transport
        self._offsets: dict[int, int] = {}
        super().__init__(name, mapping, machine, dtype, account_memory)

    def _new_block(self, rank: int, shape: tuple[int, ...]) -> np.ndarray:
        offset, view = self._transport.place_block(rank, shape, self.dtype)
        self._offsets[rank] = offset
        view.fill(0)
        return view

    def _release_block(self, rank: int, block: np.ndarray) -> None:
        self._transport.release_block(rank, self._offsets.pop(rank), block.nbytes)

    def block_ref(self, rank: int) -> tuple[int, tuple[int, ...], str]:
        """The worker-side descriptor of one block: (offset, shape, dtype)."""
        block = self.blocks[rank]
        return (self._offsets[rank], tuple(block.shape), block.dtype.str)

    def apply_along_local_dim(self, fn, axis: int) -> None:
        # the base class replaces blocks with fresh private arrays; a shared
        # block must keep its arena placement, so write through instead
        if not self.layout.dim_is_local(axis):
            raise ShapeError(
                f"dimension {axis} of {self.name} is distributed; remap first "
                f"(this is what the paper's remappings are for)"
            )
        for rank, block in self.blocks.items():
            if block.size:
                out = np.asarray(fn(block, axis), dtype=self.dtype)
                if out.shape != block.shape:
                    raise ShapeError(
                        f"kernel changed the local shape of {self.name} on rank "
                        f"{rank}: {block.shape} -> {out.shape}"
                    )
                block[...] = out


# ---------------------------------------------------------------------------
# wire programs: what one round tells each worker to do
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WirePart:
    """One rectangle of a message: gather program + scatter program.

    ``src_ix``/``dst_ix`` are the index tuples (all slices or an open
    mesh) of one lowered copy descriptor
    (:class:`~repro.spmd.redistribution.PreparedMove`), so the bytes a
    worker packs and scatters are bit-identical to the simulator's
    single-process assignment.
    """

    src_block: tuple[int, tuple[int, ...], str]  # (offset, shape, dtype)
    dst_block: tuple[int, tuple[int, ...], str]
    src_ix: tuple
    dst_ix: tuple
    shape: tuple[int, ...]  # payload rectangle shape
    nbytes: int


@dataclass(frozen=True)
class WireMessage:
    """One pipe message of a round: every rectangle one (src, dst) pair packs."""

    src: int
    dst: int
    parts: tuple[WirePart, ...]

    @property
    def nbytes(self) -> int:
        return sum(p.nbytes for p in self.parts)


@dataclass(frozen=True)
class TransferRound:
    """One barriered exchange round (the wire form of a ``CommPhase``)."""

    messages: tuple[WireMessage, ...]
    contended: bool = False


@dataclass(frozen=True)
class RoundReport:
    """What one executed round measured."""

    messages: int
    bytes: int
    contended: bool
    wall_seconds: float  # parent barrier-to-barrier span
    port_seconds: float  # measured per-message costs on the one-port clock


@dataclass
class ExchangeReport:
    """Accumulated reports of one exchange (one remapping's rounds)."""

    rounds: list[RoundReport] = field(default_factory=list)

    @property
    def messages(self) -> int:
        return sum(r.messages for r in self.rounds)

    @property
    def bytes(self) -> int:
        return sum(r.bytes for r in self.rounds)

    @property
    def wall_seconds(self) -> float:
        return sum(r.wall_seconds for r in self.rounds)

    @property
    def port_seconds(self) -> float:
        """Measured makespan: the sum of the rounds' port-clock durations."""
        return sum(r.port_seconds for r in self.rounds)


def measured_phase_time(
    costs: list[tuple[int, int, float]], contended: bool
) -> float:
    """Compose measured per-message costs exactly as
    :meth:`~repro.spmd.cost.CostModel.phase_time` composes modeled ones."""
    if not costs:
        return 0.0
    if not contended:
        return max(s for _, _, s in costs)
    load: dict[int, float] = {}
    for src, dst, s in costs:
        load[src] = load.get(src, 0.0) + s
        load[dst] = load.get(dst, 0.0) + s
    return max(load.values())


# ---------------------------------------------------------------------------
# control-pipe framing (blocking fds, length-prefixed pickles)
# ---------------------------------------------------------------------------


def _write_obj(fd: int, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    buf = memoryview(_LEN.pack(len(data)) + data)
    while buf:
        n = os.write(fd, buf)
        buf = buf[n:]


def _read_exact(fd: int, n: int) -> bytes:
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            raise TransportError("transport peer closed its control pipe")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_obj(fd: int):
    (length,) = _LEN.unpack(_read_exact(fd, _LEN.size))
    return pickle.loads(_read_exact(fd, length))


# ---------------------------------------------------------------------------
# the worker side (runs in forked children; keep it self-contained)
# ---------------------------------------------------------------------------


class _OutMsg:
    __slots__ = ("dst", "payload", "sent", "seconds", "nbytes")

    def __init__(self, dst: int, payload: memoryview, seconds: float):
        self.dst = dst
        self.payload = payload
        self.sent = 0
        self.seconds = seconds  # starts at the pack time
        self.nbytes = len(payload)


class _InMsg:
    __slots__ = ("src", "buf", "got", "seconds", "parts", "nbytes")

    def __init__(self, src: int, parts, nbytes: int):
        self.src = src
        self.buf = bytearray(nbytes)
        self.got = 0
        self.seconds = 0.0
        self.parts = parts
        self.nbytes = nbytes


def _block_view(arena: mmap.mmap, ref) -> np.ndarray:
    offset, shape, dtype = ref
    dt = np.dtype(dtype)
    n = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
    return np.frombuffer(memoryview(arena)[offset : offset + n], dtype=dt).reshape(
        shape
    )


def _run_worker_round(rank, arena, sends, recvs, in_fds, out_fds):
    """Execute one round's sends and receives without ever blocking on a
    full pipe: partial non-blocking writes interleave with draining
    whatever has arrived (single-threaded deadlock freedom)."""
    clock = time.perf_counter
    out_q: dict[int, deque[_OutMsg]] = {}
    for dst, parts in sends:
        t0 = clock()
        chunks = []
        for src_block, src_ix in parts:
            block = _block_view(arena, src_block)
            chunks.append(np.ascontiguousarray(block[src_ix]).tobytes())
        payload = memoryview(b"".join(chunks)) if len(chunks) != 1 else memoryview(chunks[0])
        out_q.setdefault(dst, deque()).append(_OutMsg(dst, payload, clock() - t0))
    in_q: dict[int, deque[_InMsg]] = {}
    for src, parts, nbytes in recvs:
        in_q.setdefault(src, deque()).append(_InMsg(src, parts, nbytes))

    sent_log: list[tuple[int, int, float]] = []  # (dst, nbytes, seconds)
    recv_log: list[tuple[int, int, float]] = []  # (src, nbytes, seconds)
    fd_dst = {out_fds[d]: d for d in out_q}
    fd_src = {in_fds[s]: s for s in in_q}
    while out_q or in_q:
        wl = [out_fds[d] for d in out_q]
        rl = [in_fds[s] for s in in_q]
        readable, writable, _ = select.select(rl, wl, [])
        for fd in writable:
            dst = fd_dst[fd]
            msg = out_q[dst][0]
            t0 = clock()
            try:
                n = os.write(fd, msg.payload[msg.sent : msg.sent + _CHUNK])
            except BlockingIOError:
                continue
            msg.seconds += clock() - t0
            msg.sent += n
            if msg.sent == msg.nbytes:
                sent_log.append((dst, msg.nbytes, msg.seconds))
                out_q[dst].popleft()
                if not out_q[dst]:
                    del out_q[dst]
        for fd in readable:
            src = fd_src[fd]
            msg = in_q[src][0]
            t0 = clock()
            try:
                chunk = os.read(fd, min(_CHUNK, msg.nbytes - msg.got))
            except BlockingIOError:
                continue
            dt = clock() - t0
            if not chunk:
                raise TransportError(
                    f"rank {rank}: peer {src} closed its data pipe mid-round"
                )
            msg.buf[msg.got : msg.got + len(chunk)] = chunk
            msg.got += len(chunk)
            msg.seconds += dt
            if msg.got == msg.nbytes:
                t0 = clock()
                pos = 0
                for dst_block, dst_ix, shape, nbytes, dtype in msg.parts:
                    block = _block_view(arena, dst_block)
                    data = np.frombuffer(
                        msg.buf[pos : pos + nbytes], dtype=np.dtype(dtype)
                    ).reshape(shape)
                    block[dst_ix] = data
                    pos += nbytes
                msg.seconds += clock() - t0
                recv_log.append((src, msg.nbytes, msg.seconds))
                in_q[src].popleft()
                if not in_q[src]:
                    del in_q[src]
    return {"sent": sent_log, "received": recv_log}


def _worker_main(rank, arena, ctl_r, rep_w, in_fds, out_fds, close_fds):
    """One worker rank's lifetime: close foreign fds, then serve rounds."""
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    for fd in in_fds.values():
        os.set_blocking(fd, False)
    for fd in out_fds.values():
        os.set_blocking(fd, False)
    while True:
        try:
            cmd = _read_obj(ctl_r)
        except TransportError:
            return  # parent went away
        if cmd[0] == "quit":
            return
        if cmd[0] == "ping":
            _write_obj(rep_w, ("pong", rank))
            continue
        if cmd[0] == "round":
            try:
                report = _run_worker_round(
                    rank, arena, cmd[1], cmd[2], in_fds, out_fds
                )
            except BaseException as exc:  # report, then die loudly
                _write_obj(rep_w, ("error", f"{type(exc).__name__}: {exc}"))
                return
            _write_obj(rep_w, ("done", report))


# ---------------------------------------------------------------------------
# the parent side
# ---------------------------------------------------------------------------


def fork_available() -> bool:
    """True when the platform can fork workers (the only supported mode:
    arenas and wire programs are inherited, never pickled)."""
    return "fork" in _mp.get_all_start_methods()


class MPTransport:
    """N forked worker ranks, their arenas, and the barriered exchange API.

    Lifecycle: construct (arenas exist, nothing forked), :meth:`start`
    (workers fork and are pinged), any number of :meth:`exchange` calls,
    :meth:`close`.  Usable as a context manager.  One transport serves any
    number of sequential runs -- blocks are placed and released through
    :meth:`place_block`/:meth:`release_block` as arrays come and go.
    """

    def __init__(
        self,
        nprocs: int,
        arena_bytes: int = DEFAULT_ARENA_BYTES,
        timeout: float = 120.0,
    ):
        if nprocs < 1:
            raise TransportError(f"need at least one rank, got {nprocs}")
        if not fork_available():
            raise TransportError(
                "the mp backend requires the 'fork' start method (shared "
                "arenas and wire programs are inherited, never pickled); "
                "this platform offers only "
                f"{_mp.get_all_start_methods()}"
            )
        self.nprocs = nprocs
        self.timeout = timeout
        self.arenas = [SharedArena(arena_bytes) for _ in range(nprocs)]
        self._procs: list[_mp.Process] = []
        self._ctl_w: list[int] = []  # parent -> worker command pipes
        self._rep_r: list[int] = []  # worker -> parent report pipes
        self._started = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "MPTransport":
        if self._started:
            return self
        ctx = _mp.get_context("fork")
        P = self.nprocs
        ctl = [os.pipe() for _ in range(P)]  # (r, w): parent writes w
        rep = [os.pipe() for _ in range(P)]  # (r, w): parent reads r
        # data[s][d]: pipe carrying s -> d payloads
        data = [[os.pipe() if s != d else None for d in range(P)] for s in range(P)]
        all_fds = set()
        for r, w in ctl + rep:
            all_fds.update((r, w))
        for row in data:
            for p in row:
                if p:
                    all_fds.update(p)
        for rank in range(P):
            in_fds = {s: data[s][rank][0] for s in range(P) if s != rank}
            out_fds = {d: data[rank][d][1] for d in range(P) if d != rank}
            own = (
                {ctl[rank][0], rep[rank][1]}
                | set(in_fds.values())
                | set(out_fds.values())
            )
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    rank,
                    self.arenas[rank].buf,
                    ctl[rank][0],
                    rep[rank][1],
                    in_fds,
                    out_fds,
                    sorted(all_fds - own),
                ),
                daemon=True,
                name=f"repro-mp-{rank}",
            )
            proc.start()
            self._procs.append(proc)
        # the parent keeps only the command/report ends it uses
        for rank in range(P):
            os.close(ctl[rank][0])
            os.close(rep[rank][1])
            self._ctl_w.append(ctl[rank][1])
            self._rep_r.append(rep[rank][0])
        for row in data:
            for p in row:
                if p:
                    os.close(p[0])
                    os.close(p[1])
        for rank in range(P):  # handshake: every worker is alive and serving
            _write_obj(self._ctl_w[rank], ("ping",))
            kind, got = self._await(rank)
            if kind != "pong" or got != rank:
                raise TransportError(f"rank {rank} failed its handshake: {kind}")
        self._started = True
        _OBS.gauge("repro.mp.workers").set(P)
        return self

    def __enter__(self) -> "MPTransport":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for fd in self._ctl_w:
            try:
                _write_obj(fd, ("quit",))
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for fd in self._ctl_w + self._rep_r:
            try:
                os.close(fd)
            except OSError:
                pass
        for arena in self.arenas:
            arena.close()
        if self._started:
            _OBS.gauge("repro.mp.workers").set(0)

    # -- block placement ---------------------------------------------------

    def place_block(self, rank: int, shape: tuple[int, ...], dtype):
        """Allocate one block in ``rank``'s arena; returns (offset, view)."""
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        offset = self.arenas[rank].allocate(max(nbytes, 1))
        return offset, self.arenas[rank].view(offset, shape, dt)

    def release_block(self, rank: int, offset: int, nbytes: int) -> None:
        self.arenas[rank].release(offset, max(nbytes, 1))

    # -- exchanges ---------------------------------------------------------

    def _await(self, rank: int):
        """Read one report frame from a worker, with liveness + timeout."""
        deadline = time.monotonic() + self.timeout
        fd = self._rep_r[rank]
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"rank {rank} did not report within {self.timeout}s"
                )
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
            if ready:
                msg = _read_obj(fd)
                if msg[0] == "error":
                    raise TransportError(f"rank {rank} failed: {msg[1]}")
                return msg
            if not self._procs[rank].is_alive():
                raise TransportError(f"rank {rank} died mid-exchange")

    def exchange(self, rounds) -> ExchangeReport:
        """Run barriered rounds of real inter-process messages.

        Each round is validated against its prescription: contention-free
        rounds must satisfy the one-port property (same
        :func:`~repro.spmd.message.check_one_port` authority a plan's ledger
        applies), and every worker's reported sent/received message and
        byte counts must equal what the round prescribed.
        """
        if not self._started or self._closed:
            raise TransportError("transport is not running (call start())")
        report = ExchangeReport()
        with _TRACER.span("mp.exchange", rounds=len(rounds)):
            for index, rnd in enumerate(rounds):
                report.rounds.append(self._run_round(index, rnd))
        _OBS.counter("repro.mp.exchanges").inc()
        if report.rounds:
            _OBS.counter("repro.mp.phases").inc(len(report.rounds))
            _OBS.counter("repro.mp.messages").inc(report.messages)
            _OBS.counter("repro.mp.bytes_moved").inc(report.bytes)
        return report

    def _run_round(self, index: int, rnd: TransferRound) -> RoundReport:
        if not rnd.contended:
            check_one_port((m.src, m.dst) for m in rnd.messages)
        sends: dict[int, list] = {}
        recvs: dict[int, list] = {}
        expect_sent: dict[int, tuple[int, int]] = {}  # rank -> (msgs, bytes)
        expect_recv: dict[int, tuple[int, int]] = {}
        for m in rnd.messages:
            if m.src == m.dst:
                raise TransportError(
                    f"local copy (rank {m.src}) prescribed as a wire message"
                )
            sends.setdefault(m.src, []).append(
                (m.dst, [(p.src_block, p.src_ix) for p in m.parts])
            )
            recvs.setdefault(m.dst, []).append(
                (
                    m.src,
                    [
                        (p.dst_block, p.dst_ix, p.shape, p.nbytes, p.src_block[2])
                        for p in m.parts
                    ],
                    m.nbytes,
                )
            )
            s_msgs, s_bytes = expect_sent.get(m.src, (0, 0))
            expect_sent[m.src] = (s_msgs + 1, s_bytes + m.nbytes)
            r_msgs, r_bytes = expect_recv.get(m.dst, (0, 0))
            expect_recv[m.dst] = (r_msgs + 1, r_bytes + m.nbytes)
        participants = sorted(set(sends) | set(recvs))
        with _TRACER.span("mp.phase", index=index, contended=rnd.contended) as span:
            t0 = time.perf_counter()
            for rank in participants:
                try:
                    _write_obj(
                        self._ctl_w[rank],
                        ("round", sends.get(rank, []), recvs.get(rank, [])),
                    )
                except OSError as exc:
                    raise TransportError(
                        f"rank {rank} is unreachable ({exc}); did the "
                        "worker die?"
                    ) from exc
            results = {rank: self._await(rank)[1] for rank in participants}
            wall = time.perf_counter() - t0
            span.set_attr("messages", len(rnd.messages))
            span.set_attr("bytes", sum(m.nbytes for m in rnd.messages))

        # send/recv-once on the wire: what moved must equal the prescription
        sent_times: dict[tuple[int, int], deque[float]] = {}
        recv_times: dict[tuple[int, int], deque[float]] = {}
        for rank in participants:
            got = results[rank]
            sent = [(dst, nb) for dst, nb, _ in got["sent"]]
            s_msgs, s_bytes = expect_sent.get(rank, (0, 0))
            if (len(sent), sum(nb for _, nb in sent)) != (s_msgs, s_bytes):
                raise TransportError(
                    f"rank {rank} sent {len(sent)} message(s)/"
                    f"{sum(nb for _, nb in sent)} byte(s); round {index} "
                    f"prescribed {s_msgs}/{s_bytes}"
                )
            r_msgs, r_bytes = expect_recv.get(rank, (0, 0))
            got_recv = got["received"]
            if (len(got_recv), sum(nb for _, nb, _ in got_recv)) != (r_msgs, r_bytes):
                raise TransportError(
                    f"rank {rank} received {len(got_recv)} message(s)/"
                    f"{sum(nb for _, nb, _ in got_recv)} byte(s); round {index} "
                    f"prescribed {r_msgs}/{r_bytes}"
                )
            for dst, _, secs in got["sent"]:
                sent_times.setdefault((rank, dst), deque()).append(secs)
            for src, _, secs in got_recv:
                recv_times.setdefault((src, rank), deque()).append(secs)

        costs: list[tuple[int, int, float]] = []
        for m in rnd.messages:
            s = sent_times[(m.src, m.dst)].popleft()
            r = recv_times[(m.src, m.dst)].popleft()
            costs.append((m.src, m.dst, max(s, r)))
        port = measured_phase_time(costs, rnd.contended)
        _OBS.histogram("repro.mp.phase_wall_seconds").observe(wall)
        _OBS.histogram("repro.mp.phase_port_seconds").observe(port)
        return RoundReport(
            messages=len(rnd.messages),
            bytes=sum(m.nbytes for m in rnd.messages),
            contended=rnd.contended,
            wall_seconds=wall,
            port_seconds=port,
        )
