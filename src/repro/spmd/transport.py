"""Real multi-process transport: shared arenas, worker ranks, phased pipes.

Everything below this module is simulated; everything in it is real.  An
:class:`MPTransport` owns N ``multiprocessing`` worker processes (forked,
one per machine rank) and one shared-memory :class:`SharedArena` per rank.
Distributed-array blocks live inside the arenas
(:class:`SharedDistributedArray` places them there), so the parent -- which
runs the interpreter, kernels and gather/scatter -- and the workers -- which
move remapping bytes -- address the *same* pages.

A remapping executes as one *exchange* of :class:`TransferRound` programs,
and the ranks run it, not the parent: the parent ships each participating
worker one control frame holding its sends and receives for *every* round
(rectangle gathers out of its own arena, scatters into it), the workers
run their rounds back to back over per-ordered-pair OS pipes -- FIFO pipes
and one round at a time per rank make a global barrier unnecessary, see
:func:`_run_worker_exchange` -- and each answers with one report for the
whole remapping.  Exchange boundaries stay parent-synchronised, because the
parent runs kernels on the arenas between remappings.  Before anything is
shipped a contention-free round is re-validated with the same
:func:`~repro.spmd.message.check_one_port` authority a plan's ledger uses,
and afterwards every worker's actually-moved message and byte counts, round
by round, are checked against the round's prescription
(:exc:`~repro.errors.TransportError` on any mismatch), so the send/recv-once
discipline holds on the wire, not just in the model.

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
wall-clock span of each round -- its last participant's end minus its
first one's start, on the workers' own clocks -- which, on a time-sliced
host with more ranks than cores, mostly measures the scheduler, not the
network.
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
        offset = self._offsets.pop(rank, None)
        if offset is not None:  # a detached block is private memory already
            self._transport.release_block(rank, offset, block.nbytes)

    def detach(self) -> None:
        """Copy every still-live block out of the arena into private memory
        and release its arena storage: the values stay readable for as long
        as the array does, the arena is free for the next run."""
        for rank, block in self.blocks.items():
            if rank in self._offsets:
                self.blocks[rank] = block.copy()
                self._release_block(rank, block)

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
    """One round of an exchange (the wire form of a ``CommPhase``)."""

    messages: tuple[WireMessage, ...]
    contended: bool = False


@dataclass(frozen=True)
class RoundReport:
    """What one executed round measured."""

    messages: int
    bytes: int
    contended: bool
    wall_seconds: float  # last participant's end minus first one's start (worker clocks)
    port_seconds: float  # measured per-message costs on the one-port clock


@dataclass
class ExchangeReport:
    """Accumulated reports of one exchange (one remapping's rounds)."""

    rounds: list[RoundReport] = field(default_factory=list)
    #: the parent's span from shipping the first control frame to reading
    #: the last report (rounds overlap across ranks, so not their sum)
    wall_seconds: float = 0.0

    @property
    def messages(self) -> int:
        return sum(r.messages for r in self.rounds)

    @property
    def bytes(self) -> int:
        return sum(r.bytes for r in self.rounds)

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
    return sent_log, recv_log


def _run_worker_exchange(rank, arena, program, in_fds, out_fds):
    """One remapping on this rank: its rounds, back to back, no host between.

    Why no global barrier is needed.  Source and target of a remapping are
    distinct array versions, so the rounds of one exchange have no data
    hazards among themselves.  Pipes are FIFO per ordered pair, so a pair's
    messages arrive in round order, and a receiver never reads past the
    message it expects.  Each rank still does one round at a time and
    selects only on that round's fds, so no port ever carries two messages
    at once -- the one-port discipline holds per rank, which is what a
    rendezvous machine enforces.  And the rank at the lowest round number
    can always progress: every peer is at that round or a later one, so it
    has already written, or is reading, what the round needs -- deadlock
    freedom by induction on the round number.  (Exchange boundaries stay
    parent-synchronised: the parent runs kernels on the arenas between
    remappings.)

    Returns the per-round log ``(round index, start, end, sent, received)``
    with start/end on ``time.perf_counter`` -- one system-wide monotonic
    clock for forked processes on Linux, so the parent may compare ranks.
    """
    clock = time.perf_counter
    log = []
    for index, sends, recvs in program:
        start = clock()
        sent, received = _run_worker_round(rank, arena, sends, recvs, in_fds, out_fds)
        log.append((index, start, clock(), sent, received))
    return log


def _worker_main(rank, arena, ctl_r, rep_w, in_fds, out_fds, close_fds):
    """One worker rank's lifetime: close foreign fds, then serve exchanges."""
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
        if cmd[0] == "exchange":
            try:
                log = _run_worker_exchange(rank, arena, cmd[1], in_fds, out_fds)
            except BaseException as exc:  # report, then die loudly
                _write_obj(rep_w, ("error", f"{type(exc).__name__}: {exc}"))
                return
            _write_obj(rep_w, ("done", log))


# ---------------------------------------------------------------------------
# the parent side
# ---------------------------------------------------------------------------


def fork_available() -> bool:
    """True when the platform can fork workers (the only supported mode:
    arenas and wire programs are inherited, never pickled)."""
    return "fork" in _mp.get_all_start_methods()


class MPTransport:
    """N forked worker ranks, their arenas, and the exchange API.

    Lifecycle: construct (arenas exist, nothing forked), :meth:`start`
    (workers fork and are pinged), any number of :meth:`exchange` calls,
    :meth:`close` (or :meth:`kill`, which a failed exchange calls itself).
    Usable as a context manager.  One transport is one conversation: it
    serves any number of *sequential* runs -- blocks are placed and
    released through :meth:`place_block`/:meth:`release_block` as arrays
    come and go -- and callers that share it serialise their runs.
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
        for rank, frame in self._collect(range(P)).items():
            if frame != ("pong", rank):
                raise TransportError(f"rank {rank} failed its handshake: {frame[0]}")
        self._started = True
        _OBS.gauge("repro.mp.workers").inc(P)
        return self

    def __enter__(self) -> "MPTransport":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def alive(self) -> bool:
        """True while the transport is started, not closed, and every rank's
        process is running (a ``waitpid`` per rank, no round trip)."""
        return (
            self._started
            and not self._closed
            and all(proc.is_alive() for proc in self._procs)
        )

    def close(self) -> None:
        """Graceful teardown: every rank is told to quit and joined."""
        if self._closed:
            return
        for fd in self._ctl_w:
            try:
                _write_obj(fd, ("quit",))
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        self.kill()  # whoever did not quit, then the fds and the arenas

    def kill(self) -> None:
        """Failure-path teardown: SIGKILL every rank still running and reap
        it at once.  A rank wedged in ``select`` on a dead peer's pipe never
        reads ``("quit",)``, so nothing here waits for a worker to cooperate.
        """
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.kill()
        for proc in self._procs:
            proc.join()
        for fd in self._ctl_w + self._rep_r:
            try:
                os.close(fd)
            except OSError:
                pass
        for arena in self.arenas:
            arena.close()
        if self._started:
            _OBS.gauge("repro.mp.workers").inc(-self.nprocs)

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

    def _collect(self, ranks) -> dict[int, tuple]:
        """One report frame from each of ``ranks``, read as they come.

        Waits on the report pipes and the process sentinels together, so a
        rank that dies with nothing left to say is noticed when it dies,
        not at the next poll; a worker's ``("error", ...)`` frame, a death
        and the timeout all raise :exc:`~repro.errors.TransportError`.
        """
        pending = {self._rep_r[rank]: rank for rank in ranks}
        sentinels = {self._procs[rank].sentinel: rank for rank in ranks}
        deadline = time.monotonic() + self.timeout
        frames: dict[int, tuple] = {}
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"rank(s) {sorted(pending.values())} did not report "
                    f"within {self.timeout}s"
                )
            ready, _, _ = select.select([*pending, *sentinels], [], [], remaining)
            reports = [fd for fd in ready if fd in pending]
            if ready and not reports:
                # an exited worker's last frame would be readable by now
                raise TransportError(f"rank {sentinels[ready[0]]} died mid-exchange")
            for fd in reports:
                rank = pending.pop(fd)
                del sentinels[self._procs[rank].sentinel]
                frame = _read_obj(fd)
                if frame[0] == "error":
                    raise TransportError(f"rank {rank} failed: {frame[1]}")
                frames[rank] = frame
        return frames

    def exchange(self, rounds) -> ExchangeReport:
        """Run one remapping's rounds of real inter-process messages.

        Each participating rank gets *one* control frame -- its sends and
        receives for every round -- runs the rounds back to back against
        its peers (see :func:`_run_worker_exchange` for why that needs no
        barrier) and answers with *one* report.  Before anything is
        shipped, contention-free rounds must satisfy the one-port property
        (same :func:`~repro.spmd.message.check_one_port` authority a plan's
        ledger applies); afterwards every worker's reported sent/received
        message and byte counts, round by round, must equal what the round
        prescribed.  An exchange that fails once shipping began leaves the
        conversation in an unknown state, so it takes the ranks down
        (:meth:`kill`) before the error propagates.
        """
        if not self._started or self._closed:
            raise TransportError("transport is not running (call start())")
        rounds = tuple(rounds)
        programs: dict[int, list] = {}  # rank -> [(round index, sends, recvs)]
        for index, rnd in enumerate(rounds):
            if not rnd.contended:
                check_one_port((m.src, m.dst) for m in rnd.messages)
            sends: dict[int, list] = {}
            recvs: dict[int, list] = {}
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
            for rank in sorted(set(sends) | set(recvs)):
                programs.setdefault(rank, []).append(
                    (index, sends.get(rank, []), recvs.get(rank, []))
                )
        with _TRACER.span("mp.exchange", rounds=len(rounds)) as span:
            t0 = time.perf_counter()
            try:
                for rank, program in programs.items():
                    try:
                        _write_obj(self._ctl_w[rank], ("exchange", program))
                    except OSError as exc:
                        raise TransportError(
                            f"rank {rank} is unreachable ({exc}); did the "
                            "worker die?"
                        ) from exc
                frames = self._collect(programs)
                wall = time.perf_counter() - t0
                report = ExchangeReport(
                    self._round_reports(rounds, programs, frames), wall
                )
            except BaseException:
                self.kill()
                raise
            span.set_attr("messages", report.messages)
            span.set_attr("bytes", report.bytes)
            span.set_attr("wall_seconds", report.wall_seconds)
            span.set_attr("port_seconds", report.port_seconds)
        _OBS.counter("repro.mp.exchanges").inc()
        if report.rounds:
            _OBS.counter("repro.mp.phases").inc(len(report.rounds))
            _OBS.counter("repro.mp.messages").inc(report.messages)
            _OBS.counter("repro.mp.bytes_moved").inc(report.bytes)
            _OBS.histogram("repro.mp.phase_wall_seconds").observe_many(
                [r.wall_seconds for r in report.rounds]
            )
            _OBS.histogram("repro.mp.phase_port_seconds").observe_many(
                [r.port_seconds for r in report.rounds]
            )
        return report

    @staticmethod
    def _round_reports(rounds, programs, frames) -> list[RoundReport]:
        """Check every rank's per-round log against the prescription
        (send/recv-once on the wire: what moved must equal what was
        prescribed) and compose each round's measured clocks."""
        logs: dict[tuple[int, int], tuple] = {}  # (round index, rank) -> entry
        for rank, program in programs.items():
            log = frames[rank][1]
            ran, shipped = [entry[0] for entry in log], [index for index, _, _ in program]
            if ran != shipped:
                raise TransportError(
                    f"rank {rank} reported rounds {ran}; prescribed {shipped}"
                )
            for entry in log:
                logs[entry[0], rank] = entry
        reports = []
        for index, rnd in enumerate(rounds):
            expect_sent: dict[int, tuple[int, int]] = {}  # rank -> (msgs, bytes)
            expect_recv: dict[int, tuple[int, int]] = {}
            for m in rnd.messages:
                s_msgs, s_bytes = expect_sent.get(m.src, (0, 0))
                expect_sent[m.src] = (s_msgs + 1, s_bytes + m.nbytes)
                r_msgs, r_bytes = expect_recv.get(m.dst, (0, 0))
                expect_recv[m.dst] = (r_msgs + 1, r_bytes + m.nbytes)
            sent_times: dict[tuple[int, int], deque[float]] = {}
            recv_times: dict[tuple[int, int], deque[float]] = {}
            starts, ends = [], []
            for rank in sorted(set(expect_sent) | set(expect_recv)):
                _, start, end, sent, received = logs[index, rank]
                starts.append(start)
                ends.append(end)
                for what, got, want in (
                    ("sent", sent, expect_sent.get(rank, (0, 0))),
                    ("received", received, expect_recv.get(rank, (0, 0))),
                ):
                    moved = (len(got), sum(nb for _, nb, _ in got))
                    if moved != want:
                        raise TransportError(
                            f"rank {rank} {what} {moved[0]} message(s)/"
                            f"{moved[1]} byte(s); round {index} prescribed "
                            f"{want[0]}/{want[1]}"
                        )
                for dst, _, secs in sent:
                    sent_times.setdefault((rank, dst), deque()).append(secs)
                for src, _, secs in received:
                    recv_times.setdefault((src, rank), deque()).append(secs)
            costs = [
                (
                    m.src,
                    m.dst,
                    max(
                        sent_times[m.src, m.dst].popleft(),
                        recv_times[m.src, m.dst].popleft(),
                    ),
                )
                for m in rnd.messages
            ]
            reports.append(
                RoundReport(
                    messages=len(rnd.messages),
                    bytes=sum(m.nbytes for m in rnd.messages),
                    contended=rnd.contended,
                    wall_seconds=max(ends) - min(starts) if starts else 0.0,
                    port_seconds=measured_phase_time(costs, rnd.contended),
                )
            )
        return reports
