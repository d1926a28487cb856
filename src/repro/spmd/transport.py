"""Real multi-process transport: shared arenas, worker ranks, phased pipes.

Everything below this module is simulated; everything in it is real.  An
:class:`MPTransport` owns N ``multiprocessing`` worker processes (forked,
one per machine rank) and one shared-memory :class:`SharedArena` per rank.
Distributed-array blocks live inside the arenas
(:class:`SharedDistributedArray` places them there), so the parent -- which
runs the interpreter, kernels and gather/scatter -- and the workers -- which
move remapping bytes -- address the *same* pages.

A remapping executes as one *exchange* of a :class:`WireProgram`, and the
ranks keep the program and run it, not the parent.  A remapping's message
pattern belongs to its two array versions' mappings, not to one execution,
so the program is built once per transport (:meth:`MPTransport.program`,
keyed by its owner -- the plan -- and dtype).  Its rounds
(:class:`TransferRound`) are checked there -- a contention-free round with
the same :func:`~repro.spmd.message.check_one_port` authority a plan's
ledger uses, a local copy prescribed as a wire message rejected -- and
split into what each participating rank keeps: its sends and receives for
*every* round, indexed against "this rank's source block" and "this rank's
target block" rather than arena offsets; the parent keeps the messages and
bytes each rank must report per round.  The first exchange of a program
ships each participating rank its part in the ordinary control frame under
a small integer handle; every later one ships ``(handle, source offset,
target offset)`` and nothing else (but any eviction notice: a transport
keeps at most :data:`PROGRAM_CAP` programs, least recently used first
out).  The ranks run their rounds back to back over per-ordered-pair OS
pipes -- FIFO pipes and one round at a time per rank make a global barrier
unnecessary, see :func:`_run_worker_exchange` -- and each answers with one
report for the whole remapping, whose messages and bytes, round by round,
are checked against the program's prescription on every exchange
(:exc:`~repro.errors.TransportError` on any mismatch), so the
send/recv-once discipline holds on the wire, not just in the model.
Exchange boundaries stay parent-synchronised, because the parent runs
kernels on the arenas between remappings.

The worker engine is single-threaded and deadlock-free by construction:
data pipes are non-blocking and a ``select`` loop interleaves partial
sends with draining whatever has arrived, so cyclic exchange patterns
(every contended all-to-all) cannot wedge on full pipe buffers.

Timing: each worker accumulates, per message, the wall time it actively
spent packing/writing (sender side) and reading/scattering (receiver
side).  The parent takes the max of the two endpoint times as the
message's measured cost and composes the round's *port-clock duration*
with :func:`~repro.spmd.cost.compose_phase`, the composer
:meth:`~repro.spmd.cost.CostModel.phase_time` hands modeled costs to -- contention-free rounds last as long as their
slowest message, contended rounds as long as their busiest port's
serialized work.  This is how a one-port machine's clock would read the
measured traffic, and it is deliberately reported *alongside* the raw
wall-clock span of each round -- its last participant's end minus its
first one's start, on the workers' own clocks -- which, on a time-sliced
host with more ranks than cores, mostly measures the scheduler, not the
network.
"""

from __future__ import annotations

import itertools
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

from repro.errors import TransportError
from repro.mapping.mapping import Mapping
from repro.mapping.ownership import Holder
from repro.obs.catalog import REGISTRY as _OBS
from repro.obs.trace import TRACER as _TRACER
from repro.spmd.cost import compose_phase
from repro.spmd.darray import DistributedArray
from repro.spmd.machine import Machine
from repro.spmd.message import check_one_port
from repro.util.memo import Memo

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
    communication meaningful.  The blocks are in different ranks' arenas,
    so the array has no one buffer (:attr:`data` is ``None``) until
    :meth:`detach` copies them into one.
    """

    def __init__(
        self,
        name: str,
        mapping: Mapping,
        machine: Machine,
        transport: "MPTransport",
        dtype=np.float64,
    ):
        self._transport = transport
        #: rank -> arena offset of its block, while the block is in the arena
        self.offsets: dict[int, int] = {}
        super().__init__(name, mapping, machine, dtype)

    def _new_buffer(self) -> None:
        return None  # each block is placed in its rank's arena instead

    def _new_block(self, h: Holder) -> np.ndarray:
        offset, view = self._transport.place_block(h.rank, h.local_shape, self.dtype)
        self.offsets[h.rank] = offset
        view.fill(0)
        return view

    def _release_block(self, rank: int, block: np.ndarray) -> None:
        offset = self.offsets.pop(rank, None)
        if offset is not None:  # a detached block is private memory already
            self._transport.release_block(rank, offset, block.nbytes)

    def detach(self) -> None:
        """Copy every still-live block out of the arena into one private
        buffer, laid out as a simulator array's, and release its arena
        storage: the values stay readable for as long as the array does,
        the arena is free for the next run."""
        if not self.offsets:
            return
        self.data = np.empty(self.layout.size, dtype=self.dtype)
        for h in self.layout.table:
            block = self._blocks[h.rank]
            # the simulator's block hook: h's view of the buffer
            self._blocks[h.rank] = DistributedArray._new_block(self, h)
            self._blocks[h.rank][...] = block
            self._release_block(h.rank, block)


# ---------------------------------------------------------------------------
# wire programs: what one remapping tells each rank to do
# ---------------------------------------------------------------------------

#: How many wire programs one transport (and so each of its ranks) keeps.
#: The least recently used beyond it is evicted; its ranks forget it when
#: their next control frame says so, and its next use ships it again.
PROGRAM_CAP = 64


@dataclass(frozen=True)
class WirePart:
    """One rectangle of a message: gather program + scatter program.

    ``src_ix`` indexes the sender's source block and ``dst_ix`` the
    receiver's target block; they are the index tuples (slices, with at
    most one position vector, or an open mesh) of one lowered copy descriptor
    (:class:`~repro.spmd.redistribution.PreparedMove`), so the bytes a
    worker packs and scatters are bit-identical to the simulator's
    single-process assignment.
    """

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


class WireProgram:
    """One remapping's rounds as a transport keeps them.

    Built by :meth:`MPTransport.program` on the first ask for its
    ``(owner, dtype)``, which is where every check on the rounds is made,
    before anything is shipped: a contention-free round must pass
    :func:`~repro.spmd.message.check_one_port` (:exc:`ScheduleError`
    otherwise), a message from a rank to itself is a local copy and
    rejected, and a rank that sends (receives) must hold a source (target)
    block.  The rounds are then split per participating rank into the part
    that rank keeps -- ``(source block shape, target block shape, dtype,
    rounds)``, each round ``(index, sends, receives)`` whose index tuples
    address the rank's own source and target block -- and what the parent
    keeps: the handle, and per rank the ``(round index, messages sent,
    bytes sent, messages received, bytes received)`` its report must show,
    round by round.  The per-rank parts are held only until the first
    exchange ships them.
    """

    __slots__ = ("owner", "key", "handle", "rounds", "ranks", "_expect", "_parts")

    def __init__(self, owner, key, handle: int, rounds, dtype, sources, targets):
        self.owner = owner  # held, so ``id(owner)`` in ``key`` stays unique
        self.key = key
        self.handle = handle
        dtype = np.dtype(dtype).str
        parts: dict[int, list] = {}  # rank -> [(round index, sends, receives)]
        expect: dict[int, list] = {}  # rank -> [(round index, sent, bytes, received, bytes)]
        checked = []  # per round: (contended, messages, bytes, participants, slots)
        for index, rnd in enumerate(rounds):
            if not rnd.contended:
                check_one_port((m.src, m.dst) for m in rnd.messages)
            sends: dict[int, list] = {}
            recvs: dict[int, list] = {}
            sent: dict[int, int] = {}
            received: dict[int, int] = {}
            pairs = []  # per message: (src, its send position, dst, its receive position)
            for m in rnd.messages:
                if m.src == m.dst:
                    raise TransportError(
                        f"local copy (rank {m.src}) prescribed as a wire message"
                    )
                out = sends.setdefault(m.src, [])
                inn = recvs.setdefault(m.dst, [])
                pairs.append((m.src, len(out), m.dst, len(inn)))
                nbytes = m.nbytes
                out.append((m.dst, tuple(p.src_ix for p in m.parts)))
                inn.append((m.src, tuple((p.dst_ix, p.shape, p.nbytes) for p in m.parts), nbytes))
                sent[m.src] = sent.get(m.src, 0) + nbytes
                received[m.dst] = received.get(m.dst, 0) + nbytes
            # a rank reports its rounds in order, so this round is entry
            # len(parts[rank]) of its log
            at = {}
            for rank in sorted(sends.keys() | recvs.keys()):
                s, r = sends.get(rank, []), recvs.get(rank, [])
                at[rank] = len(parts.setdefault(rank, []))
                parts[rank].append((index, tuple(s), tuple(r)))
                expect.setdefault(rank, []).append(
                    (index, len(s), sent.get(rank, 0), len(r), received.get(rank, 0))
                )
            slots = tuple((s, at[s], a, d, at[d], b) for s, a, d, b in pairs)
            checked.append(
                (rnd.contended, len(rnd.messages), sum(sent.values()), tuple(at.items()), slots)
            )
        for rank, program in parts.items():
            if any(s for _, s, _ in program) and rank not in sources:
                raise TransportError(f"rank {rank} sends but holds no source block")
            if any(r for _, _, r in program) and rank not in targets:
                raise TransportError(f"rank {rank} receives but holds no target block")
        self.rounds = tuple(checked)
        self.ranks = tuple(sorted(parts))
        self._expect = {rank: tuple(e) for rank, e in expect.items()}
        self._parts: dict[int, tuple] | None = {
            rank: (sources.get(rank), targets.get(rank), dtype, tuple(program))
            for rank, program in parts.items()
        }

    def reports(self, frames: dict[int, tuple]) -> list["RoundReport"]:
        """Check every rank's report against the prescription (send/recv-once
        on the wire: the messages and bytes it moved, round by round, must
        equal what the program prescribes) and compose each round's
        measured clocks from the ranks' timings."""
        for rank, expected in self._expect.items():
            moved = frames[rank][1]
            if moved != expected:
                raise TransportError(self._mismatch(rank, moved, expected))
        reports = []
        for contended, messages, nbytes, at, slots in self.rounds:
            timings = [frames[rank][2][k] for rank, k in at]  # (start, end, sent, received)
            costs = [
                (s, d, max(frames[s][2][ks][2][a], frames[d][2][kd][3][b]))
                for s, ks, a, d, kd, b in slots
            ]
            reports.append(
                RoundReport(
                    messages=messages,
                    bytes=nbytes,
                    contended=contended,
                    wall_seconds=(
                        max(t[1] for t in timings) - min(t[0] for t in timings)
                        if timings
                        else 0.0
                    ),
                    port_seconds=compose_phase(costs, contended),
                )
            )
        return reports

    @staticmethod
    def _mismatch(rank: int, moved, expected) -> str:
        ran, shipped = [m[0] for m in moved], [e[0] for e in expected]
        if ran != shipped:
            return f"rank {rank} reported rounds {ran}; prescribed {shipped}"
        for got, want in zip(moved, expected):
            for what, i in (("sent", 1), ("received", 3)):
                if got[i : i + 2] != want[i : i + 2]:
                    return (
                        f"rank {rank} {what} {got[i]} message(s)/{got[i + 1]} "
                        f"byte(s); round {got[0]} prescribed {want[i]}/{want[i + 1]}"
                    )
        return f"rank {rank} reported {moved}; prescribed {expected}"


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


# ---------------------------------------------------------------------------
# control-pipe framing (blocking fds, length-prefixed pickles)
# ---------------------------------------------------------------------------


def _write_obj(fd: int, obj) -> int:
    """Write one frame; returns its size in bytes, header included."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    buf = memoryview(_LEN.pack(len(data)) + data)
    size = len(buf)
    while buf:
        n = os.write(fd, buf)
        buf = buf[n:]
    return size


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
    __slots__ = ("pos", "payload", "sent", "seconds", "nbytes")

    def __init__(self, pos: int, payload: memoryview, seconds: float):
        self.pos = pos  # position among the round's sends
        self.payload = payload
        self.sent = 0
        self.seconds = seconds  # starts at the pack time
        self.nbytes = len(payload)


class _InMsg:
    __slots__ = ("pos", "buf", "got", "seconds", "parts", "nbytes")

    def __init__(self, pos: int, parts, nbytes: int):
        self.pos = pos  # position among the round's receives
        self.buf = bytearray(nbytes)
        self.got = 0
        self.seconds = 0.0
        self.parts = parts
        self.nbytes = nbytes


def _block_view(arena: mmap.mmap, offset: int, shape, dtype: np.dtype) -> np.ndarray:
    n = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    return np.frombuffer(memoryview(arena)[offset : offset + n], dtype=dtype).reshape(
        shape
    )


def _run_worker_round(rank, source, target, dtype, sends, recvs, in_fds, out_fds):
    """Execute one round's sends (gathered out of ``source``) and receives
    (scattered into ``target``) without ever blocking on a full pipe:
    partial non-blocking writes interleave with draining whatever has
    arrived (single-threaded deadlock freedom).  Returns the bytes sent,
    the bytes received, and each send's and each receive's seconds, in the
    program's order."""
    clock = time.perf_counter
    out_q: dict[int, deque[_OutMsg]] = {}
    for pos, (dst, ixs) in enumerate(sends):
        t0 = clock()
        if len(ixs) == 1:
            payload = memoryview(source[ixs[0]].tobytes())
        else:
            payload = memoryview(b"".join(source[ix].tobytes() for ix in ixs))
        out_q.setdefault(dst, deque()).append(_OutMsg(pos, payload, clock() - t0))
    in_q: dict[int, deque[_InMsg]] = {}
    for pos, (src, parts, nbytes) in enumerate(recvs):
        in_q.setdefault(src, deque()).append(_InMsg(pos, parts, nbytes))

    sent_secs = [0.0] * len(sends)
    recv_secs = [0.0] * len(recvs)
    sent_bytes = recv_bytes = 0
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
                sent_secs[msg.pos] = msg.seconds
                sent_bytes += msg.sent
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
                for dst_ix, shape, nbytes in msg.parts:
                    target[dst_ix] = np.frombuffer(
                        msg.buf[pos : pos + nbytes], dtype=dtype
                    ).reshape(shape)
                    pos += nbytes
                msg.seconds += clock() - t0
                recv_secs[msg.pos] = msg.seconds
                recv_bytes += msg.got
                in_q[src].popleft()
                if not in_q[src]:
                    del in_q[src]
    return sent_bytes, recv_bytes, sent_secs, recv_secs


def _run_worker_exchange(rank, arena, program, src_offset, dst_offset, in_fds, out_fds):
    """One remapping on this rank: its kept program's rounds, back to back,
    no host between, over the source and target blocks at the two offsets.

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

    Returns, round by round, what moved -- ``(round index, messages sent,
    bytes sent, messages received, bytes received)`` -- and the timings --
    ``(start, end, seconds per send, seconds per receive)``, start and end
    on ``time.perf_counter``, one system-wide monotonic clock for forked
    processes on Linux, so the parent may compare ranks.
    """
    src_shape, dst_shape, dtype, rounds = program
    dtype = np.dtype(dtype)
    source = None if src_shape is None else _block_view(arena, src_offset, src_shape, dtype)
    target = None if dst_shape is None else _block_view(arena, dst_offset, dst_shape, dtype)
    clock = time.perf_counter
    moved, timings = [], []
    for index, sends, recvs in rounds:
        start = clock()
        sent, received, sent_secs, recv_secs = _run_worker_round(
            rank, source, target, dtype, sends, recvs, in_fds, out_fds
        )
        timings.append((start, clock(), sent_secs, recv_secs))
        moved.append((index, len(sends), sent, len(recvs), received))
    return tuple(moved), timings


def _worker_main(rank, arena, ctl_r, rep_w, in_fds, out_fds, close_fds):
    """One worker rank's lifetime: close foreign fds, then serve exchanges.

    The rank keeps the wire programs it is shipped, by handle.  An exchange
    frame is ``("run", handle, source offset, target offset, drops,
    program)``: the handles in ``drops`` are forgotten first (evicted by the
    parent), ``program`` is the rank's part on the program's first exchange
    and ``None`` after it.  Anything the rank cannot serve -- a frame it
    cannot read, a handle it does not hold, a round that fails -- is
    reported as ``("error", why)``; after a torn frame or a failed round the
    rank exits, since nothing after them can be trusted.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    for fd in in_fds.values():
        os.set_blocking(fd, False)
    for fd in out_fds.values():
        os.set_blocking(fd, False)
    programs: dict[int, tuple] = {}
    while True:
        try:
            cmd = _read_obj(ctl_r)
        except TransportError:
            return  # parent went away
        except Exception as exc:  # a torn frame: nothing after it can be trusted
            _write_obj(rep_w, ("error", f"unreadable control frame ({type(exc).__name__}: {exc})"))
            return
        if cmd[0] == "quit":
            return
        if cmd[0] == "ping":
            _write_obj(rep_w, ("pong", rank, tuple(sorted(programs))))
            continue
        if cmd[0] == "run":
            _, handle, src_offset, dst_offset, drops, shipped = cmd
            for old in drops:
                programs.pop(old, None)
            if shipped is not None:
                programs[handle] = shipped
            program = programs.get(handle)
            if program is None:  # nothing ran: report it and keep serving
                _write_obj(rep_w, ("error", f"holds no wire program under handle {handle}"))
                continue
            try:
                moved, timings = _run_worker_exchange(
                    rank, arena, program, src_offset, dst_offset, in_fds, out_fds
                )
            except BaseException as exc:  # report, then die loudly
                _write_obj(rep_w, ("error", f"{type(exc).__name__}: {exc}"))
                return
            _write_obj(rep_w, ("done", moved, timings))


# ---------------------------------------------------------------------------
# the parent side
# ---------------------------------------------------------------------------


def fork_available() -> bool:
    """True when the platform can fork workers (the only supported mode:
    the shared arenas are inherited, never pickled)."""
    return "fork" in _mp.get_all_start_methods()


class MPTransport:
    """N forked worker ranks, their arenas, and the exchange API.

    Lifecycle: construct (arenas exist, nothing forked), :meth:`start`
    (workers fork and are pinged), any number of :meth:`exchange` calls,
    :meth:`close` (or :meth:`kill`, which a failed exchange calls itself).
    Usable as a context manager.  One transport is one conversation: it
    serves any number of *sequential* runs -- blocks are placed and
    released through :meth:`place_block`/:meth:`release_block` as arrays
    come and go, wire programs are kept through :meth:`program` -- and
    callers that share it serialise their runs.  A new transport keeps no
    program, so a replacement for a failed one ships each program again.
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
                "the mp backend requires the 'fork' start method (the "
                "shared arenas are inherited, never pickled); "
                "this platform offers only "
                f"{_mp.get_all_start_methods()}"
            )
        self.nprocs = nprocs
        self.timeout = timeout
        self.arenas = [SharedArena(arena_bytes) for _ in range(nprocs)]
        self._procs: list[_mp.Process] = []
        self._ctl_w: list[int] = []  # parent -> worker command pipes
        self._rep_r: list[int] = []  # worker -> parent report pipes
        #: kept wire programs; an evicted one is dropped by its ranks
        self._programs: Memo[tuple[int, str], WireProgram] = Memo(PROGRAM_CAP, self._forget)
        self._handles = itertools.count(1)
        #: rank -> handles it still holds but must forget (told in its next frame)
        self._drops: dict[int, list[int]] = {}
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
            if frame[:2] != ("pong", rank):
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

    def program(self, owner, dtype, build) -> WireProgram:
        """The wire program this transport keeps for ``(owner, dtype)``.

        On the first ask ``build()`` returns ``(rounds, sources, targets)``
        -- the remapping's rounds (:class:`TransferRound`) and, per rank, the
        shape of the source and the target block it holds -- and the
        program is built from them (every check on the rounds raises here,
        before anything is shipped) under a fresh handle; later asks return
        it.  ``owner`` names the program by identity and is held as long as
        the program is kept (the mp backend passes the plan).  Beyond
        :data:`PROGRAM_CAP` programs the least recently used is evicted and
        the ranks that hold it are told to forget it in their next frame.
        """
        key = (id(owner), np.dtype(dtype).str)

        def new_program() -> WireProgram:
            rounds, sources, targets = build()
            return WireProgram(owner, key, next(self._handles), rounds, dtype, sources, targets)

        return self._programs.obtain(key, new_program)

    def _forget(self, key: tuple[int, str], program: WireProgram) -> None:
        """An evicted program: the ranks that hold it drop it in their next frame."""
        if program._parts is None:  # shipped: its ranks hold it
            for rank in program.ranks:
                self._drops.setdefault(rank, []).append(program.handle)

    def exchange(self, program: WireProgram, sources, targets) -> ExchangeReport:
        """Run one remapping -- a kept :meth:`program` -- over real
        inter-process messages; ``sources``/``targets`` map each rank to the
        arena offset of its source/target block.

        Each participating rank gets *one* control frame: the program's
        handle, its two block offsets, any eviction notice, and -- on the
        program's first exchange only -- its own part of the program.  It
        runs its rounds back to back against its peers (see
        :func:`_run_worker_exchange` for why that needs no barrier) and
        answers with *one* report, whose sent/received message and byte
        counts, round by round, must equal what the program prescribes.  An
        exchange that fails once shipping began leaves the conversation in
        an unknown state, so it takes the ranks down (:meth:`kill`) before
        the error propagates.
        """
        if not self._started or self._closed:
            raise TransportError("transport is not running (call start())")
        if self._programs.get(program.key) is not program:
            raise TransportError(
                f"wire program {program.handle} is not kept by this transport"
            )
        parts, program._parts = program._parts, None
        control = 0
        with _TRACER.span("mp.exchange", rounds=len(program.rounds)) as span:
            t0 = time.perf_counter()
            try:
                for rank in program.ranks:
                    frame = (
                        "run",
                        program.handle,
                        sources.get(rank),
                        targets.get(rank),
                        self._drops.pop(rank, ()),
                        parts[rank] if parts else None,
                    )
                    try:
                        control += _write_obj(self._ctl_w[rank], frame)
                    except OSError as exc:
                        raise TransportError(
                            f"rank {rank} is unreachable ({exc}); did the "
                            "worker die?"
                        ) from exc
                frames = self._collect(program.ranks)
                wall = time.perf_counter() - t0
                report = ExchangeReport(program.reports(frames), wall)
            except BaseException:
                self.kill()
                raise
            shipped = len(parts) if parts else 0
            span.set_attr("messages", report.messages)
            span.set_attr("bytes", report.bytes)
            span.set_attr("wall_seconds", report.wall_seconds)
            span.set_attr("port_seconds", report.port_seconds)
            span.set_attr("control_bytes", control)
            span.set_attr("shipped", shipped)
        _OBS.counter("repro.mp.exchanges").inc()
        _OBS.counter("repro.mp.control_bytes").inc(control)
        if shipped:
            _OBS.counter("repro.mp.programs_shipped").inc(shipped)
        if report.rounds:
            _OBS.counter("repro.mp.messages").inc(report.messages)
            _OBS.counter("repro.mp.bytes_moved").inc(report.bytes)
            _OBS.histogram("repro.mp.phase_wall_seconds").observe_many(
                [r.wall_seconds for r in report.rounds]
            )
            _OBS.histogram("repro.mp.phase_port_seconds").observe_many(
                [r.port_seconds for r in report.rounds]
            )
        return report
