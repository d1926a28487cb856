"""Harness-side spans and the sample statistics the benchmark reports.

Spans are recorded *around calls into each layer's public functions* by
the benchmark itself (the program's own ``TRACER`` stays off, and spans
inside the program are a later change).  They live in memory and are
dumped once, when the traced run ends.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the span that caused it."""

    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """An in-memory span list with a single-threaded open-span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.request = 0

    def new_request(self) -> int:
        """A fresh request id; every span opened until the next call carries it."""
        self.request += 1
        return self.request

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.request, parent, time.perf_counter()))
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def dump(self) -> list[dict]:
        """JSON-ready spans, times in ms relative to the first span."""
        if not self.spans:
            return []
        epoch = self.spans[0].start
        selfs = self_times(self.spans)
        return [
            {
                "id": i,
                "name": s.name,
                "request": s.request,
                "parent": s.parent,
                "start_ms": (s.start - epoch) * 1e3,
                "end_ms": (s.end - epoch) * 1e3,
                "self_ms": selfs[i] * 1e3,
            }
            for i, s in enumerate(self.spans)
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover.

    Children are clipped to the parent and overlapping children are
    counted once, so a span's self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def self_time_by_name(spans: list[Span]) -> dict[tuple[int, str], float]:
    """Summed self time keyed by ``(request id, span name)``."""
    out: dict[tuple[int, str], float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[(s.request, s.name)] = out.get((s.request, s.name), 0.0) + t
    return out


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of pooled samples, linear between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` pooled samples lie beyond the ``q``-quantile."""
    return n - 1 - math.floor(q * (n - 1))


def round_floor(steps: list[list[float]]) -> float:
    """Seconds of one round with every step of the cycle at its fastest.

    ``steps`` holds, per measured round, the wall seconds of each step of
    the cycle.  Other tenants of a shared host only ever slow a step down,
    so the minimum over rounds is the estimate of the undisturbed step
    that repeats from run to run; a step is one request, short enough to
    find a quiet moment even when whole rounds never do.
    """
    return sum(min(column) for column in zip(*steps))
