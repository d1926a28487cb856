"""Request-scoped structured tracing with Chrome ``trace_event`` export.

A :class:`Tracer` hands out :class:`Span` context managers kept on a
per-thread stack: a span opened while another is active becomes its
child, so one service request produces a single correlated tree —
service → session tier → plan replay → per-phase execution — under one
trace ID.  The trace ID propagates across single-flight dedup by
*links*: a follower's span records the leader's ``(trace_id, span_id)``
instead of pretending to own the leader's work.

Tracing is **off by default** (enable with ``TRACER.enabled = True`` or
the ``REPRO_TRACE=1`` environment variable); when disabled, ``span()``
returns a shared no-op so the hot path pays one attribute load and a
truthiness check.  Finished spans land in a bounded buffer dumpable as
self-contained Chrome ``trace_event`` JSON (``chrome://tracing`` /
Perfetto) via :meth:`Tracer.chrome_trace`; :func:`validate_spans`
checks the structural invariants CI smoke-asserts (parents exist and
contain their children, durations nonnegative, one trace per tree).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs.catalog import REGISTRY

_ids = itertools.count(1)


def _new_id(prefix: str) -> str:
    return f"{prefix}{next(_ids):08x}"


@dataclass
class Span:
    """One timed operation; use as a context manager via :meth:`Tracer.span`."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    tracer: "Tracer"
    attrs: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0
    thread: str = ""

    def set_attr(self, key: str, value) -> None:
        """Attach ``key=value`` to the span (shows up under args in the trace)."""
        self.attrs[key] = value

    def link(self, trace_id: str, span_id: str, kind: str = "follows") -> None:
        """Record a causal link to a span in another request/thread."""
        self.attrs.setdefault("links", []).append(
            {"kind": kind, "trace_id": trace_id, "span_id": span_id}
        )

    def __enter__(self) -> "Span":
        self.thread = threading.current_thread().name
        self.tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._pop(self)

    @property
    def duration(self) -> float:
        """Span duration in seconds (0.0 while still open)."""
        return max(0.0, self.end - self.start) if self.end else 0.0


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    trace_id = ""
    span_id = ""
    parent_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set_attr(self, key: str, value) -> None:
        """No-op."""

    def link(self, trace_id: str, span_id: str, kind: str = "follows") -> None:
        """No-op."""


_NULL = _NullSpan()


class Tracer:
    """Thread-aware span factory with a bounded finished-span buffer."""

    def __init__(self, enabled: bool = False, max_spans: int = 100_000):
        self.enabled = enabled
        self.max_spans = max_spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque()
        self._epoch = time.perf_counter()

    # -- span lifecycle ---------------------------------------------------

    def span(self, name: str, *, root: bool = False, **attrs):
        """Open a span named ``name`` as a child of the current thread's
        active span, or as a root minting a fresh trace ID when the thread
        has none open or ``root`` is set (a request the caller's thread
        runs is its own trace, whatever the caller has open)."""
        if not self.enabled:
            return _NULL
        parent = None if root else self.current_span()
        return Span(
            name=name,
            trace_id=parent.trace_id if parent is not None else _new_id("t"),
            span_id=_new_id("s"),
            parent_id=parent.span_id if parent is not None else None,
            tracer=self,
            attrs=dict(attrs),
        )

    def current_span(self) -> Span | None:
        """The innermost open span on this thread, or None."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # misnested exit: drop through to it
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        with self._lock:
            self._finished.append(span)
            dropped = len(self._finished) - self.max_spans
            if dropped > 0:
                for _ in range(dropped):
                    self._finished.popleft()
                REGISTRY.counter("repro.trace.spans_dropped").inc(dropped)
        REGISTRY.counter("repro.trace.spans_recorded").inc()

    # -- inspection / export ----------------------------------------------

    def finished_spans(self) -> list[Span]:
        """Finished spans currently retained, oldest first."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        """Drop all retained spans (open spans are unaffected)."""
        with self._lock:
            self._finished.clear()

    def chrome_trace(self) -> dict:
        """Self-contained Chrome ``trace_event`` JSON (load in Perfetto
        or ``chrome://tracing`` for a flamegraph)."""
        tids: dict[str, int] = {}
        events = []
        for span in self.finished_spans():
            tid = tids.setdefault(span.thread, len(tids) + 1)
            args = {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
            }
            args.update(span.attrs)
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0].split(":", 1)[0],
                    "ts": (span.start - self._epoch) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": os.getpid(),
                    "tid": tid,
                    "args": args,
                }
            )
        events.sort(key=lambda e: e["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> dict:
        """Dump :meth:`chrome_trace` to ``path``; returns the trace dict."""
        trace = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, indent=1)
        return trace


def validate_spans(trace: dict) -> list[str]:
    """Structural checks on a Chrome trace dict; returns problems (empty == ok).

    Every span must have nonnegative duration; every ``parent_id`` must
    name a span in the same trace whose interval contains the child's
    (within a small clock epsilon).
    """
    eps = 1e-3 * 1e6  # 1 ms in trace µs units, generous for clock jitter
    events = trace.get("traceEvents", [])
    by_id = {e["args"]["span_id"]: e for e in events if "span_id" in e.get("args", {})}
    problems = []
    for e in events:
        args = e.get("args", {})
        name = e.get("name", "?")
        if e.get("dur", 0) < 0:
            problems.append(f"span {name} ({args.get('span_id')}): negative duration")
        parent_id = args.get("parent_id")
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"span {name} ({args.get('span_id')}): parent {parent_id} missing")
            continue
        if parent["args"].get("trace_id") != args.get("trace_id"):
            problems.append(f"span {name}: trace_id differs from parent {parent_id}")
        if e["ts"] < parent["ts"] - eps or (
            e["ts"] + e.get("dur", 0) > parent["ts"] + parent.get("dur", 0) + eps
        ):
            problems.append(
                f"span {name} ({args.get('span_id')}) not contained in parent {parent_id}"
            )
    return problems


def top_spans(trace: dict, n: int = 10) -> list[dict]:
    """Aggregate total/self time by span name; top ``n`` by total time."""
    totals: dict[str, dict] = {}
    child_time: dict[str, float] = {}
    events = trace.get("traceEvents", [])
    for e in events:
        parent = e.get("args", {}).get("parent_id")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + e.get("dur", 0.0)
    for e in events:
        name = e.get("name", "?")
        agg = totals.setdefault(
            name, {"name": name, "count": 0, "total_us": 0.0, "self_us": 0.0}
        )
        dur = e.get("dur", 0.0)
        agg["count"] += 1
        agg["total_us"] += dur
        span_id = e.get("args", {}).get("span_id")
        agg["self_us"] += max(0.0, dur - child_time.get(span_id, 0.0))
    return sorted(totals.values(), key=lambda a: -a["total_us"])[:n]


TRACER = Tracer(enabled=os.environ.get("REPRO_TRACE", "") not in ("", "0"))
"""The process-wide tracer all repro subsystems publish spans into."""
