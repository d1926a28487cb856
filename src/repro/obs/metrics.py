"""Thread-safe metrics primitives and the process-wide registry.

Three instrument kinds — :class:`Counter`, :class:`Gauge`, and
:class:`Histogram` — publish into a :class:`MetricsRegistry` under one
dotted ``repro.<subsystem>.<name>`` namespace.  Histograms use *fixed
exponential buckets* (no sampling reservoirs): every observation lands
in a deterministic bucket, so quantile estimates are correct to within
one bucket width regardless of volume or arrival order, and tail
latencies can never be under-weighted the way a bounded
random-replacement reservoir under-weights them.

Every instrument guards its state with its own lock and snapshots
atomically, so an exporter running concurrently with writers never
observes a torn histogram (``sum`` inconsistent with the bucket
counts).  The module-level :data:`REGISTRY` is the default sink all
repro subsystems publish into; :func:`metrics_disabled` turns
publication into a no-op for overhead measurement.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from dataclasses import dataclass, field

SCHEMA_VERSION = 1
"""Registry snapshot schema version (bump when the JSON shape changes)."""

_INF = float("inf")

# Process-wide enable flag for metric publication.  Checked on every
# write; flipping it off makes inc/observe/set no-ops so the overhead
# gate can price instrumentation against a true baseline.
_ENABLED = True


def metrics_enabled() -> bool:
    """Whether metric writes currently publish (see :func:`set_metrics_enabled`)."""
    return _ENABLED


def set_metrics_enabled(enabled: bool) -> bool:
    """Globally enable/disable metric writes; returns the previous state."""
    global _ENABLED
    prev = _ENABLED
    _ENABLED = bool(enabled)
    return prev


class metrics_disabled:
    """Context manager that suppresses metric publication inside the block."""

    def __enter__(self) -> "metrics_disabled":
        self._prev = set_metrics_enabled(False)
        return self

    def __exit__(self, *exc: object) -> None:
        set_metrics_enabled(self._prev)


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` exponentially spaced upper bounds ``start * factor**i``.

    The returned tuple does *not* include ``+inf``; histograms append an
    implicit overflow bucket themselves.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


# Default bucket families.  SECONDS spans 1 µs .. ~68 s in powers of two
# (36 bounds), wide enough for pass timings and request latencies while
# keeping quantiles within a 2x bucket width.
SECONDS_BUCKETS = exponential_buckets(1e-6, 2.0, 36)
BYTES_BUCKETS = exponential_buckets(64.0, 4.0, 16)


def _bucket(bounds: tuple[float, ...], value: float) -> int:
    """The one definition of "which bucket": the first whose upper bound is
    >= ``value``; ``len(bounds)`` is the overflow (``+inf``) bucket."""
    return bisect_left(bounds, value)


@dataclass(frozen=True)
class Binned:
    """Observations already sorted into a histogram's buckets
    (:meth:`Histogram.bin`): what a caller that records the same values over
    and over works out once and then adds with :meth:`Histogram.add`."""

    bounds: tuple[float, ...]  # the binning histogram's, checked by ``add``
    buckets: tuple[tuple[int, int], ...]  # (bucket index, observations), non-empty ones
    sum: float
    count: int
    min: float
    max: float


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def _snapshot(self) -> dict:
        return {"kind": "counter", "value": self.value}


class Gauge:
    """Instantaneous value that can move both ways (queue depth, high-water)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        if not _ENABLED:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is a new high-water mark."""
        if not _ENABLED:
            return
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def _snapshot(self) -> dict:
        return {"kind": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with exponential upper bounds.

    Observations increment the first bucket whose upper bound is >= the
    value (plus an implicit ``+inf`` overflow bucket), and accumulate
    exact ``sum``/``count``/``min``/``max`` under the same lock, so a
    snapshot is always internally consistent: ``count`` equals the sum
    of bucket counts and quantiles interpolated from the buckets are
    within one bucket width of the true quantile.
    """

    __slots__ = ("name", "labels", "bounds", "_lock", "_counts", "_sum", "_count", "_min", "_max")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        buckets: tuple[float, ...] = SECONDS_BUCKETS,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds or any(b <= 0 for b in bounds):
            raise ValueError(f"histogram {name}: bucket bounds must be positive")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow (+inf)
        self._sum = 0.0
        self._count = 0
        self._min = _INF
        self._max = -_INF

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.observe_many((value,))

    def observe_many(self, values) -> None:
        """Record every value of ``values``, in order, under one lock."""
        if not _ENABLED:
            return
        values = [float(v) for v in values]
        if not values:
            return
        bounds = self.bounds
        indices = [_bucket(bounds, v) for v in values]
        with self._lock:
            for idx, value in zip(indices, values):
                self._counts[idx] += 1
                self._sum += value
                if value < self._min:
                    self._min = value
                if value > self._max:
                    self._max = value
            self._count += len(values)

    def bin(self, values) -> Binned:
        """``values`` sorted into this histogram's buckets, recorded nowhere:
        :meth:`add` of the result leaves the buckets, ``count``, ``min`` and
        ``max`` that :meth:`observe_many` of the values would, and ``sum``
        up to the rounding of adding their total in one step."""
        values = [float(v) for v in values]
        counts: dict[int, int] = {}
        for value in values:
            idx = _bucket(self.bounds, value)
            counts[idx] = counts.get(idx, 0) + 1
        return Binned(
            bounds=self.bounds,
            buckets=tuple(sorted(counts.items())),
            sum=sum(values, 0.0),
            count=len(values),
            min=min(values, default=_INF),
            max=max(values, default=-_INF),
        )

    def add(self, binned: Binned) -> None:
        """Record pre-binned observations: one locked update however many."""
        if not _ENABLED or not binned.count:
            return
        if binned.bounds is not self.bounds and binned.bounds != self.bounds:
            raise ValueError(f"histogram {self.name}: binned under other bucket bounds")
        with self._lock:
            counts = self._counts
            for idx, n in binned.buckets:
                counts[idx] += n
            self._sum += binned.sum
            self._count += binned.count
            if binned.min < self._min:
                self._min = binned.min
            if binned.max > self._max:
                self._max = binned.max

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of observed values."""
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) by interpolating in the
        containing bucket; exact to within one bucket width."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            lo, hi = self._min, self._max
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0.0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            if seen + c >= rank or i == len(counts) - 1:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) else hi
                # clamp to the actually observed range so a single-bucket
                # histogram reports values inside [min, max]
                lower = max(lower, min(lo, upper))
                upper = min(upper, hi) if hi > -_INF else upper
                if upper <= lower:
                    return upper
                frac = (rank - seen) / c if c else 0.0
                return lower + (upper - lower) * min(max(frac, 0.0), 1.0)
            seen += c
        return hi

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0
            self._min = _INF
            self._max = -_INF

    def _snapshot(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            sum_ = self._sum
            lo, hi = self._min, self._max
        return {
            "kind": "histogram",
            "count": total,
            "sum": sum_,
            "min": None if total == 0 else lo,
            "max": None if total == 0 else hi,
            "bounds": list(self.bounds),
            "counts": counts,
        }


@dataclass(frozen=True)
class MetricSpec:
    """Catalog entry describing one metric family (see :mod:`repro.obs.catalog`)."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: tuple[str, ...] = ()


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


@dataclass
class MetricsRegistry:
    """Process-wide, thread-safe get-or-create metric registry.

    Metrics are keyed by ``(name, labels)``; ``repro.``-namespaced names
    must be declared in the catalog passed at construction (the default
    registry uses :data:`repro.obs.catalog.CATALOG`), which keeps
    ``docs/OBSERVABILITY.md`` exhaustive.  ``reset()`` zeroes metrics in
    place, so instruments cached at module level in instrumented code
    stay valid across test isolation resets.
    """

    catalog: dict[str, MetricSpec] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = field(
        default_factory=dict
    )

    def _get(self, cls, name: str, labels: dict[str, str] | None, **kwargs):
        label_items = tuple(sorted((labels or {}).items()))
        key = (name, label_items)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise TypeError(
                        f"metric {name} already registered as {type(metric).__name__}"
                    )
                return metric
            if name.startswith("repro."):
                spec = self.catalog.get(name)
                if spec is None:
                    raise KeyError(
                        f"metric {name} is not in the catalog; declare it in "
                        "repro/obs/catalog.py (docs/OBSERVABILITY.md is "
                        "generated from the catalog)"
                    )
                if spec.kind != cls.__name__.lower():
                    raise TypeError(
                        f"metric {name} cataloged as {spec.kind}, "
                        f"requested {cls.__name__.lower()}"
                    )
                if set(dict(label_items)) != set(spec.labels):
                    raise KeyError(
                        f"metric {name} cataloged with labels {spec.labels}, "
                        f"got {tuple(dict(label_items))}"
                    )
            metric = cls(name, label_items, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        """Get or create the counter ``name`` with the given labels."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        """Get or create the gauge ``name`` with the given labels."""
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        buckets: tuple[float, ...] = SECONDS_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram ``name`` with the given labels/buckets."""
        return self._get(Histogram, name, labels, buckets=buckets)

    def reset(self) -> None:
        """Zero every registered metric in place (instances stay valid)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            m._reset()

    def snapshot(self) -> dict:
        """JSON-able snapshot of every metric: ``{schema, metrics: [...]}``."""
        with self._lock:
            items = sorted(self._metrics.items())
        out = []
        for (name, labels), metric in items:
            entry = {"name": name, "labels": dict(labels)}
            entry.update(metric._snapshot())
            out.append(entry)
        return {"schema": SCHEMA_VERSION, "metrics": out}

    def prometheus_text(self) -> str:
        """Render the registry in Prometheus text exposition format."""
        return prometheus_from_snapshot(self.snapshot(), self.catalog)

    def to_json(self, indent: int | None = None) -> str:
        """``snapshot()`` serialized as a JSON string."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def prometheus_from_snapshot(
    snap: dict, catalog: dict[str, MetricSpec] | None = None
) -> str:
    """Render a registry :meth:`~MetricsRegistry.snapshot` dict as
    Prometheus text exposition format (dots become underscores)."""
    catalog = catalog or {}
    families: dict[str, list[dict]] = {}
    for m in snap.get("metrics", []):
        families.setdefault(m["name"], []).append(m)
    lines: list[str] = []
    for name in sorted(families):
        flat = name.replace(".", "_").replace("-", "_")
        spec = catalog.get(name)
        kind = families[name][0]["kind"]
        if spec is not None:
            lines.append(f"# HELP {flat} {spec.help}")
        lines.append(f"# TYPE {flat} {kind}")
        for m in families[name]:
            lbl = _prom_labels(m["labels"])
            if kind in ("counter", "gauge"):
                lines.append(f"{flat}{lbl} {_fmt(m['value'])}")
            else:
                cum = 0
                for bound, c in zip(
                    list(m["bounds"]) + ["+Inf"], m["counts"], strict=True
                ):
                    cum += c
                    le = bound if bound == "+Inf" else _fmt(bound)
                    extra = dict(m["labels"], le=str(le))
                    lines.append(f"{flat}_bucket{_prom_labels(extra)} {cum}")
                lines.append(f"{flat}_sum{lbl} {_fmt(m['sum'])}")
                lines.append(f"{flat}_count{lbl} {m['count']}")
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    """Render a float the way Prometheus expects (ints without '.0')."""
    f = float(v)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def _prom_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{str(v).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def snapshot_diff(before: dict, after: dict) -> dict:
    """Diff two registry snapshots: per-metric value/count deltas.

    Counters and gauges diff their values; histograms diff ``count`` and
    ``sum``.  Metrics present on only one side appear with the missing
    side treated as zero.
    """
    def index(snap: dict) -> dict:
        return {
            (m["name"], tuple(sorted(m["labels"].items()))): m
            for m in snap.get("metrics", [])
        }

    b, a = index(before), index(after)
    out = []
    for key in sorted(set(b) | set(a)):
        name, labels = key
        mb, ma = b.get(key), a.get(key)
        kind = (ma or mb)["kind"]
        entry = {"name": name, "labels": dict(labels), "kind": kind}
        if kind in ("counter", "gauge"):
            entry["delta"] = (ma or {}).get("value", 0.0) - (mb or {}).get("value", 0.0)
        else:
            entry["count_delta"] = (ma or {}).get("count", 0) - (mb or {}).get("count", 0)
            entry["sum_delta"] = (ma or {}).get("sum", 0.0) - (mb or {}).get("sum", 0.0)
        out.append(entry)
    return {"schema": SCHEMA_VERSION, "diff": out}
