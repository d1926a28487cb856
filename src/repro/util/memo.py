"""The one bounded, thread-safe LRU type every cache of the package is.

The process-wide memos (plans, layouts) are registered by name, so they are
forgotten together, as a restarted process has them, and read together --
here and as the ``repro.memo.*`` series of every metrics snapshot.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Generic, TypeVar

from repro.obs.catalog import REGISTRY as _OBS

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class Memo(Generic[K, V]):
    """A bounded, thread-safe least-recently-used table.

    :meth:`get` and :meth:`obtain` count a hit (and refresh it) or a miss.
    Beyond :attr:`cap` entries the least recently used is evicted and
    ``on_evict(key, value)``, if given, is called outside the lock.
    :meth:`obtain` builds outside the lock, so builds overlap; the first
    value stored under a key wins, and every later :meth:`put` gets it.
    A value is never ``None`` (``None`` means absent).
    """

    #: a process-wide memo's registered name (:func:`process_memo`), under
    #: which the metrics registry reads its counts
    name: str | None = None

    def __init__(self, cap: int, on_evict: Callable[[K, V], None] | None = None):
        if cap < 1:
            raise ValueError("a memo's cap must be >= 1")
        self.cap = cap
        self.on_evict = on_evict
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: K) -> V | None:
        """The value under ``key`` (a hit), or ``None`` (a miss)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
            return value

    def obtain(self, key: K, build: Callable[[], V]) -> V:
        """The value under ``key``: get it, or ``build()`` and keep it."""
        value = self.get(key)
        return value if value is not None else self.put(key, build())

    def put(self, key: K, value: V) -> V:
        """Keep ``value`` under ``key`` as the most recently used, unless a
        value is there already (the first stored wins); return the kept one."""
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            evicted = []
            while len(self._entries) > self.cap:
                evicted.append(self._entries.popitem(last=False))
            self.evictions += len(evicted)
        if self.on_evict is not None:
            for old in evicted:
                self.on_evict(*old)
        return value

    def stats(self) -> dict[str, int]:
        """``hits + misses`` counts lookups; a miss of :meth:`obtain` is a build."""
        with self._lock:
            counts = {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}
            return {"capacity": self.cap, "entries": len(self._entries), **counts}

    def _series(self) -> dict:
        """The counts as ``repro.memo.*`` series (each read is one int)."""
        labels = (("memo", self.name),)
        return {
            ("repro.memo.hits", labels): self.hits,
            ("repro.memo.misses", labels): self.misses,
            ("repro.memo.evictions", labels): self.evictions,
            ("repro.memo.entries", labels): len(self._entries),
        }

    def clear(self) -> None:
        """Forget every entry and every count (no eviction callback); a process
        memo's counts join the registry's retired totals as they go."""
        if self.name is None:
            self._forget()
        else:
            _OBS.retire(self._forget)

    def _forget(self) -> dict:
        with self._lock:
            forgotten = self._series()
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0
        return forgotten


_PROCESS: dict[str, Memo] = {}


def process_memo(name: str, cap: int) -> Memo:
    """A new process-wide memo, registered under ``name``: the metrics
    registry reads its counts as the ``repro.memo.*`` series labelled
    ``memo=name``."""
    memo = _PROCESS[name] = Memo(cap)
    memo.name = name
    _OBS.read(memo._series)
    return memo


def clear_process_memos() -> None:
    """Forget every process-wide memo, as a restarted process has them."""
    for memo in _PROCESS.values():
        memo.clear()


def process_memo_stats() -> dict[str, dict[str, int]]:
    """Each process-wide memo's :meth:`Memo.stats`, by name."""
    return {name: memo.stats() for name, memo in _PROCESS.items()}
