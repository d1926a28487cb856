"""The one bounded LRU type every cache of the package is built on.

:class:`repro.util.memo.Memo` owns recency, the cap, the hit/miss/eviction
counts, ``clear`` and the eviction callback; the process-wide memos (plans
and layouts) are registered by name and cleared and read together.
"""

from __future__ import annotations

import threading

import pytest

from repro.mapping import ownership
from repro.obs import REGISTRY
from repro.spmd import schedule
from repro.util.memo import Memo, clear_process_memos, process_memo_stats


def test_a_hit_refreshes_recency_and_the_cap_evicts_the_least_recent():
    memo = Memo(2)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.get("a") == 1  # "b" is now the least recently used
    memo.put("c", 3)
    assert list(memo._entries.items()) == [("a", 1), ("c", 3)]


def test_put_keeps_the_first_value_and_refreshes_it():
    memo = Memo(2)
    assert memo.put("a", 1) == 1
    memo.put("b", 2)
    assert memo.put("a", 10) == 1
    memo.put("c", 3)
    assert list(memo._entries.items()) == [("a", 1), ("c", 3)]


def test_counts_and_stats():
    memo = Memo(2)
    assert memo.get("a") is None
    assert memo.obtain("a", lambda: 1) == 1
    assert memo.obtain("a", lambda: pytest.fail("a hit builds nothing")) == 1
    memo.obtain("b", lambda: 2)
    memo.obtain("c", lambda: 3)
    memo.put("d", 4)
    assert memo.stats() == {"capacity": 2, "entries": 2, "hits": 1, "misses": 4, "evictions": 2}
    assert len(memo) == 2
    assert (memo.hits, memo.misses, memo.evictions) == (1, 4, 2)


def test_a_failed_build_keeps_nothing():
    memo = Memo(2)

    def broken():
        raise ValueError("no")

    with pytest.raises(ValueError):
        memo.obtain("a", broken)
    assert len(memo) == 0 and memo.stats()["misses"] == 1
    assert memo.obtain("a", lambda: 1) == 1


def test_clear_forgets_entries_and_counts_without_a_callback():
    evicted = []
    memo = Memo(1, lambda k, v: evicted.append(k))
    memo.obtain("a", lambda: 1)
    memo.obtain("b", lambda: 2)
    memo.get("b")
    memo.clear()
    assert len(memo) == 0 and evicted == ["a"]
    assert memo.stats() == {"capacity": 1, "entries": 0, "hits": 0, "misses": 0, "evictions": 0}


def test_the_eviction_callback_sees_each_evicted_entry_outside_the_lock():
    seen = []
    memo: Memo[str, int] = Memo(2)

    def on_evict(key, value):
        seen.append((key, value, len(memo)))  # len() would deadlock under the lock

    memo.on_evict = on_evict
    for k, key in enumerate("abcd"):
        memo.put(key, k)
    memo.cap = 1
    memo.put("e", 4)
    assert seen == [("a", 0, 2), ("b", 1, 2), ("c", 2, 1), ("d", 3, 1)]
    assert memo.evictions == 4


def test_a_cap_below_one_is_refused():
    with pytest.raises(ValueError):
        Memo(0)


def test_the_first_stored_value_wins_an_insertion_race():
    memo = Memo(4)
    racers = 8
    gate, built = threading.Barrier(racers), threading.Barrier(racers)
    results = [None] * racers
    builds = []

    def build(k):
        builds.append(k)
        built.wait(10.0)  # every racer misses before any stores
        return object()

    def racer(k):
        gate.wait(10.0)
        results[k] = memo.obtain("key", lambda: build(k))

    threads = [threading.Thread(target=racer, args=(k,)) for k in range(racers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
        assert not t.is_alive()
    assert len(builds) == racers  # the race happened
    assert len({id(r) for r in results}) == 1 and memo._entries["key"] is results[0]
    stats = memo.stats()
    assert stats["entries"] == 1 and stats["misses"] == len(builds)
    assert stats["hits"] + stats["misses"] == racers


def _memo_series(snapshot: dict) -> dict[str, dict[str, float]]:
    """The ``repro.memo.*`` series of a registry snapshot, by memo name."""
    out: dict[str, dict[str, float]] = {}
    for m in snapshot["metrics"]:
        if m["name"].startswith("repro.memo."):
            out.setdefault(m["labels"]["memo"], {})[m["name"].rsplit(".", 1)[1]] = m["value"]
    return out


def test_the_process_memos_are_registered_and_cleared_together(monkeypatch):
    stats = process_memo_stats()
    assert stats["plans"]["capacity"] == schedule.PLANS.cap == 256
    assert stats["layouts"]["capacity"] == 1024
    before = _memo_series(REGISTRY.snapshot())
    schedule.PLANS.put("k", "plan")
    ownership._LAYOUTS.put("k", "layout")
    schedule.PLANS.get("k")
    assert schedule.PLANS.obtain("j", lambda: "other") == "other"
    with monkeypatch.context() as patch:
        patch.setattr(schedule.PLANS, "cap", 1)
        schedule.PLANS.put("i", "evicts both")
    assert ownership._LAYOUTS.get("absent") is None
    # the registry reads the memos' own counts: its deltas are their stats
    now = process_memo_stats()
    assert now["plans"]["evictions"] == 2 and now["layouts"]["misses"] == 1
    series = _memo_series(REGISTRY.snapshot())
    assert set(series) == set(now) == {"plans", "layouts"}
    for name, memo in now.items():
        assert series[name]["entries"] == memo["entries"]
        for count in ("hits", "misses", "evictions"):
            assert series[name][count] - before[name][count] == memo[count], (name, count)
    clear_process_memos()
    cleared = _memo_series(REGISTRY.snapshot())
    for name in now:
        assert cleared[name]["entries"] == 0
        for count in ("hits", "misses", "evictions"):
            assert cleared[name][count] == series[name][count], "a clear retires, never drops"
    for name in ("plans", "layouts"):
        assert process_memo_stats()[name] == {
            "capacity": stats[name]["capacity"],
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }
