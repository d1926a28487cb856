"""Digest-sharded pool of compiler sessions.

One global :class:`~repro.compiler.session.CompilerSession` would make
every concurrent compile contend on a single cache lock and a single LRU
list.  A :class:`SessionPool` splits the artifact cache into N
independently locked shards (each a full ``CompilerSession``), routed by
the *source digest*: requests for the same source always land on the same
shard (so one shard parses and classifies it, once, and its LRU locality
stays intact), while compiles of distinct sources almost always land on
different shards and never contend.  Routing protects nothing else: a key
is a pure function of the request, the same on whichever shard computes it.

The pool is a pure cache fabric -- request admission, single-flight
deduplication and worker scheduling live one layer up in
:class:`~repro.service.service.CompileService`.
"""

from __future__ import annotations

from os import PathLike
from typing import TYPE_CHECKING

from repro.compiler.artifacts import CompiledProgram, CompilerOptions
from repro.compiler.session import CompilerSession, SessionKey, source_digest
from repro.lang.ast_nodes import Program, Subroutine
from repro.mapping.processors import ProcessorArrangement

if TYPE_CHECKING:
    from repro.store import ArtifactStore


class SessionPool:
    """N digest-sharded, individually locked LRU compiler-session shards.

    ``shards`` fixes the shard count for the pool's lifetime (routing is
    ``int(digest, 16) % shards``, so changing it would orphan cached
    artifacts).  ``processors``/``options`` are defaults handed to every
    shard session, and ``max_entries_per_shard`` bounds each shard's LRU
    independently -- total capacity is ``shards * max_entries_per_shard``.
    ``store`` attaches one shared persistent
    :class:`~repro.store.ArtifactStore` (a path string builds one) behind
    every shard: entries are keyed by the full artifact key, so shards
    share the disk tier safely, and a restarted pool warm-starts from
    whatever any earlier process compiled.

    Every public method is thread-safe: shard sessions lock their own
    cache and never hold the lock across a pipeline run, so two compiles
    of distinct sources proceed fully in parallel even on one shard.
    """

    def __init__(
        self,
        shards: int = 8,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
        max_entries_per_shard: int = 64,
        store: "ArtifactStore | str | None" = None,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if isinstance(store, (str, PathLike)):
            from repro.store import ArtifactStore

            store = ArtifactStore(store)
        self.store = store
        self._shards = tuple(
            CompilerSession(
                processors=processors,
                options=options,
                max_entries=max_entries_per_shard,
                store=store,
            )
            for _ in range(shards)
        )

    # -- routing -----------------------------------------------------------

    def shard_index(self, digest: str) -> int:
        """The shard a source digest routes to (stable for the pool's life)."""
        return int(digest, 16) % len(self._shards)

    def shard(self, index: int) -> CompilerSession:
        """Direct access to one shard session (stats, cache inspection)."""
        return self._shards[index]

    def session_for(self, source: str | Program | Subroutine) -> CompilerSession:
        """The shard session responsible for this source."""
        return self._shards[self.shard_index(source_digest(source))]

    # -- compile -----------------------------------------------------------

    def cache_key(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
        *,
        digest: str | None = None,
    ) -> tuple[int, SessionKey]:
        """(shard index, artifact key) -- the identity single-flight uses."""
        if digest is None:
            digest = source_digest(source)
        idx = self.shard_index(digest)
        key = self._shards[idx].cache_key(
            source, bindings, processors, options, digest=digest
        )
        return idx, key

    def lookup(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
        *,
        digest: str | None = None,
    ) -> CompiledProgram | None:
        """Peek the responsible shard: the artifact if cached, else None."""
        if digest is None:
            digest = source_digest(source)
        return self._shards[self.shard_index(digest)].lookup(
            source, bindings, processors, options, digest=digest
        )

    def compile(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
    ) -> CompiledProgram:
        """Compile through the responsible shard's artifact cache."""
        return self.compile_traced(source, bindings, processors, options)[0]

    def compile_traced(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
        *,
        digest: str | None = None,
    ) -> tuple[CompiledProgram, str]:
        """:meth:`compile` reporting the serving tier.

        The tier -- ``"memory"`` / ``"instantiated"`` / ``"disk"`` /
        ``"compiled"`` -- comes straight from the responsible shard
        (:meth:`~repro.compiler.session.CompilerSession.compile_traced`);
        the service layer records it as ``ServiceResult.cache_source``.
        """
        if digest is None:
            digest = source_digest(source)
        return self._shards[self.shard_index(digest)].compile_traced(
            source, bindings, processors, options, digest=digest
        )

    # -- maintenance / observability ---------------------------------------

    def cache_clear(self) -> None:
        """Drop every shard's cached artifacts and source classifications."""
        for s in self._shards:
            s.cache_clear()

    def shard_hit_rates(self) -> list[float]:
        """Per-shard cache hit rate, in shard order."""
        return [float(s.stats["hit_rate"]) for s in self._shards]

    @property
    def stats(self) -> dict[str, object]:
        """Aggregate cache statistics plus the per-shard breakdown."""
        per_shard = [s.stats for s in self._shards]
        hits = sum(int(s["hits"]) for s in per_shard)
        misses = sum(int(s["misses"]) for s in per_shard)
        total = hits + misses
        return {
            "shards": len(self._shards),
            "hits": hits,
            "misses": misses,
            "evictions": sum(int(s["evictions"]) for s in per_shard),
            "entries": sum(int(s["entries"]) for s in per_shard),
            "passes_run": sum(int(s["passes_run"]) for s in per_shard),
            "hit_rate": (hits / total) if total else 0.0,
            "shard_hit_rates": [float(s["hit_rate"]) for s in per_shard],
            "shard_entries": [int(s["entries"]) for s in per_shard],
            # disk tier (all shards share one store, so these are sums of
            # per-shard session counters, not store-object counters)
            "store_hits": sum(int(s["store_hits"]) for s in per_shard),
            "store_writes": sum(int(s["store_writes"]) for s in per_shard),
            # template tier: misses served by instantiating a symbolic
            # template instead of running the full pipeline
            "instantiations": sum(int(s["instantiations"]) for s in per_shard),
        }
