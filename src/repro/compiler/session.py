"""Compiler sessions: memoized compilation artifacts for repeated traffic.

A :class:`CompilerSession` caches :class:`CompiledProgram` artifacts keyed
by (source digest, bindings, processor arrangement, pass set, cost model)
with an LRU bound and hit/miss/eviction statistics.  With a persistent
:class:`~repro.store.ArtifactStore` attached (``store=...``) the cache
grows a disk tier: lookups go memory -> disk -> compile, fresh compiles
are written back, and a *new process* sharing the store warm-starts from
the artifacts an earlier process compiled (plans are derived state, built
on first use and never stored) --
:meth:`CompilerSession.compile_traced` reports which tier served each
call.

Requests compiled with the opt-in ``symbolize`` pass get a fourth tier:
the session keeps :class:`~repro.compiler.template.SymbolicTemplate`
artifacts under a *shape-erased* key (shape-symbolic binding values and
the processor arrangement dropped), so a request for a never-seen
``(n, P)`` is served by instantiating the template (tier
``"instantiated"``) instead of compiling from scratch.  On disk the
template is the *only* entry written for such a source -- shape-diverse
traffic collapses to one store entry per (source, compile-relevant
bindings, options) rather than one per shape.

Which bindings a compilation can depend on -- symbolic declaration extents
and undeclared loop bounds -- is a syntactic property of the source, so a
source is classified where its digest is first met
(:func:`~repro.symbolic.classify.classify_bindings`; a text source is
parsed there, once, and the parsed program is what a cold compile hands to
the pipeline).  Both keys are pure functions of that classification: a
request's key is the same before and after its first compile, in this
process and in any other, and runtime-only bindings -- loop bounds of
declared scalars -- never force a recompile.  A source that does not parse
has no key: its ``ParseError`` is raised at first contact, before any tier
is consulted or counted.  A hit whose runtime-only bindings differ from the
cached artifact's is served as a cheap wrapper with the caller's bindings
(the expensive products are shared), so the ``compile_program`` contract --
bindings given at compile time reach the executor's fallback -- holds.  A
warm compile does *zero* parse or construction work -- the cached artifact
is returned as-is, which the session's ``passes_run`` counter (it only
advances on misses) and the artifact's
:class:`~repro.compiler.pipeline.PipelineTrace` make verifiable.

``session.run(...)`` additionally wires the simulated machine and executor,
so the whole quickstart is three lines::

    session = CompilerSession(processors=4)
    result = session.run(SOURCE, bindings={"n": 64}, conditions={"c1": True})
    print(result.stats.snapshot())

Thread safety
-------------

Sessions are safe to share across threads.  A lock guards the cache and
its statistics, but is *never* held across a parse or a pipeline run: a
miss compiles outside the lock, so concurrent compiles of distinct sources
proceed in parallel.  Two threads missing the *same* key may both run the
pipeline (last insert wins -- artifacts are interchangeable by
construction); callers who want exactly-one-compile semantics should go
through :class:`~repro.service.CompileService`, whose single-flight table
collapses concurrent identical misses onto one pipeline run.  Artifacts
are frozen (:meth:`CompiledProgram.freeze`) before they enter the cache,
so every thread sees an immutable object; cache hits with different
runtime-only bindings are served as fresh unfrozen wrappers sharing the
frozen artifact's expensive products.

The key logic is public so cache front-ends can shard on it:
:func:`source_digest` gives the content digest (the sharding key used by
:class:`~repro.service.SessionPool`) and :meth:`CompilerSession.cache_key`
the full artifact key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from collections import OrderedDict
from os import PathLike
from typing import TYPE_CHECKING

from repro.compiler.artifacts import CompiledProgram, CompilerOptions
from repro.compiler.pipeline import PassManager
from repro.lang.ast_nodes import Program, Subroutine
from repro.lang.parser import parse_program
from repro.lang.printer import print_program, print_subroutine
from repro.mapping.processors import ProcessorArrangement
from repro.obs.catalog import REGISTRY as _OBS
from repro.obs.trace import TRACER as _TRACER
from repro.symbolic.classify import BindingClassification, classify_bindings

if TYPE_CHECKING:
    from repro.compiler.template import SymbolicTemplate
    from repro.runtime.executor import ExecutionResult
    from repro.spmd.machine import Machine
    from repro.store import ArtifactStore

# Registry mirrors of the per-session counters: each session keeps its
# own ints (per-instance stats stay exact) and folds every increment
# into the process-wide repro.session.* aggregates.
_M_HITS = _OBS.counter("repro.session.hits")
_M_MISSES = _OBS.counter("repro.session.misses")
_M_EVICTIONS = _OBS.counter("repro.session.evictions")
_M_STORE_HITS = _OBS.counter("repro.session.store_hits")
_M_STORE_WRITES = _OBS.counter("repro.session.store_writes")
_M_INSTANTIATIONS = _OBS.counter("repro.session.instantiations")

#: Cache key: (source digest, sorted bindings, processors, pass names,
#: cost model, schedule policy).  The cost model is compile-relevant: the
#: motion pass makes different code-motion decisions under different machine
#: parameters, so sessions must never serve an artifact compiled for another
#: machine model.  The schedule policy likewise: two policies run
#: different communication plans (and guard motion differently), so their
#: artifacts must not be shared.
SessionKey = tuple[
    str, tuple[tuple[str, int], ...], object, tuple[str, ...], object, object
]


def source_digest(source: str | Program | Subroutine) -> str:
    """A stable content digest, computed without parsing.

    This is the sharding key of the service layer: requests for the same
    source always land on the same :class:`~repro.service.SessionPool`
    shard, so a shard sees every version of "its" sources.
    """
    if isinstance(source, str):
        text = source
    elif isinstance(source, Subroutine):
        text = print_subroutine(source)
    elif isinstance(source, Program):
        text = print_program(source)
    else:
        raise TypeError(f"cannot compile source of type {type(source)!r}")
    return hashlib.sha256(text.encode()).hexdigest()


def check_backend(backend: str) -> None:
    """``ValueError`` unless ``backend`` names an execution backend.

    The one validation behind :meth:`CompilerSession.run` and service
    requests, made before any compile work is spent on the request.
    """
    if backend not in ("sim", "mp"):
        raise ValueError(f"unknown backend {backend!r}; known: 'sim', 'mp'")


def with_bindings(
    compiled: CompiledProgram, bindings: dict[str, int] | None
) -> CompiledProgram:
    """The artifact as if compiled with ``bindings``.

    A cache hit may have different runtime-only bindings baked into its
    resolved subroutines (the executor falls back to them for loop bounds),
    so serving it verbatim would silently replay the *first* caller's
    values.  The expensive products (construction, generated code) are
    shared; only the subroutine wrappers are re-created.  Public because
    every front-end that shares artifacts across callers needs it -- the
    service layer applies it to single-flight followers, whose bindings
    the leader's artifact does not carry.
    """
    bindings = dict(bindings or {})
    if all(cs.sub.bindings == bindings for cs in compiled.subroutines.values()):
        return compiled
    resolved_subs = {}
    subs = {}
    for name, cs in compiled.subroutines.items():
        new_sub = dataclasses.replace(cs.sub, bindings=dict(bindings))
        resolved_subs[name] = new_sub
        subs[name] = dataclasses.replace(cs, sub=new_sub)
    program = dataclasses.replace(compiled.program, subroutines=resolved_subs)
    return dataclasses.replace(compiled, program=program, subroutines=subs)


class CompilerSession:
    """A long-lived compile server front: artifact cache plus run helper.

    ``processors`` and ``options`` given here are session defaults; each
    ``compile``/``run`` call may override them.  ``max_entries`` bounds the
    artifact cache (least-recently-used eviction).  ``store`` attaches a
    persistent :class:`~repro.store.ArtifactStore` as the tier behind the
    memory cache (a path string builds one with defaults); the store may
    be shared with any number of other sessions, pools and processes.
    """

    def __init__(
        self,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
        max_entries: int = 128,
        store: "ArtifactStore | str | None" = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if isinstance(processors, int):
            processors = ProcessorArrangement("P", (processors,))
        self.processors = processors
        self.options = options or CompilerOptions()
        self.max_entries = max_entries
        if isinstance(store, (str, PathLike)):
            from repro.store import ArtifactStore

            store = ArtifactStore(store)
        self.store = store
        self._cache: OrderedDict[SessionKey, CompiledProgram] = OrderedDict()
        # shape-erased symbolic templates, keyed like artifacts but with
        # shape bindings and the processor arrangement dropped; one
        # template serves every (n, P) of its source
        self._templates: "OrderedDict[tuple, SymbolicTemplate]" = OrderedDict()
        # source digest -> (classification, parsed program), computed where
        # the digest is first met; LRU-bounded like the cache -- dropping
        # an entry is harmless, it is recomputed from the source
        self._sources: OrderedDict[
            str, tuple[BindingClassification, Program]
        ] = OrderedDict()
        # guards _cache, _templates, _sources and the counters; never held
        # while a source is parsed or a pipeline runs, so distinct-source
        # compiles overlap freely
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.passes_run = 0  # total pipeline passes executed (misses only)
        # disk-tier traffic (zero unless a store is attached): memory
        # misses answered from the store, and artifacts written back
        self.store_hits = 0
        self.store_writes = 0
        # misses served by instantiating a symbolic template (no pipeline
        # front end ran; only the cheap structural tail)
        self.instantiations = 0

    # -- cache -------------------------------------------------------------

    def _classify(
        self, source: str | Program | Subroutine, digest: str
    ) -> tuple[BindingClassification, Program]:
        """The source's binding classification and program, computed once
        per digest: first contact parses a text source (outside the lock,
        under a ``session.classify`` span) and raises its ``ParseError``."""
        with self._lock:
            known = self._sources.get(digest)
            if known is not None:
                self._sources.move_to_end(digest)
                return known
        with _TRACER.span("session.classify"):
            if isinstance(source, str):
                program = parse_program(source)
            elif isinstance(source, Subroutine):
                program = Program((source,))
            else:
                program = source
            known = (classify_bindings(program), program)
        with self._lock:
            self._sources[digest] = known
            while len(self._sources) > self.max_entries:
                self._sources.popitem(last=False)
        return known

    @staticmethod
    def _key(
        digest: str,
        names: BindingClassification,
        bindings: dict[str, int] | None,
        processors: ProcessorArrangement | int | None,
        options: CompilerOptions,
    ) -> SessionKey:
        """The artifact key: runtime-only bindings (everything outside the
        classification) are excluded."""
        if isinstance(processors, int):
            proc_key: object = ("P", (processors,))
        elif isinstance(processors, ProcessorArrangement):
            proc_key = (processors.name, processors.shape)
        else:
            proc_key = None
        relevant = names.all_compile_time
        return (
            digest,
            tuple(sorted((k, v) for k, v in (bindings or {}).items() if k in relevant)),
            proc_key,
            options.pass_names,
            options.cost,
            options.schedule,
        )

    def cache_key(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
        *,
        digest: str | None = None,
    ) -> SessionKey:
        """The full artifact cache key a compile of these inputs would use.

        Public so cache front-ends (the service layer's single-flight
        table) can deduplicate on artifact identity.  A pure function of
        the inputs: the same before and after the source's first compile.
        ``digest`` lets a front-end that already hashed the source skip
        the rehash.
        """
        options = options or self.options
        if processors is None:
            processors = self.processors
        if digest is None:
            digest = source_digest(source)
        names, _ = self._classify(source, digest)
        return self._key(digest, names, bindings, processors, options)

    def lookup(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
        *,
        digest: str | None = None,
    ) -> CompiledProgram | None:
        """A pure cache peek: the artifact if cached, else ``None``.

        A hit counts (and refreshes LRU recency) exactly like a
        :meth:`compile` hit; a peek miss counts nothing -- the caller may
        go on to :meth:`compile` (which records the miss) or not.  This
        is the fast path the service layer takes before entering its
        single-flight table, so warm hits never touch a global lock.
        """
        options = options or self.options
        if processors is None:
            processors = self.processors
        if digest is None:
            digest = source_digest(source)
        names, _ = self._classify(source, digest)
        key = self._key(digest, names, bindings, processors, options)
        with self._lock:
            cached = self._cache.get(key)
            if cached is None:
                return None
            self._cache.move_to_end(key)
            self.hits += 1
        _M_HITS.inc()
        return with_bindings(cached, bindings)

    def compile(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
    ) -> CompiledProgram:
        """Compile through the cache; a warm hit does no compilation work."""
        return self.compile_traced(source, bindings, processors, options)[0]

    @staticmethod
    def _template_key(
        digest: str,
        names: BindingClassification,
        bindings: dict[str, int] | None,
        options: CompilerOptions,
    ) -> tuple | None:
        """The shape-erased key a symbolic template lives under.

        Shape-symbolic binding values and the processor arrangement are
        dropped -- one template serves every ``(n, P)`` -- while the
        compile-relevant binding values stay (they are baked into the
        template).  ``None`` when nothing is shape-symbolic: no template
        can exist for the source.
        """
        if not names.shape_symbolic:
            return None
        items = tuple(
            sorted(
                (k, v)
                for k, v in (bindings or {}).items()
                if k in names.compile_relevant
            )
        )
        return (
            digest,
            items,
            None,
            options.pass_names,
            options.cost,
            options.schedule,
            "template",
        )

    def _insert(self, key: SessionKey, compiled: CompiledProgram) -> None:
        """Insert one frozen artifact and apply the LRU bound (under lock)."""
        self._cache[key] = compiled
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            self.evictions += 1
            _M_EVICTIONS.inc()

    def _insert_template(self, tkey: tuple, template: "SymbolicTemplate") -> None:
        """Insert one frozen template and apply the LRU bound (under lock)."""
        self._templates[tkey] = template
        self._templates.move_to_end(tkey)
        while len(self._templates) > self.max_entries:
            self._templates.popitem(last=False)
            self.evictions += 1
            _M_EVICTIONS.inc()

    def compile_traced(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
        *,
        digest: str | None = None,
    ) -> tuple[CompiledProgram, str]:
        """Compile through every cache tier, reporting the serving tier.

        Returns ``(artifact, tier)`` with ``tier`` one of ``"memory"``
        (in-process cache hit), ``"instantiated"`` (a cached symbolic
        template was instantiated at this request's ``(bindings, P)`` --
        only the cheap structural pipeline tail ran), ``"disk"`` (served
        from the attached :class:`~repro.store.ArtifactStore` -- no
        pipeline ran; the artifact is re-inserted into the memory cache)
        or ``"compiled"`` (a pipeline ran; with a store attached the
        artifact -- for symbolized sources, the shape-erased template
        instead -- is written back for other processes).  The service
        layer surfaces the tier as ``ServiceResult.cache_source``.

        Each call opens a ``session.compile`` span (tier recorded on
        exit) and lands in the ``repro.session.compile_seconds``
        histogram under its tier label.
        """
        t0 = time.perf_counter()
        with _TRACER.span("session.compile") as span:
            compiled, tier = self._compile_traced(
                source, bindings, processors, options, digest=digest
            )
            span.set_attr("tier", tier)
        _OBS.histogram("repro.session.compile_seconds", {"tier": tier}).observe(
            time.perf_counter() - t0
        )
        return compiled, tier

    def _compile_traced(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
        *,
        digest: str | None = None,
    ) -> tuple[CompiledProgram, str]:
        options = options or self.options
        if processors is None:
            processors = self.processors
        if digest is None:
            digest = source_digest(source)
        names, program = self._classify(source, digest)
        key = self._key(digest, names, bindings, processors, options)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.hits += 1
            else:
                # counted before the pipeline runs, so a compile that
                # raises still shows up in the shard's miss statistics
                self.misses += 1
        (_M_HITS if cached is not None else _M_MISSES).inc()
        if cached is not None:
            # outside the lock: wrapper construction is pure
            return with_bindings(cached, bindings), "memory"
        tkey = (
            self._template_key(digest, names, bindings, options)
            if options.symbolize
            else None
        )
        if tkey is not None:
            served = self._instantiate(key, tkey, bindings, processors)
            if served is not None:
                return served, "instantiated"
        if self.store is not None:
            # disk tier: a verified load does zero pipeline work; the
            # loaded artifact arrives frozen and joins the memory cache
            loaded = self.store.load(key)
            if loaded is not None:
                _M_STORE_HITS.inc()
                with self._lock:
                    self.store_hits += 1
                    self._insert(key, loaded)
                return with_bindings(loaded, bindings), "disk"
        # the pipeline runs unlocked, on the program first contact parsed;
        # concurrent misses for the same key both compile (benign:
        # artifacts are interchangeable, last insert wins) -- the service
        # layer's single-flight prevents the repeat
        compiled = PassManager.pipeline_for(options).compile(
            program, bindings=bindings, processors=processors, options=options
        )
        compiled.freeze()
        # a symbolized source with shape-symbolic bindings also yields the
        # shape-erased template, from the pass-recorded post-motion AST
        template = None
        if tkey is not None:
            from repro.compiler.template import build_template

            sym = compiled.report.symbolic
            template = build_template(
                sym.program, options, sym.classification, bindings
            )
            template.freeze()
        with self._lock:
            if compiled.trace is not None:
                self.passes_run += len(compiled.trace.records)
            self._insert(key, compiled)
            if template is not None:
                self._insert_template(tkey, template)
        if self.store is not None:
            # write-back outside the lock: serialization is pure and the
            # store's own locking covers concurrent writers.  A symbolized
            # source writes its *template* only: one shape-erased disk
            # entry serves every (n, P), which is the whole point
            if template is not None:
                wrote = self.store.store(tkey, template)
            else:
                wrote = self.store.store(key, compiled)
            if wrote:
                _M_STORE_WRITES.inc()
                with self._lock:
                    self.store_writes += 1
        return compiled, "compiled"

    def _instantiate(
        self,
        key: SessionKey,
        tkey: tuple,
        bindings: dict[str, int] | None,
        processors: ProcessorArrangement | int | None,
    ) -> CompiledProgram | None:
        """Serve one request by instantiating the template at ``tkey``, if any.

        Checks the in-memory template cache, then the store.  ``None`` --
        no template known for this source/options, or the request lacks a
        shape binding -- sends the caller on to the remaining tiers.  The
        instantiated concrete artifact joins the ordinary memory cache
        (under ``key``), so repeats of the same ``(n, P)`` are plain
        ``"memory"`` hits.

        A template loaded from the store is verified as the artifact it
        serves: the first artifact instantiated from it must pass
        :func:`~repro.analysis.verify.verify_artifact` before the template
        joins the memory tier.  If that instantiation raises or fails, the
        entry is evicted through the store (``semantic_evicted``), the
        template is dropped and the request falls through to a clean
        compile, which rewrites the entry.
        """
        from repro.analysis.verify import verify_artifact
        from repro.compiler.template import SymbolicTemplate

        with self._lock:
            template = self._templates.get(tkey)
            if template is not None:
                self._templates.move_to_end(tkey)
        unserved = False
        if template is None and self.store is not None:
            loaded = self.store.load(tkey)
            if isinstance(loaded, SymbolicTemplate):
                template = loaded
                unserved = True
        if template is None or template.missing_shapes(bindings):
            return None
        with _TRACER.span("template.instantiate"):
            if unserved:
                try:
                    compiled = template.instantiate(bindings, processors)
                    sound = not verify_artifact(compiled)
                except Exception:  # a mangled AST can raise anything; degrade
                    sound = False
                if not sound:
                    self.store.reject(tkey)
                    return None
            else:
                compiled = template.instantiate(bindings, processors)
        compiled.freeze()
        _M_INSTANTIATIONS.inc()
        if unserved:
            _M_STORE_HITS.inc()
        with self._lock:
            self.instantiations += 1
            if unserved:
                self.store_hits += 1
                self._insert_template(tkey, template)
            self._insert(key, compiled)
        return with_bindings(compiled, bindings)

    def cache_clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self._templates.clear()
            self._sources.clear()

    @property
    def cache_size(self) -> int:
        with self._lock:
            return len(self._cache)

    @property
    def stats(self) -> dict[str, object]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._cache),
                "passes_run": self.passes_run,
                "hit_rate": (self.hits / total) if total else 0.0,
                # disk tier: memory misses answered by the attached store
                # (subset of "misses" -- zero pipeline passes ran for
                # them) and artifacts written back for other processes
                "store_hits": self.store_hits,
                "store_writes": self.store_writes,
                # misses served by instantiating a symbolic template
                # (subset of "misses"; only the structural tail ran)
                "instantiations": self.instantiations,
                "templates": len(self._templates),
            }

    # -- execution ---------------------------------------------------------

    def run(
        self,
        source: str | Program | Subroutine,
        entry: str | None = None,
        *,
        bindings: dict[str, int] | None = None,
        conditions: dict | None = None,
        inputs: dict | None = None,
        kernels: dict | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
        machine: "Machine | None" = None,
        check_invariants: bool = False,
        dtype=None,
        backend: str = "sim",
    ) -> "ExecutionResult":
        """Compile (cached) and execute in one call.

        ``bindings`` serve double duty, as compile-time extents and runtime
        loop bounds, matching the established harness convention.  The
        returned :class:`ExecutionResult` carries the machine (and its
        traffic stats) used for the run.  ``backend="mp"`` executes across
        real forked worker ranks (:mod:`repro.runtime.mpbackend`) instead
        of the simulator; the result is bit-identical, plus a measured
        ``result.mp`` report.
        """
        import numpy as np

        from repro.runtime.executor import ExecutionEnv, execute

        check_backend(backend)
        compiled = self.compile(
            source, bindings=bindings, processors=processors, options=options
        )
        env = ExecutionEnv(
            conditions=conditions or {},
            bindings=bindings or {},
            kernels=kernels or {},
            inputs=inputs or {},
            check_invariants=check_invariants,
            dtype=np.float64 if dtype is None else dtype,
        )
        if backend == "mp":
            from repro.runtime.mpbackend import execute_mp

            return execute_mp(compiled, entry=entry, machine=machine, env=env)
        return execute(compiled, entry=entry, machine=machine, env=env)
