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
``"instantiated"``) instead of compiling from scratch.  The compile that
cuts a template serves its own request with the artifact that template
patches at the request's shape, so both tiers hand a request the same
artifact.  On disk the template is the
*only* entry written for such a source -- shape-diverse traffic collapses
to one store entry per (source, compile-relevant bindings, options) rather
than one per shape -- and the only one looked up.  The store checks a
template where it loads it; the session runs no verifier and trusts a
loaded template as it trusts a compile.

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
cached artifact's is served as a copy of the artifact with the caller's
bindings in its one ``bindings`` field (everything else shared), so the run
and the traffic prediction read the caller's loop bounds.  A
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

Sessions are safe to share across threads.  A lock guards the counters
and the table of keys being served, but is *never* held across a parse or
a pipeline run, so concurrent compiles of distinct sources proceed in
parallel.  A missed key is served once: the first caller to miss it
registers a *flight* and serves it (instantiate -> disk -> compile); every
caller that misses the same key meanwhile waits on that flight and gets
the served artifact with its own bindings, with the first
caller's tier -- or, if serving failed, its own copy of the error.  A
waiter is neither a hit nor a miss.  Artifacts are frozen
(:meth:`CompiledProgram.freeze`) before they enter the cache, so every
thread sees an immutable object; cache hits with different runtime-only
bindings are served as fresh unfrozen wrappers sharing everything of the
frozen artifact but its ``bindings``.

:meth:`CompilerSession.cache_key` gives the full artifact key, under which
an attached store keeps the artifact.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import threading
import time
from os import PathLike
from typing import TYPE_CHECKING

from repro.compiler.artifacts import CompiledProgram, CompilerOptions
from repro.compiler.pipeline import Pipeline, as_program
from repro.lang.ast_nodes import Program, Subroutine
from repro.lang.printer import print_program, print_subroutine
from repro.mapping.processors import ProcessorArrangement
from repro.obs.catalog import REGISTRY as _OBS
from repro.obs.trace import TRACER as _TRACER
from repro.obs.trace import Span
from repro.symbolic.classify import BindingClassification, classify_bindings
from repro.util.memo import Memo

if TYPE_CHECKING:
    from repro.compiler.template import SymbolicTemplate
    from repro.runtime.executor import ExecutionResult
    from repro.spmd.machine import Machine
    from repro.store import ArtifactStore


def _series(counts: dict[str, int], cache: Memo, templates: Memo):
    """A session's counts as its ``repro.session.*`` families, read from its
    parts and never from the session, so a collected session retires them."""
    return lambda: {
        "repro.session.hits": cache.hits,
        "repro.session.evictions": cache.evictions + templates.evictions,
        **{f"repro.session.{event}": n for event, n in counts.items()},
    }


def _compile_seconds(tier: str, t0: float) -> None:
    """One ``repro.session.compile_seconds`` sample: a call served by ``tier``."""
    _OBS.histogram("repro.session.compile_seconds", {"tier": tier}).observe(
        time.perf_counter() - t0
    )


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

    The first component of every cache key: a source is classified once
    per digest.
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

    A cache hit may hold another caller's runtime-only bindings (the
    loop bounds the executor and the traffic prediction read), so serving
    it verbatim would silently replay the *first* caller's values.  The
    wrapper shares everything else with the cached artifact.
    """
    bindings = dict(bindings or {})
    if compiled.bindings == bindings:
        return compiled
    return dataclasses.replace(compiled, bindings=bindings)


@dataclasses.dataclass
class _Flight:
    """One missed key being served; callers missing it meanwhile wait here."""

    # the serving caller's active span when it missed, which waiters link to
    server: Span | None
    done: threading.Event = dataclasses.field(default_factory=threading.Event)
    compiled: CompiledProgram | None = None  # frozen, as the cache holds it
    tier: str = "compiled"
    error: BaseException | None = None


def _copy_exception(exc: BaseException) -> BaseException:
    """A per-raiser copy of a shared exception (fresh traceback slot).

    Every waiter of a failed flight re-raises the serving caller's error;
    raising the *same* instance from several threads would interleave their
    tracebacks on one object.  Exotic exceptions that refuse to copy are
    raised as-is (correctness over cosmetics)."""
    try:
        dup = copy.copy(exc)
        dup.__traceback__ = None
        dup.__cause__ = exc
        return dup
    except Exception:  # pragma: no cover - copy-resistant exception type
        return exc


class CompilerSession:
    """A long-lived compile server front: artifact cache plus run helper.

    ``processors`` and ``options`` given here are session defaults; each
    ``compile``/``run`` call may override them.  ``max_entries`` bounds the
    artifact cache (least-recently-used eviction).  ``store`` attaches a
    persistent :class:`~repro.store.ArtifactStore` as the tier behind the
    memory cache (a path string builds one with defaults); the store may
    be shared with any number of other sessions and processes.
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
        # its hits are the session's, its evictions and the templates' too
        self._cache: Memo[SessionKey, CompiledProgram] = Memo(max_entries)
        # shape-erased symbolic templates, keyed like artifacts but with
        # shape bindings and the processor arrangement dropped; one
        # template serves every (n, P) of its source
        self._templates: "Memo[tuple, SymbolicTemplate]" = Memo(max_entries)
        # source digest -> (classification, parsed program); a dropped
        # entry is recomputed from the source
        self._sources: Memo[str, tuple[BindingClassification, Program]] = Memo(max_entries)
        # guards the counters, which count requests by serving tier, and the
        # flights: the missed keys being served, which later misses wait on
        self._lock = threading.Lock()
        self._flights: dict[SessionKey, _Flight] = {}
        self.passes_run = 0  # total pipeline passes executed (misses only)
        # requests the memory tier missed, the ones of them the attached store
        # or a symbolic template served, and artifacts written to the store
        self._counts = dict.fromkeys(("misses", "store_hits", "instantiations", "store_writes"), 0)
        _OBS.read(_series(self._counts, self._cache, self._templates), owner=self)

    def _count(self, *events: str) -> None:
        with self._lock:
            for event in events:
                self._counts[event] += 1

    @property
    def hits(self) -> int:
        """Requests the memory tier served."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Requests the memory tier missed and this caller served (a call
        that waited on another's flight is none)."""
        return self._counts["misses"]

    # -- cache -------------------------------------------------------------

    def _resolve(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None,
        processors: ProcessorArrangement | int | None,
        options: CompilerOptions | None,
    ) -> tuple[
        SessionKey, CompilerOptions, ProcessorArrangement | int | None, BindingClassification, Program
    ]:
        """Every keyed call's prologue: the defaults filled in, the source
        digested and classified (first contact parses it under a
        ``session.classify`` span) and the artifact key, returned first."""
        options = options or self.options
        if processors is None:
            processors = self.processors
        digest = source_digest(source)

        def first_contact() -> tuple[BindingClassification, Program]:
            with _TRACER.span("session.classify"):
                program = as_program(source)
                return classify_bindings(program), program

        names, program = self._sources.obtain(digest, first_contact)
        key = self._key(digest, names, bindings, processors, options)
        return key, options, processors, names, program

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
    ) -> SessionKey:
        """The full artifact cache key a compile of these inputs would use,
        and the key an attached store keeps the artifact under.  A pure
        function of the inputs: the same before and after the source's
        first compile.
        """
        return self._resolve(source, bindings, processors, options)[0]

    def compile(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
    ) -> CompiledProgram:
        """Compile through the cache; a warm hit does no compilation work."""
        return self.obtain(source, bindings, processors, options)[0]

    @staticmethod
    def _template_key(key: SessionKey, names: BindingClassification) -> tuple | None:
        """The shape-erased key a symbolic template lives under: the
        artifact ``key`` with its shape-symbolic binding values and its
        processor arrangement dropped -- one template serves every ``(n,
        P)`` -- and the compile-relevant values kept (they are baked into
        the template).  ``None`` when nothing is shape-symbolic: no
        template can exist for the source.
        """
        if not names.shape_symbolic:
            return None
        digest, items, _, *rest = key
        kept = tuple((k, v) for k, v in items if k in names.compile_relevant)
        return (digest, kept, None, *rest, "template")

    def compile_traced(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
    ) -> tuple[CompiledProgram, str]:
        """Compile through every cache tier, reporting the serving tier.

        Returns ``(artifact, tier)`` with ``tier`` one of ``"memory"``
        (in-process cache hit), ``"instantiated"`` (a cached symbolic
        template was instantiated at this request's ``(bindings, P)`` --
        its structure patched, then the analyses), ``"disk"`` (served from
        the attached :class:`~repro.store.ArtifactStore` -- no pipeline
        ran; the artifact is re-inserted into the memory cache) or
        ``"compiled"`` (a pipeline ran -- for a source with a template
        key, one that also cut the template, whose patch at this shape is
        the artifact served, so the ``"instantiated"`` tier serves the
        same one; with a store attached the artifact, or that template instead, is written
        back for other processes).  The service
        layer surfaces the tier as ``ServiceResult.cache_source``.
        """
        compiled, tier, _ = self.obtain(source, bindings, processors, options)
        return compiled, tier

    def obtain(
        self,
        source: str | Program | Subroutine,
        bindings: dict[str, int] | None = None,
        processors: ProcessorArrangement | int | None = None,
        options: CompilerOptions | None = None,
    ) -> tuple[CompiledProgram, str, bool]:
        """Serve one call: ``(artifact, tier, waited)``.

        ``tier`` is as in :meth:`compile_traced`.  ``waited`` says this call
        missed while another was serving the same key, and got that call's
        artifact, with these bindings, and its tier (see *Thread
        safety* in the module docstring).

        A memory hit and a served miss each open one ``session.compile``
        span (tier recorded on exit) and land one
        ``repro.session.compile_seconds`` sample under their tier.  A
        waiter opens no span: it links its active span to the one the
        serving call was in when it missed (``kind="dedup-leader"``).
        """
        t0 = time.perf_counter()
        key, options, processors, names, program = self._resolve(
            source, bindings, processors, options
        )
        cached = self._cache.get(key)
        if cached is None:
            with self._lock:
                flight = self._flights.get(key)
                waits = flight is not None
                # re-read: a flight that ended since the read above cached its artifact
                cached = None if waits else self._cache.get(key)
                if cached is None and not waits:
                    flight = self._flights[key] = _Flight(_TRACER.current_span())
                    # counted before serving, so a compile that raises still
                    # shows up in the session's miss statistics
                    self._counts["misses"] += 1
            if waits:
                flight.done.wait()
                if flight.error is not None:
                    raise _copy_exception(flight.error)
                cur, server = _TRACER.current_span(), flight.server
                if cur is not None and server is not None:
                    cur.link(server.trace_id, server.span_id, kind="dedup-leader")
                return with_bindings(flight.compiled, bindings), flight.tier, True
        with _TRACER.span("session.compile") as span:
            if cached is not None:
                compiled, tier = cached, "memory"
            else:
                try:
                    compiled, tier = self._serve_miss(
                        key, options, processors, names, program, bindings
                    )
                    flight.compiled, flight.tier = compiled, tier
                except BaseException as exc:
                    flight.error = exc
                    raise
                finally:
                    with self._lock:
                        del self._flights[key]
                    flight.done.set()
            span.set_attr("tier", tier)
            served = with_bindings(compiled, bindings)
        _compile_seconds(tier, t0)
        return served, tier, False

    def _serve_miss(
        self,
        key: SessionKey,
        options: CompilerOptions,
        processors: ProcessorArrangement | int | None,
        names: BindingClassification,
        program: Program,
        bindings: dict[str, int] | None,
    ) -> tuple[CompiledProgram, str]:
        """Serve a missed key from the first tier that has it -- a symbolic
        template, the attached store, the pipeline -- as ``(artifact,
        tier)``; the artifact is frozen and cached under ``key``."""
        tkey = self._template_key(key, names) if options.symbolize else None
        if tkey is not None:
            served = self._instantiate(key, tkey, bindings, processors)
            if served is not None:
                return served, "instantiated"
        elif self.store is not None:
            # disk tier: a verified load does zero pipeline work; the
            # loaded artifact arrives frozen and joins the memory cache.  A
            # source with a template key never has an entry here
            loaded = self.store.load(key)
            if loaded is not None:
                self._count("store_hits")
                self._cache.put(key, loaded)
                return loaded, "disk"
        # the pipeline runs unlocked, on the program first contact parsed,
        # while this call's flight holds other misses of the key waiting; a
        # symbolized compile also returns the template it cut
        compiled, template = Pipeline(options).serve(program, bindings, processors)
        compiled.freeze()
        with self._lock:
            self.passes_run += len(compiled.trace.records)
        self._cache.put(key, compiled)
        if tkey is not None:
            assert template is not None
            template.freeze()
            self._templates.put(tkey, template)
        if self.store is not None:
            # write-back outside the lock: serialization is pure and the
            # store's own locking covers concurrent writers.  A source with
            # a template key writes its *template* only: one shape-erased
            # disk entry serves every (n, P), which is the whole point
            if tkey is not None:
                wrote = self.store.store(tkey, template)
            else:
                wrote = self.store.store(key, compiled)
            if wrote:
                self._count("store_writes")
        return compiled, "compiled"

    def _instantiate(
        self,
        key: SessionKey,
        tkey: tuple,
        bindings: dict[str, int] | None,
        processors: ProcessorArrangement | int | None,
    ) -> CompiledProgram | None:
        """Serve one request by instantiating the template at ``tkey``
        (from memory, else from the store, whose load checked it; it joins
        the memory tier first), or ``None`` if there is none.  What an
        instantiation raises -- a shape outside a fixed ``block(k)``, a
        missing shape binding -- is the error a compile raises, and the
        request's answer.  The artifact joins the memory cache under
        ``key``, so a repeat of the same ``(n, P)`` is a ``"memory"`` hit.
        """
        from repro.compiler.template import SymbolicTemplate

        template = self._templates.get(tkey)
        loaded = False
        if template is None and self.store is not None:
            found = self.store.load(tkey)
            if isinstance(found, SymbolicTemplate):
                template, loaded = self._templates.put(tkey, found), True
        if template is None:
            return None
        with _TRACER.span("template.instantiate"):
            compiled = template.instantiate(bindings, processors)
        compiled.freeze()
        self._count("instantiations", *(("store_hits",) if loaded else ()))
        self._cache.put(key, compiled)
        return compiled

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def stats(self) -> dict[str, object]:
        """The session's counters: ``hits``/``misses`` count requests by
        serving tier, and ``evictions`` the LRU evictions from the artifact
        and template tables."""
        with self._lock:
            # misses; of those, store hits (zero pipeline passes ran) and
            # instantiations (the front did not run); write-backs
            counts = dict(self._counts, passes_run=self.passes_run)
        hits, total = self.hits, self.hits + counts["misses"]
        return {
            "hits": hits,
            "evictions": self._cache.evictions + self._templates.evictions,
            "entries": len(self._cache),
            "hit_rate": (hits / total) if total else 0.0,
            "templates": len(self._templates),
            **counts,
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
