"""The traced run: harness-side spans and side probes, one number per layer.

Separate from the end-to-end passes and shorter.  Three parts:

* **Stepwise replay.**  Each request kind is replayed as
  ``CompilerSession.compile_traced`` then ``execute`` (or a started
  ``MPBackend``) under harness spans, with the kernels wrapped and the
  executor's references to the spmd copy functions wrapped too
  (:data:`PATCHES`), so every remapping copy a run performs is a child span
  and is logged with its mappings.  Nothing under ``src/`` changes; the
  wrappers live for the duration of the replay only.
* **Side probes.**  No span can be opened *inside* a copy yet, so each
  distinct copy the replay logged is rebuilt in isolation and timed layer
  by layer -- plan build, index arithmetic, data copy, machine accounting --
  and the unit costs are multiplied by how often the run really performed
  the copy each way (live, replayed from a prepared plan, prepared).
* **Service rounds.**  Untraced rounds through the service, interleaved and
  paired with rounds under ``TRACER`` and under ``metrics_disabled()``.

Every probe resolves its entry point when it runs.  One that is gone, or
whose signature changed, yields ``None`` for its metrics plus a line in
``notes``; it never fails the run, so later refactors can delete
``execute_comm_schedule`` or ``prepare_comm_schedule`` freely.

All ``_ms`` metrics are *per round* (summed over the cycle's requests,
median over traced rounds), so they compare directly with
``service.round_p50_ms``.
"""

from __future__ import annotations

import fnmatch
import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
from spans import SpanRecorder, percentile, round_floor, self_times
from workloads import NPROCS, Kind, Workload, artifact_bytes, request_failed

from repro import (
    TRACER,
    ArtifactStore,
    CompilerSession,
    DistributedArray,
    ExecutionEnv,
    Machine,
    execute,
)

TRACED_ROUNDS = 20
PROBE_REPEATS = 3

EXECUTOR = "repro.runtime.executor"
MP_EXECUTOR = "repro.runtime.mpbackend:MPExecutor"


def of_arrays(source, target, policy):
    return source.mapping, target.mapping, source.dtype.itemsize, policy, source.dtype


def of_layouts(src_layout, dst_layout, itemsize, policy):
    # the prepare functions see layouts and an element size, not arrays; the
    # executor prepares a copy right after performing it live, so the log
    # already knows the copy's dtype
    return src_layout.mapping, dst_layout.mapping, itemsize, policy, None


#: (owner, attribute, span name, way, positional args -> the copy): what the
#: stepwise replay wraps.  The simulator's copies go through the public spmd
#: functions the executor module imported by name; the mp backend overrides
#: the executor's two movement hooks instead, so those are wrapped for it.
PATCHES = (
    (EXECUTOR, "execute_comm_schedule", "move.live", "live",
     lambda a: of_arrays(a[1], a[2], a[0].policy)),
    (EXECUTOR, "execute_schedule", "move.live", "live",
     lambda a: of_arrays(a[1], a[2], None)),
    (EXECUTOR, "execute_prepared_schedule", "move.replay", "replay",
     lambda a: of_arrays(a[1], a[2], a[0].plan.policy)),
    ("repro.runtime.fusion:PreparedRedist", "execute", "move.replay", "replay",
     lambda a: of_arrays(a[1], a[2], None)),
    (EXECUTOR, "prepare_comm_schedule", "move.prepare", "prepare",
     lambda a: of_layouts(a[1], a[2], a[4], a[0].policy)),
    (EXECUTOR, "prepare_redist", "move.prepare", "prepare",
     lambda a: of_layouts(a[2], a[3], a[5], None)),
    (EXECUTOR, "build_schedule", "plan.build", None, None),
    (MP_EXECUTOR, "_run_plan", "move.live", "wire",
     lambda a: of_arrays(a[2], a[3], a[1].policy)),
    (MP_EXECUTOR, "_run_unscheduled", "move.live", "wire",
     lambda a: of_arrays(a[2], a[3], None)),
)  # fmt: skip

#: which ways of performing a copy pay which layer: a live copy pays index
#: arithmetic, data copy and accounting; one replayed from a prepared plan
#: pays copy and accounting; preparing one pays its index arithmetic again;
#: one the mp backend puts on the wire pays index arithmetic and accounting
#: in the parent (the workers copy)
PAYS = {
    "index": ("live", "prepare", "wire"),
    "copy": ("live", "replay"),
    "account": ("live", "replay", "wire"),
}
LAYER_METRIC = {
    "index": "spmd.redistribution.index_ms",
    "copy": "spmd.redistribution.copy_ms",
    "account": "spmd.machine.accounting_ms",
}


class ProbeGone(Exception):
    """A probe's entry point no longer exists under the name it was given."""


def resolve(path: str):
    """``'package.module'`` or ``'package.module:attr.attr'`` -> the object."""
    module, _, attrs = path.partition(":")
    try:
        obj = importlib.import_module(module)
        for attr in filter(None, attrs.split(".")):
            obj = getattr(obj, attr)
    except (ImportError, AttributeError) as exc:
        raise ProbeGone(f"{path} is gone ({exc})") from None
    return obj


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def median_seconds(fn, repeats: int = PROBE_REPEATS) -> float:
    """Median seconds of ``repeats`` calls of a zero-argument probe."""
    return statistics.median(timed(fn)[0] for _ in range(repeats))


class TracedRun:
    """One workload's traced run; :meth:`run` fills ``values`` and ``notes``."""

    def __init__(self, workload: Workload, seconds: float, names: list[str]):
        self.w = workload
        self.seconds = seconds
        self.names = names  # every per-layer metric the contract lists
        self.attempted = self.failed = 0
        self.service_rounds = 0
        self.rec = SpanRecorder()
        self.self_ms: list[float] = []
        self.notes: list[str] = []
        self.values: dict[str, float | None] = {}
        self.requests: list[dict] = []  # one record per stepwise request
        self.store_loads = Counter()
        #: (request id, way, copy key) -> times the replay performed that copy
        #: that way: "live", "replay" (from a prepared plan), "prepare", "wire"
        self.moves = Counter()
        #: copy key -> (source mapping, target mapping, dtype); the key is the
        #: two mapping signatures, the element size and the schedule policy
        self.copies: dict[tuple, tuple] = {}
        #: copy key -> {"plan", "index", "copy", "account"} ms and "bytes"
        self.unit: dict[tuple, dict[str, float]] = {}
        self.mp = any(k.request.backend == "mp" for k in workload.kinds)

    # -- plumbing ------------------------------------------------------------

    def note(self, line: str) -> None:
        if line not in self.notes:
            self.notes.append(line)

    def guard(self, patterns: str, probe) -> None:
        """Run one probe; on any failure the metrics it owns read ``None`` and say why."""
        try:
            self.values.update(probe())
        except Exception as exc:  # the boundary that keeps the headline safe
            self.note(f"{patterns}: null -- {type(exc).__name__}: {exc}")
            for name in self.names:
                if any(fnmatch.fnmatchcase(name, p) for p in patterns.split()):
                    self.values.setdefault(name, None)

    def spanned(self, fn, span: str, way: str | None, copy_of):
        """``fn`` under a ``span``; when it is a copy, logged against the request."""

        def call(*args, **kwargs):
            if way is not None:
                try:
                    src, dst, itemsize, policy, dtype = copy_of(args)
                    key = (src.signature, dst.signature, itemsize, policy)
                    if dtype is not None:
                        self.copies.setdefault(key, (src, dst, dtype))
                    self.moves[self.rec.request, way, key] += 1
                except Exception as exc:  # a changed signature must not break the run
                    self.note(f"copy log: a {span} call was not logged -- {type(exc).__name__}")
            with self.rec.span(span):
                return fn(*args, **kwargs)

        return call

    @contextmanager
    def instrumented(self):
        """Wrap the executor's references to the copy functions (:data:`PATCHES`)."""
        undo = []
        try:
            for path, attr, span, way, copy_of in PATCHES:
                try:
                    owner = resolve(path)
                    fn = getattr(owner, attr)
                except (ProbeGone, AttributeError) as exc:
                    self.note(f"span {span}: {path} {attr} is gone ({exc})")
                    continue
                undo.append((owner, attr, fn))
                setattr(owner, attr, self.spanned(fn, span, way, copy_of))
            yield
        finally:
            for owner, attr, fn in undo:
                setattr(owner, attr, fn)

    def spanned_store(self, root) -> ArtifactStore:
        rec, loads = self.rec, self.store_loads

        class SpannedStore(ArtifactStore):
            def load(self, key):
                with rec.span("store.load"):
                    artifact = super().load(key)
                loads["hit" if artifact is not None else "miss"] += 1
                return artifact

            def store(self, key, artifact, **kwargs):
                with rec.span("store.store"):
                    return super().store(key, artifact, **kwargs)

        return SpannedStore(root)

    def wrapped_kernels(self, request) -> dict:
        """The request's kernels (and the default one) under ``kernel`` spans."""
        kernels = dict(request.kernels or {})
        try:
            default = resolve("repro.runtime.executor:default_kernel")
            kernels.setdefault("", default)
            kernels.setdefault("init", default)
        except ProbeGone:
            pass  # unlabelled computes then stay inside the run span's self time

        def wrap(fn):
            def kernel(ctx):
                with self.rec.span("kernel"):
                    fn(ctx)

            return kernel

        return {label: wrap(fn) for label, fn in kernels.items()}

    # -- stepwise replay -----------------------------------------------------

    def new_session(self) -> CompilerSession:
        store_dir = getattr(self.w, "store_dir", None)
        store = self.spanned_store(store_dir) if store_dir is not None else None
        return CompilerSession(NPROCS, self.w.options, store=store)

    def replay(self, r: int, kind: Kind, session: CompilerSession) -> None:
        req, rec = kind.request, self.rec
        request_id = rec.new_request()
        with rec.span("request"):
            with rec.span("compile"):
                compiled, tier = session.compile_traced(
                    req.source, req.bindings, req.processors, req.options
                )
            env = ExecutionEnv(
                conditions=dict(req.conditions or {}),
                bindings=dict(req.bindings or {}),
                kernels=self.wrapped_kernels(req),
                inputs=dict(req.inputs or {}),
                dtype=np.float64 if req.dtype is None else req.dtype,
            )
            with rec.span("run"):
                if req.backend == "mp":
                    backend = resolve("repro.runtime.mpbackend:MPBackend")(
                        compiled.processors.size
                    )
                    with rec.span("transport.start"):
                        backend.transport.start()
                    try:
                        with rec.span("mp.execute"):
                            result = backend.execute(compiled, entry=req.entry, env=env)
                    finally:
                        with rec.span("transport.close"):
                            backend.close()
                else:
                    result = execute(compiled, entry=req.entry, env=env)
        self.requests.append(
            {
                "id": request_id,
                "round": r,
                "kind": kind,
                "tier": tier,
                "compiled": compiled,
                "stats": result.stats.snapshot(),
                "replays": result.fusion.replays,
                "modeled_makespan_s": result.machine.phase_seconds,
                "mp": result.mp.snapshot() if result.mp is not None else None,
            }
        )

    def stepwise(self, budget: float) -> None:
        deadline = time.perf_counter() + budget
        session = self.new_session()
        with self.instrumented():
            for r in range(TRACED_ROUNDS):
                if r and time.perf_counter() > deadline:
                    break
                if hasattr(self.w, "store_dir"):
                    session = self.new_session()  # a restarted process, like the service's
                for kind in self.w.round_kinds(1000 + r):
                    self.replay(r, kind, session)
        self.self_ms = [t * 1e3 for t in self_times(self.rec.spans)]

    def per_round(self, per_request) -> float:
        """Median over traced rounds of the round's summed ``per_request(record)``."""
        sums: dict[int, float] = {}
        for q in self.requests:
            sums[q["round"]] = sums.get(q["round"], 0.0) + per_request(q)
        return statistics.median(sums.values())

    def span_ms(self, *names: str, self_only: bool = False):
        """``per_request`` function: ms of one request's spans named in ``names``."""
        totals: dict[int, float] = {}
        for span, self_ms in zip(self.rec.spans, self.self_ms):
            if span.name in names:
                ms = self_ms if self_only else span.duration * 1e3
                totals[span.request] = totals.get(span.request, 0.0) + ms
        return lambda q: totals.get(q["id"], 0.0)

    # -- probes over the stepwise records --------------------------------------

    def probe_front_end(self) -> dict:
        parse = resolve("repro.lang.parser:parse_program")
        resolve_program = resolve("repro.lang.semantics:resolve_program")
        cost: dict[int, tuple[float, float, int]] = {}
        for q in self.requests:
            source = q["kind"].request.source
            if q["tier"] != "compiled" or not isinstance(source, str):
                continue
            t_parse, program = timed(parse, source)
            t_resolve, _ = timed(
                resolve_program, program, q["kind"].request.bindings, q["compiled"].processors
            )
            cost[q["id"]] = (t_parse * 1e3, t_resolve * 1e3, len(source.encode()))
        zero = (0.0, 0.0, 0)
        return {
            "lang.parse_ms": self.per_round(lambda q: cost.get(q["id"], zero)[0]),
            "lang.resolve_ms": self.per_round(lambda q: cost.get(q["id"], zero)[1]),
            "lang.source_bytes": self.per_round(lambda q: cost.get(q["id"], zero)[2]),
        }

    PASSES = (
        "parse",
        "motion",
        "resolve",
        "construction",
        "remove-useless",
        "live-copies",
        "status-checks",
        "codegen",
        "schedule",
        "symbolize",
    )
    PASS_COUNTERS = {
        "remap.construction.vertices": ("construction", "vertices"),
        "remap.optimize.removed": ("remove-useless", "removed"),
        "remap.motion.sunk": ("motion", "sunk"),
        "remap.motion.rejected": ("motion", "rejected"),
        "remap.codegen.ops": ("codegen", "ops"),
        "spmd.schedule.plans_precompiled": ("schedule", "plans"),
        "spmd.schedule.phases_planned": ("schedule", "phases"),
    }

    @staticmethod
    def pass_records(q: dict):
        """The records of the pipeline that ran *inside* the request, if one did."""
        return q["compiled"].trace.records if q["tier"] == "compiled" else ()

    def probe_pipeline(self) -> dict:
        records = self.pass_records

        def pass_ms(name):
            return lambda q: sum(r.seconds for r in records(q) if r.name == name) * 1e3

        def counter(pass_name, key):
            return lambda q: sum(
                r.counters.get(key, 0) for r in records(q) if r.name == pass_name
            )

        out = {
            "compiler.pipeline.total_ms": self.per_round(
                lambda q: sum(r.seconds for r in records(q)) * 1e3
            )
        }
        for name in self.PASSES:
            out[f"compiler.pipeline.pass.{name}_ms"] = self.per_round(pass_ms(name))
        for metric, (pass_name, key) in self.PASS_COUNTERS.items():
            out[metric] = self.per_round(counter(pass_name, key))
        return out

    def probe_tiers(self) -> dict:
        compile_self = self.span_ms("compile", self_only=True)
        return {
            "compiler.session.lookup_ms": self.per_round(
                lambda q: compile_self(q) if q["tier"] == "memory" else 0.0
            ),
            "compiler.template.instantiate_ms": self.per_round(
                lambda q: compile_self(q) if q["tier"] == "instantiated" else 0.0
            ),
            "store.load_ms": self.per_round(self.span_ms("store.load")),
            "store.hit_share": self.store_loads["hit"] / max(1, sum(self.store_loads.values())),
        }

    def probe_artifacts(self) -> dict:
        """Serialize the cycle's artifacts once: write time and generated-code size."""
        store = ArtifactStore(self.w.workdir / "artifact-probe")
        seconds, seen = 0.0, set()
        for q in self.requests:
            if q["round"] == 0 and id(q["compiled"]) not in seen:
                seen.add(id(q["compiled"]))
                t, wrote = timed(store.store, (f"probe-{len(seen)}",), q["compiled"])
                if not wrote:
                    raise RuntimeError(f"could not serialize the {q['kind'].name} artifact")
                seconds += t
        return {"store.store_ms": seconds * 1e3, "store.artifact_bytes": artifact_bytes(store)}

    def probe_executor(self) -> dict:
        run = "mp.execute" if self.mp else "run"
        out = {
            "runtime.executor.run_ms": self.per_round(self.span_ms(run)),
            "runtime.executor.kernel_ms": self.per_round(self.span_ms("kernel")),
            # what the executor itself takes: its span minus kernels and copies
            "runtime.executor.interp_ms": self.per_round(self.span_ms(run, self_only=True)),
            "runtime.fusion.replays": self.per_round(lambda q: q["replays"]),
            "spmd.machine.modeled_makespan_s": self.per_round(lambda q: q["modeled_makespan_s"]),
        }
        for key in ("remaps_performed", "remaps_skipped_live", "remaps_skipped_status"):
            out[f"runtime.executor.{key}"] = self.per_round(lambda q, key=key: q["stats"][key])
        out["runtime.executor.status_checks"] = self.per_round(
            lambda q: q["stats"]["status_checks"]
        )
        out["spmd.schedule.messages_per_round"] = self.per_round(lambda q: q["stats"]["messages"])
        out["spmd.schedule.phases_per_round"] = self.per_round(lambda q: q["stats"]["phases"])
        reused = sum(q["stats"]["plans_reused"] for q in self.requests)
        built = sum(q["stats"]["plans_built"] for q in self.requests)
        out["spmd.schedule.plans_reused_share"] = (
            reused / (reused + built) if reused + built else 0.0
        )
        return out

    def probe_fusion(self) -> dict:
        """``session.run(fuse_loops=False)`` over ``True`` on the kinds that replay."""
        kinds = {q["kind"].name: q["kind"] for q in self.requests if q["replays"] > 0}
        if not kinds:
            return {"runtime.fusion.speedup": 0.0}
        session = CompilerSession(NPROCS, self.w.options)
        totals = {True: 0.0, False: 0.0}
        for kind in kinds.values():
            req = kind.request
            for fuse in (True, False, True, False, True, False):
                totals[fuse] += timed(
                    session.run,
                    req.source,
                    bindings=req.bindings,
                    conditions=req.conditions,
                    inputs=req.inputs,
                    kernels=req.kernels,
                    processors=req.processors,
                    options=req.options,
                    fuse_loops=fuse,
                )[0]
        return {"runtime.fusion.speedup": totals[False] / totals[True]}

    # -- side probes: every copy the replay logged, layer by layer --------------

    def probe_copies(self) -> dict:
        """Unit costs of each logged copy, times how often the run performed it."""
        plan_redistribution = resolve("repro.spmd.schedule:plan_redistribution")
        build_schedule = resolve("repro.spmd.redistribution:build_schedule")
        layout_of = resolve("repro.mapping.ownership:layout_of")
        gone: dict[str, str] = {}
        for key, (src, dst, dtype) in self.copies.items():
            itemsize, policy = key[2:]
            machine = Machine(src.processors)
            source = DistributedArray("probe", src, machine, dtype)
            target = DistributedArray("probe", dst, machine, dtype)
            source.scatter_from_global(np.arange(np.prod(src.shape)).reshape(src.shape))
            unit = self.unit[key] = {"plan": 0.0}
            if policy is None:
                plan = build_schedule(layout_of(src), layout_of(dst))
                unit["bytes"] = plan.moved_elements() * itemsize
            else:
                plan = plan_redistribution(src, dst, policy)
                unit["bytes"] = plan.moved_bytes(itemsize)
                unit["plan"] = (
                    median_seconds(lambda s=src, d=dst, p=policy: plan_redistribution(s, d, p))
                    * 1e3
                )
            for layer, probe in (
                ("index", self.copy_index),
                ("copy", self.copy_data),
                ("account", self.copy_accounting),
            ):
                try:
                    unit[layer] = probe(plan, policy, source, target, machine) * 1e3
                except ProbeGone as exc:
                    gone[layer] = str(exc)

        def layer_ms(layer):
            def per_request(q):
                return sum(
                    count * self.unit[key].get(layer, 0.0)
                    for (request, way, key), count in self.moves.items()
                    if request == q["id"] and way in PAYS[layer]
                )

            return per_request

        def plans_ms(q):  # what building each distinct plan of the request costs, once
            keys = {key for (request, _, key) in self.moves if request == q["id"]}
            return sum(self.unit[key]["plan"] for key in keys)

        def logged_bytes(q):
            return sum(
                count * self.unit[key]["bytes"]
                for (request, way, key), count in self.moves.items()
                if request == q["id"] and way != "prepare"
            )

        for q in self.requests:
            if logged_bytes(q) != q["stats"]["bytes"]:
                self.note(
                    f"cross-check: the copies logged for {q['kind'].name} move "
                    f"{logged_bytes(q)} bytes, the request moved {q['stats']['bytes']}"
                )
        moved_s = self.per_round(self.span_ms("move.live", "move.replay")) * 1e-3
        out = {
            # scheduled plans are built once, ahead of the run (side probe);
            # the unscheduled path rebuilds its schedule inside every copy
            "spmd.schedule.plan_build_ms": self.per_round(plans_ms)
            + self.per_round(self.span_ms("plan.build")),
            "spmd.redistribution.live_move_ms": self.per_round(self.span_ms("move.live")),
            "spmd.redistribution.bytes_per_s": (
                self.per_round(lambda q: q["stats"]["bytes"]) / moved_s if moved_s else 0.0
            ),
        }
        for layer, metric in LAYER_METRIC.items():
            out[metric] = self.per_round(layer_ms(layer))
        for layer, why in gone.items():
            out[LAYER_METRIC[layer]] = None
            self.note(f"{LAYER_METRIC[layer]}: null -- {why}")
        return out

    @staticmethod
    def prepared_moves(plan, policy, source, target) -> list:
        """Every rectangle of one copy with its block positions worked out."""
        prepare_move = resolve("repro.spmd.redistribution:prepare_move")
        if policy is None:
            rectangles = [t for t in plan.transfers if t.elements]
        else:
            rectangles = [
                *plan.local_transfers,
                *(part for phase in plan.phases for pt in phase.transfers for part in pt.parts),
            ]
        return [prepare_move(t, source.layout, target.layout) for t in rectangles]

    def copy_index(self, plan, policy, source, target, machine) -> float:
        """All ``positions_in`` work of one copy: ``prepare_move`` on every rectangle."""
        return median_seconds(lambda: self.prepared_moves(plan, policy, source, target))

    def copy_data(self, plan, policy, source, target, machine) -> float:
        """The bare NumPy assignments of one copy, positions already known."""
        moves = self.prepared_moves(plan, policy, source, target)

        def copy():
            for pm in moves:
                pm.execute(source, target)

        return median_seconds(copy)

    def copy_accounting(self, plan, policy, source, target, machine) -> float:
        """``Machine.transfer``/``run_phase`` on the copy's messages, no data."""
        message_type = resolve("repro.spmd.message:Message")
        itemsize = target.itemsize

        def message(t, nbytes):
            return message_type(
                src=t.src_rank,
                dst=t.dst_rank,
                nbytes=nbytes,
                elements=t.elements,
                array=target.name,
            )

        if policy is None:  # the unscheduled path charges transfer by transfer
            singles = [message(t, t.elements * itemsize) for t in plan.transfers if t.elements]
            phases = []
        else:
            singles = [message(t, t.elements * itemsize) for t in plan.local_transfers]
            phases = [
                (phase.contended, [message(pt, pt.nbytes(itemsize)) for pt in phase.transfers])
                for phase in plan.phases
            ]

        def account():
            ledger = Machine(machine.processors)
            for msg in singles:
                ledger.transfer(msg)
            for contended, messages in phases:
                ledger.run_phase(messages, contended=contended, verified=plan.statically_verified)

        return median_seconds(account)

    # -- transport -------------------------------------------------------------

    def probe_transport(self) -> dict:
        names = (
            "spmd.transport.start_ms",
            "spmd.transport.wall_s",
            "spmd.transport.port_s",
            "spmd.transport.barrier_ms_per_phase",
            "spmd.transport.pooled_run_ms",
        )
        if not self.mp:
            return dict.fromkeys(names, 0.0)
        wall = self.per_round(lambda q: q["mp"]["wall_seconds"])
        port = self.per_round(lambda q: q["mp"]["port_seconds"])
        phases = self.per_round(lambda q: q["mp"]["phases"])
        backend_type = resolve("repro.runtime.mpbackend:MPBackend")
        pooled = 0.0
        first = {}
        for q in self.requests:
            first.setdefault(q["kind"].name, q)
        with backend_type(NPROCS) as backend:
            for q in first.values():
                req = q["kind"].request

                def run(q=q, req=req):
                    env = ExecutionEnv(
                        bindings=dict(req.bindings or {}),
                        kernels=dict(req.kernels or {}),
                        inputs=dict(req.inputs or {}),
                    )
                    backend.execute(q["compiled"], entry=req.entry, env=env)

                pooled += median_seconds(run)
        return {
            "spmd.transport.start_ms": self.per_round(
                self.span_ms("transport.start", "transport.close")
            ),
            "spmd.transport.wall_s": wall,
            "spmd.transport.port_s": port,
            "spmd.transport.barrier_ms_per_phase": (wall - port) / phases * 1e3 if phases else 0.0,
            "spmd.transport.pooled_run_ms": pooled * 1e3,
        }

    # -- the service and its instrumentation -------------------------------------

    def probe_service(self, budget: float) -> dict:
        """Untraced service rounds interleaved with traced and metric-less ones."""
        metrics_disabled = None
        try:
            metrics_disabled = resolve("repro.obs:metrics_disabled")
        except ProbeGone as exc:
            self.note(f"obs.metrics_overhead_share: null -- {exc}")
        modes = ("plain", "traced") + (("bare",) if metrics_disabled else ())
        times: dict[str, list[float]] = {m: [] for m in modes}
        steps: dict[str, list[list[float]]] = {m: [] for m in modes}
        rows, tiers, depth = [], Counter(), 0
        deadline = time.perf_counter() + budget
        r = 2000
        while len(times["plain"]) < 3 or time.perf_counter() < deadline:
            for mode in modes if r % 2 else reversed(modes):
                kinds = self.w.round_kinds(r)
                r += 1
                TRACER.enabled = mode == "traced"
                try:
                    if mode == "bare":
                        with metrics_disabled():
                            seconds, (results, step_seconds) = timed(self.w.serve, kinds)
                    else:
                        seconds, (results, step_seconds) = timed(self.w.serve, kinds)
                finally:
                    TRACER.enabled = False
                    TRACER.clear()
                times[mode].append(seconds)
                steps[mode].append(step_seconds)
                depth = max(depth, self.w.service.stats.max_queue_depth)
                if mode == "plain":
                    self.attempted += len(kinds)
                    self.failed += sum(request_failed(k, res) for k, res in zip(kinds, results))
                    compile_s = sum(res.compile_seconds for res in results)
                    run_s = sum(res.run_seconds for res in results)
                    rows.append((compile_s, run_s, seconds - compile_s - run_s))
                    tiers.update(res.cache_source for res in results)
        served = sum(tiers.values())
        # the three modes' rounds are interleaved, so they share the host's
        # slow minutes; each mode is then read at its floor (every step at
        # its fastest), the one estimate of a round that host noise spares
        floor = {mode: round_floor(steps[mode]) for mode in modes}
        out = {
            "service.compile_ms": statistics.median(row[0] for row in rows) * 1e3,
            "service.run_ms": statistics.median(row[1] for row in rows) * 1e3,
            "service.overhead_ms": statistics.median(row[2] for row in rows) * 1e3,
            "service.round_p50_ms": statistics.median(times["plain"]) * 1e3,
            "service.round_p90_ms": percentile(times["plain"], 0.9) * 1e3,
            "service.throughput_rps": (self.attempted - self.failed) / sum(times["plain"]),
            "service.queue_depth_max": depth,
            "obs.tracing_overhead_share": floor["traced"] / floor["plain"] - 1.0,
            "obs.metrics_overhead_share": (
                floor["plain"] / floor["bare"] - 1.0 if metrics_disabled else None
            ),
        }
        for tier in ("memory", "instantiated", "disk", "compiled"):
            out[f"compiler.session.tier_share.{tier}"] = tiers[tier] / served
        self.service_rounds = len(times["plain"])
        return out

    def probe_dark_time(self) -> dict:
        """Share of traced request wall that no layer metric accounts for.

        Every span's self time belongs to a layer except the ``request``
        span's own (harness glue) and, where a pipeline or a disk load
        served the request, the part of the ``compile`` span that neither
        the pass records nor the store spans explain (digests, cache keys,
        freezing, template building).  The mp workers are invisible from
        here: only the transport's measured wall stands for them.
        """
        wall = self.span_ms("request")
        request_self = self.span_ms("request", self_only=True)
        compile_self = self.span_ms("compile", self_only=True)
        dark = total = 0.0
        for q in self.requests:
            dark += request_self(q)
            if q["tier"] in ("compiled", "disk"):
                passes_ms = sum(r.seconds for r in self.pass_records(q)) * 1e3
                dark += max(0.0, compile_self(q) - passes_ms)
            total += wall(q)
        return {"obs.dark_time_share": dark / total}

    # -- driver -------------------------------------------------------------------

    def run(self) -> None:
        self.stepwise(0.3 * self.seconds)
        self.guard("lang.*", self.probe_front_end)
        self.guard(
            "compiler.pipeline.* remap.* spmd.schedule.plans_precompiled "
            "spmd.schedule.phases_planned",
            self.probe_pipeline,
        )
        self.guard(
            "compiler.session.lookup_ms compiler.template.* store.load_ms store.hit_share",
            self.probe_tiers,
        )
        self.guard("store.store_ms store.artifact_bytes", self.probe_artifacts)
        self.guard(
            "spmd.schedule.plan_build_ms spmd.redistribution.* spmd.machine.accounting_ms",
            self.probe_copies,
        )
        self.guard(
            "runtime.executor.* runtime.fusion.replays spmd.machine.modeled_makespan_s "
            "spmd.schedule.*_per_round spmd.schedule.plans_reused_share",
            self.probe_executor,
        )
        self.guard("runtime.fusion.speedup", self.probe_fusion)
        self.guard("spmd.transport.*", self.probe_transport)
        self.guard("obs.dark_time_share", self.probe_dark_time)
        self.guard(
            "service.* obs.*_overhead_share compiler.session.tier_share.*",
            lambda: self.probe_service(0.4 * self.seconds),
        )

    def report(self) -> dict:
        """What ``TRACE_layers.json`` keeps of this workload."""
        return {
            "seed": self.w.seed,
            "traced_rounds": len({q["round"] for q in self.requests}),
            "service_rounds": self.service_rounds,
            "requests": [
                {"id": q["id"], "round": q["round"], "kind": q["kind"].name, "tier": q["tier"]}
                for q in self.requests
            ],
            "spans": self.rec.dump(),
        }
