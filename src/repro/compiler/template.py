"""Symbolic-shape templates: compile once, instantiate every ``(n, P)``.

A :class:`SymbolicTemplate` is the shape-erased artifact form the opt-in
``symbolize`` pass enables.  Where a :class:`~repro.compiler.artifacts.
CompiledProgram` bakes one concrete geometry into every structure (version
mappings, rectangle sets, communication plans), a template keeps:

* the **post-motion AST** -- motion already ran under the shape-generic
  :class:`~repro.remap.costguard.ShapeGenericGuard`, so its decisions are
  valid for every shape and must not be re-derived per instantiation;
* the **binding classification** -- which names are shape-symbolic
  (erased from the artifact key, re-supplied per request) and which are
  compile-relevant (part of the key);
* **parameterized rectangle sets** -- per version mapping and dimension,
  the closed-form owned region over symbolic extents
  (:func:`repro.symbolic.ownership.dim_region`), lifted by probing the
  resolver at two distinct shape assignments.  They are cross-check
  material for the verifier, never the instantiation hot path;
* one :class:`~repro.spmd.schedule.CommPlanTable` shared by every
  instantiation, so repeated shapes reuse their plans.

:meth:`SymbolicTemplate.instantiate` runs only the cheap structural tail
of the pipeline (resolve through codegen) on the stored AST with concrete
bindings -- no parsing, no motion -- and attaches the template's plan
table.  The result is a plain :class:`CompiledProgram`: executors,
verifiers and the differential tests cannot tell it from a from-scratch
compile (and the test suite proves they cannot, bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.artifacts import (
    PASS_ORDER,
    CompiledProgram,
    CompilerOptions,
    _Freezable,
)
from repro.errors import SymbolicBindingError
from repro.lang.ast_nodes import Program
from repro.mapping.ownership import dim_owned
from repro.mapping.processors import ProcessorArrangement
from repro.spmd.schedule import CommPlanTable
from repro.symbolic.affine import Const, Sym, SymExpr, ceil_div
from repro.symbolic.classify import BindingClassification
from repro.symbolic.ownership import (
    PROC_COORD_PREFIX,
    SymRegion,
    dim_region,
    local_region,
    proc_coord,
)

#: Reserved symbol-name prefix for processor-grid extents (like
#: :data:`~repro.symbolic.ownership.PROC_COORD_PREFIX`, ``$`` keeps it
#: outside the source language's identifier space).
GRID_EXTENT_PREFIX = "$np"

#: The two probe assignments used to lift concrete layout integers into
#: affine closed forms: every shape symbol and the grid extent take
#: distinct values in each probe, so a lifted expression matching both is
#: pinned down (constants match trivially; a linear form in one symbol is
#: determined by two points).
_PROBE_PROCS = (3, 5)
_PROBE_BASES = (13, 29)
_PROBE_STEP = 4

#: Passes a template instantiation must *not* run: the front end and
#: motion are baked into the stored AST and ``symbolize`` already happened.
_SKIPPED_AT_INSTANTIATION = frozenset(
    {"parse", "motion", "symbolize", "traffic-estimate"}
)


def grid_extent(proc_dim: int) -> Sym:
    """The reserved symbol for the processor grid's extent along ``proc_dim``."""
    return Sym(f"{GRID_EXTENT_PREFIX}{proc_dim}")


class _InjectAst:
    """A ``parse``-slot pass that installs an already-built AST.

    Templates store the post-motion program; re-parsing (or worse,
    re-running motion) at instantiation time would both waste the work
    and risk diverging from the decisions the template was certified
    with.
    """

    name = "parse"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ("ast",)

    def __init__(self, program: Program):
        self._program = program

    def run(self, ctx) -> dict[str, int]:
        ctx.program = self._program
        return {"subroutines": len(self._program.subroutines)}


# ---------------------------------------------------------------------------
# closed-form lifting
# ---------------------------------------------------------------------------


def _lift_int(a: int, b: int, env_a: dict, env_b: dict, candidates) -> SymExpr | None:
    """The expression among ``candidates`` taking value ``a`` under
    ``env_a`` and ``b`` under ``env_b`` -- ``Const`` when the probes
    agree, ``None`` when nothing fits."""
    if a == b:
        return Const(a)
    for expr in candidates:
        if expr is None:
            continue
        try:
            if expr.evaluate(env_a) == a and expr.evaluate(env_b) == b:
                return expr
        except SymbolicBindingError:
            continue
    return None


def _lift_dim(dm_a, dm_b, env_a: dict, env_b: dict, shape_names) -> SymRegion | None:
    """Lift one dimension's concrete :class:`~repro.mapping.mapping.DimMap`
    pair (same dim, two probe resolutions) into a symbolic owned region.

    Structure (kind, alignment stride/offset, the grid dimension used)
    must agree between probes -- it is shape-independent by construction;
    a disagreement or an unliftable integer yields ``None`` and the
    verifier simply skips the closed-form cross-check for this dimension.
    """
    if (
        dm_a.kind is not dm_b.kind
        or dm_a.proc_dim != dm_b.proc_dim
        or dm_a.stride != dm_b.stride
        or dm_a.offset != dm_b.offset
    ):
        return None
    syms = [Sym(s) for s in sorted(shape_names)]
    extent = _lift_int(dm_a.extent, dm_b.extent, env_a, env_b, syms)
    if extent is None:
        return None
    if dm_a.proc_dim is None:
        return local_region(extent)
    pd = dm_a.proc_dim
    t_extent = _lift_int(dm_a.template_extent, dm_b.template_extent, env_a, env_b, syms)
    nprocs = _lift_int(dm_a.nprocs, dm_b.nprocs, env_a, env_b, [grid_extent(pd)])
    if t_extent is None or nprocs is None:
        return None
    block = _lift_int(
        dm_a.block,
        dm_b.block,
        env_a,
        env_b,
        syms + [ceil_div(t_extent, nprocs)],
    )
    if block is None:
        return None
    return dim_region(
        dm_a.kind,
        block,
        proc_coord(pd),
        nprocs,
        t_extent,
        dm_a.stride,
        dm_a.offset,
        extent,
    )


def _probe_env(shape_names, base: int, nproc: int) -> tuple[dict[str, int], dict[str, int]]:
    """(bindings, evaluation env) for one probe: distinct value per symbol."""
    bindings = {
        name: base + _PROBE_STEP * i for i, name in enumerate(sorted(shape_names))
    }
    env = dict(bindings)
    env[f"{GRID_EXTENT_PREFIX}0"] = nproc
    return bindings, env


# ---------------------------------------------------------------------------
# the template artifact
# ---------------------------------------------------------------------------


@dataclass
class SymbolicTemplate(_Freezable):
    """One shape-erased compilation, instantiable at any ``(n, P)``."""

    #: post-motion AST (motion decisions baked in, shape-generic)
    program: Program
    #: the originating options -- instantiations inherit them verbatim, so
    #: an instantiated artifact is indistinguishable from an eager compile
    options: CompilerOptions
    #: shape-symbolic vs compile-relevant split of the binding names
    classification: BindingClassification
    #: compile-relevant binding values baked into the template (part of
    #: its identity; shape-symbolic names are deliberately absent)
    fixed_bindings: dict[str, int] = field(default_factory=dict)
    #: parameterized rectangle sets: subroutine -> array -> per-version
    #: tuple of per-dimension closed-form regions (``None`` = no closed
    #: form; instantiation never needs them -- the verifier cross-checks
    #: instantiated layouts against the ones that exist)
    sym_rectangles: dict[str, dict[str, tuple]] = field(default_factory=dict)
    #: the plan table every instantiation shares (derived state)
    plans: CommPlanTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.plans = CommPlanTable(self.options.schedule)

    def freeze(self) -> None:
        """Make the template immutable for cache sharing (the plan table
        keeps its own lock and stays live -- that is its whole point)."""
        self._freeze_self()

    # -- derived ------------------------------------------------------------

    @property
    def shape_names(self) -> frozenset[str]:
        return self.classification.shape_symbolic

    def instantiation_pass_names(self) -> tuple[str, ...]:
        return tuple(
            n
            for n in self.options.pass_names
            if n not in _SKIPPED_AT_INSTANTIATION
        )

    def missing_shapes(self, bindings: dict[str, int] | None) -> list[str]:
        got = set(bindings or {})
        return sorted(self.shape_names - got)

    # -- instantiation ------------------------------------------------------

    def instantiate(
        self,
        bindings: dict[str, int] | None = None,
        processors: "ProcessorArrangement | int | None" = None,
    ) -> CompiledProgram:
        """A concrete :class:`CompiledProgram` for one ``(bindings, P)``.

        Runs only the structural tail of the pipeline (resolve through
        codegen, plus ``verify`` when the template's options include it)
        over the stored AST, then attaches the template's plan table.
        The caller freezes the result before sharing it, exactly as for
        an eager compile.
        """
        from repro.compiler.pipeline import PassManager, Pipeline

        missing = self.missing_shapes(bindings)
        if missing:
            raise SymbolicBindingError(
                f"template instantiation is missing shape binding(s) {missing}: "
                f"this template is parameterized over {sorted(self.shape_names)}"
            )
        merged = dict(self.fixed_bindings)
        merged.update(bindings or {})
        order = {n: i for i, n in enumerate(PASS_ORDER)}
        tail = sorted(
            (n for n in self.instantiation_pass_names() if n != "parse"),
            key=order.__getitem__,
        )
        pipeline = Pipeline(
            [_InjectAst(self.program)] + [PassManager.create(n) for n in tail]
        )
        compiled = pipeline.compile(
            self.program, merged, processors, options=self.options
        )
        compiled.plans = self.plans
        return compiled

    # -- verification -------------------------------------------------------

    def verify_instantiation(
        self, compiled: CompiledProgram, bindings: dict[str, int] | None = None
    ) -> list[str]:
        """Cross-check an instantiation against the closed forms.

        For every version mapping with a lifted region, every holder
        coordinate and every dimension, the symbolic region instantiated
        at the artifact's concrete geometry (``bindings`` supplying the
        shape-symbol values) must equal the exact ownership layer's
        answer (:func:`repro.mapping.ownership.dim_owned`).  Returns
        human-readable failure strings; empty means verified.
        """
        problems: list[str] = []
        for sub_name, arrays in self.sym_rectangles.items():
            cs = compiled.subroutines.get(sub_name)
            if cs is None:
                problems.append(f"{sub_name}: subroutine missing from instantiation")
                continue
            for array, version_regions in arrays.items():
                versions = cs.construction.versions.versions(array)
                if len(versions) != len(version_regions):
                    problems.append(
                        f"{sub_name}/{array}: {len(versions)} versions vs "
                        f"{len(version_regions)} lifted region tuples"
                    )
                    continue
                for vi, (mapping, regions) in enumerate(
                    zip(versions, version_regions)
                ):
                    grid = mapping.processors
                    for d, (dm, region) in enumerate(
                        zip(mapping.dim_maps, regions)
                    ):
                        if region is None:
                            continue  # no closed form: skip by design
                        coords = (
                            range(grid.shape[dm.proc_dim])
                            if dm.proc_dim is not None
                            else (0,)
                        )
                        for c in coords:
                            env = self._region_env(dm, c, grid, bindings)
                            got = region.instantiate(env)
                            want = dim_owned(dm, c)
                            if got != want:
                                problems.append(
                                    f"{sub_name}/{array} v{vi} dim {d} "
                                    f"coord {c}: closed form {got} != "
                                    f"exact ownership {want}"
                                )
        return problems

    def _region_env(
        self,
        dm,
        coord: int,
        grid: ProcessorArrangement,
        bindings: dict[str, int] | None,
    ) -> dict[str, int]:
        env = dict(self.fixed_bindings)
        env.update(bindings or {})
        if dm.proc_dim is not None:
            env[f"{PROC_COORD_PREFIX}{dm.proc_dim}"] = coord
            env[f"{GRID_EXTENT_PREFIX}{dm.proc_dim}"] = grid.shape[dm.proc_dim]
        return env


def build_template(
    program: Program,
    options: CompilerOptions,
    classification: BindingClassification,
    bindings: dict[str, int] | None = None,
) -> SymbolicTemplate:
    """Build a :class:`SymbolicTemplate` from a symbolized compilation.

    ``program`` is the post-motion AST recorded by the ``symbolize`` pass;
    ``bindings`` is the triggering request's binding dict, of which only
    the compile-relevant values are kept (they are part of the template's
    identity -- shape-symbolic values are erased, runtime-only ones
    dropped).  Rectangle lifting probes the resolver twice at distinct
    shape assignments; dimensions whose integers fit no affine candidate
    simply carry no closed form.
    """
    fixed = {
        k: v
        for k, v in (bindings or {}).items()
        if k in classification.compile_relevant
    }
    template = SymbolicTemplate(
        program=program,
        options=options,
        classification=classification,
        fixed_bindings=fixed,
    )
    template.sym_rectangles = _lift_rectangles(template)
    return template


def _lift_rectangles(template: SymbolicTemplate) -> dict[str, dict[str, tuple]]:
    """Probe-resolve the template twice and lift every version mapping."""
    from repro.compiler.pipeline import PassManager, Pipeline

    shape_names = template.shape_names
    probes = []
    for base, nproc in zip(_PROBE_BASES, _PROBE_PROCS):
        probe_bindings, env = _probe_env(shape_names, base, nproc)
        probe_bindings.update(template.fixed_bindings)
        pipeline = Pipeline(
            [_InjectAst(template.program)]
            + [PassManager.create(n) for n in ("resolve", "construction")]
        )
        try:
            ctx = pipeline.run_context(
                template.program,
                probe_bindings,
                ProcessorArrangement("P", (nproc,)),
            )
        except Exception:
            # a probe shape the program cannot resolve at (e.g. extents
            # constrained to a declared grid): no closed forms, which is
            # always safe -- instantiation does not depend on them
            return {}
        probes.append((ctx, env))
    (ctx_a, env_a), (ctx_b, env_b) = probes
    out: dict[str, dict[str, tuple]] = {}
    for sub_name, res_a in ctx_a.constructions.items():
        res_b = ctx_b.constructions.get(sub_name)
        if res_b is None:
            continue
        arrays: dict[str, tuple] = {}
        for array in res_a.versions.arrays():
            vs_a = res_a.versions.versions(array)
            vs_b = res_b.versions.versions(array)
            if len(vs_a) != len(vs_b):
                continue  # structure diverged: skip the cross-check
            lifted = []
            for ma, mb in zip(vs_a, vs_b):
                if len(ma.dim_maps) != len(mb.dim_maps):
                    lifted.append(tuple(None for _ in ma.dim_maps))
                    continue
                lifted.append(
                    tuple(
                        _lift_dim(da, db, env_a, env_b, shape_names)
                        for da, db in zip(ma.dim_maps, mb.dim_maps)
                    )
                )
            arrays[array] = tuple(lifted)
        out[sub_name] = arrays
    return out
