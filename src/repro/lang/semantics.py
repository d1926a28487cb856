"""Semantic resolution: names, shapes, initial mappings, interfaces.

Resolution turns the parsed AST into a :class:`ResolvedProgram` whose
subroutines carry:

* concrete shapes (symbolic extents substituted from user bindings);
* one :class:`~repro.mapping.mapping.Mapping` per array -- the *initial*
  mapping, from ``ALIGN``/``DISTRIBUTE`` declarations, with align-to-array
  chains composed onto the root template and unmapped arrays replicated
  (HPF's default);
* dummy-argument intents (default ``inout``, the conservative choice);
* legality checks for the paper's restrictions that are visible statically
  (explicit interfaces; align/distribute consistency).

Flow-dependent legality (ambiguous references, several leaving mappings) is
checked later, during remapping-graph construction, because it needs the
mapping propagation itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import MissingInterfaceError, SemanticError
from repro.lang.ast_nodes import (
    AlignDecl,
    AlignSubscript,
    ArrayDecl,
    Block,
    Call,
    Compute,
    DistributeDecl,
    Do,
    DynamicDecl,
    Extent,
    FormatSpec,
    If,
    IntentDecl,
    Kill,
    ProcessorsDecl,
    Program,
    Realign,
    Redistribute,
    ScalarDecl,
    Stmt,
    Subroutine,
    TemplateDecl,
    walk_statements,
)
from repro.mapping.align import Alignment, AxisAlign
from repro.mapping.distribute import DistFormat, Distribution
from repro.mapping.mapping import Mapping
from repro.mapping.processors import ProcessorArrangement, dims_create
from repro.mapping.template import Template


# ---------------------------------------------------------------------------
# resolved model
# ---------------------------------------------------------------------------


@dataclass
class ArrayInfo:
    name: str
    shape: tuple[int, ...]
    initial_mapping: Mapping
    dynamic: bool = False
    intent: str | None = None  # 'in' | 'out' | 'inout' for dummies, None for locals
    is_dummy: bool = False


@dataclass
class ResolvedSubroutine:
    name: str
    params: tuple[str, ...]
    arrays: dict[str, ArrayInfo]
    scalars: set[str]
    templates: dict[str, Template]
    processors: ProcessorArrangement
    body: Block
    # array name -> name of the template it roots (arrays with no align decl)
    root_of: dict[str, str] = field(default_factory=dict)
    # declared distribution per template name (initial tdist state)
    template_distributions: dict[str, Distribution] = field(default_factory=dict)

    @property
    def dummy_arrays(self) -> list[str]:
        return [p for p in self.params if p in self.arrays]

    def array(self, name: str) -> ArrayInfo:
        info = self.arrays.get(name)
        if info is None:
            raise SemanticError(f"{self.name}: unknown array {name!r}")
        return info


@dataclass
class ResolvedProgram:
    subroutines: dict[str, ResolvedSubroutine]
    processors: ProcessorArrangement

    def get(self, name: str) -> ResolvedSubroutine:
        sub = self.subroutines.get(name)
        if sub is None:
            raise MissingInterfaceError(
                f"call to {name!r}: no explicit interface in the program "
                "(paper restriction 2: interfaces are mandatory)"
            )
        return sub


# ---------------------------------------------------------------------------
# helpers shared with the construction pass
# ---------------------------------------------------------------------------


def resolve_extent(e: Extent, bindings: dict[str, int], context: str) -> int:
    if isinstance(e, int):
        return e
    try:
        return bindings[e]
    except KeyError:
        raise SemanticError(
            f"{context}: symbolic extent {e!r} has no binding (pass bindings={{...}})"
        ) from None


def make_axes(
    dummies: tuple[str, ...],
    subscripts: tuple[AlignSubscript, ...],
    array_rank: int,
    target_rank: int,
    context: str,
) -> tuple[AxisAlign, ...]:
    """Translate align dummies/subscripts into per-target-dim AxisAligns.

    The empty shorthand (``align A with T``) means identity and requires
    equal ranks.
    """
    if not dummies and not subscripts:
        if array_rank != target_rank:
            raise SemanticError(
                f"{context}: identity alignment needs equal ranks "
                f"({array_rank} vs {target_rank})"
            )
        return tuple(AxisAlign.dim(a) for a in range(array_rank))
    if len(dummies) != array_rank:
        raise SemanticError(
            f"{context}: {len(dummies)} align dummies for rank-{array_rank} array"
        )
    if len(subscripts) != target_rank:
        raise SemanticError(
            f"{context}: {len(subscripts)} subscripts for rank-{target_rank} target"
        )
    dummy_pos = {d: i for i, d in enumerate(dummies)}
    if len(dummy_pos) != len(dummies):
        raise SemanticError(f"{context}: duplicate align dummy")
    out: list[AxisAlign] = []
    for s in subscripts:
        if s.kind == "star":
            out.append(AxisAlign.replicate())
        elif s.kind == "const":
            out.append(AxisAlign.const(s.offset))
        else:
            if s.dummy not in dummy_pos:
                raise SemanticError(f"{context}: unknown align dummy {s.dummy!r}")
            out.append(AxisAlign.dim(dummy_pos[s.dummy], stride=s.stride, offset=s.offset))
    return tuple(out)


def arrangement_for(
    processors: ProcessorArrangement,
    formats: tuple[DistFormat, ...],
    onto: str,
    context: str,
) -> ProcessorArrangement:
    """Pick the processor arrangement a distribution targets.

    With ``onto`` the named (and only) declared arrangement is used and its
    rank must match the number of distributed dimensions.  Without ``onto``,
    HPF leaves the choice to the compiler: we reuse the declared arrangement
    when the rank matches and otherwise build a balanced grid over the same
    linear processors (:func:`~repro.mapping.processors.dims_create`), so
    e.g. ``(block, *)`` and ``(*, block)`` on a 4-processor machine are both
    1-D distributions over the same 4 processors.
    """
    ndist = sum(1 for f in formats if f.is_distributed)
    if ndist == 0:
        raise SemanticError(
            f"{context}: distribution with no distributed dimension; omit the "
            "directive instead (the array is then replicated)"
        )
    if onto:
        if onto != processors.name.lower() and onto != processors.name:
            raise SemanticError(f"{context}: unknown processors arrangement {onto!r}")
        if processors.rank != ndist:
            raise SemanticError(
                f"{context}: {ndist} distributed dimensions onto rank-"
                f"{processors.rank} arrangement {processors.name}"
            )
        return processors
    if processors.rank == ndist:
        return processors
    return ProcessorArrangement(
        f"{processors.name}_{ndist}d", dims_create(processors.size, ndist)
    )


def make_formats(
    specs: tuple[FormatSpec, ...],
) -> tuple[DistFormat, ...]:
    out = []
    for f in specs:
        if f.kind == "star":
            out.append(DistFormat.star())
        elif f.kind == "block":
            out.append(DistFormat.block(f.arg))
        else:
            out.append(DistFormat.cyclic(f.arg))
    return tuple(out)


# ---------------------------------------------------------------------------
# per-subroutine resolution
# ---------------------------------------------------------------------------


def _resolve_subroutine(
    sub: Subroutine,
    bindings: dict[str, int],
    default_processors: ProcessorArrangement | None,
) -> ResolvedSubroutine:
    ctx = f"subroutine {sub.name}"
    scalars: set[str] = set()
    shapes: dict[str, tuple[int, ...]] = {}
    intents: dict[str, str] = {}
    dynamic: set[str] = set()
    processors: ProcessorArrangement | None = None
    templates: dict[str, Template] = {}
    aligns: dict[str, AlignDecl] = {}
    distributes: dict[str, DistributeDecl] = {}

    for d in sub.decls:
        if isinstance(d, ScalarDecl):
            scalars.update(d.names)
        elif isinstance(d, ArrayDecl):
            if d.name in shapes:
                raise SemanticError(f"{ctx}: array {d.name!r} declared twice")
            shapes[d.name] = tuple(
                resolve_extent(e, bindings, f"{ctx}: {d.name}") for e in d.extents
            )
        elif isinstance(d, IntentDecl):
            for n in d.names:
                intents[n] = d.intent
        elif isinstance(d, ProcessorsDecl):
            if processors is not None:
                raise SemanticError(f"{ctx}: several processors declarations")
            processors = ProcessorArrangement(
                d.name,
                tuple(resolve_extent(e, bindings, f"{ctx}: {d.name}") for e in d.extents),
            )
        elif isinstance(d, TemplateDecl):
            templates[d.name] = Template(
                d.name,
                tuple(resolve_extent(e, bindings, f"{ctx}: {d.name}") for e in d.extents),
            )
        elif isinstance(d, AlignDecl):
            if d.alignee in aligns:
                raise SemanticError(f"{ctx}: array {d.alignee!r} aligned twice")
            aligns[d.alignee] = d
        elif isinstance(d, DistributeDecl):
            if d.target in distributes:
                raise SemanticError(f"{ctx}: {d.target!r} distributed twice")
            distributes[d.target] = d
        elif isinstance(d, DynamicDecl):
            dynamic.update(d.names)

    if processors is None:
        if default_processors is None:
            raise SemanticError(
                f"{ctx}: no processors declaration and no default arrangement given"
            )
        processors = default_processors

    for name in list(aligns) + list(dynamic):
        if name not in shapes and name not in templates:
            raise SemanticError(f"{ctx}: directive names unknown object {name!r}")
    for name in distributes:
        if name not in shapes and name not in templates:
            raise SemanticError(f"{ctx}: distribute names unknown object {name!r}")
    for name in intents:
        if name not in shapes and name not in scalars:
            raise SemanticError(f"{ctx}: intent names unknown object {name!r}")
        if name in shapes and name not in sub.params:
            raise SemanticError(f"{ctx}: intent on non-dummy {name!r}")

    # -- build distributions of root templates -------------------------------
    distributions: dict[str, Distribution] = {}  # by template name

    def distribution_for_template(tname: str) -> Distribution | None:
        d = distributes.get(tname)
        if d is None:
            return None
        t = templates[tname]
        fmts = make_formats(d.formats)
        arr = arrangement_for(processors, fmts, d.onto, f"{ctx}: distribute {tname}")
        return Distribution(t, fmts, arr)

    # arrays distributed directly get an implicit template
    for aname, d in distributes.items():
        if aname in templates:
            distributions[aname] = distribution_for_template(aname)  # type: ignore[assignment]
            continue
        if aname in aligns:
            raise SemanticError(
                f"{ctx}: {aname!r} is both aligned and directly distributed"
            )
        t = Template.implicit_for(aname, shapes[aname])
        templates[f"$T_{aname}"] = t
        fmts = make_formats(d.formats)
        arr = arrangement_for(processors, fmts, d.onto, f"{ctx}: distribute {aname}")
        distributions[t.name] = Distribution(t, fmts, arr)

    # -- resolve alignment chains onto root templates -------------------------
    resolved_align: dict[str, Alignment] = {}

    def alignment_of(name: str, visiting: tuple[str, ...] = ()) -> Alignment:
        if name in visiting:
            raise SemanticError(f"{ctx}: alignment cycle through {name!r}")
        if name in resolved_align:
            return resolved_align[name]
        shape = shapes[name]
        d = aligns.get(name)
        if d is None:
            # root array: aligned identically to its own (implicit) template
            t = templates.get(f"$T_{name}")
            if t is None:
                t = Template.implicit_for(name, shape)
                templates[t.name] = t
            al = Alignment.identity(shape, t)
        elif d.target in templates:
            t = templates[d.target]
            axes = make_axes(d.dummies, d.subscripts, len(shape), t.rank, ctx)
            al = Alignment(shape, t, axes)
        elif d.target in shapes:
            target_al = alignment_of(d.target, visiting + (name,))
            target_shape = shapes[d.target]
            inner = make_axes(d.dummies, d.subscripts, len(shape), len(target_shape), ctx)
            al = target_al.compose(shape, inner)
        else:
            raise SemanticError(f"{ctx}: align target {d.target!r} unknown")
        resolved_align[name] = al
        return al

    arrays: dict[str, ArrayInfo] = {}
    for name, shape in shapes.items():
        al = alignment_of(name)
        dist = distributions.get(al.template.name)
        if dist is None:
            explicit = distribution_for_template(al.template.name)
            if explicit is not None:
                dist = explicit
                distributions[al.template.name] = dist
        if dist is None:
            # unmapped: HPF default, fully replicated
            mapping = Mapping.replicated(shape, processors, name)
        else:
            mapping = Mapping(al, dist)
        arrays[name] = ArrayInfo(
            name=name,
            shape=shape,
            initial_mapping=mapping,
            dynamic=name in dynamic,
            intent=intents.get(name, "inout" if name in sub.params else None),
            is_dummy=name in sub.params,
        )

    # declared distributions of templates nothing is aligned to (yet)
    for tname in list(templates):
        if tname in distributes and tname not in distributions:
            d = distribution_for_template(tname)
            if d is not None:
                distributions[tname] = d

    root_of = {
        name: resolved_align[name].template.name
        for name in shapes
        if name not in aligns
    }
    rsub = ResolvedSubroutine(
        name=sub.name,
        params=sub.params,
        arrays=arrays,
        scalars=scalars | set(p for p in sub.params if p not in arrays),
        templates=templates,
        processors=processors,
        body=_distinct_occurrences(sub.body),
        root_of=root_of,
        template_distributions={k: v for k, v in distributions.items() if v is not None},
    )
    _check_statements(rsub, bindings)
    return rsub


def _distinct_occurrences(body: Block) -> Block:
    """``body`` with every statement object at one position only.

    The CFG finds a statement's node through the statement object, so one
    object placed at two positions would run the ops of both at each.  A
    repeated object becomes an equal copy -- the AST compares by value, so
    the copy means the same program -- and an ``If``/``Do`` is rebuilt only
    when something under it changed.
    """
    seen: set[int] = set()

    def own_block(block: Block) -> Block:
        stmts = tuple(own(x) for x in block.stmts)
        return block if all(a is b for a, b in zip(stmts, block.stmts)) else Block(stmts)

    def own(x: Stmt) -> Stmt:
        if isinstance(x, If):
            then, orelse = own_block(x.then), own_block(x.orelse)
            if then is not x.then or orelse is not x.orelse:
                x = replace(x, then=then, orelse=orelse)
        elif isinstance(x, Do):
            body = own_block(x.body)
            if body is not x.body:
                x = replace(x, body=body)
        if id(x) in seen:
            x = replace(x)
        seen.add(id(x))
        return x

    return own_block(body)


def _check_statements(sub: ResolvedSubroutine, bindings: dict[str, int]) -> None:
    ctx = f"subroutine {sub.name}"
    known = set(sub.arrays) | sub.scalars
    for s in walk_statements(sub.body):
        if isinstance(s, Compute):
            for n in s.reads + s.writes + s.defines:
                if n not in known:
                    raise SemanticError(f"{ctx}: compute references unknown name {n!r}")
        elif isinstance(s, Kill):
            for n in s.names:
                if n not in sub.arrays:
                    raise SemanticError(f"{ctx}: kill names unknown array {n!r}")
        elif isinstance(s, Realign):
            if s.alignee not in sub.arrays:
                raise SemanticError(f"{ctx}: realign of unknown array {s.alignee!r}")
            if s.target not in sub.arrays and s.target not in sub.templates:
                raise SemanticError(f"{ctx}: realign target {s.target!r} unknown")
        elif isinstance(s, Redistribute):
            if s.target not in sub.arrays and s.target not in sub.templates:
                raise SemanticError(f"{ctx}: redistribute target {s.target!r} unknown")
            if s.target in sub.arrays and s.target not in sub.root_of:
                raise SemanticError(
                    f"{ctx}: redistribute of {s.target!r}, which is aligned to "
                    "another object (only distributees can be redistributed)"
                )
        elif isinstance(s, Do):
            for e in (s.lo, s.hi):
                if isinstance(e, str) and e not in sub.scalars and e not in bindings:
                    raise SemanticError(f"{ctx}: loop bound {e!r} undeclared")


# ---------------------------------------------------------------------------
# program-level resolution
# ---------------------------------------------------------------------------


def resolve_program(
    program: Program,
    bindings: dict[str, int] | None = None,
    default_processors: ProcessorArrangement | None = None,
) -> ResolvedProgram:
    """Resolve every subroutine and check call interfaces."""
    bindings = bindings or {}
    subs: dict[str, ResolvedSubroutine] = {}
    processors: ProcessorArrangement | None = default_processors
    for s in program.subroutines:
        r = _resolve_subroutine(s, bindings, processors)
        if processors is None:
            processors = r.processors
        elif r.processors.size != processors.size:
            raise SemanticError(
                f"subroutine {s.name}: {r.processors.size} processors differ from "
                f"the program's {processors.size}; a single machine is assumed"
            )
        subs[s.name] = r
    assert processors is not None

    # interface checks for every call site
    for r in subs.values():
        for s in walk_statements(r.body):
            if not isinstance(s, Call):
                continue
            if s.callee not in subs:
                raise MissingInterfaceError(
                    f"subroutine {r.name}: call to {s.callee!r} has no explicit "
                    "interface (paper restriction 2)"
                )
            callee = subs[s.callee]
            dummies = callee.dummy_arrays
            array_args = [a for a in s.args if a in r.arrays]
            if len(array_args) != len(dummies):
                raise SemanticError(
                    f"subroutine {r.name}: call {s.callee}({', '.join(s.args)}) passes "
                    f"{len(array_args)} arrays, interface declares {len(dummies)}"
                )
            for actual, dummy in zip(array_args, dummies):
                if r.arrays[actual].shape != callee.arrays[dummy].shape:
                    raise SemanticError(
                        f"subroutine {r.name}: argument {actual!r} shape "
                        f"{r.arrays[actual].shape} does not match dummy {dummy!r} "
                        f"shape {callee.arrays[dummy].shape}"
                    )
    return ResolvedProgram(subs, processors)
