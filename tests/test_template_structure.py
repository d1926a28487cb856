"""A patched instantiation is the artifact an eager compile builds.

A template carries what its code passes built once -- CFG, remapping
graph, version annotations, call infos, generated code, removal reports,
front-end warnings -- and the *holes* that say how construction made each
version's mapping.  Instantiating it resolves the program at the
request's ``(n, P)``, evaluates the holes and patches the mappings into
the shared structure.  These tests hold that patch to an eager compile of
the template's post-motion AST at that shape (``motion`` and
``symbolize`` off, since motion already ran), reported under the
template's options with the front's report first: every structure
compared, every version's ``Mapping`` compared, and the error a shape
the spellings cannot hold raises compared by type and message.  The
sweep covers the paper's Fig. 1, 12 and 16 under the unscheduled
executor and each of the three policies at eight shapes -- n = P and
n < P among them -- and the fuzz programs, seeds 0..99.

A fuzz program may distribute with a fixed ``block(k)``, which cannot hold
an extent above ``k * P``: such shapes raise ``ShapeError`` on both paths,
from the hole of the version or distribution the spelling makes.

A stored template is checked once, at load, by ``verify_template``; the
sweeps hold it silent wherever ``verify_artifact`` is silent on every
patch, and the last tests hold it to name the check id the patches of a
structure mutant fail, to flag at least what the probe-instantiating
offline check it replaced flagged on a sweep of AST mutants, and to flag
every single-hole mutant that does not patch exactly as the sound
template does -- the load is what makes a stored template trusted.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro import ArtifactStore, CompilerOptions, CompilerSession
from repro.analysis.verify import verify_artifact, verify_template
from repro.apps.adi import build_adi_program
from repro.apps.fft2d import build_fft2d_program
from repro.apps.lu import build_lu_program
from repro.apps.sar import build_sar_program
from repro.compiler.pipeline import CODE_PASSES, Pipeline
from repro.errors import ShapeError
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import generate_case
from repro.ir.cfg import NodeKind
from repro.lang.ast_nodes import Block, TemplateDecl
from repro.lang.printer import print_program
from repro.lang.semantics import ResolvedSubroutine
from repro.mapping import Mapping, ProcessorArrangement
from repro.remap.graph import VersionTable
from test_store import FIG1, FIG12, FIG16, POLICIES, _run
from test_store import FIGURES as WORKLOADS

#: (n, P): n = P at (4, 4), n < P at (3, 4)
SHAPES = ((8, 2), (4, 4), (3, 4), (12, 3), (16, 4), (20, 2), (32, 4), (48, 8))

#: the shapes a fixed ``block(4)`` or ``block(8)`` cannot hold
BLOCK_K_OVERFLOWS = frozenset({(20, 2), (32, 4), (48, 8)})

FIGURES = {
    "fig1": (FIG1, {"n": 16}),
    "fig12": (FIG12, {"n": 16, "m": 3}),
    "fig16": (FIG16, {"n": 16, "t": 5}),
}


def _facts(compiled) -> dict:
    """Everything an artifact is made of, mappings included, per subroutine."""
    out = {}
    for name, cs in compiled.subroutines.items():
        res = cs.construction
        out[name] = dict(
            sub=res.sub,
            cfg=res.cfg,
            graph=res.graph,
            versions={a: res.versions.versions(a) for a in res.versions.arrays()},
            stmt_versions=res.stmt_versions,
            calls=res.calls,
            holes=res.holes,
            code=cs.code,
        )
    report = compiled.report
    out["report"] = (report.diagnostics, report.motion, report.removal, report.traffic)
    out["request"] = (compiled.options, compiled.bindings, compiled.processors)
    return out


def _outcome(instantiate, bindings, processors):
    """The artifact's facts, or the (type, message) of what it raised."""
    try:
        compiled = instantiate(bindings, processors)
    except ShapeError as exc:
        return type(exc), str(exc)
    assert verify_artifact(compiled) == []
    return _facts(compiled)


def _eager(template):
    """``template.instantiate`` done by an eager compile of its AST: the
    code passes and analyses its options name, reported under its options
    with the front's report first."""
    options = dataclasses.replace(
        template.options,
        passes=tuple(
            n for n in template.options.pass_names if n not in ("motion", "symbolize")
        ),
    )

    def instantiate(bindings, processors):
        merged = {**template.fixed_bindings, **bindings}
        compiled = Pipeline(options).compile(template.program, merged, processors)
        compiled.report.diagnostics[:0] = template.report.diagnostics
        compiled.report.motion.update(template.report.motion)
        return dataclasses.replace(compiled, options=template.options)

    return instantiate


def _check(template, bindings, shape) -> bool:
    """Assert the patch at ``shape`` equals an eager compile; True iff in domain."""
    n, p = shape
    args = ({**bindings, "n": n}, ProcessorArrangement("P", (p,)))
    patched = _outcome(template.instantiate, *args)
    assert patched == _outcome(_eager(template), *args), shape
    return isinstance(patched, dict)


def _template(text: str, bindings: dict, policy):
    options = CompilerOptions.symbolic(level=3, schedule=policy)
    template = Pipeline(options).serve(text, bindings, 4)[1]
    assert template is not None
    return template


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_templates_keep_their_structure_at_every_shape(figure, policy):
    """Each patch equals an eager compile and passes ``verify_artifact``,
    as the template passes the load's ``verify_template``, and records that
    it patched."""
    text, bindings = FIGURES[figure]
    template = _template(text, bindings, policy)
    assert verify_template(template) == []
    assert all(_check(template, bindings, shape) for shape in SHAPES)
    instantiated = template.instantiate({**bindings, "n": 12}, 3)
    assert instantiated.trace.pass_names == ("patch",)


def test_fuzz_templates_keep_their_structure_inside_their_domain():
    """Fuzz seeds 0..99, each under one of the four execution modes: the
    template passes the load's check, the patch equals an eager compile at
    every shape, and outside the program's domain raises the compile's
    ``ShapeError``."""
    outside_counts = dict.fromkeys(SHAPES, 0)
    for seed in range(100):
        case = generate_case(seed)
        policy = POLICIES[seed % len(POLICIES)]
        template = _template(print_program(case.program), case.bindings, policy)
        assert verify_template(template) == [], seed
        outside = [s for s in SHAPES if not _check(template, case.bindings, s)]
        assert set(outside) <= BLOCK_K_OVERFLOWS, seed
        for shape in outside:
            outside_counts[shape] += 1
    assert outside_counts[(20, 2)] > 0  # the domain limit is exercised


def _with_holes(template, name: str, holes: tuple):
    """``template`` with subroutine ``name``'s holes replaced."""
    structure = template.structure
    sub = dataclasses.replace(structure.subroutines[name], holes=holes)
    subs = {**structure.subroutines, name: sub}
    return dataclasses.replace(
        template, structure=dataclasses.replace(structure, subroutines=subs)
    )


def _fig12_remap_moves(template) -> tuple[int, int, list]:
    """Fig. 12's ``remap`` holes, its distributions first, and the positions
    of two moves of ``a`` out of version 0 in them."""
    holes = template.structure.subroutines["remap"].holes
    holes = sorted(holes, key=lambda h: h[0] != "distribution")  # stable
    moves = [i for i, h in enumerate(holes) if h[:2] == ("redistribute", "a") and h[3] == 0]
    assert len(moves) == 2
    return moves[0], moves[1], holes


def test_swapped_holes_fail_the_check():
    """Teeth: a template whose holes for two versions of one array are
    swapped patches the two mappings into each other's versions, and each
    patch still passes ``verify_artifact`` -- so the load checks each hole
    against the version its graph leaves there, and flags the swap.
    Building every distribution first, the swap aside, patches the same
    mappings and passes the load."""
    text, bindings = FIGURES["fig12"]
    template = _template(text, bindings, None)
    args = ({**bindings, "n": 16}, ProcessorArrangement("P", (4,)))

    def versions(instantiate):
        return _facts(instantiate(*args))["remap"]["versions"]

    fresh = versions(_eager(template))
    i, j, holes = _fig12_remap_moves(template)
    reordered = _with_holes(template, "remap", tuple(holes))
    assert verify_template(reordered) == [] and versions(reordered.instantiate) == fresh
    holes[i], holes[j] = holes[j], holes[i]
    mutant = _with_holes(template, "remap", tuple(holes))
    assert "holes" in {issue.check for issue in verify_template(mutant)}
    assert verify_artifact(mutant.instantiate(*args)) == []
    assert versions(mutant.instantiate) != fresh
    with pytest.raises(AssertionError):
        _check(mutant, bindings, (16, 4))


def test_versions_that_would_merge_fall_back_to_the_code_passes():
    """A hole that evaluates to an earlier version's mapping would make
    interning merge two versions: that instantiation runs the code passes
    after its resolve, and returns what an eager compile returns."""
    text, bindings = FIGURES["fig12"]
    template = _template(text, bindings, "aggregate")
    i, _, holes = _fig12_remap_moves(template)
    holes[i] = ("declared", "a")
    mutant = _with_holes(template, "remap", tuple(holes))
    args = ({**bindings, "n": 12}, ProcessorArrangement("P", (3,)))
    compiled = mutant.instantiate(*args)
    assert compiled.trace.pass_names[0] == "patch"
    assert compiled.trace.counter("patch", "patched") == 0
    options = template.options
    assert compiled.trace.pass_names[1:] == tuple(
        n for n in options.pass_names if n in CODE_PASSES and n != "resolve"
    )
    assert _facts(compiled) == _facts(_eager(template)(*args))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_a_symbolized_compile_serves_the_patch_of_its_own_template(figure, policy):
    """The compile that cuts a template returns the artifact the template
    patches at the compile's own shape, and traces every pass it ran."""
    text, bindings = FIGURES[figure]
    options = CompilerOptions.symbolic(level=3, schedule=policy)
    compiled, template = Pipeline(options).serve(text, bindings, 4)
    assert _facts(compiled) == _facts(template.instantiate(bindings, 4))
    assert compiled.trace.pass_names == options.pass_names


def _pickled_types(obj) -> set[type]:
    """The type of every object pickling ``obj`` writes."""
    seen: set[type] = set()

    class Scan(pickle.Pickler):
        def persistent_id(self, o):
            seen.add(type(o))
            return None

    Scan(io.BytesIO()).dump(obj)
    return seen


def test_cfg_and_graph_hold_no_geometry():
    """An artifact's CFG and remapping graph hold no mapping, resolved
    subroutine or version table: those live in its construction, beside
    them, and are what an instantiation replaces."""
    geometry = {Mapping, ResolvedSubroutine, VersionTable}
    compiled = [
        Pipeline(CompilerOptions.symbolic(level=3)).compile(text, bindings, 4)
        for text, bindings in FIGURES.values()
    ]
    case = generate_case(0)
    compiled.append(Pipeline(CompilerOptions()).compile(case.program, case.bindings, 4))
    for artifact in compiled:
        for cs in artifact.subroutines.values():
            res = cs.construction
            assert not _pickled_types((res.cfg, res.graph)) & geometry
            assert geometry <= _pickled_types(res)  # the scan sees them


# ---------------------------------------------------------------------------
# the load sees what the first request saw
# ---------------------------------------------------------------------------


def _with_structure(template, name: str, **fields):
    """``template`` with subroutine ``name``'s structure fields replaced."""
    structure = template.structure
    sub = dataclasses.replace(structure.subroutines[name], **fields)
    subs = {**structure.subroutines, name: sub}
    return dataclasses.replace(
        template, structure=dataclasses.replace(structure, subroutines=subs)
    )


def _structure_mutants(template):
    """Three ways to break a template's carried structure, each with the
    check id it breaks."""
    ((name, built),) = template.structure.subroutines.items()
    holes = tuple(h for h in built.holes if h[0] != "redistribute")
    remap = min(nid for nid, node in built.cfg.nodes.items() if node.kind is NodeKind.REMAP)
    graph = copy.deepcopy(built.graph)
    # a declared array where some target does not remap one (Fig. 16 has
    # a single array, which every vertex remaps: a name no vertex remaps)
    names = {h[1] for h in built.holes if h[0] == "declared"} | {"~ghost"}
    stray, edge = min(
        (a, edge) for edge in graph.edges for a in names if a not in graph.vertices[edge[1]].S
    )
    graph.edges[edge] = {*graph.edges[edge], stray}
    return {
        "holes": (_with_structure(template, name, holes=holes), "graph"),
        "stmt-key": (
            _with_structure(
                template, name, stmt_versions={**built.stmt_versions, remap: {"a": 0}}
            ),
            "stmt-keys",
        ),
        "edge-label": (_with_structure(template, name, graph=graph), "graph"),
    }


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_structure_mutants_fail_the_load_as_their_patches_fail_verification(
    figure, tmp_path
):
    """Teeth: each structure mutant is evicted by ``store.load``, and its
    instantiation, which still returns a patch, fails ``verify_artifact``
    on the check the load named."""
    text, bindings = FIGURES[figure]
    store = ArtifactStore(tmp_path / "s")
    for label, (mutant, check) in _structure_mutants(_template(text, bindings, None)).items():
        assert check in {i.check for i in verify_template(mutant)}, label
        assert store.store(("tkey", label), mutant)
        assert store.load(("tkey", label)) is None, label
        patch = mutant.instantiate({**bindings, "n": 16}, 4)
        assert check in {i.check for i in verify_artifact(patch)}, label
    assert store.stats["semantic_evicted"] == 3


#: what the offline probe-instantiating check of the previous store layout
#: flagged in the sweep below (Fig. 12's ``integer m, n, p`` unbinds the
#: compile-relevant ``m``, each other one drops an array declaration)
PROBE_FLAGGED = {
    ("fig1", "decl", 1), ("fig1", "decl", 2),
    ("fig12", "decl", 0), ("fig12", "decl", 1), ("fig12", "decl", 2), ("fig12", "decl", 3),
    ("fig16", "decl", 1),
}

def _ast_mutants(template):
    """The template with each declaration, then each top-level statement,
    of its one subroutine removed in turn."""
    (main,) = template.program.subroutines
    for part in ("decl", "stmt"):
        items = main.decls if part == "decl" else main.body.stmts
        for i in range(len(items)):
            rest = items[:i] + items[i + 1 :]
            sub = (
                dataclasses.replace(main, decls=rest)
                if part == "decl"
                else dataclasses.replace(main, body=Block(rest))
            )
            program = dataclasses.replace(template.program, subroutines=(sub,))
            yield (part, i), dataclasses.replace(template, program=program)


def test_mutant_sweep_flags_what_the_offline_probe_flagged(tmp_path):
    """Every declaration and top-level statement of Fig. 1, 12 and 16 is
    removed in turn from a stored template.  The load flags every mutant
    the probe flagged, and every declaration mutant: the structure records
    the declarations it was built over (Fig. 1 without
    ``align with B :: A`` served half the traffic before).  A mutant it
    passes is instantiated, and served like a fresh compile (values and
    traffic)."""
    options = CompilerOptions.symbolic(level=3, schedule="aggregate")
    flagged, declarations = set(), set()
    for figure, workload in (("fig1", "fig1"), ("fig12", "fig12-then"), ("fig16", "fig16")):
        w = WORKLOADS[workload]
        store = ArtifactStore(tmp_path / figure)
        writer = CompilerSession(store=store, options=options)
        writer.compile(w["source"], bindings=dict(w["bindings"], n=64), processors=4)
        ((tkey, template),) = writer._templates._entries.items()
        ref_values, ref_stats = _run(
            Pipeline(options).compile(w["source"], bindings=w["bindings"], processors=4), w
        )
        for (part, i), mutant in _ast_mutants(template):
            label = (figure, part, i)
            if part == "decl":
                declarations.add(label)
            assert store.store(tkey, mutant)
            if store.load(tkey) is None:
                flagged.add(label)
                continue
            reader = CompilerSession(store=store, options=options)
            compiled, tier = reader.compile_traced(
                w["source"], bindings=w["bindings"], processors=4
            )
            assert tier == "instantiated", label
            values, stats = _run(compiled, w)
            for a in ref_values:
                assert np.array_equal(values[a], ref_values[a]), (label, a)
            assert stats.snapshot() == ref_stats.snapshot(), label
    assert PROBE_FLAGGED <= flagged and declarations <= flagged
    assert len(flagged) > len(PROBE_FLAGGED)  # every top-level statement, too


# ---------------------------------------------------------------------------
# the load checks every hole against the node it names
# ---------------------------------------------------------------------------

#: fuzz seeds of the hole-mutant sweep (CI's nightly leg sets
#: ``REPRO_HOLE_SEEDS=100``: seeds 0..99)
HOLE_SEEDS = range(int(os.environ.get("REPRO_HOLE_SEEDS", "10")))

HOLE_KINDS = ("distribution", "declared", "dummy", "redistribute", "realign")

#: the (n, P) a hole mutant is patched at
MUTANT_SHAPES = ((16, 4), (12, 3))


#: two programs whose realigns take every kind of source a realign hole
#: records: another array's version, a redistribution, a declared template
#: and a dummy's declared mapping
REALIGNS = {
    "realigns": """
subroutine main()
  integer n
  real A(n, n), B(n, n)
!hpf$ template T1(n, n)
!hpf$ template T2(n, n)
!hpf$ align A with T1
!hpf$ align B with T2
!hpf$ dynamic A, B
!hpf$ distribute T1(block, *)
!hpf$ distribute T2(*, block)
  compute writes A, B
!hpf$ realign A with T2
  compute reads A writes A
!hpf$ redistribute T2(cyclic, *)
  compute reads A, B writes B
!hpf$ realign A(i, j) with B(j, i)
  compute reads A writes A
!hpf$ redistribute T1(*, cyclic)
!hpf$ realign B(i, j) with T1(j, i)
  compute reads A, B writes A
end
""",
    "realign-in-callee": """
subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  call sub(A)
  compute reads A
end

subroutine sub(X)
  integer n
  real X(n), Y(n)
!hpf$ template T(n)
!hpf$ align X with T
!hpf$ dynamic Y
!hpf$ distribute Y(cyclic)
!hpf$ distribute T(block)
  compute reads X writes Y
!hpf$ realign Y with T
  compute reads X, Y writes X
end
""",
}


def _hole_mutants(built, templates):
    """Every single-hole mutant of one subroutine's holes: each hole
    dropped, duplicated, swapped with the next, its node retargeted to
    every other CFG node, its source to every other version (and one past
    the end) and, for a realign, to every distribution origin (each CFG
    node's, each of ``templates``, each array's declared one), its array
    renamed to every other array, its kind changed to every other kind."""
    holes = built.holes
    arrays = sorted({h[1] for h in holes if h[0] != "distribution"})

    def put(i, hole):
        return (*holes[:i], hole, *holes[i + 1 :])

    for i, hole in enumerate(holes):
        yield (*holes[:i], *holes[i + 1 :])
        yield (*holes[: i + 1], hole, *holes[i + 1 :])
        if i + 1 < len(holes):
            yield (*holes[:i], holes[i + 1], hole, *holes[i + 2 :])
        at = {"distribution": 1, "redistribute": 2, "realign": 2}.get(hole[0])
        if at is not None:
            for nid in built.cfg.nodes:
                if nid != hole[at]:
                    yield put(i, (*hole[:at], nid, *hole[at + 1 :]))
        if hole[0] in ("redistribute", "realign"):
            sources = list(range(len(holes) + 1))
            if hole[0] == "realign":
                sources += [("distribution", nid) for nid in built.cfg.nodes]
                sources += [("template", t) for t in templates]
                sources += [("declared", a) for a in arrays]
            for src in sources:
                if src != hole[3]:
                    yield put(i, (*hole[:3], src))
        if hole[0] != "distribution":
            for a in arrays:
                if a != hole[1]:
                    yield put(i, (hole[0], a, *hole[2:]))
        for kind in HOLE_KINDS:
            if kind != hole[0]:
                yield put(i, (kind, *hole[1:]))


def _patched(template, bindings):
    """The patch's facts but its holes at each mutant shape, or the
    (type, message) of the ``ShapeError`` a shape outside its domain raises."""
    out = []
    for n, p in MUTANT_SHAPES:
        try:
            facts = _facts(template.instantiate({**bindings, "n": n}, p))
        except ShapeError as exc:
            out.append((type(exc), str(exc)))
            continue
        for part in facts.values():
            if isinstance(part, dict):
                part.pop("holes", None)
        out.append(facts)
    return out


def _sweep_hole_mutants(template, bindings, label) -> tuple[int, int]:
    """Hold every hole mutant of ``template`` to the load's check: flagged
    with a named issue, or patched as ``template`` is.  Returns (flagged,
    patched identically)."""
    reference = _patched(template, bindings)
    flagged = same = 0
    for name, built in template.structure.subroutines.items():
        decls = template.program.get(name).decls
        templates = [d.name for d in decls if isinstance(d, TemplateDecl)]
        for holes in _hole_mutants(built, templates):
            mutant = _with_holes(template, name, holes)
            issues = verify_template(mutant)
            assert all(issue.check != "crash" for issue in issues), (label, holes)
            if issues:
                flagged += 1
            else:
                assert _patched(mutant, bindings) == reference, (label, holes)
                same += 1
    return flagged, same


def _realign_programs():
    return [(name, (text, {"n": 16})) for name, text in sorted(REALIGNS.items())]


def _hole_sweep_cases():
    for figure, (text, bindings) in [*sorted(FIGURES.items()), *_realign_programs()]:
        for level in (0, 3):
            yield (figure, level), text, bindings, level
    for seed in HOLE_SEEDS:
        case = generate_case(seed)
        level = (0, 3)[seed % 2]
        yield ("fuzz", seed, level), print_program(case.program), case.bindings, level


def test_every_hole_mutant_is_flagged_by_the_load_or_patched_identically():
    """Each single-hole mutant of Fig. 1, 12 and 16 and the two realign
    programs (levels 0 and 3) and of the fuzz programs is either flagged by ``verify_template`` -- a named
    issue, never a crash -- or patches at (16, 4) and (12, 3) what the
    sound template patches, so no mutant the load passes raises at
    instantiation or is served a different artifact."""
    flagged = same = 0
    for label, text, bindings, level in _hole_sweep_cases():
        options = CompilerOptions.symbolic(level=level)
        template = Pipeline(options).serve(text, bindings, 4)[1]
        assert template is not None and verify_template(template) == [], label
        counts = _sweep_hole_mutants(template, bindings, label)
        flagged, same = flagged + counts[0], same + counts[1]
    assert flagged > same > 0


def test_a_source_version_moved_across_a_removed_realign_fails_the_load():
    """Fig. 1 at level 3: ``a`` is realigned (a_1), then redistributed
    (a_2 from a_1), and removal deletes the realign's copy.  The
    redistribute hole moved to source a_0 patches another a_2, and that
    patch passes ``verify_artifact``; the load checks the source against
    the version the vertex before it leaves, and flags it."""
    text, bindings = FIGURES["fig1"]
    template = _template(text, bindings, None)
    built = template.structure.subroutines["main"]
    i = next(i for i, hole in enumerate(built.holes) if hole[:2] == ("redistribute", "a"))
    assert built.holes[i][3] == 1
    mutant = _with_holes(
        template, "main", (*built.holes[:i], (*built.holes[i][:3], 0), *built.holes[i + 1 :])
    )
    patch = mutant.instantiate({**bindings, "n": 16}, 4)
    assert verify_artifact(patch) == []
    assert _patched(mutant, bindings) != _patched(template, bindings)
    assert {issue.check for issue in verify_template(mutant)} == {"holes"}


def test_malformed_holes_are_named_issues():
    """A hole of the wrong arity, with a field of the wrong type, or naming
    no CFG node, is reported, never raised -- a ``distribution`` hole
    turned ``declared`` among them (its int once reached ``sorted``)."""
    text, bindings = FIGURES["fig16"]
    template = _template(text, bindings, None)
    built = template.structure.subroutines["main"]
    k = next(i for i, hole in enumerate(built.holes) if hole[0] == "distribution")
    for bad in (
        ("declared", built.holes[k][1]),
        ("distribution",),
        ("distribution", max(built.cfg.nodes) + 1),
        ("realign", "a", built.holes[k][1], ("template",)),
        ("realign", "a", built.holes[k][1], ("distribution", "t")),
        ("realign", "a", built.holes[k][1], ("nowhere", "t")),
        ("redistribute", "a", built.holes[k][1], True),
        "distribution",
        (),
    ):
        holes = (*built.holes[:k], bad, *built.holes[k + 1 :])
        issues = verify_template(_with_holes(template, "main", holes))
        assert "holes" in {issue.check for issue in issues}, bad


def _symbolic_app(source: str) -> str:
    """An app's program with its ``16 x 16`` array at a symbolic extent."""
    head, rest = source.split("\n", 1)
    return f"{head}\n  integer n\n" + rest.replace("(16, 16)", "(n, n)")


def _sound_template_cases():
    for figure, (text, bindings) in [*sorted(FIGURES.items()), *_realign_programs()]:
        for level in range(4):
            for policy in POLICIES:
                yield (figure, level, policy), text, bindings, level, policy
    for entry in load_corpus(Path(__file__).parent / "fuzz_corpus"):
        yield (entry.name,), entry.source, entry.bindings, 3, None
    apps = {
        "adi": (build_adi_program(16), {"t": 2}),
        "fft2d": (build_fft2d_program(16), {}),
        "lu": (build_lu_program(16, 4)[0], {"steps": 4}),
        "sar": (build_sar_program(16), {"looks": 2}),
    }
    for app, (program, bindings) in apps.items():
        for level in range(4):
            text = _symbolic_app(print_program(program))
            yield (app, level), text, {**bindings, "n": 16}, level, None


def test_sound_templates_have_no_issues():
    """Every template of the figures and the realign programs (levels 0-3,
    four policies), the pinned corpus and the four apps at a symbolic extent (levels 0-3)
    passes the load's check, holes included.  (Every template any test
    cuts is held to it as well, by the suite's ``sound_templates``
    fixture.)"""
    seen = 0
    for label, text, bindings, level, policy in _sound_template_cases():
        options = CompilerOptions.symbolic(level=level, schedule=policy)
        template = Pipeline(options).serve(text, bindings, 4)[1]
        if template is not None:
            assert verify_template(template) == [], label
            seen += 1
    assert seen >= 80 + 14 + 16
