"""What a template's instantiations share across shapes (ROADMAP 13(a)).

A template's code passes reason about mapping spellings and control flow;
``(n, P)`` only sizes the layouts.  These tests pin what that predicts and
what holds today: instantiated at eight shapes -- n = P and n < P among them
-- every template of the paper's Fig. 1, 12 and 16, and of the fuzz
programs, has the same remapping-graph vertices and edges, version
annotations, generated code, live sets (M) and removed sets at every shape,
under the unscheduled executor and each of the three policies.  Only the
version *mappings* differ.  Everything compared is keyed by CFG node id,
so instantiations built from one stored AST compare by value.

A fuzz program may distribute with a fixed ``block(k)``, which cannot hold
an extent above ``k * P``: such shapes raise ``ShapeError`` and lie outside
the program's domain, so they are counted apart, not compared.
"""

from __future__ import annotations

import pytest

from repro import CompilerOptions
from repro.compiler.pipeline import Pipeline
from repro.errors import ShapeError
from repro.fuzz.generator import generate_case
from repro.lang.printer import print_program
from repro.mapping import ProcessorArrangement
from test_store import FIG1, FIG12, FIG16, POLICIES

#: (n, P): n = P at (4, 4), n < P at (3, 4)
SHAPES = ((8, 2), (4, 4), (3, 4), (12, 3), (16, 4), (20, 2), (32, 4), (48, 8))

#: the shapes a fixed ``block(4)`` or ``block(8)`` cannot hold
BLOCK_K_OVERFLOWS = frozenset({(20, 2), (32, 4), (48, 8)})

FIGURES = {
    "fig1": (FIG1, {"n": 16}),
    "fig12": (FIG12, {"n": 16, "m": 3}),
    "fig16": (FIG16, {"n": 16, "t": 5}),
}


def _structure(compiled) -> dict:
    """Everything of an artifact but its version mappings, per subroutine."""
    out = {}
    for name, cs in compiled.subroutines.items():
        graph = cs.construction.graph
        out[name] = dict(
            vertices=sorted(graph.vertices),
            edges=graph.edges,
            stmt_versions=cs.construction.stmt_versions,
            code=cs.code,
            live_sets={vid: v.M for vid, v in graph.vertices.items()},
            removed={vid: v.removed for vid, v in graph.vertices.items()},
        )
    return out


def _sweep(text: str, bindings: dict, policy) -> tuple[list[dict], list[tuple]]:
    """The structure of each in-domain instantiation, and the shapes that
    raised ``ShapeError``."""
    template = Pipeline(CompilerOptions.symbolic(level=3, schedule=policy)).serve(
        text, bindings, 4
    )[1]
    assert template is not None
    structures, outside = [], []
    for n, p in SHAPES:
        try:
            compiled = template.instantiate({**bindings, "n": n}, ProcessorArrangement("P", (p,)))
        except ShapeError:
            outside.append((n, p))
            continue
        structures.append(_structure(compiled))
    return structures, outside


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_templates_keep_their_structure_at_every_shape(figure, policy):
    text, bindings = FIGURES[figure]
    structures, outside = _sweep(text, bindings, policy)
    assert outside == []
    for other in structures[1:]:
        assert other == structures[0], (figure, policy)


def test_fuzz_templates_keep_their_structure_inside_their_domain():
    """Fuzz seeds 0..99, each under one of the four execution modes."""
    outside_counts = dict.fromkeys(SHAPES, 0)
    for seed in range(100):
        case = generate_case(seed)
        policy = POLICIES[seed % len(POLICIES)]
        structures, outside = _sweep(print_program(case.program), case.bindings, policy)
        assert set(outside) <= BLOCK_K_OVERFLOWS, seed
        assert len(structures) >= len(SHAPES) - len(BLOCK_K_OVERFLOWS)
        for other in structures[1:]:
            assert other == structures[0], (seed, policy)
        for shape in outside:
            outside_counts[shape] += 1
    assert outside_counts[(20, 2)] > 0  # the domain limit is exercised
