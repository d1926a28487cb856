"""Useless remapping removal (paper Sec. 4.1, Appendix C).

A leaving copy labelled ``U = N`` means the user asked for a remapping whose
result is never referenced before the array is remapped again: the copy
update can be skipped entirely.  Removal changes which copies reach later
vertices, so the reaching sets are recomputed as a may-forward transitive
closure over ``G_R``:

* initialization: ``R_A(v)`` = leaving copies of predecessors that are
  still *referenced* (``U != N``);
* propagation: reaching copies flow through predecessors whose array is not
  referenced (``U = N``), computing the transitive closure along unused
  paths.

The paper proves this correct and optimal (Theorem 1): the recomputed
(reaching, leaving) couples are exactly those that can occur at run time.
The theorem's path construction is the basis of the property tests in
``tests/test_optimize.py``.

Boundary vertices need care:

* ``v_c``/``v_0`` produce the argument/local initial copies; ``U = N``
  there means the initial copy is never referenced, so it is never
  instantiated ("there is no initial mapping imposed from entry",
  Sec. 5.2) -- but the *mapping* still reaches later vertices (the dummy
  copy physically exists in the caller), so removed boundary copies still
  seed the transitive closure.
* restore vertices (``v_a`` with flow-dependent reaching mapping) keep
  their whole restore set as leaving copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import NodeKind
from repro.ir.effects import Use
from repro.remap.graph import RemappingGraph

@dataclass
class RemovalReport:
    """What the optimization did -- consumed by tests and benchmarks."""

    removed: list[tuple[int, str]] = field(default_factory=list)
    kept: list[tuple[int, str]] = field(default_factory=list)

    @property
    def removed_count(self) -> int:
        return len(self.removed)


def remove_useless_remappings(graph: RemappingGraph) -> RemovalReport:
    """Delete N-labelled leaving copies and recompute reaching sets."""
    report = RemovalReport()

    # step 1: delete unused leaving mappings.  This covers flow-dependent
    # restore vertices too: restriction 1 forbids referencing an array in an
    # ambiguous state, so an unused restore (U = N) can always be dropped --
    # the array simply stays in the dummy mapping until the next remapping.
    for vid, v in graph.vertices.items():
        for a in sorted(v.S):
            if v.U.get(a, Use.N) is Use.N:
                v.removed.add(a)
                report.removed.append((vid, a))
            else:
                report.kept.append((vid, a))

    # step 2: recompute reaching mappings (may-forward transitive closure)
    _recompute_reaching(graph)
    return report


def _producers(graph: RemappingGraph, vid: int, a: str) -> frozenset[int]:
    """Copies leaving vertex ``vid`` for array ``a``, post-removal.

    A removed vertex produces nothing itself; boundary producers
    (``v_c``/``v_0``) still seed their initial copy even when 'removed',
    because the physical copy exists (caller-owned dummy) or the mapping is
    the array's declared one -- only its *instantiation* is skipped.
    """
    v = graph.vertices[vid]
    if a in v.removed and v.kind in (NodeKind.CALLV, NodeKind.ENTRY):
        leaving = v.L.get(a)
        return frozenset() if leaving is None else frozenset({leaving})
    return v.leaving_set(a)


def _recompute_reaching(graph: RemappingGraph) -> None:
    """Appendix C's two-step dataflow: 1-step init, then closure over N-paths."""
    # initialization: leaving copies of predecessors that still produce
    new_R: dict[tuple[int, str], frozenset[int]] = {}
    for vid, v in graph.vertices.items():
        for a in v.S:
            acc: frozenset[int] = frozenset()
            for pid in graph.preds(vid, a):
                p = graph.vertices[pid]
                if a in p.removed and p.kind not in (NodeKind.CALLV, NodeKind.ENTRY):
                    continue  # handled by the closure step
                acc |= _producers(graph, pid, a)
            new_R[(vid, a)] = acc

    # propagation: flow through predecessors whose copy was removed
    changed = True
    while changed:
        changed = False
        for vid, v in graph.vertices.items():
            for a in v.S:
                acc = new_R[(vid, a)]
                for pid in graph.preds(vid, a):
                    p = graph.vertices[pid]
                    if a in p.removed and p.kind not in (
                        NodeKind.CALLV,
                        NodeKind.ENTRY,
                    ):
                        acc |= new_R.get((pid, a), frozenset())
                if acc != new_R[(vid, a)]:
                    new_R[(vid, a)] = acc
                    changed = True

    for (vid, a), r in new_R.items():
        graph.vertices[vid].R[a] = r
