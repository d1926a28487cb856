"""Dynamic live copies ``M_A(v)`` (paper Sec. 4.2, Appendix D).

Keeping a superseded copy alive lets a later remapping *back* to its
mapping reuse it without communication -- but only copies that can actually
be reused are worth the memory.  ``M_A(v)`` is the set of copies that may
be live after ``v`` *and used later on*: a may-backward propagation over
``G_R`` along paths where the array is only read (``U in {N, R}``; a ``W``
or ``D`` makes older copies stale, so propagation stops there).

Initialization is the directly useful copies -- the vertex's own leaving
copies.  The runtime keeps exactly ``M_A(v)`` alive at each vertex
(codegen's cleanup step frees everything else), and its liveness flags
decide at run time whether a kept copy is actually reusable on the path
taken (paper Fig. 13/14).
"""

from __future__ import annotations

from repro.ir.effects import Use
from repro.remap.graph import RemappingGraph

def compute_live_copies(graph: RemappingGraph) -> None:
    """Fill ``M_A(v)`` for every vertex/array of the graph (in place)."""
    # initialization: directly useful mappings (the vertex's leaving copies)
    for v in graph.vertices.values():
        for a in v.S:
            v.M[a] = v.leaving_set(a)

    # propagation: maybe-useful copies flow backward over read-only vertices
    changed = True
    while changed:
        changed = False
        for vid, v in graph.vertices.items():
            for a in v.S:
                if v.U.get(a, Use.N) not in (Use.N, Use.R):
                    continue  # the array may be modified after v: stop
                acc = v.M[a]
                for sid in graph.succs(vid, a):
                    acc = acc | graph.vertices[sid].M.get(a, frozenset())
                if acc != v.M[a]:
                    v.M[a] = acc
                    changed = True


def max_live_copies(graph: RemappingGraph, array: str) -> int:
    """Largest number of simultaneously kept copies of ``array`` (memory bound)."""
    return max(
        (len(v.M.get(array, frozenset())) for v in graph.vertices.values()),
        default=0,
    )
