"""Unit tests for the remapping-graph data structures."""

from __future__ import annotations

import pickle

from repro.ir.cfg import NodeKind
from repro.ir.effects import Use
from repro.mapping import DistFormat, Mapping, ProcessorArrangement
from repro.remap.graph import GRVertex, RemappingGraph, VersionTable

P4 = ProcessorArrangement("P", (4,))


def m(fmt):
    return Mapping.simple((16,), (fmt,), P4)


# ---------------------------------------------------------------------------
# version table
# ---------------------------------------------------------------------------


def test_version_interning_is_structural():
    vt = VersionTable()
    block = m(DistFormat.block())
    cyclic = m(DistFormat.cyclic())
    assert vt.version_of("a", block) == 0
    assert vt.version_of("a", cyclic) == 1
    assert vt.version_of("a", block) == 0  # same mapping, same version
    assert vt.count("a") == 2
    assert vt.mapping_of("a", 1) is cyclic or vt.mapping_of("a", 1) == cyclic


def test_same_layout_different_template_distinct_versions():
    """The paper's two-level subtlety: equal layouts on distinct templates
    must stay distinct versions (a later REDISTRIBUTE of one template must
    not affect arrays aligned to the other)."""
    vt = VersionTable()
    a = Mapping.simple((16,), (DistFormat.block(),), P4, name="x")
    b = Mapping.simple((16,), (DistFormat.block(),), P4, name="y")
    assert a.same_layout(b)
    assert vt.version_of("a", a) != vt.version_of("a", b)


def test_versions_are_per_array():
    vt = VersionTable()
    assert vt.version_of("a", m(DistFormat.block())) == 0
    assert vt.version_of("b", m(DistFormat.cyclic())) == 0
    assert vt.arrays() == ["a", "b"]
    assert vt.name("a", 1) == "a_1"


# ---------------------------------------------------------------------------
# graph topology and labels
# ---------------------------------------------------------------------------


def mk_graph():
    g = RemappingGraph()
    v1 = GRVertex(1, NodeKind.REMAP, "r1", S={"a"}, L={"a": 1}, R={"a": frozenset({0})})
    v1.U["a"] = Use.R
    v2 = GRVertex(2, NodeKind.REMAP, "r2", S={"a"}, L={"a": 0}, R={"a": frozenset({1})})
    v2.U["a"] = Use.N
    g.vertices = {1: v1, 2: v2}
    g.add_edge(1, 2, "a")
    return g, v1, v2


def test_edges_and_neighbors():
    g, v1, v2 = mk_graph()
    assert g.succs(1, "a") == [2]
    assert g.preds(2, "a") == [1]
    assert g.succs(1, "other") == []
    assert g.vertex_ids() == [1, 2]


def test_adjacency_index_is_derived_state():
    """``preds``/``succs`` answer from an index ``add_edge`` keeps; the index
    is not a field: it reaches neither ``==``, ``repr`` nor a pickle, and a
    copy that arrives without it rebuilds it from ``edges``."""
    g, _, _ = mk_graph()
    g.add_edge(1, 2, "b")
    g.add_edge(2, 1, "a")
    g.add_edge(1, 1, "b")
    fresh = RemappingGraph(dict(g.vertices))
    for src, dst, array in [(1, 2, "a"), (1, 2, "b"), (2, 1, "a"), (1, 1, "b")]:
        fresh.edges.setdefault((src, dst), set()).add(array)  # no index kept
    assert g == fresh and repr(g) == repr(fresh)
    assert pickle.dumps(g) == pickle.dumps(fresh)
    assert "_adj" not in pickle.loads(pickle.dumps(g)).__dict__

    def scan(graph, v, array, end):
        return [
            pair[1 - end]
            for pair, arrays in graph.edges.items()
            if pair[end] == v and (array is None or array in arrays)
        ]

    loaded = pickle.loads(pickle.dumps(g))
    loaded.add_edge(2, 2, "a")  # the rebuilt index stays current
    for graph in (g, fresh, loaded):
        for v in (1, 2, 3):
            for array in (None, "a", "b", "other"):
                assert graph.succs(v, array) == scan(graph, v, array, 0)
                assert graph.preds(v, array) == scan(graph, v, array, 1)


def test_leaving_set_states():
    g, v1, v2 = mk_graph()
    assert v1.leaving_set("a") == {1}
    v2.removed.add("a")
    assert v2.leaving_set("a") == frozenset()
    v1.restore["a"] = frozenset({0, 1})
    assert v1.leaving_set("a") == {0, 1}


def test_counts_and_used_versions():
    g, v1, v2 = mk_graph()
    assert g.remap_count() == 2
    v2.removed.add("a")
    assert g.remap_count() == 1
    assert g.removed_count() == 1
    # v1 leaves copy 1 with U=R (used); v2's copy is removed
    assert g.used_versions("a") == {1}


def test_dump_is_readable():
    g, v1, v2 = mk_graph()
    text = g.dump()
    assert "#1" in text and "#2" in text
    assert "a_1" in text
    assert "-> #2" in text
    assert "R" in text  # use label
