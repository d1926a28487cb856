"""The remapping graph ``G_R`` (paper Appendix A).

Vertices are remapping statements (explicit ``realign``/``redistribute``,
the call-site vertices ``v_b``/``v_a``, the kill directive, and the
``v_c``/``v_0``/``v_e`` boundary vertices).  An edge ``v -> v'`` labelled
with array ``A`` denotes a control-flow path on which ``A`` is remapped at
both vertices and not in between.

Each vertex carries, per remapped array ``A`` (paper Fig. 9):

* ``L_A(v)`` -- the leaving copy (the version that must be referenced after
  the vertex); ``None`` once useless-remapping removal deleted it;
* ``R_A(v)`` -- the set of copies that may reach the vertex;
* ``U_A(v)`` -- conservative use information for the leaving copy
  (:class:`~repro.ir.effects.Use`);
* ``M_A(v)`` -- the copies worth keeping live after the vertex
  (Appendix D), filled by :mod:`repro.remap.livecopies`.

Array *versions* are interned per mapping signature in a
:class:`VersionTable`: version 0 is the declared mapping, further versions
are numbered in discovery order, matching the paper's ``A_0, A_1, ...``
notation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.ir.cfg import NodeKind
from repro.ir.effects import Use
from repro.mapping.mapping import Mapping


class VersionTable:
    """Interns array mappings as dense version ids (``A_0``, ``A_1``, ...).

    Identity is *structural* mapping equality (alignment + distribution),
    not layout equality: two mappings can place every element identically
    yet behave differently under a later ``REDISTRIBUTE`` of their (distinct)
    templates -- the paper's point that HPF's two-level mapping makes the
    reaching-mapping problem harder than reaching definitions.  Copies
    between same-layout versions cost zero messages at run time, so the
    distinction is free communication-wise.
    """

    def __init__(self, versions: dict[str, list[Mapping]] | None = None) -> None:
        """A table holding ``versions`` (each array's pairwise distinct
        mappings, in version order), empty by default."""
        self._versions: dict[str, list[Mapping]] = versions if versions is not None else {}
        # per array, mapping -> version; built by an array's first intern
        self._index: dict[str, dict[Mapping, int]] = {}

    def version_of(self, array: str, mapping: Mapping) -> int:
        idx = self._index.get(array)
        if idx is None:
            known = self._versions.get(array, ())
            idx = self._index[array] = {m: v for v, m in enumerate(known)}
        v = idx.get(mapping)
        if v is None:
            v = len(self._versions.setdefault(array, []))
            self._versions[array].append(mapping)
            idx[mapping] = v
        return v

    def mapping_of(self, array: str, version: int) -> Mapping:
        return self._versions[array][version]

    def versions(self, array: str) -> list[Mapping]:
        return list(self._versions.get(array, []))

    def count(self, array: str) -> int:
        return len(self._versions.get(array, []))

    def arrays(self) -> list[str]:
        return sorted(self._versions)

    def name(self, array: str, version: int) -> str:
        return f"{array}_{version}"


@dataclass
class GRVertex:
    """One remapping-graph vertex with its per-array labels."""

    cfg_id: int
    kind: NodeKind
    label: str = ""
    S: set[str] = field(default_factory=set)
    L: dict[str, int | None] = field(default_factory=dict)
    R: dict[str, frozenset[int]] = field(default_factory=dict)
    U: dict[str, Use] = field(default_factory=dict)
    M: dict[str, frozenset[int]] = field(default_factory=dict)
    # v_a restore vertices: flow-dependent mapping to restore (Fig. 15/18);
    # a singleton restore set is recorded in L like a normal remapping
    restore: dict[str, frozenset[int]] = field(default_factory=dict)
    # arrays whose reaching values are certainly dead (kill analysis):
    # the copy needs no communication even if L is kept
    dead_source: set[str] = field(default_factory=set)
    # arrays whose leaving copy was deleted by useless-remapping removal
    removed: set[str] = field(default_factory=set)

    def leaving_set(self, a: str) -> frozenset[int]:
        """The copies that may leave this vertex for ``a`` (empty if removed)."""
        if a in self.removed:
            return frozenset()
        if a in self.restore:
            return self.restore[a]
        leaving = self.L.get(a)
        return frozenset() if leaving is None else frozenset({leaving})

    def describe(self) -> str:
        parts = []
        for a in sorted(self.S):
            leaving = self.L.get(a)
            lv = f"{a}_{leaving}" if leaving is not None else "-"
            rv = "{" + ",".join(str(x) for x in sorted(self.R.get(a, ()))) + "}"
            parts.append(f"{a}: {rv} --{self.U.get(a, Use.N)}--> {lv}")
        return f"[{self.label or self.kind.value}] " + "; ".join(parts)


@dataclass
class RemappingGraph:
    """``G_R``: vertices indexed by CFG node id, labelled edges.  It names
    versions by number only: their mappings live in the construction's
    :class:`VersionTable`."""

    vertices: dict[int, GRVertex] = field(default_factory=dict)
    # (src_cfg_id, dst_cfg_id) -> set of array names remapped at both ends
    edges: dict[tuple[int, int], set[str]] = field(default_factory=dict)
    v_c: int = -1
    v_0: int = -1
    v_e: int = -1

    # -- topology ------------------------------------------------------------

    def add_edge(self, src: int, dst: int, array: str) -> None:
        """The only writer of ``edges`` (and so of the adjacency index)."""
        succ, pred = self._adjacency()
        arrays = self.edges.get((src, dst))
        if arrays is None:
            arrays = self.edges[(src, dst)] = set()
            succ.setdefault(src, []).append((dst, arrays))
            pred.setdefault(dst, []).append((src, arrays))
        arrays.add(array)

    def _adjacency(self) -> tuple[dict, dict]:
        """``vertex -> [(neighbour, the edge's array set)]`` out and in, in
        ``edges`` order.  Derived state: an instance attribute, not a field,
        so it never reaches ``==``, ``repr`` or a pickle; rebuilt from
        ``edges`` by the first query of a copy that arrived without it."""
        adjacency = self.__dict__.get("_adj")
        if adjacency is None:
            succ: dict[int, list] = {}
            pred: dict[int, list] = {}
            for (s, d), arrays in self.edges.items():
                succ.setdefault(s, []).append((d, arrays))
                pred.setdefault(d, []).append((s, arrays))
            adjacency = self._adj = (succ, pred)
        return adjacency

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def succs(self, v: int, array: str | None = None) -> list[int]:
        return [
            d
            for d, arrays in self._adjacency()[0].get(v, ())
            if array is None or array in arrays
        ]

    def preds(self, v: int, array: str | None = None) -> list[int]:
        return [
            s
            for s, arrays in self._adjacency()[1].get(v, ())
            if array is None or array in arrays
        ]

    def vertex_ids(self) -> list[int]:
        return sorted(self.vertices)

    # -- queries used by tests and benchmarks -----------------------------------

    def remap_count(self) -> int:
        """Number of (vertex, array) remapping slots still producing a copy."""
        return sum(
            1
            for v in self.vertices.values()
            for a in v.S
            if v.leaving_set(a)
        )

    def removed_count(self) -> int:
        """(vertex, array) slots deleted by useless-remapping removal."""
        return sum(1 for v in self.vertices.values() for a in v.S if a in v.removed)

    def used_versions(self, array: str) -> set[int]:
        """All versions the array may be used with (paper Fig. 12 discussion)."""
        out: set[int] = set()
        for v in self.vertices.values():
            leaving = v.L.get(array)
            if leaving is not None and v.U.get(array, Use.N) is not Use.N:
                out.add(leaving)
        return out

    def dump(self) -> str:
        lines = []
        for vid in self.vertex_ids():
            lines.append(f"#{vid} " + self.vertices[vid].describe())
        for (s, d), arrays in sorted(self.edges.items()):
            lines.append(f"  #{s} -> #{d}  [{', '.join(sorted(arrays))}]")
        return "\n".join(lines)
