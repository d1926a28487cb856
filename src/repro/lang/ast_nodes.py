"""Abstract syntax tree for the mini-HPF DSL.

All nodes are plain dataclasses with structural equality, which the
parse -> print -> parse round-trip property tests rely on.  Extents and loop
bounds may be integer literals or symbolic names (``n``); symbols are
resolved against user-supplied bindings during semantic resolution.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

Extent = int | str  # literal or symbolic extent


# ---------------------------------------------------------------------------
# alignment subscripts:  align A(i, j) with T(j+1, *, 3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignSubscript:
    """One subscript of an align target: ``stride*dummy + offset``, ``*`` or const."""

    kind: str  # 'dummy' | 'const' | 'star'
    dummy: str = ""
    stride: int = 1
    offset: int = 0

    @classmethod
    def of_dummy(cls, dummy: str, stride: int = 1, offset: int = 0) -> "AlignSubscript":
        return cls("dummy", dummy=dummy, stride=stride, offset=offset)

    @classmethod
    def of_const(cls, value: int) -> "AlignSubscript":
        return cls("const", offset=value)

    @classmethod
    def star(cls) -> "AlignSubscript":
        return cls("star")


# ---------------------------------------------------------------------------
# distribution format spec:  block, block(4), cyclic, cyclic(2), *
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormatSpec:
    kind: str  # 'block' | 'cyclic' | 'star'
    arg: int | None = None


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    extents: tuple[Extent, ...]


@dataclass(frozen=True)
class ScalarDecl:
    """``integer n, m`` -- symbolic scalar parameters (loop bounds, extents)."""

    names: tuple[str, ...]


@dataclass(frozen=True)
class IntentDecl:
    intent: str  # 'in' | 'out' | 'inout'
    names: tuple[str, ...]


@dataclass(frozen=True)
class ProcessorsDecl:
    name: str
    extents: tuple[Extent, ...]


@dataclass(frozen=True)
class TemplateDecl:
    name: str
    extents: tuple[Extent, ...]


@dataclass(frozen=True)
class AlignDecl:
    """``align A(i,j) with T(j,i)`` or short form ``align with T :: A, B``."""

    alignee: str
    dummies: tuple[str, ...]  # empty = identity shorthand
    target: str
    subscripts: tuple[AlignSubscript, ...]  # empty = identity shorthand


@dataclass(frozen=True)
class DistributeDecl:
    target: str
    formats: tuple[FormatSpec, ...]
    onto: str = ""  # empty = the single declared processor arrangement


@dataclass(frozen=True)
class DynamicDecl:
    names: tuple[str, ...]


Decl = (
    ArrayDecl
    | ScalarDecl
    | IntentDecl
    | ProcessorsDecl
    | TemplateDecl
    | AlignDecl
    | DistributeDecl
    | DynamicDecl
)


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Compute:
    """Abstract computation with declared effects (paper's R / W / D classes).

    ``label`` optionally binds a runtime kernel; ``reads`` are only-read
    arrays, ``writes`` partially modified arrays (maybe read too), and
    ``defines`` fully redefined arrays.
    """

    label: str = ""
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    defines: tuple[str, ...] = ()


@dataclass(frozen=True)
class Realign:
    alignee: str
    dummies: tuple[str, ...]
    target: str
    subscripts: tuple[AlignSubscript, ...]


@dataclass(frozen=True)
class Redistribute:
    target: str
    formats: tuple[FormatSpec, ...]
    onto: str = ""


@dataclass(frozen=True)
class Kill:
    """Paper Sec. 4.3: user assertion that the arrays' values are dead."""

    names: tuple[str, ...]


@dataclass(frozen=True)
class Call:
    callee: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Block:
    stmts: tuple["Stmt", ...] = ()


@dataclass(frozen=True)
class If:
    cond: str  # abstract boolean input, resolved by the runtime environment
    then: Block
    orelse: Block = field(default_factory=Block)


@dataclass(frozen=True)
class Do:
    var: str
    lo: Extent
    hi: Extent
    body: Block = field(default_factory=Block)


Stmt = Compute | Realign | Redistribute | Kill | Call | If | Do


# ---------------------------------------------------------------------------
# program structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subroutine:
    name: str
    params: tuple[str, ...]
    decls: tuple[Decl, ...]
    body: Block


@dataclass(frozen=True)
class Program:
    subroutines: tuple[Subroutine, ...]

    def get(self, name: str) -> Subroutine:
        for s in self.subroutines:
            if s.name == name:
                return s
        raise KeyError(name)

    def with_subroutine(self, sub: Subroutine) -> "Program":
        """This program with the same-named subroutine replaced by ``sub``."""
        return Program(
            tuple(sub if s.name == sub.name else s for s in self.subroutines)
        )

    @property
    def bodies(self) -> dict[str, Block]:
        """Each subroutine's body by name: the call graph :func:`reachable` reads."""
        return {s.name: s.body for s in self.subroutines}


def walk_statements(block: Block):
    """Yield every statement in a block, recursing into structured bodies."""
    for s in block.stmts:
        yield s
        if isinstance(s, If):
            yield from walk_statements(s.then)
            yield from walk_statements(s.orelse)
        elif isinstance(s, Do):
            yield from walk_statements(s.body)


def reachable(bodies: Mapping[str, Block], entry: str) -> list[str]:
    """The names of ``bodies`` a run of ``entry`` can enter through calls.

    ``entry`` first, then depth first, a body's last call explored first
    (the order scenario axes are enumerated in); a callee with no body is
    not listed.
    """
    seen: list[str] = []
    work = [entry]
    while work:
        name = work.pop()
        if name in seen or name not in bodies:
            continue
        seen.append(name)
        work.extend(s.callee for s in walk_statements(bodies[name]) if isinstance(s, Call))
    return seen
