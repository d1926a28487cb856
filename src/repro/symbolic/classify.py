"""Binding classification: shape-symbolic vs compile-relevant.

Which bindings a compilation can depend on is a syntactic property of the
program: symbolic declaration extents (resolution consumes them) plus
undeclared symbolic loop bounds (legal only when a binding supplies them).
Everything else in a request's ``bindings`` is runtime-only.  This is the
one place that decides it -- the session keys its caches on it at first
contact with a source, the ``symbolize`` pass records it for the template
-- and it splits those compile-time names into two classes:

* **shape-symbolic** -- names that appear as symbolic extents of arrays
  or templates but *not* of processor arrangements.  These parameterize
  only the geometry of the data: resolution consumes them as extents and
  every downstream structure (version tables, rectangle sets, plans)
  varies with them in closed form.  A symbolic template erases them from
  its artifact key and re-supplies them at instantiation time.
* **compile-relevant** -- everything else the compilation can observe:
  symbolic processor-arrangement extents (they change the grid itself,
  and with it which ``symbolize``-guarded decisions are even legal) and
  undeclared loop bounds that are not also shape symbols (their values
  reach the run through the artifact's ``bindings``).

A name used both as an array extent and a loop bound (the ubiquitous
``real A(n)`` / ``do i = 1, n``) is shape-symbolic: instantiation always
supplies its concrete value, so nothing is lost by erasing it from the
key.  Declared scalars (``integer k``) are runtime inputs, never part of
either class -- exactly as for concrete artifact keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.ast_nodes import (
    ArrayDecl,
    Do,
    ProcessorsDecl,
    Program,
    ScalarDecl,
    TemplateDecl,
    walk_statements,
)

__all__ = ["BindingClassification", "classify_bindings"]


@dataclass(frozen=True)
class BindingClassification:
    """The ``symbolize`` pass's split of a program's compile-time names."""

    #: symbolic array/template extents (minus processor extents): erasable
    #: from a symbolic template's artifact key
    shape_symbolic: frozenset[str]
    #: compile-time names that must stay in every key (processor extents,
    #: non-shape undeclared loop bounds)
    compile_relevant: frozenset[str]

    @property
    def all_compile_time(self) -> frozenset[str]:
        """Every binding name the compilation can depend on."""
        return self.shape_symbolic | self.compile_relevant


def classify_bindings(program: Program) -> BindingClassification:
    """Classify a program's compile-time binding names.

    The compile-time set is the symbolic declaration extents plus the
    undeclared symbolic loop bounds.  Shape symbols are the
    array/template extents that are not also processor extents; the rest
    is compile-relevant.
    """
    shape: set[str] = set()
    proc: set[str] = set()
    bounds: set[str] = set()
    for sub in program.subroutines:
        scalars = {
            n for d in sub.decls if isinstance(d, ScalarDecl) for n in d.names
        }
        for d in sub.decls:
            if isinstance(d, (ArrayDecl, TemplateDecl)):
                shape.update(e for e in d.extents if isinstance(e, str))
            elif isinstance(d, ProcessorsDecl):
                proc.update(e for e in d.extents if isinstance(e, str))
        for s in walk_statements(sub.body):
            if isinstance(s, Do):
                bounds.update(
                    e
                    for e in (s.lo, s.hi)
                    if isinstance(e, str) and e not in scalars
                )
    shape -= proc
    return BindingClassification(
        shape_symbolic=frozenset(shape),
        compile_relevant=frozenset((proc | bounds) - shape),
    )
