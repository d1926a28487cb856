"""Exception hierarchy for the repro package.

The paper (Sec. 2.1) imposes language restrictions whose violations the
compiler must *report*, not silently mis-compile.  Each restriction gets a
dedicated exception so tests and users can distinguish them:

* :class:`AmbiguousMappingError` -- a reference to an array whose mapping is
  control-flow dependent at the reference point (paper Fig. 5).  Note that an
  ambiguous *state* is legal as long as the array is not referenced in that
  state (paper Fig. 6); only the reference is an error.
* :class:`MissingInterfaceError` -- a call to a subroutine with no explicit
  interface describing dummy-argument mappings (restriction 2).
* :class:`TranscriptiveMappingError` -- use of ``INHERIT``-style transcriptive
  dummy mappings (restriction 3), which the paper forbids.
* :class:`MultipleLeavingMappingsError` -- a remapping statement with more
  than one possible leaving mapping for an array (paper Fig. 21); the
  presentation assumes -- and we enforce -- a single leaving mapping.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# front-end errors
# ---------------------------------------------------------------------------


class ParseError(ReproError):
    """Raised by the mini-HPF parser on malformed source text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column is not None else "") + f": {message}"
        super().__init__(message)


class SemanticError(ReproError):
    """Raised on name-resolution or directive legality violations."""


class ArtifactStoreError(ReproError):
    """The persistent artifact store is unusable (not a corrupt entry).

    Corrupt, truncated or stale *entries* are never an error: the store
    treats them as misses, evicts them, and the caller recompiles (the
    load path must degrade, never raise).  This exception is reserved for
    conditions that make the store itself unusable -- an entry directory
    that cannot be created, an unwritable root -- surfaced at
    construction/maintenance time, where failing loudly beats silently
    serving nothing."""


class ArtifactFrozenError(ReproError):
    """A frozen (cached, shareable) compiled artifact was mutated.

    :class:`~repro.compiler.session.CompilerSession` freezes artifacts
    before inserting them into its cache: from then on the object may be
    executed by any number of threads concurrently, so an in-place
    mutation (setting an attribute) is a bug and raises immediately
    instead of corrupting another request's run."""


# ---------------------------------------------------------------------------
# mapping / layout errors
# ---------------------------------------------------------------------------


class MappingError(ReproError):
    """Raised on ill-formed alignments or distributions."""


class ShapeError(MappingError):
    """Raised when extents of arrays, templates and processors disagree."""


# ---------------------------------------------------------------------------
# language-restriction violations (paper Sec. 2.1)
# ---------------------------------------------------------------------------


class RestrictionError(SemanticError):
    """Base class for violations of the paper's language restrictions."""


class AmbiguousMappingError(RestrictionError):
    """A referenced array has several possible reaching mappings (Fig. 5)."""


class MissingInterfaceError(RestrictionError):
    """A called subroutine has no explicit interface (restriction 2)."""


class TranscriptiveMappingError(RestrictionError):
    """A dummy argument uses a transcriptive (inherited) mapping (restriction 3)."""


class MultipleLeavingMappingsError(RestrictionError):
    """A remapping statement admits several leaving mappings (Fig. 21)."""


# ---------------------------------------------------------------------------
# static-analysis errors
# ---------------------------------------------------------------------------


class AnalysisError(ReproError):
    """Base class for errors raised by the static-analysis subsystem
    (:mod:`repro.analysis`)."""


class DataflowDivergenceError(AnalysisError):
    """The iterative dataflow solver hit its iteration bound.

    All the paper's lattices are finite powersets, so a correctly stated
    problem always converges; reaching the bound means the transfer
    function is non-monotone (or the bound was set pathologically low).
    The error carries ``iterations`` and the offending ``node`` so the
    broken problem can be diagnosed rather than silently yielding a wrong
    fixpoint."""

    def __init__(self, iterations: int, node: int | None = None):
        self.iterations = iterations
        self.node = node
        at = f" (last node: {node})" if node is not None else ""
        super().__init__(
            f"dataflow failed to converge after {iterations} iterations"
            f"{at}: non-monotone transfer function?"
        )


class ArtifactVerificationError(AnalysisError):
    """A compiled artifact failed static invariant verification.

    Raised by :func:`repro.analysis.verify.assert_verified` (and the
    opt-in ``verify`` pipeline pass) when
    :func:`repro.analysis.verify.verify_artifact` finds structural or
    semantic invariant violations.  The persistent store never raises
    this: a disk-loaded artifact that fails deep verification is evicted
    and treated as a miss instead (the load path degrades to recompile)."""

    def __init__(self, issues: list):
        self.issues = list(issues)
        lines = "; ".join(str(i) for i in self.issues[:5])
        more = f" (+{len(self.issues) - 5} more)" if len(self.issues) > 5 else ""
        super().__init__(
            f"artifact failed static verification with {len(self.issues)} "
            f"issue(s): {lines}{more}"
        )


# ---------------------------------------------------------------------------
# symbolic-shape errors
# ---------------------------------------------------------------------------


class SymbolicBindingError(ReproError):
    """A symbolic expression or template was evaluated with a missing or
    invalid binding (unknown size symbol, non-positive divisor, or an
    instantiation request that does not supply every shape symbol the
    template was parameterized over)."""


# ---------------------------------------------------------------------------
# runtime errors
# ---------------------------------------------------------------------------


class TrafficPredictionError(ReproError):
    """The static traffic estimator could not simulate a program (missing
    runtime values, or a divergence between prediction and compiled code)."""


class ScheduleError(ReproError):
    """A communication schedule violated the one-port phase model (a rank
    asked to send or receive twice in one contention-free phase), or an
    unknown scheduling policy reached the schedule subsystem.  (Options
    validation follows the :class:`CompilerOptions` convention instead and
    raises :class:`ValueError`, as for unknown pass names.)"""


class RuntimeRemapError(ReproError):
    """Base class for errors raised while executing compiled programs."""


class DeadCopyError(RuntimeRemapError):
    """A non-live array version was referenced without re-instantiation."""


class OutOfMemoryError(RuntimeRemapError):
    """The memory manager could not satisfy an allocation even after eviction."""


class TransportError(RuntimeRemapError):
    """The multi-process transport failed: a worker died, a phase moved the
    wrong bytes, the shared arena overflowed, or the platform cannot fork."""
