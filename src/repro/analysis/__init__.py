"""Static analysis: the dataflow solver, verifier, prover and lints.

Every analysis in the paper (Appendix B, C and D) is a "standard dataflow
problem" in its words; :mod:`repro.analysis.dataflow` provides the
iterative worklist solver that Appendix B's construction instantiates
(Appendices C and D run as hand-written loops over G_R).  On top of it sit
three consumers added by the static-analysis extension:

* :mod:`repro.analysis.verify` -- structural/semantic invariant checks
  over compiled artifacts (CFG shape, version def-before-use, remap-graph
  consistency, statement-key maps); run by the ``verify`` pass and on
  every artifact-store disk load.
* :mod:`repro.analysis.commsafety` -- static proofs that a communication
  plan moves exactly the bytes the mapping change requires and respects
  the one-port model; proven plans are stamped ``statically_verified``
  when the plan memo builds them and skip runtime re-validation.
* :mod:`repro.analysis.lints` -- rule-coded diagnostics (RPR0xx) for the
  paper's Fig. 2 catalog of wasteful remappings, plus CFG hygiene and
  scenario-reachability checks, surfaced via ``python -m repro.lint``.
"""

from repro.analysis.dataflow import Direction, solve

__all__ = ["Direction", "solve"]
