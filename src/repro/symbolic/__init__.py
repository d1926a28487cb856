"""What the compiler needs to treat shapes symbolically (PR 7).

* :mod:`repro.symbolic.scenarios` -- the scenario machinery (branch /
  trip-count / input grids) promoted out of :mod:`repro.spmd.traffic`,
  where it had grown in PR 2;
* :mod:`repro.symbolic.classify` -- the binding classifier behind the
  ``symbolize`` pipeline pass: which bindings are *shape-symbolic*
  (erasable from artifact keys) vs *compile-relevant*.

Consumers: the traffic estimator (``spmd/traffic.py``) walks the scenario
grids; the ``symbolize`` pass in ``compiler/pipeline.py``, the template
form in ``compiler/template.py`` and the shape lints use the classifier.
Ownership itself has one spelling, on concrete integers:
:func:`repro.mapping.ownership.dim_owned`.
"""

from repro.symbolic.classify import BindingClassification, classify_bindings
from repro.symbolic.scenarios import Scenario, enumerate_scenarios, runtime_unknowns

__all__ = [
    "BindingClassification",
    "Scenario",
    "classify_bindings",
    "enumerate_scenarios",
    "runtime_unknowns",
]
