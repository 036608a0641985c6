"""Static analysis: plan semantic checks and the source checker.

* :func:`analyze_plan` type-checks expressions against the schemas flowing
  through a physical plan and verifies the paper's pipeline invariants
  (blocking build / driver probe, push-down classification) before a
  single ``getnext()`` call. It reports one :class:`Diagnostic` per finding;
  its structural errors (P001–P005) are the findings of
  :func:`repro.executor.plan.plan_structure`, the walk behind the
  executor's own gate ``validate_plan``.
* :mod:`repro.analysis.lint` is the source checker
  (``python -m repro.analysis.lint src/``): one Python-``ast`` engine that
  guards the ``K_i`` accounting, determinism and operator-declaration
  invariants (R001–R008) and machine-checks the TickBus locking protocol
  (X001–X006, the lock model of :mod:`repro.analysis.concurrency`) against
  the annotations of :mod:`repro.common.locks`. The R and X rules read one
  class table (:class:`repro.analysis.concurrency.ClassTable`).

Codes and severities live in one registry, :mod:`repro.analysis.diagnostics`.
"""

from repro.analysis.diagnostics import CODES, Diagnostic, DiagnosticReport, Severity
from repro.analysis.plancheck import analyze_plan
from repro.analysis.typecheck import ExprType, TypeChecker, infer_type

__all__ = [
    "CODES",
    "Diagnostic",
    "DiagnosticReport",
    "ExprType",
    "Severity",
    "TypeChecker",
    "analyze_plan",
    "infer_type",
]
