"""Finding shapes and the code registry of the static-analysis passes.

The plan semantic analyzer (:mod:`repro.analysis.typecheck`,
:mod:`repro.analysis.plancheck`) reports one :class:`Diagnostic` per
finding: a stable code, a severity, a human message, a plan-node location
and an optional fix hint. The source checker (:mod:`repro.analysis.lint`,
which runs the R rules and the lock-discipline X rules of
:mod:`repro.analysis.concurrency`) reports one :class:`Violation` per
finding: a code at a ``file:line``. :data:`CODES` registers every plan
code and every X code with its default severity and one-line description,
so the table in ``docs/ANALYSIS.md`` has a single source of truth; the R
descriptions live in :data:`repro.analysis.lint.RULES`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import AnalysisError

__all__ = ["CODES", "Diagnostic", "DiagnosticReport", "Severity", "Violation"]


class Severity(enum.IntEnum):
    """Diagnostic severity; comparisons follow escalation order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


#: Registry of every diagnostic code: default severity + one-line description.
#: P* = plan structure, T* = expression typing, J* = join keys,
#: A* = aggregation, I* = pipeline invariants, C* = estimator classification,
#: X* = lock discipline (repro.analysis.concurrency, run by repro.analysis.lint).
CODES: dict[str, tuple[Severity, str]] = {
    "P001": (Severity.ERROR, "operator appears more than once in the plan tree"),
    "P002": (Severity.ERROR, "blocking child index out of range"),
    "P003": (Severity.ERROR, "driver child index out of range"),
    "P004": (Severity.ERROR, "operator state is not runnable (already closed or exhausted)"),
    "P005": (Severity.ERROR, "driver child is also declared blocking"),
    "T001": (Severity.ERROR, "unknown column reference"),
    "T002": (Severity.ERROR, "ambiguous column reference"),
    "T003": (Severity.ERROR, "comparison between incompatible types"),
    "T004": (Severity.ERROR, "arithmetic over a non-numeric operand"),
    "T005": (Severity.WARNING, "non-boolean expression used where a predicate is expected"),
    "T006": (Severity.WARNING, "IN list members incompatible with the tested expression"),
    "J001": (Severity.ERROR, "join key does not resolve in the child schema"),
    "J002": (Severity.ERROR, "join key type mismatch (string vs numeric)"),
    "J003": (Severity.WARNING, "join key numeric width mismatch (int vs float)"),
    "A001": (Severity.ERROR, "aggregate input column does not resolve"),
    "A002": (Severity.ERROR, "sum/avg over a non-numeric column"),
    "A003": (Severity.ERROR, "GROUP BY column does not resolve"),
    "I001": (
        Severity.ERROR,
        "hash join must declare a blocking build (child 0) and a driver probe "
        "(child 1) for ONCE estimation to apply",
    ),
    "I002": (
        Severity.WARNING,
        "child edge is neither blocking nor the driver; pipeline decomposition "
        "cannot attribute its work",
    ),
    "C001": (Severity.INFO, "pipeline join classified: same-attribute push-down"),
    "C002": (Severity.INFO, "pipeline join classified: Case 1 (other base-stream attribute)"),
    "C003": (Severity.INFO, "pipeline join classified: Case 2 (derived histogram required)"),
    "C101": (Severity.WARNING, "chain falls back to one binary ONCE estimator per join"),
    "C102": (
        Severity.WARNING,
        "chain base stream is order-clustered; ONCE confidence bounds assume random order",
    ),
    "X001": (Severity.ERROR, "unguarded read/write of a lock-guarded attribute"),
    "X002": (Severity.ERROR, "guarded method called without its lock provably held"),
    "X003": (Severity.ERROR, "lock acquired on a path that can exit without release"),
    "X004": (Severity.ERROR, "inconsistent lock-acquisition order (potential deadlock cycle)"),
    "X005": (Severity.ERROR, "blocking call while holding a critical (sampling) lock"),
    "X006": (Severity.WARNING, "guarded mutable state escapes its lock to another thread"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding from an analysis pass."""

    code: str
    severity: Severity
    message: str
    location: str | None = None
    hint: str | None = None

    def render(self) -> str:
        loc = f" [{self.location}]" if self.location else ""
        hint = f"\n    hint: {self.hint}" if self.hint else ""
        return f"{self.severity.label:>7} {self.code}{loc}: {self.message}{hint}"


@dataclass(frozen=True)
class Violation:
    """One source-checker finding: ``code`` at ``path:line``. ``symbol``
    names the function an X finding sits in (empty for R findings)."""

    code: str
    path: str
    line: int
    message: str
    symbol: str = ""

    def render(self) -> str:
        where = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}: {self.code}{where} {self.message}"


class DiagnosticReport:
    """An ordered collection of diagnostics with severity queries."""

    def __init__(self, diagnostics: list[Diagnostic] | None = None):
        self.diagnostics: list[Diagnostic] = list(diagnostics or [])

    def add(
        self,
        code: str,
        message: str,
        location: str | None = None,
        hint: str | None = None,
        severity: Severity | None = None,
    ) -> Diagnostic:
        """Record a diagnostic; severity defaults from the :data:`CODES` registry."""
        if severity is None:
            if code not in CODES:
                raise KeyError(f"unregistered diagnostic code {code!r}")
            severity = CODES[code][0]
        diag = Diagnostic(code, severity, message, location, hint)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "DiagnosticReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def render(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [d.render() for d in self.diagnostics if d.severity >= min_severity]
        return "\n".join(lines)

    def raise_if_errors(self, context: str = "plan analysis") -> None:
        """Raise :class:`AnalysisError` summarising all ERROR diagnostics."""
        errors = self.errors
        if not errors:
            return
        body = "\n".join(d.render() for d in errors)
        raise AnalysisError(
            f"{context} found {len(errors)} error(s):\n{body}", report=self
        )
