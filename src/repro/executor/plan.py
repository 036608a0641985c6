"""Plan-tree utilities: traversal, validation, EXPLAIN-style printing.

The physical operator tree *is* the plan; these helpers assign node ids,
check structural sanity before execution (the one copy of the structural
rules P001–P005, which the analyzer reports too), and render the tree for
humans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.common.errors import PlanError
from repro.executor.operators.base import Operator, OperatorState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.diagnostics import DiagnosticReport

__all__ = ["check_plan", "explain", "plan_structure", "validate_plan", "walk"]


def walk(root: Operator) -> Iterator[Operator]:
    """Pre-order traversal of the plan tree."""
    stack = [root]
    while stack:
        op = stack.pop()
        yield op
        stack.extend(reversed(op.children()))


#: A structural finding: ``(code, operator, message)``, code P001–P005.
Finding = tuple[str, Operator, str]

_SPENT = (OperatorState.EXHAUSTED, OperatorState.CLOSED)


def plan_structure(root: Operator) -> tuple[list[Operator], list[Finding]]:
    """Pre-order walk visiting each operator once, plus every structural
    finding (the P rules of :data:`repro.analysis.diagnostics.CODES`).

    A re-encountered operator is reported as P001 and not descended into,
    so a shared subplan or a cycle never loops. Per operator: P002/P003 a
    blocking/driver child index out of range, P005 a driver child that is
    also declared blocking, P004 an exhausted or closed operator.
    """
    seen: set[int] = set()
    ops: list[Operator] = []
    findings: list[Finding] = []
    stack = [root]
    while stack:
        op = stack.pop()
        if id(op) in seen:
            findings.append(("P001", op, "operator appears twice in the plan"))
            continue
        seen.add(id(op))
        ops.append(op)
        children = op.children()
        n = len(children)
        blocking = tuple(op.blocking_child_indexes)
        driver = op.driver_child_index
        problems = [
            ("P002", f"blocking child index {idx} out of range (operator has {n} children)")
            for idx in blocking
            if not 0 <= idx < n
        ]
        if driver is not None and not 0 <= driver < n:
            problems.append(
                ("P003", f"driver child index {driver} out of range (operator has {n} children)")
            )
        elif driver in blocking:
            problems.append(
                ("P005", f"driver child {driver} is also declared blocking; a pipeline "
                 "cannot be driven by an input it never streams")
            )
        if op.state in _SPENT:
            problems.append(
                ("P004", f"operator already {op.state.value}; plans cannot be re-run")
            )
        findings.extend((code, op, message) for code, message in problems)
        stack.extend(reversed(children))
    return ops, findings


def validate_plan(root: Operator) -> list[Operator]:
    """The executor's hard gate: raise :class:`PlanError` on the first
    finding of :func:`plan_structure`, else assign sequential node ids
    (pre-order) and return the operators in that order.

    The analyzer reports the same findings as P001–P005 diagnostics, so a
    plan it calls structurally broken never runs.
    """
    ops, findings = plan_structure(root)
    if findings:
        code, op, message = findings[0]
        raise PlanError(f"{code} {op.describe()}: {message}")
    for i, op in enumerate(ops):
        op.node_id = i
    return ops


def check_plan(root: Operator, mode: str = "strict") -> "DiagnosticReport":
    """Run the static semantic analyzer over the plan (no execution).

    ``mode="strict"`` raises :class:`~repro.common.errors.AnalysisError` if
    any ERROR-severity diagnostic is found; ``mode="advisory"`` returns the
    full report for the caller to inspect. Its structural errors
    (P001–P005) are :func:`plan_structure`'s findings, the same ones
    :func:`validate_plan` refuses at run time; the analyzer adds the
    semantic layer: expression typing, join-key compatibility, pipeline
    invariants and estimator classification.
    """
    if mode not in ("strict", "advisory"):
        raise ValueError(f"mode must be 'strict' or 'advisory', got {mode!r}")
    from repro.analysis.plancheck import analyze_plan

    report = analyze_plan(root)
    if mode == "strict":
        report.raise_if_errors("plan analysis")
    return report


def explain(root: Operator, counts: bool = False) -> str:
    """Render the plan tree as an indented string.

    With ``counts=True``, appends each operator's emitted-tuple count and
    optimizer estimate — handy when debugging progress estimates.
    """
    lines: list[str] = []

    def visit(op: Operator, depth: int) -> None:
        suffix = ""
        if counts:
            est = (
                f", est={op.estimated_cardinality:.0f}"
                if op.estimated_cardinality is not None
                else ""
            )
            suffix = f"  [emitted={op.tuples_emitted}{est}]"
        lines.append("  " * depth + op.describe() + suffix)
        for child in op.children():
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)
