"""Plan semantic analyzer (Pass 1): check a physical plan before execution.

Progress `C(Q)/T(Q)` is only trustworthy if the plan the estimators observe
is *exactly* what they assume: every column reference resolves against the
schema actually flowing through the tree, join keys are type-compatible,
and the pipeline declarations (``blocking_child_indexes`` /
``driver_child_index``) decompose the plan into valid pipelines with a
well-defined driver. This pass walks a plan tree and verifies all of that
statically — no ``open()``/``next()`` call is ever made — reporting through
the shared :class:`~repro.analysis.diagnostics.DiagnosticReport`:

* **Structure** (P001–P005): duplicate nodes, out-of-range blocking/driver
  child indexes, non-runnable operator state, driver-also-blocking edges.
  These are :func:`~repro.executor.plan.plan_structure`'s findings — the
  executor's own gate (:func:`~repro.executor.plan.validate_plan`) refuses
  exactly these plans, so the analyzer never calls runnable what the engine
  would refuse, nor the reverse.
* **Typing** (T*/J*/A*): predicates and projections type-check against
  their input schemas, join keys resolve on both sides with compatible
  types, GROUP BY and aggregate inputs resolve (sum/avg need numerics).
* **Pipeline invariants** (I001/I002): hash joins must expose a blocking
  build and a driver probe — the shape ONCE estimation requires — and every
  child edge must be classified so pipeline decomposition can attribute
  work.
* **Estimator applicability** (C001–C102): each maximal hash-join chain is
  classified by the estimator's own
  :func:`~repro.core.pipeline_estimators.chain_provenance` — same-attribute
  push-down, Case 1 (another base-stream attribute) or Case 2 (derived
  histogram) — and chains the push-down framework cannot handle are
  flagged as falling back to one binary ONCE estimator per join *before*
  the query runs.
"""

from __future__ import annotations

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.typecheck import ExprType, TypeChecker, column_expr_type
from repro.common.errors import EstimationError
from repro.core.pipeline_estimators import chain_provenance, find_hash_join_chains
from repro.executor.operators.aggregate import _AggregateBase
from repro.executor.operators.base import Operator
from repro.executor.operators.hash_join import HashJoin
from repro.executor.operators.merge_join import SortMergeJoin
from repro.executor.operators.nested_loops import NestedLoopsJoin
from repro.executor.operators.project import Project
from repro.executor.operators.scan import IndexScan
from repro.executor.operators.sort import Sort
from repro.executor.plan import plan_structure
from repro.storage.schema import Schema

__all__ = ["analyze_plan"]


_HINTS = {"P001": "Volcano trees may not share subplans; copy the operator"}


def _location(op: Operator) -> str:
    return f"node {op.describe()}"


# -- structural checks ---------------------------------------------------------


def _check_edges(op: Operator, report: DiagnosticReport) -> None:
    """I002: a child edge that is neither blocking nor the driver leaves
    pipeline decomposition unable to attribute the child's getnext() work."""
    n_children = len(op.children())
    if n_children < 2:
        return
    driver = op.driver_child_index
    classified = set(op.blocking_child_indexes) | ({driver} if driver is not None else set())
    for idx in range(n_children):
        if idx not in classified:
            report.add(
                "I002",
                f"child {idx} is neither blocking nor the driver",
                location=_location(op),
                hint="declare the edge in blocking_child_indexes or "
                "driver_child_index",
            )


# -- per-operator semantic checks ----------------------------------------------


def _resolve_key(
    schema: Schema, key: str, side: str, op: Operator, report: DiagnosticReport
) -> ExprType | None:
    kind, idx = schema.resolve(key)
    if kind == "ok":
        assert idx is not None
        return column_expr_type(schema.columns[idx].ctype)
    reason = "is ambiguous" if kind == "ambiguous" else "does not resolve"
    report.add(
        "J001",
        f"{side} key {key!r} {reason} in {schema!r}",
        location=_location(op),
    )
    return None


def _check_key_pair(
    left: ExprType | None, right: ExprType | None, op: Operator, report: DiagnosticReport
) -> None:
    if left is None or right is None:
        return
    if left is right:
        return
    if left.is_numeric and right.is_numeric:
        report.add(
            "J003",
            f"join keys have different numeric widths ({left.value} vs "
            f"{right.value}); equality holds but histograms key on raw values",
            location=_location(op),
        )
        return
    report.add(
        "J002",
        f"join key type mismatch: {left.value} vs {right.value}",
        location=_location(op),
        hint="an equijoin between a string and a numeric key matches nothing",
    )


def _check_operator(op: Operator, report: DiagnosticReport) -> None:
    loc = _location(op)
    if isinstance(op, HashJoin):
        build_schema = op.build_child.output_schema
        probe_schema = op.probe_child.output_schema
        for bk, pk in zip(op.build_keys, op.probe_keys):
            bt = _resolve_key(build_schema, bk, "build", op, report)
            pt = _resolve_key(probe_schema, pk, "probe", op, report)
            _check_key_pair(bt, pt, op, report)
        return
    if isinstance(op, SortMergeJoin):
        lt = _resolve_key(op.left_child.output_schema, op.left_key, "left", op, report)
        rt = _resolve_key(op.right_child.output_schema, op.right_key, "right", op, report)
        _check_key_pair(lt, rt, op, report)
        return
    if isinstance(op, NestedLoopsJoin):
        if op.predicate is not None:
            TypeChecker(op.output_schema, report, loc).check_predicate(
                op.predicate, "join predicate"
            )
        return
    if isinstance(op, _AggregateBase):
        in_schema = op.child.output_schema
        for group in op.group_by:
            kind, _ = in_schema.resolve(group)
            if kind != "ok":
                reason = "is ambiguous" if kind == "ambiguous" else "does not resolve"
                report.add(
                    "A003", f"GROUP BY column {group!r} {reason} in {in_schema!r}",
                    location=loc,
                )
        for spec in op.aggregates:
            if spec.column is None:
                continue
            kind, idx = in_schema.resolve(spec.column)
            if kind != "ok":
                reason = "is ambiguous" if kind == "ambiguous" else "does not resolve"
                report.add(
                    "A001",
                    f"aggregate input {spec.column!r} {reason} in {in_schema!r}",
                    location=loc,
                )
                continue
            assert idx is not None
            if spec.func in ("sum", "avg"):
                ctype = column_expr_type(in_schema.columns[idx].ctype)
                if not ctype.is_numeric:
                    report.add(
                        "A002",
                        f"{spec.func}({spec.column}) over {ctype.value} column",
                        location=loc,
                    )
        return
    if isinstance(op, Sort):
        in_schema = op.child.output_schema
        checker = TypeChecker(in_schema, report, loc)
        for key in op.keys:
            checker.check(_col(key))
        return
    if isinstance(op, Project):
        checker = TypeChecker(op.child.output_schema, report, loc)
        for spec in op.columns:
            if not isinstance(spec, str):
                checker.check(spec[1])
        return
    predicate = getattr(op, "predicate", None)
    child_schemas = [c.output_schema for c in op.children()]
    if predicate is not None and len(child_schemas) == 1:
        # Filter and filter-like unary operators.
        TypeChecker(child_schemas[0], report, loc).check_predicate(predicate)


def _col(name: str):
    from repro.executor.expressions import Col

    return Col(name)


# -- pipeline invariants -------------------------------------------------------


def _check_pipeline_invariants(ops: list[Operator], report: DiagnosticReport) -> None:
    for op in ops:
        if isinstance(op, HashJoin):
            blocking = tuple(op.blocking_child_indexes)
            if 0 not in blocking or op.driver_child_index != 1:
                report.add(
                    "I001",
                    f"hash join declares blocking={blocking!r}, "
                    f"driver={op.driver_child_index!r}; ONCE needs the build "
                    "(child 0) blocking and the probe (child 1) driving",
                    location=_location(op),
                    hint="the build histogram must be complete before the "
                    "probe pass streams",
                )


# -- hash-join chain classification --------------------------------------------


def _chain_base_is_clustered(chain: list[HashJoin]) -> Operator | None:
    """The order-clustered source under the chain's base stream, if any.

    Descends the base probe stream along driver edges; a chain probed by an
    index scan (or any sorted source) violates the random-order assumption
    behind the confidence bounds (Section 4.1.2).
    """
    op: Operator = chain[0].probe_child
    while True:
        if isinstance(op, IndexScan):
            return op
        idx = op.driver_child_index
        children = op.children()
        if idx is None or idx >= len(children):
            return None
        op = children[idx]


def _classify_chain(chain: list[HashJoin], report: DiagnosticReport) -> None:
    try:
        provenance = chain_provenance(chain)
    except EstimationError as exc:
        if len(chain) > 1:
            report.add(
                "C101",
                f"{exc}; each join of this chain gets its own binary ONCE estimator",
                location=_location(chain[-1]),
            )
        return
    base_key = provenance[0].index
    for join, prov in zip(chain[1:], provenance[1:]):
        key = join.probe_keys[0]
        if prov.kind == "B":
            report.add(
                "C003",
                f"probe key {key!r} traces to the build input of chain level "
                f"{prov.level}; estimated via a derived histogram (Section 4.1.4.2)",
                location=_location(join),
            )
        elif prov.index == base_key:
            report.add(
                "C001",
                f"probe key {key!r} is the chain's shared base attribute; "
                "exact push-down applies",
                location=_location(join),
            )
        else:
            report.add(
                "C002",
                f"probe key {key!r} traces to a different base-stream attribute; "
                "Case-1 push-down applies",
                location=_location(join),
            )
    clustered = _chain_base_is_clustered(chain)
    if clustered is not None:
        report.add(
            "C102",
            f"chain base stream is fed by {clustered.describe()}, which emits "
            "in key order; sample-based confidence bounds assume random order",
            location=_location(chain[0]),
        )


def _classify_chains(root: Operator, report: DiagnosticReport) -> None:
    for chain in find_hash_join_chains(root):
        _classify_chain(chain, report)


# -- entry point ---------------------------------------------------------------


def analyze_plan(root: Operator) -> DiagnosticReport:
    """Statically analyze a physical plan; never executes any operator."""
    report = DiagnosticReport()
    ops, findings = plan_structure(root)
    for code, op, message in findings:
        report.add(code, message, _location(op), _HINTS.get(code))
    for op in ops:
        _check_edges(op, report)
        _check_operator(op, report)
    _check_pipeline_invariants(ops, report)
    if not report.has_errors:
        # Classification reuses schema resolution; skip it when errors above
        # already make provenance meaningless.
        _classify_chains(root, report)
    return report
