"""Compile parsed SELECT statements to instrumented physical plans.

The compiler applies the textbook physical choices this library studies:

* FROM + JOIN chains become left-deep *hash-join pipelines* — each joined
  table is the build side, the accumulated pipeline the probe side — which
  is exactly the plan shape Algorithm 1 estimates in one pass;
* WHERE conjuncts touching a single relation are pushed below the joins
  onto that relation's scan; the remainder is applied above the last join,
  as is any conjunct reading the NULL-padded side of a LEFT OUTER JOIN
  (see :func:`_outer_guarded`);
* GROUP BY / aggregates become a hash aggregation, ORDER BY a sort,
  LIMIT a limit;
* scans optionally read a block-level random sample first, enabling the
  estimation framework's confidence guarantees.

``run_query`` wires a :class:`ProgressMonitor` onto the compiled plan and
executes it, so a SQL string with a live progress indicator is one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.common.errors import PlanError, SchemaError
from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.expressions import And, Col, Expression, IsNull, Not, Or
from repro.executor.operators import (
    AggregateSpec,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    Project,
    SampleScan,
    SeqScan,
    Sort,
)
from repro.executor.operators.base import Operator
from repro.optimizer.cardinality import annotate_plan
from repro.sql.ast import (
    AggregateItem,
    ColumnItem,
    SelectStatement,
    StarItem,
    TableRef,
)
from repro.sql.parser import parse_select
from repro.storage.catalog import Catalog

__all__ = ["CompiledQuery", "QueryResult", "compile_select", "run_query"]


@dataclass
class CompiledQuery:
    """A parsed and compiled query, ready to run.

    ``diagnostics`` carries the static analyzer's report when compilation
    ran with ``analyze="advisory"`` (strict mode raises instead; ``"off"``
    leaves it None).
    """

    statement: SelectStatement
    plan: Operator
    catalog: Catalog
    diagnostics: object | None = None

    def explain(self) -> str:
        from repro.executor.plan import explain

        return explain(self.plan, counts=True)


@dataclass
class QueryResult:
    """Rows plus execution/progress context."""

    rows: list[tuple] | None
    row_count: int
    wall_time_s: float
    columns: list[str]
    monitor: object | None = None
    snapshots: list = field(default_factory=list)


def _split_conjuncts(expr: Expression | None) -> list[Expression]:
    if expr is None:
        return []
    if isinstance(expr, And):
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _owner_of(conjunct: Expression, schemas: dict[str, object]) -> str | None:
    """The single relation all referenced columns of ``conjunct`` belong
    to, or None (multi-relation / unresolvable -> apply above the joins)."""
    owners: set[str] = set()
    for name in conjunct.referenced_columns():
        found = [rel for rel, schema in schemas.items() if schema.has_column(name)]
        if len(found) != 1:
            return None
        owners.add(found[0])
    if len(owners) == 1:
        return owners.pop()
    return None


def _edges(expr: Expression, parent: Expression | None = None):
    """Yield ``(parent, node)`` for every node of ``expr`` (root: None)."""
    yield parent, expr
    for child in (getattr(expr, f.name) for f in fields(expr)):
        if isinstance(child, Expression):
            yield from _edges(child, expr)


def _outer_guarded(conjunct: Expression, nullable: set[str]) -> Expression:
    """``conjunct``, which reads the columns ``nullable`` of an outer-joined
    relation, made to give SQL's answer on NULL-padded rows above the join.

    (a) Every such column is the direct child of an ``IS [NOT] NULL``: the
    conjunct already tests NULL as SQL does. (b) No OR, NOT or IS NULL: a
    NULL operand can never make it true, so ``col IS NOT NULL AND …`` for
    each column is SQL's answer. Anything else needs three-valued logic.
    """
    edges = list(_edges(conjunct))
    if all(isinstance(p, IsNull) for p, n in edges if isinstance(n, Col) and n.name in nullable):
        return conjunct
    if any(isinstance(node, (Or, Not, IsNull)) for _parent, node in edges):
        raise PlanError(
            f"WHERE conjunct {conjunct!r} reads an outer-joined relation "
            "under OR, NOT or IS NULL; three-valued logic is not supported"
        )
    for name in sorted(nullable, reverse=True):
        conjunct = And(IsNull(Col(name), negated=True), conjunct)
    return conjunct


def compile_select(
    catalog: Catalog,
    statement: SelectStatement | str,
    sample_fraction: float = 0.0,
    seed: int = 0,
    num_partitions: int = 8,
    memory_partitions: int = 1,
    annotate: bool = True,
    analyze: str = "strict",
    observed=None,
) -> CompiledQuery:
    """Compile a SELECT (string or AST) against ``catalog``.

    ``analyze`` gates the static plan analyzer: ``"strict"`` (default)
    raises :class:`~repro.common.errors.AnalysisError` on any error
    diagnostic, ``"advisory"`` attaches the report to the returned
    :class:`CompiledQuery`, ``"off"`` skips the pass.

    ``observed`` is an optional
    :class:`~repro.storage.statistics.ObservedCardinalities` overlay
    (the robust subsystem's statistics feedback): subtrees the system
    has executed before are annotated with their *observed* output
    cardinality instead of the textbook model's estimate.
    """
    if analyze not in ("strict", "advisory", "off"):
        raise ValueError(f"analyze must be 'strict', 'advisory' or 'off', got {analyze!r}")
    if isinstance(statement, str):
        statement = parse_select(statement)

    # Resolve relations (aliases become schema qualifiers).
    def resolve(ref: TableRef):
        table = catalog.table(ref.name)
        if ref.alias and ref.alias != table.name:
            table = table.aliased(ref.alias)
        return table

    relations = [resolve(statement.base_table)]
    for join in statement.joins:
        relations.append(resolve(join.table))
    names = [t.name for t in relations]
    if len(set(names)) != len(names):
        raise PlanError(
            f"duplicate relation names in FROM/JOIN: {names}; use aliases"
        )
    schemas = {t.name: t.schema for t in relations}
    # The build side of a LEFT OUTER JOIN is NULL-padded above the join.
    padded = [t.schema for j, t in zip(statement.joins, relations[1:]) if j.kind == "outer"]

    # Partition WHERE into per-relation pushdowns and residual conjuncts.
    pushed: dict[str, list[Expression]] = {name: [] for name in names}
    residual: list[Expression] = []
    for conjunct in _split_conjuncts(statement.where):
        columns = conjunct.referenced_columns()
        nullable = {c for c in columns if any(s.has_column(c) for s in padded)}
        if nullable:
            residual.append(_outer_guarded(conjunct, nullable))
            continue
        owner = _owner_of(conjunct, schemas)
        if owner is not None:
            pushed[owner].append(conjunct)
        else:
            residual.append(conjunct)

    def scan(table) -> Operator:
        op: Operator = (
            SampleScan(table, sample_fraction, seed)
            if sample_fraction > 0
            else SeqScan(table)
        )
        for conjunct in pushed[table.name]:
            op = Filter(op, conjunct)
        return op

    # Left-deep hash-join pipeline: accumulated plan is always the probe.
    plan = scan(relations[0])
    for join, table in zip(statement.joins, relations[1:]):
        left_in_pipeline = plan.output_schema.has_column(join.left_column)
        probe_key, build_key = (
            (join.left_column, join.right_column)
            if left_in_pipeline
            else (join.right_column, join.left_column)
        )
        if not plan.output_schema.has_column(probe_key):
            raise PlanError(
                f"neither side of ON {join.left_column} = {join.right_column} "
                "resolves in the pipeline built so far"
            )
        if not table.schema.has_column(build_key):
            raise PlanError(
                f"column {build_key!r} not found in joined table {table.name!r}"
            )
        plan = HashJoin(
            scan(table),
            plan,
            build_key,
            probe_key,
            num_partitions=num_partitions,
            memory_partitions=memory_partitions,
            join_type=join.kind,
        )

    for conjunct in residual:
        plan = Filter(plan, conjunct)

    # Aggregation. GROUP BY coverage is schema-aware: each SELECT column and
    # group entry is resolved to a tuple position in the pre-aggregation
    # schema, so t1.x and t2.x never conflate and bare names still match
    # their qualified spellings.
    items = statement.items
    if statement.has_aggregates or statement.group_by:
        pre_schema = plan.output_schema
        group_indexes: set[int] = set()
        for group in statement.group_by:
            try:
                group_indexes.add(pre_schema.index_of(group))
            except SchemaError as exc:
                raise PlanError(f"GROUP BY: {exc}") from None
        for item in items:
            if isinstance(item, StarItem):
                raise PlanError("SELECT * cannot be combined with aggregation")
            if isinstance(item, ColumnItem):
                try:
                    item_index = pre_schema.index_of(item.column)
                except SchemaError as exc:
                    raise PlanError(f"SELECT: {exc}") from None
                if item_index not in group_indexes:
                    raise PlanError(
                        f"column {item.column!r} must appear in GROUP BY"
                    )
        specs = [
            AggregateSpec(i.func, i.column, i.output_name)
            for i in items
            if isinstance(i, AggregateItem)
        ]
        plan = HashAggregate(plan, tuple(statement.group_by), tuple(specs))
        if statement.having is not None:
            plan = Filter(plan, statement.having)
    elif statement.having is not None:
        raise PlanError("HAVING requires GROUP BY or aggregates")

    # Projection to the SELECT list's order and names.
    if not any(isinstance(i, StarItem) for i in items):
        columns: list = []
        for item in items:
            if isinstance(item, AggregateItem):
                columns.append(item.output_name)
            else:
                assert isinstance(item, ColumnItem)
                if item.alias:
                    columns.append((item.alias, Col(item.column)))
                else:
                    columns.append(item.column)
        plan = Project(plan, columns)

    # DISTINCT over the projected rows (duplicate elimination is itself a
    # distinct-value estimation target; the manager attaches GEE/MLE here).
    if statement.distinct:
        plan = Distinct(plan)

    # ORDER BY / LIMIT.
    if statement.order_by:
        plan = Sort(
            plan,
            [o.column for o in statement.order_by],
            descending=statement.order_by[0].descending,
        )
    if statement.limit is not None:
        plan = Limit(plan, statement.limit)

    if annotate:
        annotate_plan(plan, catalog, observed=observed)
    diagnostics = None
    if analyze != "off":
        from repro.executor.plan import check_plan

        diagnostics = check_plan(plan, mode=analyze)
    return CompiledQuery(
        statement=statement, plan=plan, catalog=catalog, diagnostics=diagnostics
    )


def run_query(
    catalog: Catalog,
    sql: str,
    progress: str | None = None,
    sample_fraction: float = 0.0,
    collect_rows: bool = True,
    tick_interval: int = 1000,
    **compile_kwargs,
) -> QueryResult:
    """Parse, compile, (optionally monitor,) and execute ``sql``.

    ``progress`` selects an estimator mode ("once", "dne", "byte") to attach
    a :class:`~repro.core.progress.ProgressMonitor`; its snapshots are
    returned on the result.
    """
    compiled = compile_select(
        catalog, sql, sample_fraction=sample_fraction, **compile_kwargs
    )
    bus = None
    monitor = None
    if progress is not None:
        from repro.core.progress import ProgressMonitor

        bus = TickBus(interval=tick_interval)
        monitor = ProgressMonitor(compiled.plan, mode=progress, bus=bus)
    engine = ExecutionEngine(compiled.plan, bus=bus, collect_rows=collect_rows)
    result = engine.run()
    return QueryResult(
        rows=result.rows,
        row_count=result.row_count,
        wall_time_s=result.wall_time_s,
        columns=compiled.plan.output_schema.names(),
        monitor=monitor,
        # Post-run, single-threaded: engine.run() returned, so no thread
        # can still be appending snapshots.
        snapshots=monitor.snapshots if monitor else [],  # noqa: X001
    )
