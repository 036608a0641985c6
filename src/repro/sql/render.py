"""Render ASTs back to SQL text.

The inverse of :func:`repro.sql.parser.parse_select` for the supported
subset: ``parse_select(render_select(stmt))`` reproduces ``stmt``. Used by
EXPLAIN-style tooling and the parser round-trip property tests.
"""

from __future__ import annotations

from repro.executor.expressions import Expression
from repro.sql.ast import (
    AggregateItem,
    ColumnItem,
    JoinClause,
    SelectStatement,
    StarItem,
)

__all__ = ["render_expression", "render_select"]


def render_expression(expr: Expression) -> str:
    """SQL text for a WHERE/HAVING expression tree: its ``repr``."""
    if not isinstance(expr, Expression):
        raise TypeError(f"cannot render expression node {type(expr).__name__}")
    return repr(expr)


def _render_item(item) -> str:
    if isinstance(item, StarItem):
        return "*"
    if isinstance(item, AggregateItem):
        if item.func == "count_distinct":
            text = f"COUNT(DISTINCT {item.column})"
        else:
            target = "*" if item.column is None else item.column
            text = f"{item.func.upper()}({target})"
        return f"{text} AS {item.alias}" if item.alias else text
    assert isinstance(item, ColumnItem)
    return f"{item.column} AS {item.alias}" if item.alias else item.column


def _render_join(join: JoinClause) -> str:
    prefix = {
        "inner": "JOIN",
        "outer": "LEFT OUTER JOIN",
        "semi": "SEMI JOIN",
        "anti": "ANTI JOIN",
    }[join.kind]
    table = join.table.name
    if join.table.alias:
        table += f" AS {join.table.alias}"
    return f"{prefix} {table} ON {join.left_column} = {join.right_column}"


def render_select(stmt: SelectStatement) -> str:
    """SQL text for a parsed/constructed SELECT statement."""
    parts = ["SELECT"]
    if stmt.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_render_item(i) for i in stmt.items))
    table = stmt.base_table.name
    if stmt.base_table.alias:
        table += f" AS {stmt.base_table.alias}"
    parts.append(f"FROM {table}")
    for join in stmt.joins:
        parts.append(_render_join(join))
    if stmt.where is not None:
        parts.append(f"WHERE {render_expression(stmt.where)}")
    if stmt.group_by:
        parts.append("GROUP BY " + ", ".join(stmt.group_by))
    if stmt.having is not None:
        parts.append(f"HAVING {render_expression(stmt.having)}")
    if stmt.order_by:
        rendered = ", ".join(
            f"{o.column} DESC" if o.descending else f"{o.column} ASC"
            for o in stmt.order_by
        )
        parts.append("ORDER BY " + rendered)
    if stmt.limit is not None:
        parts.append(f"LIMIT {stmt.limit}")
    return " ".join(parts)
