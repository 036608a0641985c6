"""AST node types for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.executor.expressions import Expression

__all__ = [
    "AggregateItem",
    "ColumnItem",
    "JoinClause",
    "OrderItem",
    "SelectStatement",
    "StarItem",
    "TableRef",
]


@dataclass(frozen=True)
class TableRef:
    """``name [AS alias]`` in FROM/JOIN."""

    name: str
    alias: str | None = None


@dataclass(frozen=True)
class JoinClause:
    """``[kind] JOIN table ON left = right`` (equi conditions only)."""

    table: TableRef
    left_column: str
    right_column: str
    kind: str = "inner"  # inner | outer | semi | anti


@dataclass(frozen=True)
class ColumnItem:
    """A plain column in the SELECT list."""

    column: str
    alias: str | None = None

    @property
    def output_name(self) -> str:
        return self.alias or self.column.split(".")[-1]


@dataclass(frozen=True)
class StarItem:
    """``SELECT *``."""


@dataclass(frozen=True)
class AggregateItem:
    """``func(column) [AS alias]`` or ``COUNT(*)``."""

    func: str
    column: str | None
    alias: str | None = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        target = self.column.replace(".", "_") if self.column else "star"
        return f"{self.func}_{target}"


@dataclass(frozen=True)
class OrderItem:
    """``ORDER BY column [ASC|DESC]``."""

    column: str
    descending: bool = False


@dataclass
class SelectStatement:
    """One parsed SELECT."""

    items: list  # ColumnItem | AggregateItem | StarItem
    distinct: bool = False
    base_table: TableRef = TableRef("")
    joins: list[JoinClause] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[str] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None

    @property
    def has_aggregates(self) -> bool:
        return any(isinstance(i, AggregateItem) for i in self.items)
