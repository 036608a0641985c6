"""Schemas and column references.

Rows are plain Python tuples; a :class:`Schema` maps (optionally qualified)
column names to tuple positions. Qualification follows SQL conventions:
``Schema`` stores columns as ``(qualifier, name)`` pairs, and lookups accept
either ``"name"`` (must be unambiguous) or ``"qualifier.name"``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.common.errors import SchemaError

__all__ = ["Column", "ColumnType", "Schema"]


class ColumnType(enum.Enum):
    """Logical column types supported by the executor."""

    INT = "int"
    FLOAT = "float"
    STR = "str"

    @property
    def width_bytes(self) -> int:
        """Nominal on-disk width, used by the byte model of progress."""
        return {ColumnType.INT: 4, ColumnType.FLOAT: 8, ColumnType.STR: 16}[self]


@dataclass(frozen=True)
class Column:
    """A named, typed column, optionally qualified by a relation name."""

    name: str
    ctype: ColumnType = ColumnType.INT
    qualifier: str | None = None

    def __post_init__(self) -> None:
        if not self.name or "." in self.name:
            raise SchemaError(f"invalid column name: {self.name!r}")
        if self.qualifier is not None and "." in self.qualifier:
            raise SchemaError(f"invalid qualifier: {self.qualifier!r}")

    @property
    def qualified_name(self) -> str:
        if self.qualifier is None:
            return self.name
        return f"{self.qualifier}.{self.name}"

    def with_qualifier(self, qualifier: str | None) -> "Column":
        return Column(self.name, self.ctype, qualifier)


class Schema:
    """An ordered list of :class:`Column` with name-based resolution.

    ``index_of`` resolves a bare or qualified name to a tuple position and
    raises :class:`SchemaError` on unknown or ambiguous references.
    """

    def __init__(self, columns: Iterable[Column]):
        self.columns: tuple[Column, ...] = tuple(columns)
        qualified = [c.qualified_name for c in self.columns]
        if len(set(qualified)) != len(qualified):
            dupes = sorted({q for q in qualified if qualified.count(q) > 1})
            raise SchemaError(f"duplicate column names in schema: {dupes}")
        self._by_qualified: dict[str, int] = {q: i for i, q in enumerate(qualified)}
        self._by_bare: dict[str, list[int]] = {}
        for i, col in enumerate(self.columns):
            self._by_bare.setdefault(col.name, []).append(i)

    @classmethod
    def of(cls, *specs: str | Column, qualifier: str | None = None) -> "Schema":
        """Build a schema from ``"name:type"`` strings and/or Columns.

        >>> Schema.of("custkey:int", "name:str", qualifier="customer")
        """
        columns: list[Column] = []
        for spec in specs:
            if isinstance(spec, Column):
                columns.append(spec if spec.qualifier else spec.with_qualifier(qualifier))
                continue
            name, _, type_name = spec.partition(":")
            ctype = ColumnType(type_name) if type_name else ColumnType.INT
            columns.append(Column(name, ctype, qualifier))
        return cls(columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.columns == other.columns

    def __repr__(self) -> str:
        cols = ", ".join(c.qualified_name for c in self.columns)
        return f"Schema({cols})"

    def index_of(self, name: str) -> int:
        """Resolve a bare or qualified column name to its tuple position."""
        if "." in name:
            try:
                return self._by_qualified[name]
            except KeyError:
                raise SchemaError(f"unknown column {name!r} in {self!r}") from None
        hits = self._by_bare.get(name, [])
        if not hits:
            raise SchemaError(f"unknown column {name!r} in {self!r}")
        if len(hits) > 1:
            choices = [self.columns[i].qualified_name for i in hits]
            raise SchemaError(f"ambiguous column {name!r}: matches {choices}")
        return hits[0]

    def resolve(self, name: str) -> tuple[str, int | None]:
        """Non-raising :meth:`index_of`: classify how ``name`` resolves.

        Returns ``("ok", index)``, ``("unknown", None)`` or
        ``("ambiguous", None)`` — the static analyzer uses the outcome kind
        to pick a diagnostic code instead of parsing exception text.
        """
        if "." in name:
            idx = self._by_qualified.get(name)
            return ("ok", idx) if idx is not None else ("unknown", None)
        hits = self._by_bare.get(name, [])
        if not hits:
            return ("unknown", None)
        if len(hits) > 1:
            return ("ambiguous", None)
        return ("ok", hits[0])

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def has_column(self, name: str) -> bool:
        try:
            self.index_of(name)
        except SchemaError:
            return False
        return True

    def names(self, qualified: bool = True) -> list[str]:
        if qualified:
            return [c.qualified_name for c in self.columns]
        return [c.name for c in self.columns]

    def row_width_bytes(self) -> int:
        """Nominal row width under the byte model of progress."""
        return sum(c.ctype.width_bytes for c in self.columns)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the concatenation of rows from ``self`` and ``other``
        (the output schema of a join)."""
        return Schema(self.columns + other.columns)

    def project(self, names: Sequence[str]) -> "Schema":
        return Schema(self.columns[self.index_of(n)] for n in names)

    def with_qualifier(self, qualifier: str) -> "Schema":
        """Re-qualify every column (e.g. aliasing a relation)."""
        return Schema(c.with_qualifier(qualifier) for c in self.columns)
