"""Projection operator (column pruning / computed columns)."""

from __future__ import annotations

from contextlib import suppress
from typing import Callable, Sequence

from repro.common.errors import SchemaError
from repro.executor.expressions import Col, Expression, compile_projection_kernel
from repro.executor.operators.base import Operator
from repro.storage.schema import Column, ColumnType, Schema

__all__ = ["Project"]


class Project(Operator):
    """Emit a tuple of expressions per input row.

    ``columns`` may mix plain column names (kept with their type and a
    fresh qualifier-less identity) and ``(alias, Expression)`` pairs for
    computed columns (typed FLOAT by default).
    """

    op_name = "project"
    driver_child_index = 0

    __slots__ = ("child", "columns", "_schema", "_batch_kernel")

    def __init__(self, child: Operator, columns: Sequence[str | tuple[str, Expression]]):
        super().__init__()
        if not columns:
            raise ValueError("projection needs at least one column")
        self.child = child
        self.columns = list(columns)
        self._schema = self._derive_schema()
        self._batch_kernel: Callable[[list[tuple]], list[tuple]] | None = None
        # Compiled once per plan, shared by every fresh() copy; an unresolvable
        # computed column is the analyzer's to report, open() raises it.
        with suppress(SchemaError):
            self._bind()

    def expressions(self) -> list[Expression]:
        """One expression per output column (a plain name becomes a Col)."""
        return [Col(spec) if isinstance(spec, str) else spec[1] for spec in self.columns]

    def _bind(self) -> None:
        self._batch_kernel = compile_projection_kernel(self.expressions(), self.child.output_schema)

    def _derive_schema(self) -> Schema:
        in_schema = self.child.output_schema
        out: list[Column] = []
        for spec in self.columns:
            if isinstance(spec, str):
                out.append(in_schema.column(spec))
            else:
                alias, _expr = spec
                out.append(Column(alias, ColumnType.FLOAT))
        return Schema(out)

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def describe(self) -> str:
        names = [s if isinstance(s, str) else s[0] for s in self.columns]
        return f"project({', '.join(names)})"

    def _open(self) -> None:
        if self._batch_kernel is None:
            self._bind()
        self._set_phase("project")

    def _next_batch(self, max_rows: int) -> list[tuple]:
        kernel = self._batch_kernel
        assert kernel is not None
        return kernel(self.child.next_batch(max_rows))
