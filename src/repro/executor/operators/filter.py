"""Selection operator.

Selections have no preprocessing phase, so (Section 4.3) no estimation can
be pushed below them; the progress framework handles them with the
driver-node estimator, which "has zero error in expectation" on randomly
ordered input. The operator itself just runs its predicate's compiled
batch kernel.
It tracks ``rows_consumed[0]`` so estimators can compute its selectivity
online.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Callable

from repro.common.errors import SchemaError
from repro.executor.expressions import Expression, compile_predicate_kernel
from repro.executor.operators.base import Operator
from repro.storage.schema import Schema

__all__ = ["Filter"]


class Filter(Operator):
    """Emit child rows satisfying a predicate."""

    op_name = "filter"
    driver_child_index = 0

    __slots__ = ("child", "predicate", "_batch_kernel")

    def __init__(self, child: Operator, predicate: Expression):
        super().__init__(1)
        self.child = child
        self.predicate = predicate
        self._batch_kernel: Callable[[list[tuple]], list[tuple]] | None = None
        # Compiled once per plan, shared by every fresh() copy. An unresolvable
        # predicate is the analyzer's to report (T001); open() raises it.
        with suppress(SchemaError):
            self._bind()

    def _bind(self) -> None:
        self._batch_kernel = compile_predicate_kernel(self.predicate, self.child.output_schema)

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    @property
    def output_schema(self) -> Schema:
        return self.child.output_schema

    def describe(self) -> str:
        return f"filter({self.predicate!r})"

    def _open(self) -> None:
        if self._batch_kernel is None:
            self._bind()
        self._set_phase("filter")

    def _next_batch(self, max_rows: int) -> list[tuple]:
        kernel = self._batch_kernel
        assert kernel is not None
        child = self.child
        while True:
            batch = child.next_batch(max_rows)
            if not batch:
                return []
            self.rows_consumed[0] += len(batch)
            survivors = kernel(batch)
            if survivors:
                return survivors

    @property
    def observed_selectivity(self) -> float:
        """Fraction of consumed rows that passed, so far."""
        consumed = self.rows_consumed[0]
        if consumed == 0:
            return 1.0
        return self.tuples_emitted / consumed
