"""LIMIT operator."""

from __future__ import annotations

from repro.executor.operators.base import Operator
from repro.storage.schema import Schema

__all__ = ["Limit"]


class Limit(Operator):
    """Emit at most ``n`` child rows."""

    op_name = "limit"
    driver_child_index = 0

    __slots__ = ("child", "n")

    def __init__(self, child: Operator, n: int):
        super().__init__()
        if n < 0:
            raise ValueError(f"limit must be >= 0, got {n}")
        self.child = child
        self.n = n

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    @property
    def output_schema(self) -> Schema:
        return self.child.output_schema

    def describe(self) -> str:
        return f"limit({self.n})"

    def _next_batch(self, max_rows: int) -> list[tuple]:
        # Cap the *request*, not the result: the child is never pulled past
        # the limit, so neither its counter nor ours can over-emit when the
        # cutoff lands mid-batch.
        remaining = self.n - self.tuples_emitted
        if remaining <= 0:
            return []
        return self.child.next_batch(min(max_rows, remaining))
