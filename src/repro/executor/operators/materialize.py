"""Materialization: a blocking buffer.

Fully consumes its child before emitting anything. Used to force a pipeline
break (e.g. to model a blocking boundary between two otherwise-pipelined
operators) and to let tests snapshot intermediate results.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from repro.executor.operators.base import Operator
from repro.storage.schema import Schema

__all__ = ["Materialize"]


class Materialize(Operator):
    """Buffer all child rows, then emit them in order."""

    op_name = "materialize"
    blocking_child_indexes = (0,)

    __slots__ = ("child", "_buffer", "_iter")

    def __init__(self, child: Operator):
        super().__init__(1)
        self.child = child
        self._buffer: list[tuple] | None = None
        self._iter: Iterator[tuple] | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    @property
    def output_schema(self) -> Schema:
        return self.child.output_schema

    def _next_batch(self, max_rows: int) -> list[tuple]:
        # Blocking: drained at max(this first request, the cursor's fetch size).
        if self._iter is None:
            self._set_phase("materialize")
            buffer: list[tuple] = []
            for _keys, batch in self._drain(0, max_rows):
                buffer.extend(batch)
            self._buffer = buffer
            self._set_phase("emit")
            self._iter = iter(buffer)
        return list(islice(self._iter, max_rows))

    def _close(self) -> None:
        self._buffer = None
        self._iter = None
