"""Blocking sort operator.

The sort's *input pass* — where every tuple of the input is seen exactly
once before any output is produced — is the preprocessing phase the paper
exploits for sort-merge joins (Section 4.1.2): "In the sort operator, every
tuple of R is seen at least once before any output is produced. Thus, it is
possible to build a histogram on the join attribute of R." ``input_hooks[0]``
receive every input batch (sort-key values, rows) during that pass.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Iterator, Sequence

from repro.executor.operators.base import Operator
from repro.storage.schema import Schema

__all__ = ["Sort"]


class Sort(Operator):
    """In-memory sort on one or more key columns."""

    op_name = "sort"
    blocking_child_indexes = (0,)

    __slots__ = (
        "child",
        "keys",
        "descending",
        "_sorted_iter",
    )

    def __init__(self, child: Operator, keys: Sequence[str], descending: bool = False):
        super().__init__(1)
        if not keys:
            raise ValueError("sort needs at least one key column")
        self.child = child
        self.keys = tuple(keys)
        self.descending = descending
        self._sorted_iter: Iterator[tuple] | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    @property
    def output_schema(self) -> Schema:
        return self.child.output_schema

    def describe(self) -> str:
        direction = " desc" if self.descending else ""
        return f"sort({', '.join(self.keys)}{direction})"

    def _open(self) -> None:
        self._set_phase("init")

    def _next_batch(self, max_rows: int) -> list[tuple]:
        # Blocking: drained at max(this first request, the cursor's fetch size).
        if self._sorted_iter is None:
            self._consume_and_sort(max_rows)
        assert self._sorted_iter is not None
        return list(islice(self._sorted_iter, max_rows))

    def _consume_and_sort(self, consume: int) -> None:
        self._set_phase("read_input")
        schema = self.child.output_schema
        # Single-column keys sort on the bare value, multi-column keys on
        # the value tuple (multi-arg itemgetter returns exactly that tuple).
        extract = itemgetter(*(schema.index_of(k) for k in self.keys))
        rows: list[tuple] = []
        for _keys, batch in self._drain(0, consume, extract, need_keys=False):
            rows.extend(batch)
        self._set_phase("sort")
        rows.sort(key=extract, reverse=self.descending)
        self._set_phase("emit")
        self._sorted_iter = iter(rows)

    def _close(self) -> None:
        self._sorted_iter = None
