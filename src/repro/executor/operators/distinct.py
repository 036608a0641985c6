"""DISTINCT operator (duplicate elimination).

Blocking, hash-based: the input pass sees every tuple before any output —
the same preprocessing window as aggregation, and duplicate elimination *is*
the distinct-value problem of Section 4.2, so the GEE/MLE estimators attach
to ``input_hooks[0]`` exactly as they do on a group-by (the whole row is the
grouping key; a one-column row hands its hooks the bare value).
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Iterator

from repro.executor.operators.base import Operator
from repro.storage.schema import Schema

__all__ = ["Distinct"]


class Distinct(Operator):
    """Emit each distinct input row once (first-seen order)."""

    op_name = "distinct"
    blocking_child_indexes = (0,)

    __slots__ = (
        "child",
        "groups_seen",
        "_emit_iter",
    )

    def __init__(self, child: Operator):
        super().__init__(1)
        self.child = child
        self.groups_seen: int = 0
        self._emit_iter: Iterator[tuple] | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    @property
    def output_schema(self) -> Schema:
        return self.child.output_schema

    def _open(self) -> None:
        self._set_phase("init")

    def _next_batch(self, max_rows: int) -> list[tuple]:
        # Blocking: drained at max(this first request, the cursor's fetch size).
        if self._emit_iter is None:
            self._emit_iter = self._consume(max_rows)
        return list(islice(self._emit_iter, max_rows))

    def _close(self) -> None:
        self._emit_iter = None

    def _consume(self, consume: int) -> Iterator[tuple]:
        self._set_phase("partition")
        seen: dict[tuple, None] = {}  # dict preserves first-seen order
        setdefault = seen.setdefault
        # The whole row is the grouping key, so the key list the hooks
        # receive is the batch itself — except on one column, where they get
        # the bare values (cheaper to hash than 1-tuples), extracted only
        # while a hook is attached.
        extract = itemgetter(0) if len(self.output_schema) == 1 else None
        for _keys, batch in self._drain(0, consume, extract, need_keys=False):
            for row in batch:
                setdefault(row, None)
        self.groups_seen = len(seen)
        self._set_phase("emit")
        yield from seen
