"""Nested-loops joins.

Section 4.1.3: a plain nested-loops join has *no* preprocessing pass over
its outer input, so nothing can be pushed down — estimation reduces to the
driver-node estimator. The inner input, however, *is* fully materialised
(or indexed) before the outer loop begins; ``input_hooks[1]`` receive
every inner batch during that pass, so when a temporary index is built
(:class:`IndexNestedLoopsJoin`) an exact inner histogram is available and
the outer pass can be estimated like a hash-join probe pass
(``input_hooks[0]``), which is the paper's "in the presence of such
preprocessing phases, we can construct estimators similar to the
incremental estimator for hash joins".
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Iterator

from repro.common.errors import PlanError
from repro.executor.expressions import Expression
from repro.executor.operators.base import Operator
from repro.storage.schema import Schema

__all__ = ["IndexNestedLoopsJoin", "NestedLoopsJoin"]


class NestedLoopsJoin(Operator):
    """Theta join: materialise the inner input, loop it per outer row.

    ``predicate`` is evaluated against the concatenated (outer + inner) row;
    ``None`` yields the cross product. A theta join has no key column, so —
    as in ``Distinct`` — the whole row is the key: hooks are called as
    ``hook(rows, rows)``.
    """

    op_name = "nl_join"
    blocking_child_indexes = (1,)
    driver_child_index = 0

    __slots__ = (
        "outer_child",
        "inner_child",
        "predicate",
        "_schema",
        "_gen",
    )

    def __init__(self, outer: Operator, inner: Operator, predicate: Expression | None = None):
        super().__init__(2)
        self.outer_child = outer
        self.inner_child = inner
        self.predicate = predicate
        self._schema = outer.output_schema.concat(inner.output_schema)
        self._gen: Iterator[tuple] | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.outer_child, self.inner_child)

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def describe(self) -> str:
        pred = repr(self.predicate) if self.predicate is not None else "true"
        return f"nl_join({pred})"

    def _open(self) -> None:
        self._set_phase("init")

    def _next_batch(self, max_rows: int) -> list[tuple]:
        gen = self._gen
        if gen is None:
            # The first pull sizes the streaming pass; a blocking pass also
            # follows the cursor's fetch size (Operator._drain).
            gen = self._gen = self._run(max_rows)
        return list(islice(gen, max_rows))

    def _close(self) -> None:
        self._gen = None

    def _run(self, consume: int) -> Iterator[tuple]:
        self._set_phase("materialize_inner")
        inner_rows: list[tuple] = []
        for _keys, batch in self._drain(1, consume):
            inner_rows.extend(batch)
        self._set_phase("loop")
        bound = (
            self.predicate.bind(self._schema) if self.predicate is not None else None
        )
        for _keys, batch in self._drain(0, consume):
            for outer_row in batch:
                for inner_row in inner_rows:
                    joined = outer_row + inner_row
                    if bound is None or bound(joined):
                        yield joined


class IndexNestedLoopsJoin(Operator):
    """Equijoin via a temporary hash index built on the inner input.

    The index-build pass gives the estimation framework an exact inner
    histogram; the outer pass then streams in input order, so the ONCE
    incremental estimator applies exactly as in the hash-join probe pass.
    """

    op_name = "index_nl_join"
    blocking_child_indexes = (1,)
    driver_child_index = 0

    __slots__ = (
        "outer_child",
        "inner_child",
        "outer_key",
        "inner_key",
        "_schema",
        "_gen",
    )

    def __init__(self, outer: Operator, inner: Operator, outer_key: str, inner_key: str):
        super().__init__(2)
        if not outer_key or not inner_key:
            raise PlanError("index NL join requires key columns on both sides")
        self.outer_child = outer
        self.inner_child = inner
        self.outer_key = outer_key
        self.inner_key = inner_key
        self._schema = outer.output_schema.concat(inner.output_schema)
        self._gen: Iterator[tuple] | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.outer_child, self.inner_child)

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def describe(self) -> str:
        return f"index_nl_join({self.outer_key} = {self.inner_key})"

    def _open(self) -> None:
        self._set_phase("init")

    def _next_batch(self, max_rows: int) -> list[tuple]:
        gen = self._gen
        if gen is None:
            # The first pull sizes the streaming pass; a blocking pass also
            # follows the cursor's fetch size (Operator._drain).
            gen = self._gen = self._run(max_rows)
        return list(islice(gen, max_rows))

    def _close(self) -> None:
        self._gen = None

    def _run(self, consume: int) -> Iterator[tuple]:
        self._set_phase("build_index")
        inner_idx = self.inner_child.output_schema.index_of(self.inner_key)
        index: dict[object, list[tuple]] = {}
        for keys, batch in self._drain(1, consume, itemgetter(inner_idx)):
            for key, row in zip(keys, batch):
                if key is not None:
                    index.setdefault(key, []).append(row)

        self._set_phase("loop")
        outer_idx = self.outer_child.output_schema.index_of(self.outer_key)
        for keys, batch in self._drain(0, consume, itemgetter(outer_idx)):
            for key, outer_row in zip(keys, batch):
                matches = index.get(key)
                if matches:
                    for inner_row in matches:
                        yield outer_row + inner_row
