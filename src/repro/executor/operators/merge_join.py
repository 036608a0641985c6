"""Sort-merge join with internal sort phases.

Per Section 4.1.2 the sorts may live "within the sort-merge join and not in
some separate sort operator"; each input is fully read during its sort
phase, and ``input_hooks[0]`` (left) / ``input_hooks[1]`` (right) receive
every input batch there. The left (first-sorted) input plays the role of
the hash join's build side: ONCE builds its histogram during the left sort, then
refines the join estimate during the right sort — reaching the exact
cardinality "at the end of the sort of S", before the merge even begins.

``left_presorted`` / ``right_presorted`` skip the corresponding sort phase
(e.g. input from an index scan or a lower merge join). A presorted input is
*not* seen in advance, so estimation cannot be pushed into it — the paper
defaults to dne in that case, and the estimation manager honours that.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Iterator

from repro.common.errors import PlanError
from repro.executor.operators.base import Operator
from repro.storage.schema import Schema

__all__ = ["SortMergeJoin"]


class SortMergeJoin(Operator):
    """Equijoin by sorting both inputs on the key, then merging."""

    op_name = "merge_join"

    __slots__ = (
        "left_child",
        "right_child",
        "left_key",
        "right_key",
        "left_presorted",
        "right_presorted",
        "_schema",
        "_gen",
    )

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key: str,
        right_key: str,
        left_presorted: bool = False,
        right_presorted: bool = False,
    ):
        super().__init__(2)
        if not left_key or not right_key:
            raise PlanError("merge join requires key columns on both sides")
        self.left_child = left
        self.right_child = right
        self.left_key = left_key
        self.right_key = right_key
        self.left_presorted = left_presorted
        self.right_presorted = right_presorted
        self._schema = left.output_schema.concat(right.output_schema)
        self._gen: Iterator[tuple] | None = None

    # Blocking structure depends on presortedness: a sorted-here input is
    # consumed in a blocking sort phase (its subtree is a separate pipeline);
    # a presorted input streams through the merge.
    @property
    def blocking_child_indexes(self) -> tuple[int, ...]:  # type: ignore[override]
        blocked = []
        if not self.left_presorted:
            blocked.append(0)
        if not self.right_presorted:
            blocked.append(1)
        return tuple(blocked)

    @property
    def driver_child_index(self) -> int | None:  # type: ignore[override]
        if self.right_presorted:
            return 1
        if self.left_presorted:
            return 0
        return None  # both inputs blocked: merge phase drives itself

    def children(self) -> tuple[Operator, ...]:
        return (self.left_child, self.right_child)

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def describe(self) -> str:
        return f"merge_join({self.left_key} = {self.right_key})"

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

    def _read_side(
        self, child_index: int, key_idx: int, presorted: bool, phase: str, consume: int
    ) -> list[tuple]:
        self._set_phase(phase)
        key = itemgetter(key_idx)
        rows: list[tuple] = []
        for _keys, batch in self._drain(child_index, consume, key, need_keys=False):
            rows.extend(batch)
        if not presorted:
            rows.sort(key=key)
        return rows

    def _run(self, consume: int) -> Iterator[tuple]:
        left_idx = self.left_child.output_schema.index_of(self.left_key)
        right_idx = self.right_child.output_schema.index_of(self.right_key)
        left = self._read_side(0, left_idx, self.left_presorted, "sort_left", consume)
        right = self._read_side(1, right_idx, self.right_presorted, "sort_right", consume)

        self._set_phase("merge")
        i = j = 0
        n_left, n_right = len(left), len(right)
        while i < n_left and j < n_right:
            lv = left[i][left_idx]
            rv = right[j][right_idx]
            if lv < rv:
                i += 1
            elif lv > rv:
                j += 1
            else:
                # Gather the duplicate group on both sides and cross them.
                i_end = i
                while i_end < n_left and left[i_end][left_idx] == lv:
                    i_end += 1
                j_end = j
                while j_end < n_right and right[j_end][right_idx] == rv:
                    j_end += 1
                self._tick_n((i_end - i) * (j_end - j))
                for a in range(i, i_end):
                    for b in range(j, j_end):
                        yield left[a] + right[b]
                i, j = i_end, j_end
