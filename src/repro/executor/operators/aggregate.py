"""Grouping / aggregation operators.

Both variants have the preprocessing pass the paper exploits (Section 4.2):
"In a hash based aggregation, the input is read and partitioned using a hash
function ... In sort-based aggregation, the input is first sorted on the
group-by attribute". ``input_hooks[0]`` receive the group keys of every input
batch during that pass — this is where the GEE/MLE group-count estimators
attach and where the exact group count is known the moment the pass ends.

Supported aggregate functions: count, sum, min, max, avg, count_distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Iterator, Sequence

from repro.common.errors import PlanError
from repro.executor.operators.base import Operator
from repro.storage.schema import Column, ColumnType, Schema

__all__ = ["AggregateSpec", "HashAggregate", "SortAggregate"]

_SUPPORTED_FUNCS = ("count", "sum", "min", "max", "avg", "count_distinct")


@dataclass(frozen=True, slots=True)
class AggregateSpec:
    """One aggregate column: ``func(column) AS alias``.

    ``column`` may be None only for ``count`` (COUNT(*)).
    """

    func: str
    column: str | None = None
    alias: str | None = None

    def __post_init__(self):
        if self.func not in _SUPPORTED_FUNCS:
            raise PlanError(f"unsupported aggregate function {self.func!r}")
        if self.column is None and self.func != "count":
            raise PlanError(f"{self.func} requires a column")

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        target = self.column.replace(".", "_") if self.column else "star"
        return f"{self.func}_{target}"

    @property
    def output_type(self) -> ColumnType:
        if self.func in ("count", "count_distinct"):
            return ColumnType.INT
        return ColumnType.FLOAT


class _AggregateBase(Operator):
    """Shared machinery for hash and sort aggregation."""

    blocking_child_indexes = (0,)

    __slots__ = (
        "child",
        "group_by",
        "aggregates",
        "groups_seen",
        "_schema",
        "_emit_iter",
    )

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec] = (),
    ):
        super().__init__(1)
        if not group_by and not aggregates:
            raise PlanError("aggregate needs group columns and/or aggregates")
        self.child = child
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates) or (AggregateSpec("count", alias="count_star"),)
        self.groups_seen: int = 0
        self._schema = self._derive_schema()
        self._emit_iter: Iterator[tuple] | None = None

    def _derive_schema(self) -> Schema:
        in_schema = self.child.output_schema
        cols = [in_schema.column(g) for g in self.group_by]
        cols += [Column(a.output_name, a.output_type) for a in self.aggregates]
        return Schema(cols)

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def describe(self) -> str:
        groups = ", ".join(self.group_by) or "()"
        aggs = ", ".join(a.output_name for a in self.aggregates)
        return f"{self.op_name}(by {groups}; {aggs})"

    def _open(self) -> None:
        self._set_phase("init")

    def _next_batch(self, max_rows: int) -> list[tuple]:
        if self._emit_iter is None:
            # Drained at max(this first request, the cursor's fetch size); the
            # emit stream is then sliced batch by batch.
            self._emit_iter = self._consume_and_group(max_rows)
        return list(islice(self._emit_iter, max_rows))

    def _close(self) -> None:
        self._emit_iter = None

    # -- aggregation state ----------------------------------------------------

    def _make_state(self) -> list:
        states = []
        for spec in self.aggregates:
            if spec.func == "count":
                states.append(0)
            elif spec.func == "avg":
                states.append([0.0, 0])  # sum, count
            elif spec.func == "count_distinct":
                states.append(set())
            else:
                states.append(None)
        return states

    def _update_state(self, states: list, row: tuple, value_idxs: list[int | None]) -> None:
        for pos, spec in enumerate(self.aggregates):
            idx = value_idxs[pos]
            if spec.func == "count":
                if idx is None or row[idx] is not None:
                    states[pos] += 1
                continue
            value = row[idx]
            if value is None:
                continue
            if spec.func == "count_distinct":
                states[pos].add(value)
            elif spec.func == "sum":
                states[pos] = value if states[pos] is None else states[pos] + value
            elif spec.func == "min":
                states[pos] = value if states[pos] is None else min(states[pos], value)
            elif spec.func == "max":
                states[pos] = value if states[pos] is None else max(states[pos], value)
            else:  # avg
                states[pos][0] += value
                states[pos][1] += 1

    def _finalize_state(self, states: list) -> tuple:
        out = []
        for pos, spec in enumerate(self.aggregates):
            if spec.func == "avg":
                total, count = states[pos]
                out.append(total / count if count else None)
            elif spec.func == "count_distinct":
                out.append(len(states[pos]))
            else:
                out.append(states[pos])
        return tuple(out)

    def _bind_inputs(self) -> tuple[list[int], list[int | None]]:
        in_schema = self.child.output_schema
        group_idxs = [in_schema.index_of(g) for g in self.group_by]
        value_idxs: list[int | None] = [
            in_schema.index_of(a.column) if a.column else None for a in self.aggregates
        ]
        return group_idxs, value_idxs

    @staticmethod
    def _group_key_extractor(group_idxs: list[int]):
        """Precompiled group-key extractor for the input drains.

        Single-column grouping keys are the bare value, multi-column keys
        the value tuple — exactly what multi-arg ``itemgetter`` returns.
        """
        if not group_idxs:
            return lambda row: ()
        return itemgetter(*group_idxs)

    def _consume_and_group(self, consume: int) -> Iterator[tuple]:
        raise NotImplementedError


class HashAggregate(_AggregateBase):
    """Hash-partitioned aggregation."""

    op_name = "hash_aggregate"
    __slots__ = ()

    def _consume_and_group(self, consume: int) -> Iterator[tuple]:
        self._set_phase("partition")
        group_idxs, value_idxs = self._bind_inputs()
        single = len(group_idxs) == 1
        groups: dict[object, list] = {}
        extract = self._group_key_extractor(group_idxs)
        for keys, batch in self._drain(0, consume, extract):
            for key, row in zip(keys, batch):
                states = groups.get(key)
                if states is None:
                    states = groups[key] = self._make_state()
                self._update_state(states, row, value_idxs)
        self.groups_seen = len(groups)
        self._set_phase("emit")
        for key, states in groups.items():
            group_part = (key,) if single else (tuple(key) if group_idxs else ())
            yield group_part + self._finalize_state(states)


class SortAggregate(_AggregateBase):
    """Sort-based aggregation: sort the input on the group key, then emit
    one row per run of equal keys."""

    op_name = "sort_aggregate"
    __slots__ = ()

    def _consume_and_group(self, consume: int) -> Iterator[tuple]:
        if not self.group_by:
            # Degenerate to hash aggregation semantics for a global group.
            yield from HashAggregate._consume_and_group(self, consume)  # type: ignore[arg-type]
            return
        self._set_phase("read_input")
        group_idxs, value_idxs = self._bind_inputs()
        single = len(group_idxs) == 1
        rows: list[tuple] = []
        extract = self._group_key_extractor(group_idxs)
        for _keys, batch in self._drain(0, consume, extract, need_keys=False):
            rows.extend(batch)
        self._set_phase("sort")
        if single:
            idx = group_idxs[0]
            rows.sort(key=lambda r: r[idx])
        else:
            rows.sort(key=lambda r: tuple(r[i] for i in group_idxs))
        self._set_phase("emit")
        current_key: object = _SENTINEL
        states: list | None = None
        for row in rows:
            key = row[group_idxs[0]] if single else tuple(row[i] for i in group_idxs)
            if key != current_key:
                if states is not None:
                    yield self._emit_group(current_key, states, single)
                current_key = key
                states = self._make_state()
                self.groups_seen += 1
            assert states is not None
            self._update_state(states, row, value_idxs)
        if states is not None:
            yield self._emit_group(current_key, states, single)

    def _emit_group(self, key: object, states: list, single: bool) -> tuple:
        group_part = (key,) if single else tuple(key)  # type: ignore[arg-type]
        return group_part + self._finalize_state(states)


class _Sentinel:
    __slots__ = ()


_SENTINEL = _Sentinel()
