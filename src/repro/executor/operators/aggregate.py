"""Grouping / aggregation operators.

Both variants have the preprocessing pass the paper exploits (Section 4.2):
"In a hash based aggregation, the input is read and partitioned using a hash
function ... In sort-based aggregation, the input is first sorted on the
group-by attribute". ``input_hooks[0]`` receive the group keys of every input
batch during that pass — this is where the GEE/MLE group-count estimators
attach and where the exact group count is known the moment the pass ends.

Supported aggregate functions: count, sum, min, max, avg, count_distinct.
The aggregate list is compiled once per plan into one batch kernel
(:func:`compile_update_kernel`), so the input pass makes no Python call per
row.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from repro.common.errors import PlanError, SchemaError
from repro.executor.operators.base import Operator
from repro.storage.schema import Column, ColumnType, Schema

__all__ = ["AggregateSpec", "HashAggregate", "SortAggregate"]

_SUPPORTED_FUNCS = ("count", "sum", "min", "max", "avg", "count_distinct")

#: How the update kernel folds a non-NULL value ``v`` into a running
#: ``c``; ``min``/``max`` keep ``c`` unless ``v`` compares below/above it,
#: exactly as the builtins do (NaN included).
_FOLDS = {"sum": "c + v", "min": "v if v < c else c", "max": "v if v > c else c"}


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


def compile_update_kernel(
    aggregates: Sequence[AggregateSpec],
    value_idxs: Sequence[int | None],
    grouped: bool,
) -> tuple[Callable[..., None], Callable[[], list]]:
    """Compile an aggregate list into ``(kernel, make_state)``.

    ``kernel(groups, keys, rows, make_state)`` folds one batch into
    ``groups`` (key -> state list) in a single generated loop: one
    ``groups.get`` per row, a new group's state from ``make_state()``, and
    every aggregate's update inlined as a statement, so no Python function
    is called per row. Without group columns (``grouped=False``) ``keys`` is
    ignored and every row folds into the one group ``()``. Each value is
    folded in input order (:data:`_FOLDS`, the avg ``[sum, count]`` pair,
    the distinct set's ``add``); NULL (None) values are skipped, and
    ``COUNT(col)`` counts the non-NULL ones.
    """
    init: list[str] = []
    body: list[str] = []
    for pos, (spec, idx) in enumerate(zip(aggregates, value_idxs)):
        if spec.func == "count":
            init.append("0")
            if idx is None:
                body.append(f"s[{pos}] += 1")
            else:
                body.append(f"if row[{idx}] is not None: s[{pos}] += 1")
            continue
        body += [f"v = row[{idx}]", "if v is not None:"]
        if spec.func == "count_distinct":
            init.append("set()")
            body.append(f"    s[{pos}].add(v)")
        elif spec.func == "avg":
            init.append("[0.0, 0]")  # sum, count
            body += [f"    a = s[{pos}]", "    a[0] += v", "    a[1] += 1"]
        else:
            init.append("None")
            body += [f"    c = s[{pos}]", f"    s[{pos}] = v if c is None else {_FOLDS[spec.func]}"]
    if grouped:
        head = [
            "get = groups.get",
            "for key, row in zip(keys, rows):",
            "    s = get(key)",
            "    if s is None:",
            "        s = groups[key] = make_state()",
        ]
    else:
        head = [
            "s = groups.get(())",
            "if s is None:",
            "    s = groups[()] = make_state()",
            "for row in rows:",
        ]
    lines = head + ["    " + line for line in body]
    source = (
        f"def make_state():\n    return [{', '.join(init)}]\n"
        "def kernel(groups, keys, rows, make_state):\n"
        + "".join(f"    {line}\n" for line in lines)
    )
    namespace: dict[str, object] = {"__builtins__": {}, "set": set, "zip": zip}
    exec(source, namespace)  # noqa: S102 - source is generated from validated specs
    # Popped from their own globals, the two functions form no reference
    # cycle: a dropped plan frees them by reference counting, not by the
    # cyclic GC.
    return namespace.pop("kernel"), namespace.pop("make_state")  # type: ignore[return-value]


def _global_key(_row: tuple) -> tuple:
    return ()


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
        "_extract",
        "_update",
        "_make_state",
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
        self._extract: Callable[[tuple], object] | None = None
        self._update: Callable[..., None] | None = None
        self._make_state: Callable[[], list] | None = None
        # Compiled once per plan, shared by every fresh() copy. An
        # unresolvable aggregate input is the analyzer's to report (A001);
        # open() raises it.
        with suppress(SchemaError):
            self._bind()

    def _bind(self) -> None:
        in_schema = self.child.output_schema
        group_idxs = [in_schema.index_of(g) for g in self.group_by]
        value_idxs = [
            in_schema.index_of(a.column) if a.column else None for a in self.aggregates
        ]
        # Single-column grouping keys are the bare value, multi-column keys
        # the value tuple — exactly what multi-arg ``itemgetter`` returns.
        self._extract = itemgetter(*group_idxs) if group_idxs else _global_key
        self._update, self._make_state = compile_update_kernel(
            self.aggregates, value_idxs, grouped=bool(group_idxs)
        )

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
        if self._update is None:
            self._bind()
        self._set_phase("init")

    def _next_batch(self, max_rows: int) -> list[tuple]:
        if self._emit_iter is None:
            # Drained at max(this first request, the cursor's fetch size); the
            # emit stream is then sliced batch by batch.
            self._emit_iter = self._consume_and_group(max_rows)
        return list(islice(self._emit_iter, max_rows))

    def _close(self) -> None:
        self._emit_iter = None

    def _emit(self, groups: dict[object, list]) -> Iterator[tuple]:
        """One output row per group, in the dict's (first-seen) order. A
        global aggregate over no rows still emits its one row, as SQL
        does: COUNT and COUNT(DISTINCT) give 0, every other function NULL."""
        if not groups and not self.group_by:
            groups[()] = self._make_state()
        self.groups_seen = len(groups)
        self._set_phase("emit")
        # A multi-column key is already a tuple, the global key is ().
        single = len(self.group_by) == 1
        for key, states in groups.items():
            yield ((key,) if single else key) + self._finalize_state(states)

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

    def _consume_and_group(self, consume: int) -> Iterator[tuple]:
        raise NotImplementedError


class HashAggregate(_AggregateBase):
    """Hash-partitioned aggregation."""

    op_name = "hash_aggregate"
    __slots__ = ()

    def _consume_and_group(self, consume: int) -> Iterator[tuple]:
        self._set_phase("partition")
        groups: dict[object, list] = {}
        update, make_state = self._update, self._make_state
        assert update is not None
        # A global aggregate's kernel reads no keys: extract them only for
        # an attached hook.
        need_keys = bool(self.group_by)
        for keys, batch in self._drain(0, consume, self._extract, need_keys):
            update(groups, keys, batch, make_state)
        yield from self._emit(groups)


class SortAggregate(_AggregateBase):
    """Sort-based aggregation: sort the input on the group key, then fold
    the sorted rows, whose equal keys form one run each, and emit one row
    per run in key order."""

    op_name = "sort_aggregate"
    __slots__ = ()

    def _consume_and_group(self, consume: int) -> Iterator[tuple]:
        if not self.group_by:
            # Degenerate to hash aggregation semantics for a global group.
            yield from HashAggregate._consume_and_group(self, consume)  # type: ignore[arg-type]
            return
        self._set_phase("read_input")
        extract = self._extract
        rows: list[tuple] = []
        for _keys, batch in self._drain(0, consume, extract, need_keys=False):
            rows.extend(batch)
        self._set_phase("sort")
        rows.sort(key=extract)
        # The sort is stable, so each run folds its rows in input order;
        # the dict keeps the runs in key order.
        groups: dict[object, list] = {}
        assert self._update is not None
        self._update(groups, list(map(extract, rows)), rows, self._make_state)
        yield from self._emit(groups)
