"""The aggregates' compiled update kernel against a per-row reference.

``HashAggregate`` and ``SortAggregate`` fold each input batch with one
generated kernel (``compile_update_kernel``). The reference below spells out
the per-row semantics the kernel replaces — one update per row per aggregate,
NULLs skipped, ``COUNT(col)`` counting non-NULL values, ``min``/``max`` by the
builtins, the avg ``[sum, count]`` pair — and the sort aggregate's run loop
(a new group wherever ``key != current_key`` in the stably sorted input),
and SQL's one row for a global aggregate over no input.
Output rows and ``groups_seen`` must be ``==``: float sums bit-identical, and
a NaN that ``min``/``max`` keep is the very input object on both sides. The
rows' ``repr`` must match too, since ``==`` alone cannot tell ``1`` from
``1.0`` or ``0.0`` from ``-0.0`` (which of two equal values ``min`` keeps).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor.engine import ExecutionEngine
from repro.executor.operators import AggregateSpec, HashAggregate, SeqScan, SortAggregate
from repro.storage.schema import Schema
from repro.storage.table import Table

SCHEMA = Schema.of("g1:int", "g2:int", "n:float", "m:float")
#: ``n`` never holds NaN or infinities (a NaN sum is a new object on each
#: side, so ``==`` could not compare it); ``m`` feeds only the functions
#: that return an input value or a count.
FUNCS_BY_COLUMN = {
    "n": ("count", "sum", "min", "max", "avg", "count_distinct"),
    "m": ("count", "min", "max", "count_distinct"),
}
BATCH_SIZES = (1, 7, 1024)

_plain = st.one_of(
    st.none(),
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 1.0, -2.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
_with_nan = st.one_of(_plain, st.just(math.nan), st.just(math.inf), st.just(-math.inf))
_rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), _plain, _with_nan),
    max_size=60,
)
_spec = st.one_of(
    st.just(("count", None)),
    *(
        st.tuples(st.sampled_from(funcs), st.just(column))
        for column, funcs in FUNCS_BY_COLUMN.items()
    ),
)
_group_by = st.sampled_from([(), ("g1",), ("g2",), ("g1", "g2"), ("g2", "g1")])


def _reference(rows, group_by, specs, sort):
    """Per-row aggregation: returns ``(output rows, groups_seen)``."""
    group_idxs = [SCHEMA.index_of(g) for g in group_by]
    value_idxs = [SCHEMA.index_of(c) if c else None for _, c in specs]

    def key_of(row):
        if len(group_idxs) == 1:
            return row[group_idxs[0]]
        return tuple(row[i] for i in group_idxs)

    def new_state():
        return [
            0 if func == "count" else
            [0.0, 0] if func == "avg" else
            set() if func == "count_distinct" else
            None
            for func, _ in specs
        ]  # fmt: skip

    def update(states, row):
        for pos, (func, _) in enumerate(specs):
            idx = value_idxs[pos]
            if func == "count":
                if idx is None or row[idx] is not None:
                    states[pos] += 1
                continue
            value = row[idx]
            if value is None:
                continue
            if func == "count_distinct":
                states[pos].add(value)
            elif func == "sum":
                states[pos] = value if states[pos] is None else states[pos] + value
            elif func == "min":
                states[pos] = value if states[pos] is None else min(states[pos], value)
            elif func == "max":
                states[pos] = value if states[pos] is None else max(states[pos], value)
            else:
                states[pos][0] += value
                states[pos][1] += 1

    def finalize(states):
        out = []
        for pos, (func, _) in enumerate(specs):
            if func == "avg":
                total, count = states[pos]
                out.append(total / count if count else None)
            elif func == "count_distinct":
                out.append(len(states[pos]))
            else:
                out.append(states[pos])
        return tuple(out)

    groups: list[tuple[object, list]] = []
    if sort and group_idxs:
        current = object()
        for row in sorted(rows, key=key_of):
            key = key_of(row)
            if key != current:
                current = key
                groups.append((key, new_state()))
            update(groups[-1][1], row)
    else:
        by_key: dict[object, list] = {}
        for row in rows:
            key = key_of(row)
            if key not in by_key:
                by_key[key] = new_state()
                groups.append((key, by_key[key]))
            update(by_key[key], row)
    if not group_idxs and not groups:  # SQL: a global aggregate is one row
        groups.append(((), new_state()))
    single = len(group_idxs) == 1
    out = [((key,) if single else tuple(key)) + finalize(states) for key, states in groups]
    return out, len(groups)


def _run(cls, rows, group_by, specs, batch_size):
    table = Table("t", SCHEMA, rows, block_size=16)
    aggregates = [AggregateSpec(func, column, f"a{i}") for i, (func, column) in enumerate(specs)]
    op = cls(SeqScan(table), group_by, aggregates)
    result = ExecutionEngine(op).run(batch_size=batch_size)
    return result.rows, op.groups_seen


@pytest.mark.parametrize("cls", [HashAggregate, SortAggregate])
@settings(max_examples=150, deadline=None)
@given(rows=_rows, group_by=_group_by, specs=st.lists(_spec, min_size=1, max_size=5))
def test_kernel_matches_per_row_reference(cls, rows, group_by, specs):
    expected = _reference(rows, group_by, specs, sort=cls is SortAggregate)
    for batch_size in BATCH_SIZES:
        got = _run(cls, rows, group_by, specs, batch_size)
        assert got == expected, batch_size
        assert repr(got) == repr(expected), batch_size


@pytest.mark.parametrize("cls", [HashAggregate, SortAggregate])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_empty_input_under_a_global_aggregate(cls, batch_size):
    specs = [("count", None), ("sum", "n"), ("min", "m"), ("avg", "n"), ("count_distinct", "m")]
    expected = _reference([], (), specs, sort=cls is SortAggregate)
    assert _run(cls, [], (), specs, batch_size) == expected
    assert expected == ([(0, None, None, None, 0)], 1)


@pytest.mark.parametrize("cls", [HashAggregate, SortAggregate])
def test_nan_is_kept_as_min_and_max_keep_it(cls):
    """``min``/``max`` keep the running value unless the new one compares
    below/above it, so a NaN met first sticks and a NaN met later is
    skipped — exactly as the builtins do."""
    nan = math.nan
    rows = [(0, 0, 1.0, nan), (0, 0, 2.0, 3.0), (1, 0, 1.0, 3.0), (1, 0, 2.0, nan)]
    specs = [("min", "m"), ("max", "m"), ("count", "m")]
    got, groups = _run(cls, rows, ("g1",), specs, 7)
    assert (got, groups) == _reference(rows, ("g1",), specs, sort=cls is SortAggregate)
    assert got[0][1] is nan and got[0][2] is nan
    assert got[1][1:] == (3.0, 3.0, 2)


@pytest.mark.parametrize("cls", [HashAggregate, SortAggregate])
def test_min_and_max_keep_the_first_of_equal_values(cls):
    """Of two equal values, ``min``/``max`` keep the one met first."""
    rows = [(0, 0, 0, 1.0), (0, 0, 0.0, 1), (0, 0, -0.0, 1), (1, 0, -0.0, 1), (1, 0, 0.0, 1.0)]
    specs = [("min", "n"), ("max", "n"), ("min", "m"), ("max", "m")]
    got, _ = _run(cls, rows, ("g1",), specs, 7)
    assert repr(got) == repr(_reference(rows, ("g1",), specs, sort=cls is SortAggregate)[0])
    assert repr(got) == "[(0, 0, 0, 1.0, 1.0), (1, -0.0, -0.0, 1, 1)]"
