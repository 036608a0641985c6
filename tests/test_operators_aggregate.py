"""Tests for aggregation operators."""

import pytest

from repro.common.errors import PlanError
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import AggregateSpec, HashAggregate, SeqScan, SortAggregate
from repro.storage.schema import Schema
from repro.storage.table import Table


@pytest.fixture
def sales() -> Table:
    rows = [
        ("a", 1, 10.0),
        ("b", 2, 20.0),
        ("a", 3, 30.0),
        ("b", 4, 40.0),
        ("a", 5, 50.0),
    ]
    return Table("sales", Schema.of("grp:str", "n:int", "amt:float"), rows)


AGGS = [
    AggregateSpec("count", alias="cnt"),
    AggregateSpec("sum", "amt", alias="total"),
    AggregateSpec("min", "n", alias="lo"),
    AggregateSpec("max", "n", alias="hi"),
    AggregateSpec("avg", "amt", alias="mean"),
]

EXPECTED = {
    "a": (3, 90.0, 1, 5, 30.0),
    "b": (2, 60.0, 2, 4, 30.0),
}


@pytest.mark.parametrize("cls", [HashAggregate, SortAggregate])
class TestAggregation:
    def test_all_functions(self, cls, sales):
        op = cls(SeqScan(sales), ["grp"], AGGS)
        result = ExecutionEngine(op).run()
        got = {r[0]: r[1:] for r in result.rows}
        assert got == EXPECTED

    def test_groups_seen_counter(self, cls, sales):
        op = cls(SeqScan(sales), ["grp"])
        ExecutionEngine(op, collect_rows=False).run()
        assert op.groups_seen == 2
        assert op.rows_consumed == [5]

    def test_input_hooks_fire_per_tuple_with_key(self, cls, sales):
        op = cls(SeqScan(sales), ["grp"])
        keys = []
        op.input_hooks[0].append(lambda ks, rows: keys.extend(ks))
        ExecutionEngine(op, collect_rows=False).run()
        assert keys == ["a", "b", "a", "b", "a"]

    def test_hooks_before_first_output(self, cls, sales):
        """The preprocessing pass sees all input before any group is
        emitted (Section 4.2's exactness-at-pass-end property)."""
        op = cls(SeqScan(sales), ["grp"])
        count = []
        op.input_hooks[0].append(lambda keys, rows: count.extend(keys))
        op.open()
        first = op.next()
        assert first is not None
        assert len(count) == 5

    def test_multi_column_grouping(self, cls, sales):
        op = cls(SeqScan(sales), ["grp", "n"])
        result = ExecutionEngine(op).run()
        assert result.row_count == 5  # all (grp, n) pairs unique

    def test_output_schema(self, cls, sales):
        op = cls(SeqScan(sales), ["grp"], [AggregateSpec("sum", "amt", alias="s")])
        assert op.output_schema.names() == ["sales.grp", "s"]


class TestGlobalAggregate:
    def test_count_star_without_groups(self, sales):
        op = HashAggregate(SeqScan(sales), [], [AggregateSpec("count", alias="c")])
        result = ExecutionEngine(op).run()
        assert result.rows == [(5,)]

    def test_sort_aggregate_global(self, sales):
        op = SortAggregate(SeqScan(sales), [], [AggregateSpec("sum", "amt")])
        result = ExecutionEngine(op).run()
        assert result.rows == [(150.0,)]


class TestValidation:
    def test_rejects_unknown_function(self):
        with pytest.raises(PlanError):
            AggregateSpec("median", "x")

    def test_non_count_requires_column(self):
        with pytest.raises(PlanError):
            AggregateSpec("sum")

    def test_requires_groups_or_aggregates(self, sales):
        with pytest.raises(PlanError):
            HashAggregate(SeqScan(sales), [], [])

    def test_null_handling(self):
        t = Table("n", Schema.of("g:int", "v:float"), [(1, None), (1, 2.0), (2, None)])
        op = HashAggregate(
            SeqScan(t), ["g"],
            [AggregateSpec("count", "v", alias="c"), AggregateSpec("sum", "v", alias="s")],
        )
        result = ExecutionEngine(op).run()
        got = {r[0]: r[1:] for r in result.rows}
        assert got[1] == (1, 2.0)  # null not counted, not summed
        assert got[2] == (0, None)
