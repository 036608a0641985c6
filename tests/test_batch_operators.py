"""Unit tests for the pull path (``Operator.next_batch``).

Covers the contract itself (short batches, exhaustion, state machine), the
``next()`` shim, size-1-vs-n equivalence of the drains, and the edge cases
the differential harness surfaced: empty hash-join build sides, a LIMIT
cutting a batch mid-way, and ``TickBus.tick_n`` jumping across an interval
boundary.
"""

import pytest

from repro.common.errors import ExecutorError
from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.expressions import col, lit
from repro.executor.operators import (
    AggregateSpec,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    Materialize,
    Project,
    SampleScan,
    SeqScan,
    Sort,
    SortAggregate,
)
from repro.executor.operators.base import OperatorState
from repro.executor.plan import walk
from repro.storage.schema import Schema
from repro.storage.table import Table


def drain_batches(op, max_rows):
    """Pull ``op`` to exhaustion via next_batch, returning (rows, batches)."""
    rows, batches = [], []
    while True:
        batch = op.next_batch(max_rows)
        if not batch:
            return rows, batches
        batches.append(len(batch))
        rows.extend(batch)


def run_both(make_plan, batch_size):
    """Run a freshly built plan at size 1 (the getnext model) and at
    ``batch_size``; return both results."""
    reference = ExecutionEngine(make_plan()).run(batch_size=1)
    batch = ExecutionEngine(make_plan()).run(batch_size=batch_size)
    return reference, batch


@pytest.fixture
def pair_table() -> Table:
    schema = Schema.of("k:int", "v:int")
    rows = [(i % 7, i) for i in range(50)]
    return Table("pairs", schema, rows, block_size=8)


class TestTickBusTickN:
    def test_tick_n_matches_repeated_tick_counts(self):
        a, b = TickBus(interval=10), TickBus(interval=10)
        for _ in range(137):
            a.tick()
        b.tick_n(137)
        assert a.count == b.count == 137

    def test_boundary_jump_fires_once_not_k_over_interval_times(self):
        bus = TickBus(interval=10)
        fired = []
        bus.subscribe(fired.append)
        bus.tick_n(95)  # crosses 9 boundaries
        assert fired == [95]

    def test_no_fire_when_no_boundary_crossed(self):
        bus = TickBus(interval=100)
        fired = []
        bus.subscribe(fired.append)
        bus.tick_n(40)
        bus.tick_n(40)
        assert fired == []
        bus.tick_n(40)  # 120: crosses the 100 boundary
        assert fired == [120]

    def test_exact_boundary_landing_fires(self):
        bus = TickBus(interval=10)
        fired = []
        bus.subscribe(fired.append)
        bus.tick_n(10)
        assert fired == [10]

    def test_zero_and_negative_are_noops(self):
        bus = TickBus(interval=10)
        fired = []
        bus.subscribe(fired.append)
        bus.tick_n(0)
        bus.tick_n(-5)
        assert bus.count == 0 and fired == []


class TestNextBatchContract:
    def test_scan_batches_cover_table_in_order(self, pair_table):
        scan = SeqScan(pair_table)
        scan.open()
        rows, batches = drain_batches(scan, 8)
        assert rows == list(pair_table.rows())
        assert batches == [8] * 6 + [2]
        assert scan.tuples_emitted == 50
        assert scan.state is OperatorState.EXHAUSTED
        assert scan.is_exhausted

    def test_next_batch_after_exhaustion_returns_empty(self, pair_table):
        scan = SeqScan(pair_table)
        scan.open()
        drain_batches(scan, 64)
        assert scan.next_batch(64) == []
        assert scan.next() is None

    def test_next_batch_before_open_raises(self, pair_table):
        with pytest.raises(ExecutorError, match="next_batch"):
            SeqScan(pair_table).next_batch(4)

    def test_next_batch_rejects_nonpositive_max_rows(self, pair_table):
        scan = SeqScan(pair_table)
        scan.open()
        with pytest.raises(ExecutorError, match="max_rows"):
            scan.next_batch(0)

    def test_mixing_next_and_next_batch(self, pair_table):
        scan = SeqScan(pair_table)
        scan.open()
        first = scan.next()
        batch = scan.next_batch(10)
        rest, _ = drain_batches(scan, 100)
        assert [first] + batch + rest == list(pair_table.rows())
        assert scan.tuples_emitted == 50

    def test_next_is_next_batch_of_one(self, pair_table):
        # The shim keeps no buffer: interleaving it with next_batch() loses
        # no row, and K_i advances by exactly 1 per next().
        def make():
            probe = Filter(SeqScan(pair_table), col("pairs.k") < lit(5))
            return HashJoin(SeqScan(pair_table.aliased("b")), probe, "b.k", "pairs.k")

        reference = ExecutionEngine(make()).run()
        join = make()
        join.open()
        rows = []
        while True:
            before = join.tuples_emitted
            row = join.next()
            if row is None:
                break
            assert join.tuples_emitted == before + 1
            rows.append(row)
            rows.extend(join.next_batch(5))
        assert rows == reference.rows
        assert [op.tuples_emitted for op in walk(join)] == [
            op.tuples_emitted for op in walk(reference.root)
        ]

    def test_default_fallback_for_blocking_operators(self, pair_table):
        # Sort / Distinct / Materialize drained at 7 emit what the size-1
        # drain (``next()``) emits.
        for wrap in (
            lambda c: Sort(c, ["pairs.k"]),
            lambda c: Distinct(c),
            lambda c: Materialize(c),
        ):
            row_op = wrap(SeqScan(pair_table))
            row_op.open()
            expected = list(iter(row_op.next, None))
            batch_op = wrap(SeqScan(pair_table))
            batch_op.open()
            got, _ = drain_batches(batch_op, 7)
            assert got == expected
            assert batch_op.tuples_emitted == row_op.tuples_emitted

    def test_short_batch_does_not_mean_exhausted(self, pair_table):
        # A filter may return fewer survivors than requested while the
        # stream continues.
        f = Filter(SeqScan(pair_table), col("pairs.k") == lit(0))
        f.open()
        rows, batches = drain_batches(f, 40)
        assert [r[0] for r in rows] == [0] * 8
        assert all(n >= 1 for n in batches)
        assert f.rows_consumed == [50]


class TestSampleScanBatch:
    def test_boundary_hook_fires_once_between_portions(self, pair_table):
        events = []
        scan = SampleScan(pair_table, fraction=0.3, seed=7)
        scan.sample_boundary_hooks.append(lambda s: events.append(len(events)))
        scan.open()
        rows, _ = drain_batches(scan, 4)
        assert len(rows) == pair_table.num_rows
        assert events == [0]

        reference = SampleScan(pair_table, fraction=0.3, seed=7)
        reference.open()
        assert rows == list(iter(reference.next, None))


class TestLimitBatch:
    @pytest.mark.parametrize("batch_size", [1, 3, 7, 64])
    def test_limit_cuts_batch_without_over_emitting(self, pair_table, batch_size):
        limit = Limit(SeqScan(pair_table), 10)
        limit.open()
        rows, _ = drain_batches(limit, batch_size)
        assert len(rows) == 10
        assert limit.tuples_emitted == 10
        # The scan was never pulled past the cutoff: the request is capped,
        # not the result.
        assert limit.child.tuples_emitted == 10

    def test_limit_zero(self, pair_table):
        limit = Limit(SeqScan(pair_table), 0)
        limit.open()
        assert limit.next_batch(5) == []
        assert limit.child.tuples_emitted == 0

    def test_limit_larger_than_input(self, pair_table):
        limit = Limit(SeqScan(pair_table), 1000)
        limit.open()
        rows, _ = drain_batches(limit, 16)
        assert len(rows) == 50
        assert limit.tuples_emitted == 50

    def test_truncating_limit_over_join_bounded_read_ahead(self, pair_table):
        # Below a truncating LIMIT, a streaming join may read ahead — but
        # only boundedly (at most one internal batch), and the LIMIT itself
        # stays exact.
        def make(bs):
            join = HashJoin(
                SeqScan(pair_table),
                SeqScan(pair_table.aliased("p2")),
                "pairs.k",
                "p2.k",
                num_partitions=1,
            )
            return Limit(join, 20), join

        # Size 1 is the getnext model: its read-ahead is 0.
        row_plan, row_join = make(1)
        row_res = ExecutionEngine(row_plan).run(batch_size=1)
        batch_size = 8
        batch_plan, batch_join = make(batch_size)
        batch_res = ExecutionEngine(batch_plan).run(batch_size=batch_size)
        assert batch_res.rows == row_res.rows
        assert batch_plan.tuples_emitted == row_plan.tuples_emitted == 20
        ahead = batch_join.rows_consumed[1] - row_join.rows_consumed[1]
        assert 0 <= ahead < batch_size


    @pytest.mark.parametrize("shape", ["filter", "join_probe"])
    def test_limit_smaller_than_the_fetch_still_bounds_read_ahead(self, pair_table, shape):
        """The fetch size sizes *blocking* passes only: a streaming pass
        under a truncating LIMIT still pulls at the capped request, so it
        reads ahead less than one batch whatever the cursor asked for."""

        def make():
            if shape == "filter":
                stream = Filter(SeqScan(pair_table), col("pairs.k") > lit(2))
                return Limit(stream, 5), stream, 0
            stream = HashJoin(
                SeqScan(pair_table.aliased("p2")),
                SeqScan(pair_table),
                "p2.v",
                "pairs.v",
                num_partitions=1,
            )
            return Limit(stream, 5), stream, 1

        row_plan, row_stream, child = make()
        row_res = ExecutionEngine(row_plan).run(batch_size=1)
        batch_size = 32
        batch_plan, batch_stream, _ = make()
        batch_res = ExecutionEngine(batch_plan).run(batch_size=batch_size)
        assert batch_res.rows == row_res.rows and len(batch_res.rows) == 5
        ahead = batch_stream.rows_consumed[child] - row_stream.rows_consumed[child]
        assert 0 <= ahead < batch_size
        if shape == "join_probe":
            # ... while the blocking build pass read its whole input.
            assert batch_stream.rows_consumed[0] == 50


class TestHashJoinEmptyBuild:
    """Regression: an empty build side must behave per join type, at every
    batch size (``None`` is the derived default)."""

    @pytest.fixture
    def empty_table(self) -> Table:
        return Table("empty", Schema.of("k:int", "v:int"), [])

    @pytest.mark.parametrize("batch_size", [None, 1, 7, 64])
    @pytest.mark.parametrize(
        "join_type,expected_rows",
        [("inner", 0), ("semi", 0), ("anti", 50), ("outer", 50)],
    )
    def test_empty_build_side(
        self, pair_table, empty_table, join_type, expected_rows, batch_size
    ):
        join = HashJoin(
            SeqScan(empty_table),
            SeqScan(pair_table),
            "empty.k",
            "pairs.k",
            join_type=join_type,
        )
        result = ExecutionEngine(join).run(batch_size=batch_size)
        assert result.row_count == expected_rows
        assert join.rows_consumed[1] == 50
        if join_type == "outer" and expected_rows:
            # Probe-preserving: build columns NULL-padded.
            assert all(r[0] is None and r[1] is None for r in result.rows)

    @pytest.mark.parametrize("batch_size", [None, 16])
    def test_both_sides_empty(self, empty_table, batch_size):
        join = HashJoin(
            SeqScan(empty_table),
            SeqScan(empty_table.aliased("e2")),
            "empty.k",
            "e2.k",
            join_type="outer",
        )
        result = ExecutionEngine(join).run(batch_size=batch_size)
        assert result.row_count == 0


class TestEngineBatchMode:
    def test_rejects_bad_batch_size(self, pair_table):
        with pytest.raises(ValueError):
            ExecutionEngine(SeqScan(pair_table)).run(batch_size=0)

    def test_row_callback_sees_rows_in_order(self, pair_table):
        seen = []
        engine = ExecutionEngine(SeqScan(pair_table), collect_rows=False)
        engine.run(row_callback=seen.append, batch_size=16)
        assert seen == list(pair_table.rows())

    def test_operators_closed_after_batch_run(self, pair_table):
        scan = SeqScan(pair_table)
        ExecutionEngine(scan).run(batch_size=8)
        assert scan.state is OperatorState.CLOSED

    def test_bus_count_matches_row_mode(self, pair_table):
        def make():
            probe = Filter(SeqScan(pair_table), col("pairs.k") < lit(5))
            return HashJoin(
                SeqScan(pair_table.aliased("b")), probe, "b.k", "pairs.k"
            )

        counts = []
        for bs in (None, 1, 7, 1024):
            bus = TickBus(interval=10)
            ExecutionEngine(make(), bus=bus, collect_rows=False).run(batch_size=bs)
            counts.append(bus.count)
        assert len(set(counts)) == 1

    @pytest.mark.parametrize("batch_size", [1, 5, 128])
    def test_aggregate_plan_equivalence(self, pair_table, batch_size):
        def make():
            agg = HashAggregate(
                SeqScan(pair_table),
                ["pairs.k"],
                [AggregateSpec("count", alias="n"), AggregateSpec("sum", "pairs.v")],
            )
            return Project(agg, ["pairs.k", "n"])

        row, batch = run_both(make, batch_size)
        assert batch.rows == row.rows
        assert batch.operator_counts == row.operator_counts

    @pytest.mark.parametrize("batch_size", [1, 5, 128])
    def test_sort_aggregate_equivalence(self, pair_table, batch_size):
        def make():
            return SortAggregate(
                SeqScan(pair_table),
                ["pairs.k"],
                [AggregateSpec("min", "pairs.v"), AggregateSpec("max", "pairs.v")],
            )

        row, batch = run_both(make, batch_size)
        assert batch.rows == row.rows
        assert batch.operator_counts == row.operator_counts
