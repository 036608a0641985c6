"""Tests for group-count estimation attached to aggregates."""

import pytest

from repro.common.errors import EstimationError
from repro.core.aggregate_estimators import (
    attach_group_estimator,
    attach_pushed_down_group_estimator,
)
from repro.core.pipeline_estimators import HashJoinChainEstimator
from repro.datagen.skew import customer_variant
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import (
    AggregateSpec,
    HashAggregate,
    HashJoin,
    SeqScan,
    SortAggregate,
)
from tests.conftest import read_at_ticks


@pytest.fixture
def groupby_plan():
    table = customer_variant(1.0, 80, 0, 3000, name="g")
    agg = HashAggregate(SeqScan(table), ["g.nationkey"], [AggregateSpec("count")])
    return table, agg


class TestDirectAttachment:
    def test_exact_after_partition_pass(self, groupby_plan):
        table, agg = groupby_plan
        estimate = attach_group_estimator(agg)
        agg.open()
        first = agg.next()
        assert first is not None
        # All input consumed by the first output row: estimate is exact.
        assert estimate.exact
        assert estimate.estimate() == len(set(table.column_values("nationkey")))

    def test_works_with_sort_aggregate(self):
        table = customer_variant(1.0, 80, 0, 3000, name="g")
        agg = SortAggregate(SeqScan(table), ["g.nationkey"])
        estimate = attach_group_estimator(agg)
        ExecutionEngine(agg, collect_rows=False).run()
        assert estimate.exact
        assert estimate.estimate() == len(set(table.column_values("nationkey")))

    def test_mid_stream_estimate_reasonable(self):
        table = customer_variant(0.0, 200, 0, 10_000, name="g")
        agg = HashAggregate(SeqScan(table), ["g.nationkey"])
        estimate = attach_group_estimator(agg)
        reads = read_at_ticks(agg, lambda: (estimate.state.t, estimate.estimate()), 1000)
        true_count = len(set(table.column_values("nationkey")))
        halfway = next(e for t, e in reads if t >= 5000)
        assert halfway == pytest.approx(true_count, rel=0.2)

    def test_global_aggregate_rejected(self, groupby_plan):
        table, _ = groupby_plan
        agg = HashAggregate(SeqScan(table), [], [AggregateSpec("count")])
        with pytest.raises(EstimationError, match="one group"):
            attach_group_estimator(agg)

    def test_input_total_resolved_from_scan(self, groupby_plan):
        table, agg = groupby_plan
        estimate = attach_group_estimator(agg)
        assert estimate.total == len(table)

    def test_gamma_squared_exposed(self, groupby_plan):
        table, agg = groupby_plan
        estimate = attach_group_estimator(agg)
        ExecutionEngine(agg, collect_rows=False).run()
        assert estimate.state.gamma_squared > 0.0
        assert estimate.chosen in ("gee", "mle")


class TestPushDown:
    def make_join_agg(self, rows=2500):
        b = customer_variant(1.0, 60, 1, rows, name="b")
        c = customer_variant(1.0, 60, 2, rows, name="c")
        join = HashJoin(SeqScan(b), SeqScan(c), "b.nationkey", "c.nationkey")
        agg = HashAggregate(join, ["c.nationkey"], [AggregateSpec("count")])
        chain = HashJoinChainEstimator([join])
        return join, agg, chain

    def test_exact_when_chain_probe_completes(self):
        join, agg, chain = self.make_join_agg()
        estimate = attach_pushed_down_group_estimator(agg, chain)
        assert chain.output_listeners  # fed by the chain, not the aggregate
        assert not agg.input_hooks[0]
        ExecutionEngine(agg, collect_rows=False).run()
        assert estimate.exact
        # Exact group count of the join output on c.nationkey.
        assert estimate.estimate() == agg.groups_seen

    def test_exact_before_aggregate_sees_input(self):
        """Push-down knows the group count while the join is still in its
        partition-wise pass and the aggregate has consumed nothing much."""
        join, agg, chain = self.make_join_agg()
        estimate = attach_pushed_down_group_estimator(agg, chain)
        agg.open()
        # Drive the aggregate's child indirectly: pull one row out of agg.
        first = agg.next()
        assert first is not None
        assert estimate.exact

    def test_group_column_must_come_from_base_stream(self):
        join, _, chain = self.make_join_agg()
        agg = HashAggregate(join, ["b.nationkey"], [AggregateSpec("count")])
        with pytest.raises(EstimationError, match="base probe stream"):
            attach_pushed_down_group_estimator(agg, chain)

    def test_multi_column_groups_rejected(self):
        join, _, chain = self.make_join_agg()
        agg = HashAggregate(join, ["c.nationkey", "c.custkey"], [AggregateSpec("count")])
        with pytest.raises(EstimationError, match="exactly one group"):
            attach_pushed_down_group_estimator(agg, chain)

    def test_total_tracks_chain_estimate(self):
        join, agg, chain = self.make_join_agg()
        estimate = attach_pushed_down_group_estimator(agg, chain)
        ExecutionEngine(agg, collect_rows=False).run()
        assert estimate.total == pytest.approx(join.tuples_emitted)
