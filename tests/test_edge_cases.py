"""Edge-case and failure-injection tests across the framework."""

import pytest

from repro.core import EstimationManager, ProgressMonitor
from repro.core.distinct import HybridGroupCountEstimator
from repro.core.join_estimators import OnceJoinEstimator, attach_once_estimator
from repro.core.pipeline_estimators import HashJoinChainEstimator
from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.operators import (
    AggregateSpec,
    HashAggregate,
    HashJoin,
    SeqScan,
    SortMergeJoin,
)
from repro.storage.schema import Schema
from repro.storage.table import Table


def table_of(name, values):
    return Table(name, Schema.of("k:int"), [(v,) for v in values])


class TestDegenerateInputs:
    def test_empty_build_side_estimates_zero(self):
        join = HashJoin(
            SeqScan(table_of("e", [])), SeqScan(table_of("p", [1, 2, 3])), "e.k", "p.k"
        )
        est = attach_once_estimator(join)
        ExecutionEngine(join, collect_rows=False).run()
        assert est.acc.estimate() == 0.0
        assert est.acc.exact

    def test_empty_probe_side(self):
        join = HashJoin(
            SeqScan(table_of("b", [1, 2])), SeqScan(table_of("e", [])), "b.k", "e.k"
        )
        est = attach_once_estimator(join)
        ExecutionEngine(join, collect_rows=False).run()
        assert est.acc.exact
        assert est.acc.estimate() == 0.0

    def test_both_sides_empty_progress_monitor(self):
        join = HashJoin(
            SeqScan(table_of("a", [])), SeqScan(table_of("b", [])), "a.k", "b.k"
        )
        monitor = ProgressMonitor(join, mode="once")
        ExecutionEngine(join, collect_rows=False).run()
        snap = monitor.snapshot()
        assert snap.work_done == 0.0
        assert snap.progress == 0.0  # zero work total: undefined -> 0

    def test_all_null_keys(self):
        join = HashJoin(
            SeqScan(table_of("a", [None, None])),
            SeqScan(table_of("b", [None, None])),
            "a.k",
            "b.k",
        )
        est = attach_once_estimator(join)
        result = ExecutionEngine(join, collect_rows=False).run()
        assert result.row_count == 0
        assert est.acc.estimate() == 0.0

    def test_single_value_domain(self):
        join = HashJoin(
            SeqScan(table_of("a", [7] * 50)),
            SeqScan(table_of("b", [7] * 40)),
            "a.k",
            "b.k",
        )
        est = attach_once_estimator(join)
        result = ExecutionEngine(join, collect_rows=False).run()
        assert result.row_count == 2000
        assert est.acc.estimate() == 2000.0

    def test_single_row_tables(self):
        join = HashJoin(
            SeqScan(table_of("a", [1])), SeqScan(table_of("b", [1])), "a.k", "b.k"
        )
        est = attach_once_estimator(join)
        assert ExecutionEngine(join, collect_rows=False).run().row_count == 1
        assert est.acc.estimate() == 1.0


class TestEstimatorRobustness:
    def test_zero_probe_total_provider(self):
        est = OnceJoinEstimator(probe_total=lambda: 0.0)
        est.on_build(1)
        est.on_probe(1)
        # One output row is already certain: |S| is floored at t, so a
        # total that under-counts cannot scale the estimate below Σc.
        assert est.acc.estimate() == 1.0

    def test_probe_total_shrinks_below_t(self):
        """A selection whose observed selectivity collapses mid-stream."""
        est = OnceJoinEstimator(probe_total=lambda: 1.0)
        est.on_build(1)
        for _ in range(100):
            est.on_probe(1)
        # 100 output rows have been seen; the stale total cannot hide them.
        assert est.acc.estimate() == 100.0
        assert est.acc.confidence_interval() == (100.0, 100.0)

    def test_hybrid_group_estimator_with_zero_total(self):
        hybrid = HybridGroupCountEstimator(total=0.0)
        hybrid.state.observe("x")
        assert hybrid.estimate() >= 1.0  # never below distinct seen

    def test_chain_estimator_empty_base_stream(self):
        b = table_of("b", [1, 2])
        c = table_of("c", [])
        join = HashJoin(SeqScan(b), SeqScan(c), "b.k", "c.k")
        est = HashJoinChainEstimator([join])
        ExecutionEngine(join, collect_rows=False).run()
        assert est.exact
        assert est.levels[0].estimate() == 0.0

    def test_monitor_snapshot_before_any_execution(self):
        join = HashJoin(
            SeqScan(table_of("a", [1, 2])), SeqScan(table_of("b", [1])), "a.k", "b.k"
        )
        join.estimated_cardinality = 5.0
        monitor = ProgressMonitor(join, mode="once")
        snap = monitor.snapshot()
        assert snap.work_done == 0.0
        assert snap.work_total_estimate >= 0.0

    def test_manager_on_plan_without_joins_or_aggregates(self, tiny_table):
        scan = SeqScan(tiny_table)
        manager = EstimationManager(scan)
        assert id(scan) not in manager.registry
        assert not manager.registry


class TestReRunIsolation:
    def test_estimators_do_not_leak_between_runs(self):
        """Two identical plans with separate estimators give identical,
        independent results (no shared global state)."""
        def run_once():
            join = HashJoin(
                SeqScan(table_of("a", [1, 1, 2, 3])),
                SeqScan(table_of("b", [1, 2, 2])),
                "a.k",
                "b.k",
            )
            est = attach_once_estimator(join)
            ExecutionEngine(join, collect_rows=False).run()
            return est.acc.estimate()

        assert run_once() == run_once() == 4.0

    def test_multiple_estimators_on_one_join(self):
        """Several subscribers coexist on the same hooks."""
        join = SortMergeJoin(
            SeqScan(table_of("a", [1, 2, 2])),
            SeqScan(table_of("b", [2, 2, 3])),
            "a.k",
            "b.k",
        )
        e1 = attach_once_estimator(join)
        e2 = attach_once_estimator(join)
        ExecutionEngine(join, collect_rows=False).run()
        assert e1.acc.estimate() == e2.acc.estimate() == 4.0


class TestAggregateEdgeCases:
    def test_group_estimator_single_group(self):
        from repro.core.aggregate_estimators import attach_group_estimator

        t = table_of("t", [5] * 100)
        agg = HashAggregate(SeqScan(t), ["t.k"], [AggregateSpec("count")])
        est = attach_group_estimator(agg)
        ExecutionEngine(agg, collect_rows=False).run()
        assert est.estimate() == 1.0

    def test_group_estimator_all_distinct(self):
        from repro.core.aggregate_estimators import attach_group_estimator

        t = table_of("t", list(range(500)))
        agg = HashAggregate(SeqScan(t), ["t.k"], [AggregateSpec("count")])
        est = attach_group_estimator(agg)
        ExecutionEngine(agg, collect_rows=False).run()
        assert est.estimate() == 500.0

    def test_tick_bus_snapshot_during_empty_aggregate(self):
        t = table_of("t", [])
        agg = HashAggregate(SeqScan(t), ["t.k"], [AggregateSpec("count")])
        bus = TickBus(1)
        monitor = ProgressMonitor(agg, mode="once", bus=bus)
        ExecutionEngine(agg, bus=bus, collect_rows=False).run()
        assert monitor.snapshot().work_done == 0.0


class TestPublicAPI:
    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_exports_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"
