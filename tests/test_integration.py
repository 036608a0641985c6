"""End-to-end integration tests: whole plans, cross-checked results,
estimator convergence on realistic query shapes."""

import pytest

from repro.core import EstimationManager, ProgressMonitor
from repro.datagen import generate_tpch
from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.expressions import col, lit
from repro.executor.operators import (
    AggregateSpec,
    Filter,
    HashAggregate,
    HashJoin,
    IndexNestedLoopsJoin,
    Project,
    SeqScan,
    Sort,
    SortMergeJoin,
)
from repro.sql import compile_select


@pytest.fixture(scope="module")
def db():
    return generate_tpch(sf=0.002, seed=11, skew_z=1.0)


class TestQueryEquivalence:
    """The same logical query through different physical operators must
    agree — the cross-check that validates the whole executor."""

    def test_join_methods_agree(self, db):
        orders, lineitem = db.table("orders"), db.table("lineitem")

        def run(join_op):
            return ExecutionEngine(join_op, collect_rows=False).run().row_count

        hash_count = run(
            HashJoin(SeqScan(orders), SeqScan(lineitem), "orders.orderkey", "lineitem.orderkey")
        )
        merge_count = run(
            SortMergeJoin(SeqScan(orders), SeqScan(lineitem), "orders.orderkey", "lineitem.orderkey")
        )
        inl_count = run(
            IndexNestedLoopsJoin(SeqScan(lineitem), SeqScan(orders), "lineitem.orderkey", "orders.orderkey")
        )
        assert hash_count == merge_count == inl_count == lineitem.num_rows

    def test_aggregation_methods_agree(self, db):
        from repro.executor.operators import SortAggregate

        orders = db.table("orders")
        h = HashAggregate(SeqScan(orders), ["custkey"], [AggregateSpec("count", alias="n")])
        s = SortAggregate(SeqScan(orders), ["custkey"], [AggregateSpec("count", alias="n")])
        hr = ExecutionEngine(h).run().rows
        sr = ExecutionEngine(s).run().rows
        assert sorted(hr) == sorted(sr)

    def test_filter_pushdown_equivalence(self, db):
        """Filter below vs above a join gives identical results when the
        predicate touches only one side."""
        orders, lineitem = db.table("orders"), db.table("lineitem")
        pred = col("orders.totalprice") > lit(250_000.0)
        below = HashJoin(
            Filter(SeqScan(orders), pred), SeqScan(lineitem),
            "orders.orderkey", "lineitem.orderkey",
        )
        above = Filter(
            HashJoin(SeqScan(orders), SeqScan(lineitem), "orders.orderkey", "lineitem.orderkey"),
            pred,
        )
        assert (
            ExecutionEngine(below, collect_rows=False).run().row_count
            == ExecutionEngine(above, collect_rows=False).run().row_count
        )

    def test_sql_shape_three_way_with_sort_and_projection(self, db):
        """SELECT c.name, count(*) FROM customer c JOIN orders o JOIN
        lineitem l GROUP BY ... ORDER BY — a full mixed-operator plan."""
        plan = Sort(
            HashAggregate(
                HashJoin(
                    SeqScan(db.table("customer")),
                    HashJoin(
                        SeqScan(db.table("orders")),
                        SeqScan(db.table("lineitem")),
                        "orders.orderkey",
                        "lineitem.orderkey",
                    ),
                    "customer.custkey",
                    "orders.custkey",
                ),
                ["customer.custkey"],
                [AggregateSpec("count", alias="n")],
            ),
            ["n"],
            descending=True,
        )
        result = ExecutionEngine(plan).run()
        assert sum(r[1] for r in result.rows) == db.row_count("lineitem")
        counts = [r[1] for r in result.rows]
        assert counts == sorted(counts, reverse=True)


class TestPlannerIntegration:
    def test_planner_chain_with_estimation_end_to_end(self, db):
        plan = compile_select(
            db,
            "SELECT n.nationkey, SUM(l.extendedprice) AS rev FROM lineitem l "
            "JOIN orders o ON l.orderkey = o.orderkey "
            "JOIN customer c ON o.custkey = c.custkey "
            "JOIN nation n ON c.nationkey = n.nationkey GROUP BY n.nationkey",
            sample_fraction=0.1,
        ).plan
        manager = EstimationManager(plan)
        chain, joins = manager.attached()[0]
        assert chain.k == len(joins) == 3
        bus = TickBus(1000)
        monitor = ProgressMonitor(plan, mode="once", bus=bus)
        result = ExecutionEngine(plan, bus=bus, collect_rows=False).run()
        assert result.row_count <= 25
        errors = monitor.ratio_errors()
        late = [r for a, r in errors if a > 0.5]
        assert all(abs(r - 1.0) < 0.1 for r in late)


class TestProjectionsInPipelines:
    def test_projection_between_scan_and_join(self, db):
        """Projection on the probe path: chain estimation still applies to
        the join with the projected stream as its base."""
        orders = db.table("orders")
        lineitem = db.table("lineitem")
        probe = Project(SeqScan(lineitem), ["lineitem.orderkey", "lineitem.quantity"])
        join = HashJoin(SeqScan(orders), probe, "orders.orderkey", "lineitem.orderkey")
        manager = EstimationManager(join)
        ExecutionEngine(join, collect_rows=False).run()
        assert manager.registry[id(join)].source.estimate() == join.tuples_emitted


class TestFailureModes:
    def test_monitor_handles_empty_results(self, db):
        plan = Filter(SeqScan(db.table("orders")), col("orderkey") < lit(0))
        bus = TickBus(100)
        monitor = ProgressMonitor(plan, mode="once", bus=bus)
        result = ExecutionEngine(plan, bus=bus, collect_rows=False).run()
        assert result.row_count == 0
        final = monitor.snapshot()
        assert final.work_done > 0  # the scan still did work

    def test_monitor_on_single_scan(self, db):
        scan = SeqScan(db.table("orders"))
        bus = TickBus(500)
        monitor = ProgressMonitor(scan, mode="once", bus=bus)
        ExecutionEngine(scan, bus=bus, collect_rows=False).run()
        errors = monitor.ratio_errors()
        assert all(r == pytest.approx(1.0) for _a, r in errors)
