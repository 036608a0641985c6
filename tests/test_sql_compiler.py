"""Tests for SQL compilation and end-to-end execution."""

import pytest

from repro.common.errors import PlanError
from repro.executor.operators import (
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    Project,
    SampleScan,
    SeqScan,
    Sort,
)
from repro.executor.plan import walk
from repro.sql import compile_select, run_query


@pytest.fixture(scope="module")
def db():
    from repro.datagen import generate_tpch

    return generate_tpch(sf=0.002, seed=21)


class TestPlanShapes:
    def test_simple_scan_star(self, db):
        compiled = compile_select(db, "SELECT * FROM nation")
        assert isinstance(compiled.plan, SeqScan)

    def test_projection(self, db):
        compiled = compile_select(db, "SELECT name, nationkey FROM nation")
        assert isinstance(compiled.plan, Project)
        assert compiled.plan.output_schema.names() == [
            "nation.name", "nation.nationkey",
        ]

    def test_join_chain_left_deep(self, db):
        compiled = compile_select(
            db,
            "SELECT l.quantity FROM lineitem l "
            "JOIN orders o ON l.orderkey = o.orderkey "
            "JOIN customer c ON o.custkey = c.custkey",
        )
        joins = [op for op in walk(compiled.plan) if isinstance(op, HashJoin)]
        assert len(joins) == 2
        # The top join's probe child is the lower join (one pipeline).
        top = joins[0]
        assert isinstance(top.probe_child, HashJoin)

    def test_where_pushdown_single_table(self, db):
        compiled = compile_select(
            db,
            "SELECT o.orderkey FROM orders o "
            "JOIN customer c ON o.custkey = c.custkey "
            "WHERE c.acctbal > 0 AND o.totalprice > 100",
        )
        filters = [op for op in walk(compiled.plan) if isinstance(op, Filter)]
        # Both conjuncts pushed below the join onto their scans.
        assert len(filters) == 2
        for f in filters:
            assert isinstance(f.child, SeqScan)

    def test_residual_multi_table_predicate_stays_above(self, db):
        compiled = compile_select(
            db,
            "SELECT o.orderkey FROM orders o "
            "JOIN customer c ON o.custkey = c.custkey "
            "WHERE o.totalprice > c.acctbal",
        )
        top = compiled.plan
        # project(filter(join(...)))
        assert isinstance(top, Project)
        assert isinstance(top.child, Filter)
        assert isinstance(top.child.child, HashJoin)

    def test_group_by_and_order_limit(self, db):
        compiled = compile_select(
            db,
            "SELECT custkey, COUNT(*) AS n FROM orders "
            "GROUP BY custkey ORDER BY n DESC LIMIT 3",
        )
        assert isinstance(compiled.plan, Limit)
        assert isinstance(compiled.plan.child, Sort)
        aggs = [op for op in walk(compiled.plan) if isinstance(op, HashAggregate)]
        assert len(aggs) == 1

    def test_sampling_scans(self, db):
        compiled = compile_select(
            db, "SELECT * FROM orders", sample_fraction=0.1
        )
        assert isinstance(compiled.plan, SampleScan)

    def test_estimates_annotated(self, db):
        compiled = compile_select(db, "SELECT * FROM orders")
        assert compiled.plan.estimated_cardinality == db.row_count("orders")


class TestValidation:
    def test_unselected_group_column_rejected(self, db):
        with pytest.raises(PlanError, match="GROUP BY"):
            compile_select(
                db, "SELECT custkey, orderkey, COUNT(*) FROM orders GROUP BY custkey"
            )

    def test_star_with_aggregate_rejected_at_parse(self, db):
        from repro.sql import SqlParseError

        with pytest.raises(SqlParseError):
            compile_select(db, "SELECT *, COUNT(*) FROM orders GROUP BY custkey")

    def test_star_with_group_by_rejected_at_compile(self, db):
        with pytest.raises(PlanError, match="aggregation"):
            compile_select(db, "SELECT * FROM orders GROUP BY custkey")

    def test_duplicate_relations_need_aliases(self, db):
        with pytest.raises(PlanError, match="aliases"):
            compile_select(
                db, "SELECT * FROM nation JOIN nation ON nation.nationkey = nation.nationkey"
            )

    def test_unresolvable_join_key(self, db):
        with pytest.raises(PlanError):
            compile_select(
                db,
                "SELECT * FROM orders o JOIN customer c ON c.zzz = o.custkey",
            )


class TestExecution:
    def test_filter_semantics(self, db):
        result = run_query(db, "SELECT * FROM nation WHERE regionkey = 2")
        expected = sum(1 for r in db.table("nation") if r[2] == 2)
        assert result.row_count == expected

    def test_join_result_matches_manual_plan(self, db):
        from repro.executor.engine import ExecutionEngine

        sql_result = run_query(
            db,
            "SELECT o.orderkey FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey",
            collect_rows=False,
        )
        manual = HashJoin(
            SeqScan(db.table("orders")),
            SeqScan(db.table("lineitem")),
            "orders.orderkey",
            "lineitem.orderkey",
        )
        manual_count = ExecutionEngine(manual, collect_rows=False).run().row_count
        assert sql_result.row_count == manual_count

    def test_aggregate_correctness(self, db):
        from collections import Counter

        result = run_query(
            db, "SELECT custkey, COUNT(*) AS n FROM orders GROUP BY custkey"
        )
        expected = Counter(db.table("orders").column_values("custkey"))
        assert dict(result.rows) == dict(expected)

    def test_order_and_limit(self, db):
        result = run_query(
            db,
            "SELECT orderkey, totalprice FROM orders ORDER BY totalprice DESC LIMIT 5",
        )
        prices = [r[1] for r in result.rows]
        assert prices == sorted(prices, reverse=True)
        assert len(prices) == 5
        all_prices = sorted(db.table("orders").column_values("totalprice"), reverse=True)
        assert prices == all_prices[:5]

    def test_semi_and_anti_join(self, db):
        semi = run_query(
            db,
            "SELECT c.custkey FROM customer c SEMI JOIN orders o ON c.custkey = o.custkey",
            collect_rows=False,
        )
        anti = run_query(
            db,
            "SELECT c.custkey FROM customer c ANTI JOIN orders o ON c.custkey = o.custkey",
            collect_rows=False,
        )
        assert semi.row_count + anti.row_count == db.row_count("customer")

    def test_left_outer_join(self, db):
        outer = run_query(
            db,
            "SELECT c.custkey FROM customer c LEFT JOIN orders o ON c.custkey = o.custkey",
            collect_rows=False,
        )
        inner = run_query(
            db,
            "SELECT c.custkey FROM customer c JOIN orders o ON c.custkey = o.custkey",
            collect_rows=False,
        )
        anti = run_query(
            db,
            "SELECT c.custkey FROM customer c ANTI JOIN orders o ON c.custkey = o.custkey",
            collect_rows=False,
        )
        assert outer.row_count == inner.row_count + anti.row_count

    def test_column_aliases_in_output(self, db):
        result = run_query(db, "SELECT name AS nation_name FROM nation LIMIT 1")
        assert result.columns == ["nation_name"]


class TestOuterJoinWhere:
    """WHERE conjuncts on the NULL-padded side of a LEFT OUTER JOIN run
    above the join with SQL's answer; expected rows are filtered from the
    unfiltered join's rows by hand (None is SQL NULL)."""

    FROM = (
        "SELECT c.custkey, c.acctbal, o.orderkey, o.totalprice "
        "FROM customer c LEFT OUTER JOIN orders o ON c.custkey = o.custkey"
    )

    @pytest.fixture(scope="class")
    def skewed(self):
        from repro.datagen import generate_tpch

        # Skewed order keys leave some customers without an order.
        return generate_tpch(sf=0.001, skew_z=1.0, seed=1)

    @pytest.fixture(scope="class")
    def joined(self, skewed):
        rows = run_query(skewed, self.FROM).rows
        assert any(row[2] is None for row in rows)
        return rows

    @pytest.mark.parametrize(
        "where,keep",
        [
            ("o.orderkey IS NULL", lambda c, bal, o, price: o is None),
            ("o.orderkey IS NOT NULL", lambda c, bal, o, price: o is not None),
            ("o.totalprice > 10", lambda c, bal, o, price: price is not None and price > 10),
            ("o.orderkey != 5", lambda c, bal, o, price: o is not None and o != 5),
            (
                "o.totalprice > c.acctbal",
                lambda c, bal, o, price: price is not None and price > bal,
            ),
            (
                "c.custkey < 40 AND o.orderkey BETWEEN 1 AND 700",
                lambda c, bal, o, price: c < 40 and o is not None and 1 <= o <= 700,
            ),
        ],
    )
    def test_matches_sql_semantics(self, skewed, joined, where, keep):
        result = run_query(skewed, f"{self.FROM} WHERE {where}")
        assert sorted(result.rows) == sorted(row for row in joined if keep(*row))

    def test_padded_side_conjunct_is_not_pushed(self, skewed):
        plan = compile_select(skewed, f"{self.FROM} WHERE o.totalprice > 10").plan
        join = next(op for op in walk(plan) if isinstance(op, HashJoin))
        assert not any(isinstance(op, Filter) for op in walk(join))

    @pytest.mark.parametrize(
        "where",
        ["o.orderkey IS NULL OR o.totalprice > 10", "NOT (o.totalprice > 10)"],
    )
    def test_three_valued_shapes_rejected(self, skewed, where):
        with pytest.raises(PlanError, match="outer-joined"):
            compile_select(skewed, f"{self.FROM} WHERE {where}")


class TestProgressIntegration:
    @pytest.mark.parametrize("mode", ["once", "dne"])
    def test_monitored_execution(self, db, mode):
        result = run_query(
            db,
            "SELECT n.name, COUNT(*) AS n FROM orders o "
            "JOIN customer c ON o.custkey = c.custkey "
            "JOIN nation n ON c.nationkey = n.nationkey "
            "GROUP BY n.name",
            progress=mode,
            collect_rows=False,
            tick_interval=500,
        )
        assert result.monitor is not None
        assert result.snapshots
        final = result.monitor.snapshot()
        assert final.progress == pytest.approx(1.0)

    def test_once_estimates_joins_in_sql_pipeline(self, db):
        from repro.sql import compile_select
        from repro.core import EstimationManager
        from repro.executor.engine import ExecutionEngine

        compiled = compile_select(
            db,
            "SELECT l.quantity FROM lineitem l "
            "JOIN orders o ON l.orderkey = o.orderkey "
            "JOIN customer c ON o.custkey = c.custkey",
        )
        manager = EstimationManager(compiled.plan)
        assert manager.attached()[0][0].k == 2
        ExecutionEngine(compiled.plan, collect_rows=False).run()
        for join in walk(compiled.plan):
            if isinstance(join, HashJoin):
                assert manager.registry[id(join)].source.estimate() == join.tuples_emitted
