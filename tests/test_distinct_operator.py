"""Tests for the DISTINCT operator and its estimation/SQL integration."""

import pytest

from repro.core.aggregate_estimators import attach_group_estimator
from repro.core.manager import EstimationManager
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import Distinct, Project, SeqScan
from repro.executor.pipeline import decompose_pipelines
from repro.storage.schema import Schema
from repro.storage.table import Table


@pytest.fixture
def dupes_table() -> Table:
    rows = [(1, "a"), (2, "b"), (1, "a"), (3, "c"), (2, "b"), (1, "a")]
    return Table("d", Schema.of("k:int", "v:str"), rows)


class TestDistinctOperator:
    def test_eliminates_duplicates_first_seen_order(self, dupes_table):
        op = Distinct(SeqScan(dupes_table))
        result = ExecutionEngine(op).run()
        assert result.rows == [(1, "a"), (2, "b"), (3, "c")]
        assert op.groups_seen == 3
        assert op.rows_consumed == [6]

    def test_blocking(self, dupes_table):
        scan = SeqScan(dupes_table)
        op = Distinct(scan)
        op.open()
        first = op.next()
        assert first == (1, "a")
        assert scan.is_exhausted

    def test_breaks_pipeline(self, dupes_table):
        op = Distinct(SeqScan(dupes_table))
        assert len(decompose_pipelines(op)) == 2

    def test_input_hooks_fire_per_tuple(self, dupes_table):
        op = Distinct(SeqScan(dupes_table))
        seen = []
        op.input_hooks[0].append(lambda keys, rows: seen.extend(keys))
        ExecutionEngine(op, collect_rows=False).run()
        assert len(seen) == 6

    def test_schema_passthrough(self, dupes_table):
        op = Distinct(SeqScan(dupes_table))
        assert op.output_schema == SeqScan(dupes_table).output_schema


class TestDistinctEstimation:
    def test_estimator_exact_after_input_pass(self):
        from repro.datagen.skew import customer_variant

        table = customer_variant(1.0, 60, 0, 3000, name="dt")
        op = Distinct(Project(SeqScan(table), ["dt.nationkey"]))
        estimate = attach_group_estimator(op)
        result = ExecutionEngine(op, collect_rows=False).run()
        assert estimate.exact
        assert estimate.estimate() == result.row_count

    def test_manager_attaches_to_distinct(self):
        from repro.datagen.skew import customer_variant

        table = customer_variant(1.0, 60, 0, 2000, name="dm")
        op = Distinct(Project(SeqScan(table), ["dm.nationkey"]))
        manager = EstimationManager(op)
        ExecutionEngine(op, collect_rows=False).run()
        assert manager.registry[id(op)].source.estimate() == op.groups_seen
        assert manager.registry[id(op)].source.exact


class TestSqlDistinctHaving:
    @pytest.fixture(scope="class")
    def db(self):
        from repro.datagen import generate_tpch

        return generate_tpch(sf=0.002, seed=23)

    def test_select_distinct(self, db):
        from repro.sql import run_query

        distinct = run_query(db, "SELECT DISTINCT custkey FROM orders")
        plain = run_query(db, "SELECT custkey FROM orders")
        assert distinct.row_count == len(set(r[0] for r in plain.rows))
        assert distinct.row_count < plain.row_count

    def test_having_filters_groups(self, db):
        from repro.sql import run_query

        all_groups = run_query(
            db, "SELECT custkey, COUNT(*) AS n FROM orders GROUP BY custkey"
        )
        big_groups = run_query(
            db,
            "SELECT custkey, COUNT(*) AS n FROM orders GROUP BY custkey HAVING n >= 10",
        )
        expected = [r for r in all_groups.rows if r[1] >= 10]
        assert sorted(big_groups.rows) == sorted(expected)

    def test_having_without_group_by_rejected(self, db):
        from repro.common.errors import PlanError
        from repro.sql import compile_select

        with pytest.raises(PlanError, match="HAVING"):
            compile_select(db, "SELECT orderkey FROM orders HAVING orderkey > 3")

    def test_distinct_with_order_and_limit(self, db):
        from repro.sql import run_query

        result = run_query(
            db,
            "SELECT DISTINCT nationkey FROM customer ORDER BY nationkey LIMIT 5",
        )
        values = [r[0] for r in result.rows]
        assert values == sorted(values)
        assert len(values) == len(set(values)) == 5
