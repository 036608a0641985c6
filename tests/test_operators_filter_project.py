"""Tests for Filter and Project."""

import pytest

from repro.executor.expressions import col, lit
from repro.executor.operators import Filter, Project, SeqScan


class TestFilter:
    def test_filters_rows(self, tiny_table):
        op = Filter(SeqScan(tiny_table), col("id") > lit(3))
        op.open()
        assert [r[0] for r in op] == [4, 5]

    def test_observed_selectivity(self, tiny_table):
        op = Filter(SeqScan(tiny_table), col("id") > lit(3))
        op.open()
        list(op)
        assert op.rows_consumed == [5]
        assert op.observed_selectivity == pytest.approx(2 / 5)

    def test_selectivity_before_consuming(self, tiny_table):
        op = Filter(SeqScan(tiny_table), col("id") > lit(3))
        assert op.observed_selectivity == 1.0

    def test_schema_passthrough(self, tiny_table):
        op = Filter(SeqScan(tiny_table), col("id") > lit(0))
        assert op.output_schema == SeqScan(tiny_table).output_schema

    def test_empty_result(self, tiny_table):
        op = Filter(SeqScan(tiny_table), col("id") > lit(99))
        op.open()
        assert list(op) == []
        assert op.tuples_emitted == 0

    def test_string_predicate(self, tiny_table):
        op = Filter(SeqScan(tiny_table), col("name") == lit("c"))
        op.open()
        assert [r[0] for r in op] == [3]


class TestProject:
    def test_column_subset(self, tiny_table):
        op = Project(SeqScan(tiny_table), ["name", "id"])
        op.open()
        rows = list(op)
        assert rows[0] == ("a", 1)
        assert op.output_schema.names() == ["tiny.name", "tiny.id"]

    def test_computed_column(self, tiny_table):
        op = Project(SeqScan(tiny_table), [("double_score", col("score") * lit(2))])
        op.open()
        assert [r[0] for r in op] == [3.0, 5.0, 7.0, 9.0, 11.0]
        assert op.output_schema.names() == ["double_score"]

    def test_mixed_columns(self, tiny_table):
        op = Project(SeqScan(tiny_table), ["id", ("sum", col("id") + col("score"))])
        op.open()
        assert next(iter(op)) == (1, 2.5)

    def test_empty_projection_rejected(self, tiny_table):
        with pytest.raises(ValueError):
            Project(SeqScan(tiny_table), [])
