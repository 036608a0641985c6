"""Tests for Limit and Materialize."""

import pytest

from repro.executor.engine import ExecutionEngine
from repro.executor.operators import Limit, Materialize, SeqScan


class TestLimit:
    def test_truncates(self, tiny_table):
        op = Limit(SeqScan(tiny_table), 2)
        result = ExecutionEngine(op).run()
        assert [r[0] for r in result.rows] == [1, 2]

    def test_larger_than_input(self, tiny_table):
        op = Limit(SeqScan(tiny_table), 100)
        assert ExecutionEngine(op).run().row_count == 5

    def test_zero(self, tiny_table):
        op = Limit(SeqScan(tiny_table), 0)
        assert ExecutionEngine(op).run().row_count == 0

    def test_rejects_negative(self, tiny_table):
        with pytest.raises(ValueError):
            Limit(SeqScan(tiny_table), -1)

    def test_child_not_fully_drained(self, tiny_table):
        scan = SeqScan(tiny_table)
        op = Limit(scan, 2)
        ExecutionEngine(op).run()
        assert scan.tuples_emitted == 2


class TestMaterialize:
    def test_passthrough(self, tiny_table):
        op = Materialize(SeqScan(tiny_table))
        result = ExecutionEngine(op).run()
        assert result.rows == list(tiny_table)

    def test_blocking_behaviour(self, tiny_table):
        scan = SeqScan(tiny_table)
        op = Materialize(scan)
        op.open()
        first = op.next()
        assert first == (1, "a", 1.5)
        assert scan.is_exhausted  # whole input consumed before first output
        assert op.rows_consumed == [5]

    def test_breaks_pipeline(self, tiny_table):
        from repro.executor.pipeline import decompose_pipelines

        op = Materialize(SeqScan(tiny_table))
        pipelines = decompose_pipelines(op)
        assert len(pipelines) == 2
