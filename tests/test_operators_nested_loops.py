"""Tests for nested-loops joins."""

import pytest

from repro.executor.engine import ExecutionEngine
from repro.executor.expressions import col
from repro.executor.operators import IndexNestedLoopsJoin, NestedLoopsJoin, SeqScan
from repro.storage.schema import Schema
from repro.storage.table import Table


def tables():
    outer = Table("o", Schema.of("k:int", "ov:int"), [(1, 10), (2, 20), (3, 30)])
    inner = Table("i", Schema.of("k:int", "iv:int"), [(1, 100), (2, 200), (2, 201)])
    return outer, inner


class TestNestedLoops:
    def test_cross_product_without_predicate(self):
        outer, inner = tables()
        join = NestedLoopsJoin(SeqScan(outer), SeqScan(inner))
        assert ExecutionEngine(join).run().row_count == 9

    def test_equi_predicate(self):
        outer, inner = tables()
        join = NestedLoopsJoin(
            SeqScan(outer), SeqScan(inner), col("o.k") == col("i.k")
        )
        result = ExecutionEngine(join).run()
        assert result.row_count == 3

    def test_theta_predicate(self):
        outer, inner = tables()
        join = NestedLoopsJoin(SeqScan(outer), SeqScan(inner), col("ov") > col("iv"))
        result = ExecutionEngine(join).run()
        # ov in {10,20,30}, iv in {100,200,201}: never greater
        assert result.row_count == 0

    def test_inner_hooks_fire_once_despite_rescans(self):
        outer, inner = tables()
        join = NestedLoopsJoin(SeqScan(outer), SeqScan(inner))
        seen = []
        join.input_hooks[1].append(lambda keys, rows: seen.extend(rows))
        ExecutionEngine(join, collect_rows=False).run()
        assert len(seen) == 3  # materialised once, not once per outer row

    def test_outer_drives_pipeline(self):
        outer, inner = tables()
        join = NestedLoopsJoin(SeqScan(outer), SeqScan(inner))
        assert join.blocking_child_indexes == (1,)
        assert join.driver_child_index == 0


class TestIndexNestedLoops:
    def test_matches_reference(self):
        outer, inner = tables()
        join = IndexNestedLoopsJoin(SeqScan(outer), SeqScan(inner), "o.k", "i.k")
        result = ExecutionEngine(join).run()
        assert set(result.rows) == {
            (1, 10, 1, 100),
            (2, 20, 2, 200),
            (2, 20, 2, 201),
        }

    def test_output_schema_outer_first(self):
        outer, inner = tables()
        join = IndexNestedLoopsJoin(SeqScan(outer), SeqScan(inner), "o.k", "i.k")
        assert join.output_schema.names() == ["o.k", "o.ov", "i.k", "i.iv"]

    def test_index_build_pass_precedes_outer_pass(self):
        outer, inner = tables()
        join = IndexNestedLoopsJoin(SeqScan(outer), SeqScan(inner), "o.k", "i.k")
        order = []
        join.input_hooks[1].append(lambda ks, rs: order.extend("I" * len(rs)))
        join.input_hooks[0].append(lambda ks, rs: order.extend("O" * len(rs)))
        ExecutionEngine(join, collect_rows=False).run()
        assert order == ["I"] * 3 + ["O"] * 3

    def test_skewed_matches_hash_join(self, skewed_pair):
        from tests.conftest import brute_force_join_size

        left, right = skewed_pair
        join = IndexNestedLoopsJoin(
            SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey"
        )
        assert ExecutionEngine(join, collect_rows=False).run().row_count == (
            brute_force_join_size(left, right, "nationkey", "nationkey")
        )

    def test_requires_keys(self):
        outer, inner = tables()
        from repro.common.errors import PlanError

        with pytest.raises(PlanError):
            IndexNestedLoopsJoin(SeqScan(outer), SeqScan(inner), "", "i.k")
