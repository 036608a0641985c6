"""Tests for plan utilities and pipeline decomposition."""

import pytest

from repro.common.errors import PlanError
from repro.executor.operators import (
    Filter,
    HashAggregate,
    HashJoin,
    SeqScan,
    Sort,
    SortMergeJoin,
)
from repro.executor.expressions import col, lit
from repro.executor.pipeline import decompose_pipelines
from repro.executor.plan import explain, validate_plan, walk


def join_plan(tiny_table):
    left = SeqScan(tiny_table)
    right = SeqScan(tiny_table.aliased("other"))
    return HashJoin(left, right, "tiny.id", "other.id"), left, right


class TestWalkAndValidate:
    def test_walk_preorder(self, tiny_table):
        join, left, right = join_plan(tiny_table)
        assert [op for op in walk(join)] == [join, left, right]

    def test_validate_assigns_ids(self, tiny_table):
        join, left, right = join_plan(tiny_table)
        ops = validate_plan(join)
        assert [op.node_id for op in ops] == [0, 1, 2]

    def test_shared_operator_rejected(self, tiny_table):
        # Normal joins can't share subtrees (schema concat would collide),
        # so exercise the validator with a minimal two-child operator whose
        # children are the same instance.
        from repro.executor.operators.base import Operator

        scan = SeqScan(tiny_table)

        class Pair(Operator):
            op_name = "pair"

            def children(self):
                return (scan, scan)

            @property
            def output_schema(self):
                return scan.output_schema

            def _next_batch(self, max_rows):
                return []

        with pytest.raises(PlanError, match="twice"):
            validate_plan(Pair())

    def test_explain_renders_tree(self, tiny_table):
        join, _, _ = join_plan(tiny_table)
        text = explain(join)
        lines = text.splitlines()
        assert lines[0].startswith("hash_join")
        assert lines[1].strip().startswith("seq_scan")

    def test_explain_with_counts(self, tiny_table):
        join, _, _ = join_plan(tiny_table)
        join.estimated_cardinality = 42.0
        assert "est=42" in explain(join, counts=True)


class TestPipelineDecomposition:
    def test_single_scan_one_pipeline(self, tiny_table):
        pipelines = decompose_pipelines(SeqScan(tiny_table))
        assert len(pipelines) == 1

    def test_hash_join_splits_build_side(self, tiny_table):
        join, left, right = join_plan(tiny_table)
        pipelines = decompose_pipelines(join)
        assert len(pipelines) == 2
        build_pipe, main_pipe = pipelines
        assert build_pipe.operators == [left]
        assert main_pipe.operators == [join, right]

    def test_partition_property(self, tiny_table):
        """Every operator appears in exactly one pipeline."""
        join, *_ = join_plan(tiny_table)
        agg = HashAggregate(Filter(join, col("tiny.id") > lit(0)), ["tiny.id"])
        pipelines = decompose_pipelines(agg)
        all_ops = [op for p in pipelines for op in p.operators]
        assert len(all_ops) == len(set(id(o) for o in all_ops))
        assert set(id(o) for o in all_ops) == set(id(o) for o in walk(agg))

    def test_join_chain_pipeline_structure(self, tiny_table):
        """Chain of two hash joins: three pipelines (two build sides,
        one probe pipeline holding both joins), matching Figure 2."""
        t = tiny_table
        lower = HashJoin(
            SeqScan(t.aliased("b")), SeqScan(t.aliased("c")), "b.id", "c.id"
        )
        upper = HashJoin(SeqScan(t.aliased("a")), lower, "a.id", "b.id")
        pipelines = decompose_pipelines(upper)
        assert len(pipelines) == 3
        main = pipelines[-1]
        assert upper in main and lower in main
        # Execution order: upper build first, then lower build, then main.
        assert pipelines[0].operators[0].table.name == "a"
        assert pipelines[1].operators[0].table.name == "b"

    def test_merge_join_both_sides_blocked(self, tiny_table):
        join = SortMergeJoin(
            SeqScan(tiny_table), SeqScan(tiny_table.aliased("o")), "tiny.id", "o.id"
        )
        pipelines = decompose_pipelines(join)
        assert len(pipelines) == 3
        assert pipelines[-1].operators == [join]

    def test_sort_blocks_input(self, tiny_table):
        sort = Sort(SeqScan(tiny_table), ["id"])
        pipelines = decompose_pipelines(sort)
        assert len(pipelines) == 2
        assert pipelines[-1].operators == [sort]


class TestDriverIdentification:
    def test_scan_is_its_own_driver(self, tiny_table):
        pipelines = decompose_pipelines(SeqScan(tiny_table))
        assert pipelines[0].driver is pipelines[0].operators[0]

    def test_probe_scan_drives_join_pipeline(self, tiny_table):
        join, _, right = join_plan(tiny_table)
        main = decompose_pipelines(join)[-1]
        assert main.driver is right

    def test_filter_chain_descends_to_scan(self, tiny_table):
        scan = SeqScan(tiny_table)
        plan = Filter(Filter(scan, col("id") > lit(0)), col("id") < lit(9))
        pipeline = decompose_pipelines(plan)[-1]
        assert pipeline.driver is scan

    def test_merge_join_drives_itself(self, tiny_table):
        join = SortMergeJoin(
            SeqScan(tiny_table), SeqScan(tiny_table.aliased("o")), "tiny.id", "o.id"
        )
        main = decompose_pipelines(join)[-1]
        assert main.driver is join


class TestPipelineState:
    def test_lifecycle_flags(self, tiny_table):
        from repro.executor.engine import ExecutionEngine

        join, _, _ = join_plan(tiny_table)
        pipelines = decompose_pipelines(join)
        main = pipelines[-1]
        assert not main.has_started
        assert not main.is_finished
        ExecutionEngine(join, collect_rows=False).run()
        assert main.has_started
        assert main.is_finished
        assert main.total_emitted() == join.tuples_emitted + join.probe_child.tuples_emitted
