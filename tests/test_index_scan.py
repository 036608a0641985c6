"""Tests for the index scan and presorted merge-join pipelines."""

import pytest

from repro.core.manager import EstimationManager
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import IndexScan, SeqScan, SortMergeJoin
from repro.executor.pipeline import decompose_pipelines
from repro.storage.schema import Schema
from repro.storage.table import Table


@pytest.fixture
def keyed_table() -> Table:
    rows = [(3, "c"), (1, "a"), (5, "e"), (2, "b"), (4, "d")]
    return Table("kt", Schema.of("k:int", "v:str"), rows)


class TestIndexScan:
    def test_emits_in_key_order(self, keyed_table):
        scan = IndexScan(keyed_table, "k")
        scan.open()
        assert [r[0] for r in scan] == [1, 2, 3, 4, 5]

    def test_range_scan(self, keyed_table):
        scan = IndexScan(keyed_table, "k", low=2, high=4)
        scan.open()
        assert [r[0] for r in scan] == [2, 3, 4]
        assert scan.total_rows == 3

    def test_open_ended_ranges(self, keyed_table):
        low_only = IndexScan(keyed_table, "k", low=4)
        low_only.open()
        assert [r[0] for r in low_only] == [4, 5]
        high_only = IndexScan(keyed_table, "k", high=1)
        high_only.open()
        assert [r[0] for r in high_only] == [1]

    def test_describe_mentions_bounds(self, keyed_table):
        assert "[2..4]" in IndexScan(keyed_table, "k", 2, 4).describe()


class TestPresortedMergeJoinPipeline:
    def make_join(self, keyed_table):
        left = IndexScan(keyed_table, "k")
        right = IndexScan(keyed_table.aliased("o"), "o.k")
        return SortMergeJoin(
            left, right, "kt.k", "o.k",
            left_presorted=True, right_presorted=True,
        )

    def test_single_pipeline_like_figure1(self, keyed_table):
        """Figure 1's shaded region: a merge join and the index scans
        feeding it form ONE pipeline (no blocking sort phases)."""
        join = self.make_join(keyed_table)
        pipelines = decompose_pipelines(join)
        assert len(pipelines) == 1
        assert len(pipelines[0].operators) == 3

    def test_correct_results(self, keyed_table):
        join = self.make_join(keyed_table)
        result = ExecutionEngine(join, collect_rows=False).run()
        assert result.row_count == 5  # PK self-join

    def test_manager_falls_back_to_dne(self, keyed_table):
        """Presorted inputs have no preprocessing pass: Section 4.1.2 says
        'we default to the usual dne estimate'."""
        join = self.make_join(keyed_table)
        manager = EstimationManager(join)
        assert id(join) not in manager.registry
        assert any("presorted" in reason for _op, reason in manager.fallbacks)

    def test_progress_monitor_uses_dne_for_presorted(self, keyed_table):
        from repro.core import ProgressMonitor
        from repro.executor.engine import TickBus

        join = self.make_join(keyed_table)
        join.estimated_cardinality = 5.0
        bus = TickBus(1)
        monitor = ProgressMonitor(join, mode="once", bus=bus)
        ExecutionEngine(join, bus=bus, collect_rows=False).run()
        assert monitor.snapshot().progress == pytest.approx(1.0)

    def test_mixed_presorted_one_side(self, keyed_table):
        join = SortMergeJoin(
            IndexScan(keyed_table, "k"),
            SeqScan(keyed_table.aliased("o")),
            "kt.k",
            "o.k",
            left_presorted=True,
        )
        result = ExecutionEngine(join, collect_rows=False).run()
        assert result.row_count == 5
        # Right side sorted internally: two pipelines (right subtree, main).
        join2 = SortMergeJoin(
            IndexScan(keyed_table, "k"),
            SeqScan(keyed_table.aliased("o2")),
            "kt.k",
            "o2.k",
            left_presorted=True,
        )
        assert len(decompose_pipelines(join2)) == 2
