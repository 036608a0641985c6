"""Tests for the dne and byte baselines (one estimator, a method each)."""

import pytest

from repro.core.dne import DriverNodeEstimator
from repro.executor.engine import ExecutionEngine
from repro.executor.expressions import col, lit
from repro.executor.operators import Filter, HashJoin, SeqScan
from repro.executor.pipeline import decompose_pipelines


def selection_pipeline(tiny_table):
    scan = SeqScan(tiny_table)
    filt = Filter(scan, col("id") > lit(2))
    pipeline = decompose_pipelines(filt)[-1]
    return scan, filt, pipeline


class TestDriverNodeEstimator:
    def test_driver_progress_tracks_scan(self, tiny_table):
        scan, filt, pipeline = selection_pipeline(tiny_table)
        dne = DriverNodeEstimator(pipeline)
        assert dne.driver is scan
        filt.open()
        assert dne.progress_at(dne.driver_total()) == 0.0
        filt.next()  # consumes ids 1, 2, 3; emits 3
        assert dne.progress_at(dne.driver_total()) == pytest.approx(3 / 5)

    def test_selection_estimate_scales_by_driver(self, tiny_table):
        scan, filt, pipeline = selection_pipeline(tiny_table)
        dne = DriverNodeEstimator(pipeline)
        filt.open()
        filt.next()
        # 1 emitted at 3/5 driver progress -> estimate 5/3.
        assert dne.estimate_for(filt) == pytest.approx(1 / (3 / 5))

    def test_optimizer_estimate_before_start(self, tiny_table):
        scan, filt, pipeline = selection_pipeline(tiny_table)
        filt.estimated_cardinality = 7.0
        dne = DriverNodeEstimator(pipeline)
        assert dne.estimate_for(filt) == 7.0

    def test_exact_when_exhausted(self, tiny_table):
        scan, filt, pipeline = selection_pipeline(tiny_table)
        dne = DriverNodeEstimator(pipeline)
        ExecutionEngine(filt, collect_rows=False).run()
        assert dne.estimate_for(scan) == 5.0
        assert dne.estimate_for(filt) == 3.0

    def test_zero_error_in_expectation_on_random_input(self):
        """Section 4.3: for selections on randomly ordered input, dne is
        unbiased — mid-stream estimates hover around the true output."""
        from repro.datagen.skew import customer_variant

        table = customer_variant(0.0, 100, 0, 5000, name="t")
        scan = SeqScan(table)
        filt = Filter(scan, col("t.nationkey") <= lit(50))
        pipeline = decompose_pipelines(filt)[-1]
        dne = DriverNodeEstimator(pipeline)
        filt.open()
        estimates = []
        for _ in range(2000):
            if filt.next() is None:
                break
            estimates.append(dne.estimate_for(filt))
        true_output = 2000 + sum(
            1 for _ in filt
        )  # drain rest and add what we already pulled
        assert estimates[-1] == pytest.approx(true_output, rel=0.15)

    def test_join_estimate_lags_during_grace_join(self, skewed_pair):
        """dne cannot see the join size until output actually appears —
        the deficiency ONCE fixes."""
        left, right = skewed_pair
        join = HashJoin(
            SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey",
            num_partitions=4, memory_partitions=0,
        )
        join.estimated_cardinality = 123.0
        pipeline = decompose_pipelines(join)[-1]
        dne = DriverNodeEstimator(pipeline)
        join.open()
        first = join.next()
        assert first is not None
        # Driver (probe scan) is exhausted but the join has barely emitted:
        # dne's estimate equals the observed count, far below the truth.
        est = dne.estimate_for(join)
        while join.next() is not None:
            pass
        assert est < join.tuples_emitted / 10


class TestByteModelEstimator:
    def test_blends_optimizer_with_observation(self, tiny_table):
        scan, filt, pipeline = selection_pipeline(tiny_table)
        filt.estimated_cardinality = 10.0
        byte = DriverNodeEstimator(pipeline)
        filt.open()
        filt.next()  # 1 emitted at 3/5 progress
        expected = (3 / 5) * (1 / (3 / 5)) + (2 / 5) * 10.0
        assert byte.byte_estimate_for(filt) == pytest.approx(expected)

    def test_converges_slower_than_dne_under_misestimate(self, skewed_pair):
        """With a wrong optimizer estimate, byte keeps part of the error
        until the driver finishes (the Figure 4 observation)."""
        left, right = skewed_pair
        join = HashJoin(SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey")
        join.estimated_cardinality = 10 * len(right)  # gross overestimate
        pipeline = decompose_pipelines(join)[-1]
        dne = DriverNodeEstimator(pipeline)
        join.open()
        for _ in range(200):
            join.next()
        assert dne.byte_estimate_for(join) > dne.estimate_for(join)

    def test_pure_optimizer_before_start(self, tiny_table):
        scan, filt, pipeline = selection_pipeline(tiny_table)
        filt.estimated_cardinality = 10.0
        byte = DriverNodeEstimator(pipeline)
        assert byte.byte_estimate_for(filt) == 10.0

    def test_exact_when_exhausted(self, tiny_table):
        scan, filt, pipeline = selection_pipeline(tiny_table)
        filt.estimated_cardinality = 10.0
        byte = DriverNodeEstimator(pipeline)
        ExecutionEngine(filt, collect_rows=False).run()
        assert byte.byte_estimate_for(filt) == 3.0
