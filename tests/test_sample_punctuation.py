"""Tests for the sample-boundary punctuation behaviour (Section 4.4)."""

import pytest

from repro.common.errors import EstimationError
from repro.core.pipeline_estimators import HashJoinChainEstimator, find_hash_join_chains
from repro.datagen.skew import customer_variant
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import Filter, HashJoin, SampleScan, SeqScan
from repro.executor.expressions import col, lit


def make_sampled_join(rows=6000, fraction=0.2):
    build = customer_variant(1.0, 100, 0, rows, name="sb")
    probe = customer_variant(1.0, 100, 1, rows, name="sp")
    join = HashJoin(
        SeqScan(build),
        SampleScan(probe, fraction, seed=5),
        "sb.nationkey",
        "sp.nationkey",
    )
    return join


class TestStopAfterSample:
    def test_freezes_at_sample_boundary(self):
        join = make_sampled_join()
        scan = join.probe_child
        est = HashJoinChainEstimator([join], stop_after_sample=True)
        ExecutionEngine(join, collect_rows=False).run()
        assert est.frozen
        assert not est.exact
        # Only the sample portion was observed.
        assert est.t == scan.sample_rows

    def test_frozen_estimate_is_accurate(self):
        join = make_sampled_join(rows=10_000, fraction=0.2)
        est = HashJoinChainEstimator([join], stop_after_sample=True)
        result = ExecutionEngine(join, collect_rows=False).run()
        assert est.levels[0].estimate() == pytest.approx(result.row_count, rel=0.15)

    def test_default_still_exact(self):
        join = make_sampled_join()
        est = HashJoinChainEstimator([join])
        result = ExecutionEngine(join, collect_rows=False).run()
        assert est.exact
        assert est.levels[0].estimate() == result.row_count

    def test_punctuation_found_through_filters(self):
        build = customer_variant(1.0, 100, 0, 2000, name="fb")
        probe = customer_variant(1.0, 100, 1, 2000, name="fp")
        filtered = Filter(
            SampleScan(probe, 0.25, seed=2), col("fp.custkey") > lit(0)
        )
        join = HashJoin(SeqScan(build), filtered, "fb.nationkey", "fp.nationkey")
        est = HashJoinChainEstimator([join], stop_after_sample=True)
        ExecutionEngine(join, collect_rows=False).run()
        assert est.frozen

    def test_requires_sample_scan(self):
        build = customer_variant(1.0, 100, 0, 500, name="nb")
        probe = customer_variant(1.0, 100, 1, 500, name="np")
        join = HashJoin(SeqScan(build), SeqScan(probe), "nb.nationkey", "np.nationkey")
        with pytest.raises(EstimationError, match="SampleScan"):
            HashJoinChainEstimator([join], stop_after_sample=True)

    def test_frozen_chain_multi_level(self):
        a = customer_variant(1.0, 80, 0, 3000, name="ma")
        b = customer_variant(1.0, 80, 1, 3000, name="mb")
        c = customer_variant(1.0, 80, 2, 3000, name="mc")
        lower = HashJoin(
            SeqScan(b), SampleScan(c, 0.25, seed=1), "mb.nationkey", "mc.nationkey"
        )
        upper = HashJoin(SeqScan(a), lower, "ma.nationkey", "mb.nationkey")
        est = HashJoinChainEstimator(
            find_hash_join_chains(upper)[0], stop_after_sample=True
        )
        ExecutionEngine(upper, collect_rows=False).run()
        assert est.frozen
        # Both levels keep reasonable frozen estimates.
        assert est.levels[0].estimate() == pytest.approx(lower.tuples_emitted, rel=0.25)
        assert est.levels[1].estimate() == pytest.approx(upper.tuples_emitted, rel=0.25)
