"""Tests for the approximate (bucketized) histogram."""

import pytest

from repro.core.histogram import BucketizedHistogram, FrequencyHistogram


class TestBucketizedHistogram:
    def test_count_is_upper_bound(self):
        exact = FrequencyHistogram()
        approx = BucketizedHistogram(num_buckets=16)
        values = list(range(200)) * 3
        for v in values:
            exact.add(v)
            approx.add(v)
        for v in range(200):
            assert approx.count(v) >= exact.count(v)

    def test_exact_when_buckets_exceed_domain(self):
        # With enough buckets and a collision-free domain the counts match.
        approx = BucketizedHistogram(num_buckets=1 << 16)
        exact = FrequencyHistogram()
        for v in [3, 3, 7, 9, 9, 9]:
            approx.add(v)
            exact.add(v)
        for v in (3, 7, 9, 100):
            assert approx.count(v) >= exact.count(v)
        assert approx.total == exact.total

    def test_fixed_memory(self):
        approx = BucketizedHistogram(num_buckets=64)
        before = approx.memory_model_bytes()
        for v in range(100_000):
            approx.add(v)
        assert approx.memory_model_bytes() == before == 64 * 4

    def test_weighted_add_returns_old(self):
        approx = BucketizedHistogram(num_buckets=8)
        assert approx.add("x", weight=5) == 0
        assert approx.add("x", weight=1) == 5

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BucketizedHistogram(num_buckets=0)
        with pytest.raises(ValueError):
            BucketizedHistogram(8).add("x", weight=-1)

    def test_max_multiplicity_and_distinct(self):
        approx = BucketizedHistogram(num_buckets=4)
        for v in [1, 1, 2]:
            approx.add(v)
        assert approx.max_multiplicity() >= 2
        assert 1 <= approx.num_distinct <= 2


class TestApproximateEstimation:
    def test_injected_into_once_estimator(self, skewed_pair):
        """The accuracy-memory tradeoff: a bucketized build histogram makes
        the ONCE estimate an overestimate bounded by collision noise."""
        from repro.executor.engine import ExecutionEngine
        from repro.executor.operators import HashJoin, SeqScan
        from repro.core.join_estimators import attach_once_estimator

        left, right = skewed_pair

        def run(histogram):
            join = HashJoin(
                SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey"
            )
            est = attach_once_estimator(join)
            if histogram is not None:
                est.histogram = histogram
            ExecutionEngine(join, collect_rows=False).run()
            return est.acc.estimate()

        exact = run(None)
        coarse = run(BucketizedHistogram(num_buckets=16))
        fine = run(BucketizedHistogram(num_buckets=1 << 14))
        assert coarse >= exact  # collisions only add phantom matches
        assert fine >= exact
        # Finer bucketing approaches the exact estimate.
        assert abs(fine - exact) <= abs(coarse - exact)
