"""Tests for the binary ONCE join estimators."""

import pytest

from repro.common.errors import EstimationError
from repro.core.confidence import binomial_beta
from repro.core.join_estimators import (
    OnceJoinEstimator,
    attach_once_estimator,
    resolve_stream_total,
)
from repro.core.manager import EstimationManager
from repro.executor.engine import ExecutionEngine
from repro.executor.expressions import col, lit
from repro.executor.operators import (
    Filter,
    HashJoin,
    IndexNestedLoopsJoin,
    NestedLoopsJoin,
    SeqScan,
    SortMergeJoin,
)
from tests.conftest import brute_force_join_size, read_at_ticks


class TestOnceJoinEstimatorArithmetic:
    def test_incremental_update_matches_closed_form(self):
        """D_{t+1} = (D_t t + N_i |S|) / (t+1) == |S| * mean of counts."""
        est = OnceJoinEstimator(probe_total=100.0)
        for key in [1, 1, 2, 3]:
            est.on_build(key)
        d = 0.0
        for t, key in enumerate([1, 2, 9, 1], start=1):
            n_i = est.histogram.count(key)
            d = (d * (t - 1) + n_i * 100.0) / t
            est.on_probe(key)
            assert est.acc.estimate() == pytest.approx(d)

    def test_unbiased_in_expectation(self):
        """Averaged over random probe orders the estimate equals truth."""
        import numpy as np

        rng = np.random.default_rng(1)
        build = rng.integers(0, 30, size=500)
        probe = rng.integers(0, 30, size=500)
        truth = sum(
            (build == v).sum() * (probe == v).sum() for v in range(30)
        )
        estimates = []
        for _ in range(30):
            est = OnceJoinEstimator(probe_total=float(len(probe)))
            for k in build:
                est.on_build(int(k))
            for k in rng.permutation(probe)[:50]:
                est.on_probe(int(k))
            estimates.append(est.acc.estimate())
        assert np.mean(estimates) == pytest.approx(truth, rel=0.1)

    def test_exact_after_finalize(self):
        est = OnceJoinEstimator(probe_total=10.0)
        est.on_build(1)
        est.on_probe(1)
        est.on_probe(2)
        est.finalize_probe()
        assert est.acc.exact
        assert est.acc.estimate() == 1.0  # sum of counts, not scaled

    def test_none_build_keys_ignored(self):
        est = OnceJoinEstimator(probe_total=10.0)
        est.on_build(None)
        assert est.histogram.num_distinct == 0

    def test_confidence_interval_shrinks(self):
        est = OnceJoinEstimator(probe_total=1000.0)
        for k in range(10):
            est.on_build(k)
        widths = []
        for i in range(900):
            est.on_probe(i % 20)
            if i in (99, 499, 899):
                lo, hi = est.acc.confidence_interval()
                widths.append(hi - lo)
        assert widths[0] > widths[1] > widths[2]

    def test_interval_degenerate_when_exact(self):
        est = OnceJoinEstimator(probe_total=2.0)
        est.on_build(1)
        est.on_probe(1)
        est.on_probe(1)
        est.finalize_probe()
        assert est.acc.confidence_interval() == (2.0, 2.0)

    def test_worst_case_beta(self):
        est = OnceJoinEstimator(probe_total=100.0)
        for _ in range(100):
            est.on_probe(0)
        assert binomial_beta(est.acc.t, alpha=0.9545) == pytest.approx(0.1, abs=2e-3)


class TestStreamTotalFloor:
    """One rule for a stream total smaller than what has been seen:
    ``|S| := max(provider(), t)``, so T̂ never drops below ``Σc``."""

    def test_direct_api_total_below_tuples_seen(self):
        est = OnceJoinEstimator(probe_total=10)
        est.on_build(1)
        for _ in range(100):
            est.on_probe(1)
        # 100 output rows are already certain.
        assert est.acc.estimate() == 100.0
        assert est.acc.confidence_interval() == (100.0, 100.0)
        assert est.acc.stream_total == 100.0

    def test_probe_child_with_underestimated_cardinality(self):
        """A hash join probed by an aggregate's output: the stream total is
        the optimizer's guess, here a tenth of the true group count."""
        from repro.executor.operators import AggregateSpec, HashAggregate
        from repro.storage.schema import Schema
        from repro.storage.table import Table

        groups = 400
        fact = Table("f", Schema.of("k:int"), [(i % groups,) for i in range(2000)])
        dim = Table("d", Schema.of("k:int"), [(i,) for i in range(groups)])
        agg = HashAggregate(SeqScan(fact), ["f.k"], [AggregateSpec("count")])
        agg.estimated_cardinality = groups / 10
        join = HashJoin(SeqScan(dim), agg, "d.k", "f.k")
        level = EstimationManager(join).registry[id(join)].source
        reads = read_at_ticks(
            join, lambda: (level.exact, level.t, level.estimate()), 16, batch_size=64
        )
        assert level.exact and level.estimate() == groups
        # Every probe tuple matches once, so Σc at t is t.
        mid_pass = [(t, estimate) for exact, t, estimate in reads if t and not exact]
        assert [t for t, _ in mid_pass] == [*range(64, groups, 64), groups]
        assert all(estimate >= t for t, estimate in mid_pass)


class TestAttachToHashJoin:
    def test_converges_exactly_by_probe_end(self, skewed_pair):
        left, right = skewed_pair
        join = HashJoin(SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey")
        est = attach_once_estimator(join)
        join.open()
        while join.next() is not None:
            pass
        truth = brute_force_join_size(left, right, "nationkey", "nationkey")
        assert est.acc.exact
        assert est.acc.estimate() == truth

    def test_exact_before_join_output_with_grace(self, skewed_pair):
        """The headline property: the exact cardinality is known before the
        join pass emits its first tuple."""
        left, right = skewed_pair
        join = HashJoin(
            SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey",
            num_partitions=4, memory_partitions=0,
        )
        est = attach_once_estimator(join)
        join.open()
        first = join.next()
        assert first is not None
        assert join.tuples_emitted == 1
        assert est.acc.exact
        assert est.acc.estimate() == brute_force_join_size(
            left, right, "nationkey", "nationkey"
        )

    def test_probe_total_resolved_from_scan(self, skewed_pair):
        left, right = skewed_pair
        join = HashJoin(SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey")
        est = attach_once_estimator(join)
        assert est.acc.stream_total == len(right)

    def test_estimate_mid_probe_close_to_truth(self, skewed_pair):
        left, right = skewed_pair
        join = HashJoin(
            SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey",
            num_partitions=4, memory_partitions=0,
        )
        est = attach_once_estimator(join)
        reads = read_at_ticks(join, lambda: (est.acc.t, est.acc.estimate()), 200)
        truth = brute_force_join_size(left, right, "nationkey", "nationkey")
        # After 25% of the probe input the estimate is within 25%.
        quarter = next(e for t, e in reads if t >= len(right) // 4)
        assert quarter == pytest.approx(truth, rel=0.25)


class TestAttachToMergeJoin:
    def test_exact_at_end_of_right_sort(self, skewed_pair):
        left, right = skewed_pair
        join = SortMergeJoin(SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey")
        est = attach_once_estimator(join)
        join.open()
        first = join.next()  # completes both sorts, starts the merge
        assert first is not None
        assert est.acc.exact
        assert est.acc.estimate() == brute_force_join_size(
            left, right, "nationkey", "nationkey"
        )

    def test_presorted_input_refused(self, skewed_pair):
        left, right = skewed_pair
        join = SortMergeJoin(
            SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey",
            right_presorted=True,
        )
        with pytest.raises(EstimationError, match="presorted"):
            attach_once_estimator(join)


class TestAttachToIndexNL:
    def test_converges_to_exact(self, skewed_pair):
        left, right = skewed_pair
        join = IndexNestedLoopsJoin(
            SeqScan(right), SeqScan(left), "right.nationkey", "left.nationkey"
        )
        est = attach_once_estimator(join)
        ExecutionEngine(join, collect_rows=False).run()
        assert est.acc.exact
        assert est.acc.estimate() == brute_force_join_size(
            left, right, "nationkey", "nationkey"
        )

    def test_plain_nl_join_refused(self, skewed_pair):
        left, right = skewed_pair
        join = NestedLoopsJoin(SeqScan(left), SeqScan(right))
        with pytest.raises(EstimationError, match="driver-node"):
            attach_once_estimator(join)


class TestResolveStreamTotal:
    def test_scan_exact(self, tiny_table):
        assert resolve_stream_total(SeqScan(tiny_table))() == 5.0

    def test_filter_refines_with_observed_selectivity(self, tiny_table):
        scan = SeqScan(tiny_table)
        filt = Filter(scan, col("id") > lit(3))
        provider = resolve_stream_total(filt)
        assert provider() == 5.0  # nothing observed yet: selectivity 1
        filt.open()
        list(filt)
        assert provider() == pytest.approx(2.0)

    def test_fallback_uses_optimizer_estimate(self, tiny_table):
        join = HashJoin(
            SeqScan(tiny_table), SeqScan(tiny_table.aliased("o")), "tiny.id", "o.id"
        )
        join.estimated_cardinality = 42.0
        assert resolve_stream_total(join)() == 42.0

    def test_fallback_exact_once_exhausted(self, tiny_table):
        join = HashJoin(
            SeqScan(tiny_table), SeqScan(tiny_table.aliased("o")), "tiny.id", "o.id"
        )
        join.estimated_cardinality = 42.0
        provider = resolve_stream_total(join)
        ExecutionEngine(join, collect_rows=False).run()
        assert provider() == 5.0
