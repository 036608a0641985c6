"""Property-based tests (hypothesis) for core invariants."""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.stats import IncrementalFrequencyStats, squared_coefficient_of_variation
from repro.core.distinct import GEEEstimator, GroupFrequencyState, MLEEstimator
from repro.core.histogram import FrequencyHistogram
from repro.core.join_estimators import OnceJoinEstimator
from repro.core.pipeline_estimators import HashJoinChainEstimator
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import HashJoin, SeqScan
from repro.executor.pipeline import decompose_pipelines
from repro.executor.plan import walk
from repro.storage.sampling import plan_block_sample
from repro.storage.schema import Schema
from repro.storage.table import Table

small_values = st.integers(min_value=0, max_value=20)
value_lists = st.lists(small_values, min_size=0, max_size=300)


class TestHistogramProperties:
    @given(value_lists)
    def test_counts_match_counter(self, values):
        h = FrequencyHistogram()
        h.add_many(values)
        assert dict(h.items()) == dict(Counter(values))
        assert h.total == len(values)

    @given(value_lists)
    def test_freq_of_freq_consistency(self, values):
        h = FrequencyHistogram(track_frequencies=True)
        h.add_many(values)
        fof = h.frequency_counts()
        assert sum(fof.values()) == h.num_distinct
        assert sum(j * f for j, f in fof.items()) == h.total

    @given(value_lists, value_lists)
    def test_dot_is_exact_join_size(self, left, right):
        a, b = FrequencyHistogram(), FrequencyHistogram()
        a.add_many(left)
        b.add_many(right)
        brute = sum(1 for x in left for y in right if x == y)
        assert a.dot(b) == brute

    @given(value_lists, st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=50))
    def test_weighted_adds_equal_repeated_adds(self, values, weights):
        pairs = list(zip(values, weights))
        bulk, unit = (
            FrequencyHistogram(track_frequencies=True),
            FrequencyHistogram(track_frequencies=True),
        )
        for v, w in pairs:
            bulk.add(v, weight=w)
            for _ in range(w):
                unit.add(v)
        assert dict(bulk.items()) == dict(unit.items())
        assert bulk.frequency_counts() == unit.frequency_counts()


class TestGammaSquaredProperty:
    @given(value_lists)
    def test_incremental_matches_direct(self, values):
        stats = IncrementalFrequencyStats()
        counts: Counter = Counter()
        for v in values:
            stats.observe(counts[v])
            counts[v] += 1
        direct = squared_coefficient_of_variation(counts.values())
        assert stats.gamma_squared == pytest.approx(direct, abs=1e-9)


class TestOnceEstimatorProperties:
    @given(value_lists, value_lists)
    def test_exact_at_end_of_probe_stream(self, build, probe):
        est = OnceJoinEstimator(probe_total=float(len(probe)))
        for k in build:
            est.on_build(k)
        for k in probe:
            est.on_probe(k)
        truth = sum(1 for x in build for y in probe if x == y)
        # Before finalize: sum/t * |S| with t == |S| is already exact.
        if probe:
            assert est.current_estimate() == pytest.approx(float(truth))
        est.finalize_probe()
        assert est.current_estimate() == float(truth)

    @given(value_lists, value_lists)
    def test_interval_contains_estimate(self, build, probe):
        est = OnceJoinEstimator(probe_total=float(max(len(probe), 1)))
        for k in build:
            est.on_build(k)
        for k in probe:
            est.on_probe(k)
        lo, hi = est.confidence_interval()
        assert lo <= est.current_estimate() <= hi


class TestChainEstimatorProperty:
    @settings(
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    @given(
        st.lists(st.integers(1, 8), min_size=1, max_size=60),
        st.lists(st.integers(1, 8), min_size=1, max_size=60),
        st.lists(st.integers(1, 8), min_size=1, max_size=60),
    )
    def test_two_level_same_attr_exact(self, a_vals, b_vals, c_vals):
        a = Table("a", Schema.of("k:int"), [(v,) for v in a_vals])
        b = Table("b", Schema.of("k:int"), [(v,) for v in b_vals])
        c = Table("c", Schema.of("k:int"), [(v,) for v in c_vals])
        lower = HashJoin(SeqScan(b), SeqScan(c), "b.k", "c.k")
        upper = HashJoin(SeqScan(a), lower, "a.k", "b.k")
        est = HashJoinChainEstimator([lower, upper])
        ExecutionEngine(upper, collect_rows=False).run()
        assert est.levels[0].estimate() == lower.tuples_emitted
        assert est.levels[1].estimate() == upper.tuples_emitted


class TestDistinctEstimatorProperties:
    @given(value_lists.filter(lambda v: len(v) > 0))
    def test_both_estimators_exact_at_full_input(self, values):
        state = GroupFrequencyState()
        for v in values:
            state.observe(v)
        total = len(values)
        truth = len(set(values))
        assert GEEEstimator(state).estimate(total) == pytest.approx(truth)
        assert MLEEstimator(state).estimate(total) == pytest.approx(truth)

    @given(value_lists.filter(lambda v: len(v) > 0))
    def test_estimates_at_least_distinct_seen(self, values):
        state = GroupFrequencyState()
        for v in values:
            state.observe(v)
        total = 4 * len(values)
        assert GEEEstimator(state).estimate(total) >= state.distinct_seen - 1e-9
        assert MLEEstimator(state).estimate(total) >= state.distinct_seen - 1e-9


class TestSamplingProperties:
    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_sample_plus_remainder_is_partition(self, rows, block_size, fraction, seed):
        table = Table("t", Schema.of("k:int"), [(i,) for i in range(rows)], block_size)
        sample = plan_block_sample(table, fraction, seed)
        assert sorted(r[0] for r in sample.iter_all()) == list(range(rows))
        if rows:
            assert sample.fraction >= min(fraction, 1.0) - block_size / rows - 1e-9


class TestPipelineDecompositionProperty:
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10))
    def test_partition_over_random_join_chains(self, depth, seed_rows):
        rows = [(i,) for i in range(seed_rows + 1)]
        plan = SeqScan(Table("t0", Schema.of("k:int"), rows))
        for i in range(depth):
            build = SeqScan(Table(f"t{i + 1}", Schema.of("k:int"), rows))
            plan = HashJoin(build, plan, f"t{i + 1}.k", "t0.k")
        pipelines = decompose_pipelines(plan)
        ops_in_pipelines = [id(op) for p in pipelines for op in p.operators]
        assert sorted(ops_in_pipelines) == sorted(id(op) for op in walk(plan))
        assert len(pipelines) == depth + 1
