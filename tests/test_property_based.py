"""Property-based tests (hypothesis) for core invariants."""

import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.stats import squared_coefficient_of_variation
from repro.core.distinct import (
    LOW,
    NEGLIGIBLE,
    GEEEstimator,
    GroupFrequencyState,
    MLEEstimator,
)
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
weight_lists = st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=50)


def _assert_matches_definition(state: GroupFrequencyState, counts: Counter) -> None:
    """The group state against its definition over the true counts c_v:
    f_i = |{v : c_v = i}| for 0 < i < LOW, t = Σc, Σc², γ²."""
    fof = Counter(counts.values())
    assert state.counts == {v: c for v, c in counts.items() if c}
    assert state.fof == [0] + [fof[i] for i in range(1, LOW)]
    assert state.t == sum(counts.values())
    assert state.sum_sq == sum(c * c for c in counts.values())
    assert state.distinct_seen == len(state.counts)
    direct = squared_coefficient_of_variation(state.counts.values())
    assert state.gamma_squared == pytest.approx(direct, abs=1e-9)


class TestHistogramProperties:
    @given(value_lists)
    def test_counts_match_counter(self, values):
        h = FrequencyHistogram()
        h.add_many(values)
        assert dict(h.items()) == dict(Counter(values))
        assert h.total == len(values)

    @given(value_lists)
    def test_freq_of_freq_consistency(self, values):
        state = GroupFrequencyState()
        for v in values:
            state.observe(v)
        _assert_matches_definition(state, Counter(values))

    @given(value_lists, value_lists)
    def test_dot_is_exact_join_size(self, left, right):
        a, b = FrequencyHistogram(), FrequencyHistogram()
        a.add_many(left)
        b.add_many(right)
        brute = sum(1 for x in left for y in right if x == y)
        assert a.dot(b) == brute

    @given(value_lists, weight_lists)
    def test_weighted_adds_equal_repeated_adds(self, values, weights):
        pairs = list(zip(values, weights))
        bulk, unit = FrequencyHistogram(), FrequencyHistogram()
        bulk_state, unit_state = GroupFrequencyState(), GroupFrequencyState()
        for v, w in pairs:
            bulk.add(v, weight=w)
            bulk_state.observe(v, weight=w)
            for _ in range(w):
                unit.add(v)
                unit_state.observe(v)
        assert dict(bulk.items()) == dict(unit.items())
        # A weight-0 add creates no group.
        truth = Counter()
        for v, w in pairs:
            truth[v] += w
        _assert_matches_definition(bulk_state, truth)
        _assert_matches_definition(unit_state, truth)
        assert bulk_state.fof == unit_state.fof


class TestGammaSquaredProperty:
    @given(value_lists)
    def test_incremental_matches_direct(self, values):
        state = GroupFrequencyState()
        state.observe_batch(values)
        direct = squared_coefficient_of_variation(Counter(values).values())
        assert state.gamma_squared == pytest.approx(direct, abs=1e-9)


class TestMleHorizonProperty:
    """Keeping only f_1 … f_{LOW−1} is exact: every class i ≥ LOW has
    (1 − i/t)^t ≤ e^{−i} < NEGLIGIBLE, so the MLE skips it anyway."""

    @staticmethod
    def _mle_over_full_fof(counts: dict, total: float) -> float:
        """The MLE formula summed over every frequency class, ascending."""
        t = sum(counts.values())
        seen = float(len(counts))
        remaining = max(total - t, 0.0)
        if remaining <= 0.0:
            return seen
        horizon = min(float(t), remaining)
        correction = 0.0
        for i, f_i in sorted(Counter(counts.values()).items()):
            base = 1.0 - i / t
            if base <= 0.0:
                continue
            p_unseen_now = base ** t
            if p_unseen_now < NEGLIGIBLE:
                continue
            correction += f_i * (p_unseen_now - base ** (t + horizon))
        return seen + correction

    def test_low_is_derived_from_the_cutoff(self):
        assert LOW == 28
        assert math.exp(-LOW) < NEGLIGIBLE <= math.exp(-(LOW - 1))

    # Group counts straddle LOW (1 … 60), over enough groups that classes
    # just below it still clear the cutoff.
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=1, max_value=60),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_kept_horizon_equals_full_sum(self, counts, scale):
        state = GroupFrequencyState()
        state.observe_batch([v for v, c in counts.items() for _ in range(c)])
        total = float(state.t * scale)
        assert MLEEstimator(state).estimate(total) == self._mle_over_full_fof(counts, total)


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
            assert est.acc.estimate() == pytest.approx(float(truth))
        est.finalize_probe()
        assert est.acc.estimate() == float(truth)

    @given(value_lists, value_lists)
    def test_interval_contains_estimate(self, build, probe):
        est = OnceJoinEstimator(probe_total=float(max(len(probe), 1)))
        for k in build:
            est.on_build(k)
        for k in probe:
            est.on_probe(k)
        lo, hi = est.acc.confidence_interval()
        assert lo <= est.acc.estimate() <= hi


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
