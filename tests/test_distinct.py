"""Tests for GEE, MLE, the adaptive scheduler, and the γ² chooser."""

import pytest

from repro.core.distinct import (
    GEEEstimator,
    GroupFrequencyState,
    HybridGroupCountEstimator,
    MLEEstimator,
    RecomputeScheduler,
)
from repro.datagen.zipf import ZipfDistribution


def stream(z: float, domain: int, n: int, seed: int = 3) -> list[int]:
    return [int(v) for v in ZipfDistribution(domain, z, seed=seed).sample(n)]


class TestGroupFrequencyState:
    def test_counters(self):
        state = GroupFrequencyState()
        for v in [1, 1, 2, 3, 3, 3]:
            state.observe(v)
        assert state.t == 6
        assert state.distinct_seen == 3
        assert state.singletons == 1

    def test_weighted_observation(self):
        state = GroupFrequencyState()
        state.observe("a", weight=5)
        state.observe("b", weight=5)
        assert state.t == 10
        assert state.distinct_seen == 2
        assert state.gamma_squared == pytest.approx(0.0)

    def test_gamma_matches_direct(self):
        from repro.common.stats import squared_coefficient_of_variation
        from collections import Counter

        data = stream(1.0, 100, 2000)
        state = GroupFrequencyState()
        for v in data:
            state.observe(v)
        direct = squared_coefficient_of_variation(Counter(data).values())
        assert state.gamma_squared == pytest.approx(direct)


class TestGEE:
    def test_algorithm2_formula(self):
        """D_t = sqrt(|T|/t) f1 + sum_{j>=2} f_j."""
        state = GroupFrequencyState()
        for v in [1, 1, 2, 3]:  # f1 = 2 (values 2, 3), f2 = 1 (value 1)
            state.observe(v)
        gee = GEEEstimator(state)
        assert gee.estimate(total=16) == pytest.approx(2.0 * 2 + 1)

    def test_exact_when_sample_is_everything(self):
        data = stream(1.0, 50, 1000)
        state = GroupFrequencyState()
        for v in data:
            state.observe(v)
        # t == |T|: scale factor 1, estimate == distinct seen.
        assert GEEEstimator(state).estimate(total=1000) == len(set(data))

    def test_empty_stream(self):
        assert GEEEstimator(GroupFrequencyState()).estimate(100) == 0.0

    def test_overestimates_low_skew_small_sample(self):
        """The documented GEE failure mode (Section 4.2)."""
        data = stream(0.0, 1000, 20_000)
        true_count = len(set(data))
        state = GroupFrequencyState()
        for v in data[:1000]:
            state.observe(v)
        est = GEEEstimator(state).estimate(total=20_000)
        assert est > 1.5 * true_count


class TestMLE:
    def test_converges_to_truth_at_full_input(self):
        data = stream(1.0, 200, 5000)
        state = GroupFrequencyState()
        for v in data:
            state.observe(v)
        assert MLEEstimator(state).estimate(total=5000) == len(set(data))

    def test_rarely_overestimates_low_skew(self):
        data = stream(0.0, 1000, 20_000)
        true_count = len(set(data))
        state = GroupFrequencyState()
        mle = MLEEstimator(state)
        for i, v in enumerate(data, start=1):
            state.observe(v)
            if i % 2000 == 0:
                assert mle.estimate(total=20_000) <= 1.15 * true_count

    def test_monotone_growth_on_uniform(self):
        data = stream(0.0, 500, 10_000)
        state = GroupFrequencyState()
        mle = MLEEstimator(state)
        previous = 0.0
        for i, v in enumerate(data, start=1):
            state.observe(v)
            if i % 1000 == 0:
                est = mle.estimate(total=10_000)
                assert est >= previous * 0.98  # near-monotone
                previous = est

    def test_beats_gee_on_low_skew_moderate_groups(self):
        """The paper's motivation for the MLE estimator."""
        data = stream(0.0, 500, 25_000)
        true_count = len(set(data))
        state = GroupFrequencyState()
        for v in data[: len(data) // 10]:
            state.observe(v)
        gee_err = abs(GEEEstimator(state).estimate(25_000) - true_count)
        mle_err = abs(MLEEstimator(state).estimate(25_000) - true_count)
        assert mle_err < gee_err


class TestRecomputeScheduler:
    def test_due_at_interval(self):
        """Due iff a multiple of the interval lies in ``(since, t]``."""
        sched = RecomputeScheduler(lower=10, upper=100)
        assert not sched.due(0, 0)
        assert not sched.due(0, 9)
        assert sched.due(0, 10)
        assert sched.due(9, 10)
        assert not sched.due(10, 10)  # (since, t] is empty: a re-read
        assert not sched.due(10, 19)
        assert sched.due(15, 20)
        assert sched.due(3, 35)  # three multiples passed: still one answer

    def test_due_per_tuple_is_divisibility(self):
        """Read after every tuple, ``due(t - 1, t)`` is Algorithm 3's
        boundary test ``t % interval == 0``."""
        sched = RecomputeScheduler(lower=7, upper=100)
        assert [t for t in range(1, 50) if sched.due(t - 1, t)] == [7, 14, 21, 28, 35, 42, 49]

    def test_interval_doubles_when_stable(self):
        sched = RecomputeScheduler(lower=10, upper=100, stability=0.05)
        sched.after_recompute(100.0, 101.0)
        assert sched.interval == 20
        sched.after_recompute(101.0, 102.0)
        assert sched.interval == 40

    def test_interval_capped_at_upper(self):
        sched = RecomputeScheduler(lower=10, upper=25, stability=0.5)
        for _ in range(5):
            sched.after_recompute(100.0, 100.0)
        assert sched.interval == 25

    def test_interval_resets_on_instability(self):
        sched = RecomputeScheduler(lower=10, upper=100, stability=0.01)
        sched.after_recompute(100.0, 100.5)
        sched.after_recompute(100.0, 200.0)
        assert sched.interval == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            RecomputeScheduler(lower=0, upper=10)
        with pytest.raises(ValueError):
            RecomputeScheduler(lower=10, upper=5)
        with pytest.raises(ValueError):
            RecomputeScheduler(lower=1, upper=2, stability=0)


class TestHybrid:
    def test_chooser_picks_gee_on_high_skew(self):
        hybrid = HybridGroupCountEstimator(total=20_000)
        for v in stream(2.0, 1000, 4000):
            hybrid.state.observe(v)
        assert hybrid.state.gamma_squared >= hybrid.tau
        assert hybrid.chosen == "gee"

    def test_chooser_picks_mle_on_low_skew(self):
        hybrid = HybridGroupCountEstimator(total=20_000)
        for v in stream(0.0, 1000, 4000):
            hybrid.state.observe(v)
        assert hybrid.state.gamma_squared < hybrid.tau
        assert hybrid.chosen == "mle"

    def test_estimate_never_below_seen(self):
        hybrid = HybridGroupCountEstimator(total=10_000)
        data = stream(1.5, 300, 5000)
        for i, v in enumerate(data, start=1):
            hybrid.state.observe(v)
            if i % 500 == 0:
                assert hybrid.estimate() >= hybrid.state.distinct_seen

    def test_finalize_makes_exact(self):
        hybrid = HybridGroupCountEstimator(total=100)
        data = stream(1.0, 40, 100)
        for v in data:
            hybrid.state.observe(v)
        hybrid.finalize()
        assert hybrid.exact
        assert hybrid.estimate() == len(set(data))

    def test_total_provider_callable(self):
        total = [100.0]
        hybrid = HybridGroupCountEstimator(total=lambda: total[0])
        for v in stream(1.0, 20, 50):
            hybrid.state.observe(v)
        before = hybrid.estimate()
        total[0] = 10_000.0
        after = hybrid.estimate()
        assert after >= before  # larger horizon, never smaller estimate

    @pytest.mark.parametrize("tau", [10.0, 0.0], ids=["mle", "gee"])
    def test_reads_at_one_t_are_idempotent(self, tau, monkeypatch):
        """Two reads at the same t return the same float and evaluate the
        MLE at most once; feeding alone evaluates it never, and reads that
        choose GEE (τ = 0) evaluate it never."""
        evaluations = []
        mle_estimate = MLEEstimator.estimate
        monkeypatch.setattr(
            MLEEstimator,
            "estimate",
            lambda self, total: evaluations.append(total) or mle_estimate(self, total),
        )
        hybrid = HybridGroupCountEstimator(total=20_000, tau=tau)

        def schedule() -> tuple:
            return (hybrid._mle_t, hybrid.scheduler.interval, hybrid.scheduler.recompute_count)

        for i, v in enumerate(stream(0.0, 1000, 4000), start=1):
            hybrid.state.observe(v)
            if i % 97:
                continue
            before = len(evaluations)
            first = hybrid.estimate()
            after_first = schedule()
            assert hybrid.estimate() == first
            assert schedule() == after_first
            assert len(evaluations) - before <= 1
        if tau:
            assert 0 < len(evaluations) <= 4000 // 97
        else:
            assert evaluations == []

    def test_empty_estimate_zero(self):
        assert HybridGroupCountEstimator(total=100).estimate() == 0.0

    def test_scheduler_bounds_follow_paper_fractions(self):
        hybrid = HybridGroupCountEstimator(total=100_000)
        assert hybrid.scheduler.lower == 100    # 0.1%
        assert hybrid.scheduler.upper == 3200   # 3.2%
