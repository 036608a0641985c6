"""Tests for incremental statistics (γ², normal quantiles)."""

import pytest

from repro.common.stats import normal_quantile, squared_coefficient_of_variation
from repro.core.distinct import GroupFrequencyState


class TestSquaredCoefficientOfVariation:
    def test_empty_is_zero(self):
        assert squared_coefficient_of_variation([]) == 0.0

    def test_constant_frequencies_have_zero_variation(self):
        assert squared_coefficient_of_variation([5, 5, 5, 5]) == 0.0

    def test_known_value(self):
        # freqs [1, 3]: mean 2, var 1 -> gamma^2 = 1/4
        assert squared_coefficient_of_variation([1, 3]) == pytest.approx(0.25)

    def test_scale_invariance(self):
        a = squared_coefficient_of_variation([1, 2, 3, 4])
        b = squared_coefficient_of_variation([10, 20, 30, 40])
        assert a == pytest.approx(b)


class TestIncrementalFrequencyStats:
    """γ²'s prefix sums (group count, Σc, Σc²), maintained incrementally by
    :class:`GroupFrequencyState`, against the direct definition."""

    def test_matches_direct_computation(self):
        state = GroupFrequencyState()
        counts: dict[str, int] = {}
        for v in "abacbdaaeb":
            state.observe(v)
            counts[v] = counts.get(v, 0) + 1
        direct = squared_coefficient_of_variation(counts.values())
        assert state.gamma_squared == pytest.approx(direct)
        assert state.distinct_seen == len(counts)
        assert state.t == sum(counts.values())
        assert state.sum_sq == sum(c * c for c in counts.values())

    def test_observe_transition_bulk(self):
        state = GroupFrequencyState()
        state.observe("a", weight=5)
        state.observe("a", weight=2)
        state.observe("b", weight=3)
        assert state.distinct_seen == 2
        assert state.t == 10
        assert state.sum_sq == 49 + 9

    def test_transition_equivalent_to_unit_steps(self):
        bulk = GroupFrequencyState()
        unit = GroupFrequencyState()
        bulk.observe("g", weight=4)
        for _ in range(4):
            unit.observe("g")
        assert bulk.sum_sq == unit.sum_sq
        assert bulk.fof == unit.fof
        assert bulk.gamma_squared == unit.gamma_squared

    def test_rejects_negative(self):
        state = GroupFrequencyState()
        with pytest.raises(ValueError):
            state.observe("a", weight=-1)
        # A weight-0 add is a no-op: it creates no group.
        state.observe("a", weight=0)
        assert state.counts == {} and state.t == 0

    def test_uniform_data_low_gamma(self):
        # 100 groups each reaching frequency 10: zero variation.
        state = GroupFrequencyState()
        for _round in range(10):
            state.observe_batch(range(100))
        assert state.gamma_squared == pytest.approx(0.0)

    def test_mean_frequency(self):
        state = GroupFrequencyState()
        state.observe("a", weight=6)
        state.observe("b", weight=2)
        assert state.t / state.distinct_seen == pytest.approx(4.0)


class TestNormalQuantile:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(0.6827, 1.0), (0.9545, 2.0), (0.9973, 3.0), (0.95, 1.95996), (0.99, 2.57583)],
    )
    def test_standard_values(self, alpha, expected):
        assert normal_quantile(alpha) == pytest.approx(expected, abs=2e-3)

    def test_monotone_in_alpha(self):
        qs = [normal_quantile(a) for a in (0.5, 0.8, 0.9, 0.99, 0.999)]
        assert qs == sorted(qs)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            normal_quantile(alpha)
