"""Tests for the confidence interval machinery."""

import math

import pytest

from repro.common.stats import normal_quantile
from repro.core.confidence import binomial_beta, mean_interval


class TestBinomialBeta:
    def test_shrinks_as_sqrt_t(self):
        b100 = binomial_beta(100)
        b400 = binomial_beta(400)
        assert b400 == pytest.approx(b100 / 2)

    def test_infinite_at_zero(self):
        assert binomial_beta(0) == float("inf")

    def test_known_value(self):
        # beta = Z_alpha / (2 sqrt(t)); Z_0.9545 ~ 2.
        assert binomial_beta(100, alpha=0.9545) == pytest.approx(0.1, abs=2e-3)

    def test_higher_confidence_wider(self):
        assert binomial_beta(100, 0.999) > binomial_beta(100, 0.9)


def _sums(xs) -> tuple[int, float, float]:
    """The sufficient statistics ``(count, Σx, Σx²)`` of a sample."""
    return len(xs), sum(xs), sum(x * x for x in xs)


class TestMeanEstimateInterval:
    """:func:`mean_interval` — a pure function of ``(count, Σx, Σx²)``."""

    def test_mean_and_variance(self):
        # mean 4, population variance 8/3: centre and half-width follow.
        lo, hi = mean_interval(*_sums([2.0, 4.0, 6.0]), scale=1.0, alpha=0.99)
        assert (lo + hi) / 2 == pytest.approx(4.0)
        half = normal_quantile(0.99) * math.sqrt(8 / 3 / 3)
        assert (hi - lo) / 2 == pytest.approx(half)

    def test_interval_contains_scaled_mean(self):
        lo, hi = mean_interval(*_sums([1.0, 2.0, 3.0, 4.0]), scale=100.0)
        assert lo < 250.0 < hi

    def test_empty_interval_is_vacuous(self):
        assert mean_interval(0, 0, 0, scale=10.0) == (0.0, float("inf"))

    def test_single_observation_degenerate(self):
        assert mean_interval(*_sums([5.0]), scale=2.0) == (10.0, 10.0)

    def test_fpc_narrows_interval(self):
        sums = _sums([1.0, 5.0, 2.0, 8.0, 3.0, 9.0])
        lo_inf, hi_inf = mean_interval(*sums, scale=1.0)
        lo_fpc, hi_fpc = mean_interval(*sums, scale=1.0, population=8)
        assert (hi_fpc - lo_fpc) < (hi_inf - lo_inf)

    def test_fpc_zero_width_at_full_population(self):
        lo, hi = mean_interval(*_sums([1.0, 2.0, 3.0]), scale=1.0, population=3)
        assert hi - lo == pytest.approx(0.0, abs=1e-12)

    def test_coverage_simulation(self):
        """~99% of intervals should cover the true scaled mean."""
        import numpy as np

        rng = np.random.default_rng(0)
        population = rng.integers(0, 20, size=2000).astype(float)
        true_total = population.sum()
        covered = 0
        trials = 200
        for _ in range(trials):
            sample = [float(x) for x in rng.permutation(population)[:200]]
            lo, hi = mean_interval(
                *_sums(sample),
                scale=len(population),
                alpha=0.99,
                population=len(population),
            )
            if lo <= true_total <= hi:
                covered += 1
        assert covered / trials >= 0.95
