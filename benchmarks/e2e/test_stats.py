"""Unit tests for the robust-estimator helpers (not collected by tier-1,
whose ``testpaths`` is ``tests``): ``pytest benchmarks/e2e/test_stats.py``."""

from __future__ import annotations

import math
import statistics

import pytest

from benchmarks.e2e import stats


def test_geomean_is_scale_free_and_rejects_non_positive():
    assert stats.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert stats.geomean([3.0]) == pytest.approx(3.0)
    base = stats.geomean([1.0, 10.0, 100.0])
    assert stats.geomean([2.0, 20.0, 200.0]) == pytest.approx(2 * base)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        stats.geomean([])


def test_median_by_key_ignores_one_burst_per_query():
    rounds = {"q1": [10.0, 10.2, 9.9, 55.0, 10.1], "q2": [1.0, 1.1, 0.9]}
    assert stats.median_by_key(rounds) == {"q1": 10.1, "q2": 1.0}
    assert list(stats.median_by_key(rounds)) == ["q1", "q2"]


def test_pooled_percentile_interpolates():
    samples = list(range(1, 101))  # 1..100
    assert stats.pooled_percentile(samples, 50) == pytest.approx(50.5)
    assert stats.pooled_percentile(samples, 90) == pytest.approx(90.1)
    assert stats.pooled_percentile(reversed(samples), 0, min_beyond=0) == 1
    assert stats.pooled_percentile(samples, 100, min_beyond=0) == 100


def test_pooled_percentile_enforces_ten_beyond():
    # p90 of 100 samples leaves exactly ten beyond it: the smallest legal pool.
    stats.pooled_percentile(range(100), 90)
    with pytest.raises(ValueError, match="fewer than 10"):
        stats.pooled_percentile(range(99), 90)
    with pytest.raises(ValueError, match="fewer than 10"):
        stats.pooled_percentile(range(100), 95)
    # The rule is about samples beyond the percentile, not the pool size.
    stats.pooled_percentile(range(20), 50)
    with pytest.raises(ValueError):
        stats.pooled_percentile([], 50, min_beyond=0)
    with pytest.raises(ValueError):
        stats.pooled_percentile([1.0], 101, min_beyond=0)


def test_alternating_balances_run_order():
    order = [stats.alternating(i) for i in range(6)]
    assert order == [True, False, True, False, True, False]


def test_iqr_share_matches_the_drivers_definition():
    values = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 103.0, 97.0, 100.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.iqr_share([5.0] * 10) == 0.0
    assert math.isfinite(stats.iqr_share([-2.0, -1.0, -3.0, -2.5]))
    with pytest.raises(ValueError):
        stats.iqr_share([-1.0, 0.0, 0.0, 1.0])
