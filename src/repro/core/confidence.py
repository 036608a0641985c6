"""Confidence machinery for the online join estimators (Section 4.1).

Two kinds of interval are provided:

* :func:`binomial_beta` — the paper's distribution-free bound. For a value
  frequency ``p`` estimated by ``N_i / t``, the normal approximation of the
  binomial gives the α-percentile half-width ``Z_α sqrt(p(1-p)/t)``;
  maximising ``p(1-p)`` at 1/4 yields the worst-case half-width
  ``β = Z_α / (2 sqrt(t))`` quoted in the paper. β shrinks as 1/sqrt(t):
  "an expression on how the confidence of our estimate improves ... as we
  observe more elements of the tuple stream."

* :func:`mean_interval` — an empirical-variance interval for the ONCE join
  estimate itself. The estimate after t probe tuples is
  ``|S| × mean(X_1..X_t)`` with ``X_j = N^R[key_j]`` i.i.d. bounded
  variables, so a standard normal interval on the mean (with finite
  population correction, since sampling is effectively without replacement
  from the probe stream) gives a far tighter bound than composing
  per-value βs; both are exposed so their widths can be compared.
"""

from __future__ import annotations

import math

from repro.common.stats import normal_quantile

__all__ = ["binomial_beta", "mean_interval"]


def binomial_beta(t: int, alpha: float = 0.99) -> float:
    """Worst-case half-width β = Z_α / (2 sqrt(t)) for a proportion
    estimated from ``t`` observations (paper, Section 4.1)."""
    if t <= 0:
        return float("inf")
    return normal_quantile(alpha) / (2.0 * math.sqrt(t))


def mean_interval(
    count: int,
    sum_x: float,
    sum_x_sq: float,
    scale: float,
    alpha: float = 0.99,
    population: float | None = None,
) -> tuple[float, float]:
    """α-confidence normal interval for ``scale × true mean`` of a stream
    whose first ``count`` observations have sums ``Σx`` and ``Σx²``.

    A pure function of the sufficient statistics: for the integer-valued
    contribution streams the join estimators feed (every x is a key
    multiplicity) the sums are exact below 2^53 however they were grouped,
    so the endpoints are *bit-identical* between per-tuple, per-batch and
    merged-partition accumulation, not just equal to tolerance. The finite
    population correction ``(N - t)/(N - 1)`` applies when the population
    size ``N`` (the probe stream length) is known.
    """
    if count == 0:
        return (0.0, float("inf"))
    mean = sum_x / count
    center = scale * mean
    if count < 2:
        return (center, center)
    se_sq = max(sum_x_sq / count - mean * mean, 0.0) / count
    if population is not None and population > 1:
        se_sq *= max((population - count) / (population - 1), 0.0)
    half = normal_quantile(alpha) * scale * math.sqrt(se_sq)
    return (max(center - half, 0.0), center + half)
