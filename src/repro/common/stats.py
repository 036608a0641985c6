"""Incremental statistics used throughout the estimation framework.

:func:`squared_coefficient_of_variation` is the reference definition of
the γ² that :class:`repro.core.distinct.GroupFrequencyState` maintains
incrementally from prefix sums (Section 4.2). :func:`normal_quantile`
supplies the ``Z_alpha`` values for the binomial confidence intervals of
Section 4.1 without requiring scipy at runtime.
"""

from __future__ import annotations

import math

__all__ = [
    "normal_quantile",
    "squared_coefficient_of_variation",
]


def squared_coefficient_of_variation(frequencies) -> float:
    """Squared coefficient of variation (variance / mean**2) of a sequence.

    Returns 0.0 for empty input or zero mean; this matches the incremental
    group-frequency state and makes the low-skew branch of the GEE/MLE
    chooser the default for degenerate inputs.
    """
    freqs = list(frequencies)
    n = len(freqs)
    if n == 0:
        return 0.0
    total = float(sum(freqs))
    if total == 0.0:
        return 0.0
    mean = total / n
    var = sum((f - mean) ** 2 for f in freqs) / n
    return var / (mean * mean)


def normal_quantile(alpha: float) -> float:
    """Two-sided standard-normal quantile ``Z_alpha``.

    ``normal_quantile(0.99)`` returns the z such that a standard normal lies
    in ``(-z, z)`` with probability 0.99. Uses Acklam's rational
    approximation of the inverse normal CDF (relative error < 1.15e-9),
    avoiding a scipy dependency on the hot estimation path.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    p = 0.5 + alpha / 2.0  # upper-tail probability point
    return _inverse_normal_cdf(p)


def _inverse_normal_cdf(p: float) -> float:
    """Acklam's approximation to the inverse standard normal CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    # Coefficients in rational approximations.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    p_high = 1.0 - p_low
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
