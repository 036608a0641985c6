"""Robust estimators for a small, noisy sandbox.

Every timing the benchmark reports goes through one of these helpers, so
two runs of the same code agree: rounds are summarised by their median
(one noisy-neighbour burst moves a mean, not a median), mixes by a
geometric mean (a ratio-scale average no single slow query dominates),
and tails by a percentile that is only reported when enough samples lie
beyond it to make it more than one outlier's latency.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Sequence

__all__ = [
    "MIN_BEYOND",
    "alternating",
    "geomean",
    "iqr_share",
    "median_by_key",
    "pooled_percentile",
]

#: The "ten-beyond" rule: a percentile is reported only when at least this
#: many samples lie beyond it.
MIN_BEYOND = 10


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; ``ValueError`` unless every value is positive."""
    return statistics.geometric_mean(values)


def median_by_key(samples: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """Median-of-rounds: one median per key (query), keys kept in order."""
    return {key: statistics.median(vals) for key, vals in samples.items()}


def pooled_percentile(
    samples: Iterable[float], pct: float, min_beyond: int = MIN_BEYOND
) -> float:
    """``pct``-th percentile of the pooled samples (linear interpolation).

    Refuses (``ValueError``) when fewer than ``min_beyond`` samples lie
    beyond the percentile — the report would be an anecdote, not a tail.
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be within [0, 100], got {pct}")
    vals = sorted(samples)
    if not vals:
        raise ValueError("percentile of no samples")
    beyond = len(vals) * (100.0 - pct) / 100.0
    if beyond + 1e-9 < min_beyond:
        raise ValueError(
            f"p{pct:g} of {len(vals)} samples leaves {beyond:.1f} beyond it, "
            f"fewer than {min_beyond}"
        )
    rank = (len(vals) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(vals) - 1)
    return vals[low] + (vals[high] - vals[low]) * (rank - low)


def alternating(round_index: int) -> bool:
    """Run order for paired measurements: the treated side goes first on
    even rounds, second on odd ones, so drift and cache warmth cancel."""
    return round_index % 2 == 0


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the spread the
    driver holds each end-to-end metric's bound against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        raise ValueError("spread relative to a zero median is undefined")
    return (q3 - q1) / abs(mid)
