"""Optimizer substrate: textbook cardinality estimation and bound-based
refinement for future pipelines.

The point of this package is to be *realistically wrong*. The paper's online
framework exists because optimizer estimates — built on uniformity,
independence and containment assumptions — can be off by an order of
magnitude on skewed data (Figure 4(a): "the PostgreSQL cardinality estimates
are off by about a factor of 13"). :class:`CardinalityModel` applies exactly
those textbook formulas, so its errors have the same character; the progress
benchmarks then show the online estimators correcting them.
"""

from repro.optimizer.bounds import CardinalityBounds, RefinableEstimate
from repro.optimizer.cardinality import CardinalityModel, annotate_plan

__all__ = [
    "CardinalityBounds",
    "CardinalityModel",
    "RefinableEstimate",
    "annotate_plan",
]
