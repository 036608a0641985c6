"""The driver-node estimator (dne) of Chaudhuri et al. [9] and the byte
model of Luo et al. [18] — the baselines.

For a pipeline with driver node d (the node feeding tuples into the
pipeline), dne takes the driver's progress α = K_d / N_d — N_d is known
exactly for scans, and for blocking-operator outputs once the blocking pass
finished — and scales every operator's observed output up by it:

    N̂_i = K_i / α        (once the pipeline has started)

The optimizer estimate is discarded the moment the pipeline starts
("the dne estimator disregards the original optimizer estimate as soon as
the pipeline starts executing"). On randomly ordered streams this is
unbiased for selections, but for operators *behind* a reordering boundary —
the partition-wise join pass of a hybrid hash join, a merge of sorted
runs — K_i reflects clustered, non-representative prefixes and the estimate
fluctuates (Figure 4). That failure mode is precisely what ONCE sidesteps
by estimating in the preprocessing pass.

Luo et al. measure work as bytes processed at segment boundaries and refine
cardinality estimates by *blending* the optimizer's original estimate with
the observation-scaled one, weighted by the same α:

    N̂_i = α · (K_i / α) + (1 - α) · opt_i  =  K_i + (1 - α) · opt_i

Early in the pipeline the optimizer estimate dominates; it is only fully
discarded when the input has been fully consumed — hence "the byte
estimator imposes a weighted average operation involving the original
cardinality estimate, and so it converges slowly to the correct answer"
(Figure 4 discussion). It also inherits dne's sensitivity to the
partition-wise reordering of hybrid hash joins, since K_i is observed
after the reordering boundary. Both models share everything but that
blend: an exhausted operator's K_i, the driver's own total, and the
optimizer estimate before the pipeline starts.

For byte-based progress itself, multiply per-operator counts by
:meth:`Schema.row_width_bytes`; under the getnext model the two progress
measures are related by fixed per-operator constants, so ratio-error
comparisons are unaffected (Section 2 of the paper makes the same point).
"""

from __future__ import annotations

from repro.core.join_estimators import resolve_stream_total
from repro.executor.operators.base import Operator
from repro.executor.pipeline import Pipeline

__all__ = ["DriverNodeEstimator"]


class DriverNodeEstimator:
    """dne and byte-model estimates for every operator of one pipeline."""

    def __init__(self, pipeline: Pipeline):
        self.pipeline = pipeline
        self.driver: Operator = pipeline.driver
        #: N_d provider: the driver's total, read once per snapshot by the
        #: monitor and passed to :meth:`estimate_for`.
        self.driver_total = resolve_stream_total(self.driver)

    def progress_at(self, total: float) -> float:
        """α: fraction of the driver's stream consumed (0..1), for a driver
        total already read from :attr:`driver_total`."""
        if total <= 0:
            return 1.0 if self.driver.is_exhausted else 0.0
        alpha = self.driver.tuples_emitted / total
        return min(max(alpha, 0.0), 1.0)

    def estimate_for(self, op: Operator, total: float | None = None) -> float:
        """dne estimate of N_i for ``op``.

        Exact for exhausted operators; the driver itself reports its known
        total; before the pipeline starts, the optimizer estimate stands.
        ``total`` is the driver's total when the caller already read it
        for this pipeline (the monitor reads it once per snapshot).
        """
        if op.is_exhausted:
            return float(op.tuples_emitted)
        if total is None:
            total = self.driver_total()
        if op is self.driver:
            return max(float(total), float(op.tuples_emitted))
        alpha = self.progress_at(total)
        if alpha <= 0.0:
            if op.estimated_cardinality is not None:
                return float(op.estimated_cardinality)
            return float(op.tuples_emitted)
        return max(op.tuples_emitted / alpha, float(op.tuples_emitted))

    def byte_estimate_for(self, op: Operator, total: float | None = None) -> float:
        """Byte-model estimate of N_i for ``op``: dne's answer wherever the
        two agree (exhausted, driver, pipeline not started), the α-blend of
        observation and optimizer estimate otherwise. ``total`` as in
        :meth:`estimate_for`."""
        if total is None:
            total = self.driver_total()
        alpha = self.progress_at(total)
        if op.is_exhausted or op is self.driver or alpha <= 0.0:
            return self.estimate_for(op, total)
        optimizer = (
            float(op.estimated_cardinality)
            if op.estimated_cardinality is not None
            else float(op.tuples_emitted)
        )
        scaled = op.tuples_emitted / alpha
        blended = alpha * scaled + (1.0 - alpha) * optimizer
        return max(blended, float(op.tuples_emitted))
