"""The driver-node estimator (dne) of Chaudhuri et al. [9] — baseline.

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
"""

from __future__ import annotations

from repro.core.join_estimators import resolve_stream_total
from repro.executor.operators.base import Operator
from repro.executor.pipeline import Pipeline

__all__ = ["DriverNodeEstimator"]


class DriverNodeEstimator:
    """dne estimates for every operator of one pipeline."""

    def __init__(self, pipeline: Pipeline):
        self.pipeline = pipeline
        self.driver: Operator = pipeline.driver
        #: N_d provider: the driver's total, read once per snapshot by the
        #: monitor and passed to :meth:`estimate_for`.
        self.driver_total = resolve_stream_total(self.driver)

    @property
    def driver_progress(self) -> float:
        """α: fraction of the driver's stream consumed so far (0..1)."""
        return self.progress_at(self.driver_total())

    def progress_at(self, total: float) -> float:
        """α for a driver total already read from :attr:`driver_total`."""
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

    def estimates(self) -> dict[Operator, float]:
        return {op: self.estimate_for(op) for op in self.pipeline.operators}
