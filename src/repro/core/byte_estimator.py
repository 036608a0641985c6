"""The byte-model estimator of Luo et al. [18] — baseline.

Luo et al. measure work as bytes processed at segment boundaries and refine
cardinality estimates by *blending* the optimizer's original estimate with
the observation-scaled one, weighted by how much of the segment's driving
input has been consumed:

    N̂_i = α · (K_i / α) + (1 - α) · opt_i  =  K_i + (1 - α) · opt_i

where α is the driver fraction consumed. Early in the pipeline the
optimizer estimate dominates; it is only fully discarded when the input has
been fully consumed — hence "the byte estimator imposes a weighted average
operation involving the original cardinality estimate, and so it converges
slowly to the correct answer" (Figure 4 discussion). It also inherits
dne's sensitivity to the partition-wise reordering of hybrid hash joins,
since K_i is observed after the reordering boundary.

For byte-based progress itself, multiply per-operator counts by
:meth:`Schema.row_width_bytes`; under the getnext model the two progress
measures are related by fixed per-operator constants, so ratio-error
comparisons are unaffected (Section 2 of the paper makes the same point).
"""

from __future__ import annotations

from repro.core.dne import DriverNodeEstimator
from repro.executor.operators.base import Operator
from repro.executor.pipeline import Pipeline

__all__ = ["ByteModelEstimator"]


class ByteModelEstimator:
    """Byte-model estimates for every operator of one pipeline."""

    def __init__(self, pipeline: Pipeline):
        self.pipeline = pipeline
        self._dne = DriverNodeEstimator(pipeline)

    @property
    def driver_progress(self) -> float:
        return self._dne.driver_progress

    def estimate_for(self, op: Operator, total: float | None = None) -> float:
        """Byte-model N_i for ``op``; ``total`` as in
        :meth:`DriverNodeEstimator.estimate_for`."""
        if op.is_exhausted:
            return float(op.tuples_emitted)
        if total is None:
            total = self._dne.driver_total()
        if op is self._dne.driver:
            return self._dne.estimate_for(op, total)
        alpha = self._dne.progress_at(total)
        optimizer = (
            float(op.estimated_cardinality)
            if op.estimated_cardinality is not None
            else float(op.tuples_emitted)
        )
        if alpha <= 0.0:
            return optimizer
        scaled = op.tuples_emitted / alpha
        blended = alpha * scaled + (1.0 - alpha) * optimizer
        return max(blended, float(op.tuples_emitted))

    def estimates(self) -> dict[Operator, float]:
        return {op: self.estimate_for(op) for op in self.pipeline.operators}

    @staticmethod
    def bytes_emitted(op: Operator) -> int:
        """Bytes processed at this operator's output, under the byte model."""
        return op.tuples_emitted * op.output_schema.row_width_bytes()
