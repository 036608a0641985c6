"""Online estimation for inequality ("theta") join predicates.

Section 4.1.1 notes that "similar estimators can be constructed for other
kinds of join predicates (e.g., R.x > S.y)". The construction: the
preprocessing pass over the inner input collects its join-column values
into a *sorted* array (the order-statistics analogue of the equality
histogram); each streaming outer tuple then contributes, via one binary
search, the exact number of inner rows it joins with:

    contribution(v) = #{y in inner : v <op> y}

so the running estimate ``mean_t(contribution) × |outer|`` is unbiased on
randomly ordered outer input and exact once the outer stream has been fully
seen. For a plain nested-loops join the convergence *timing* matches the
driver-node estimator (there is no preprocessing pass over the outer
input), but the estimator adds what dne lacks: per-tuple contributions with
an online confidence interval, and immunity to the inner side's order.
"""

from __future__ import annotations

import bisect

from repro.common.errors import EstimationError
from repro.core.confidence import MeanEstimateInterval
from repro.core.join_estimators import TotalProvider, resolve_stream_total
from repro.executor.operators.nested_loops import NestedLoopsJoin

__all__ = ["OnceThetaJoinEstimator", "attach_theta_estimator"]

_OPS = ("<", "<=", ">", ">=")


class OnceThetaJoinEstimator:
    """Join-size estimator for ``outer <op> inner`` comparison predicates."""

    def __init__(
        self,
        op: str,
        outer_total: float | TotalProvider | None = None,
        record_every: int = 0,
    ):
        if op not in _OPS:
            raise EstimationError(f"unsupported comparison {op!r}; one of {_OPS}")
        self.op = op
        self.inner_values: list = []
        self._frozen = False
        self.t = 0
        self.sum_counts = 0
        self.exact = False
        self.record_every = record_every
        self.history: list[tuple[int, float]] = []
        self._interval = MeanEstimateInterval()
        if outer_total is None:
            self._outer_total: TotalProvider | None = None
        elif callable(outer_total):
            self._outer_total = outer_total
        else:
            total = float(outer_total)
            self._outer_total = lambda: total

    # -- stream callbacks ---------------------------------------------------------

    def on_inner(self, value: object) -> None:
        """One inner tuple during the materialisation pass."""
        if self._frozen:
            raise EstimationError("inner side already frozen")
        if value is not None:
            self.inner_values.append(value)

    def freeze_inner(self) -> None:
        """Inner pass complete: sort once, ready for O(log n) queries."""
        self.inner_values.sort()
        self._frozen = True

    def contribution(self, value: object) -> int:
        """Exact number of inner rows joining with this outer value."""
        if not self._frozen:
            self.freeze_inner()
        if value is None:
            return 0
        values = self.inner_values
        if self.op == ">":
            return bisect.bisect_left(values, value)
        if self.op == ">=":
            return bisect.bisect_right(values, value)
        if self.op == "<":
            return len(values) - bisect.bisect_right(values, value)
        return len(values) - bisect.bisect_left(values, value)  # <=

    def on_outer(self, value: object) -> None:
        c = self.contribution(value)
        self.t += 1
        self.sum_counts += c
        self._interval.observe(c)
        if self.record_every and self.t % self.record_every == 0:
            self.history.append((self.t, self.current_estimate()))

    def finalize(self) -> None:
        self.exact = True

    # -- estimates ---------------------------------------------------------------

    @property
    def outer_total(self) -> float:
        if self._outer_total is not None:
            return float(self._outer_total())
        return float(max(self.t, 1))

    def current_estimate(self) -> float:
        if self.exact:
            return float(self.sum_counts)
        if self.t == 0:
            return 0.0
        return self.sum_counts / self.t * self.outer_total

    def confidence_interval(self, alpha: float = 0.99) -> tuple[float, float]:
        if self.exact:
            return (float(self.sum_counts), float(self.sum_counts))
        if self.t == 0:
            return (0.0, float("inf"))
        total = self.outer_total
        return self._interval.interval(total, alpha, population=total)


def attach_theta_estimator(
    join: NestedLoopsJoin,
    outer_column: str,
    inner_column: str,
    op: str,
    record_every: int = 0,
) -> OnceThetaJoinEstimator:
    """Wire a theta estimator onto a nested-loops join's hooks.

    ``outer_column`` / ``inner_column`` are resolved against the respective
    child schemas; ``op`` compares outer to inner (``outer <op> inner``).
    """
    estimator = OnceThetaJoinEstimator(
        op,
        outer_total=resolve_stream_total(join.outer_child),
        record_every=record_every,
    )
    inner_idx = join.inner_child.output_schema.index_of(inner_column)
    outer_idx = join.outer_child.output_schema.index_of(outer_column)

    def on_inner_batch(_keys: list, rows: list[tuple]) -> None:
        for row in rows:
            estimator.on_inner(row[inner_idx])

    def on_outer_batch(_keys: list, rows: list[tuple]) -> None:
        for row in rows:
            estimator.on_outer(row[outer_idx])

    join.input_hooks[1].append(on_inner_batch)
    join.input_end_hooks[1].append(estimator.freeze_inner)
    join.input_hooks[0].append(on_outer_batch)
    join.input_end_hooks[0].append(estimator.finalize)
    return estimator
