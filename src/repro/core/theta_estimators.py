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
from operator import itemgetter, mul
from typing import Iterable

from repro.common.errors import EstimationError
from repro.core.accumulator import OnceAccumulator, TotalProvider
from repro.core.join_estimators import resolve_stream_total
from repro.executor.operators.nested_loops import NestedLoopsJoin

__all__ = ["OnceThetaJoinEstimator", "attach_theta_estimator"]

_OPS = ("<", "<=", ">", ">=")


class OnceThetaJoinEstimator:
    """Join-size estimator for ``outer <op> inner`` comparison predicates:
    the sorted-array contribution kernel around one
    :class:`~repro.core.accumulator.OnceAccumulator` — :attr:`acc`, which
    holds ``t``, the estimate, its interval, ``exact`` and ``history``."""

    __slots__ = ("op", "inner_values", "_frozen", "acc")

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
        self.acc = OnceAccumulator(outer_total, record_every)

    # -- stream callbacks ---------------------------------------------------------

    def on_inner(self, value: object) -> None:
        """One inner tuple during the materialisation pass."""
        self.on_inner_batch((value,))

    def on_inner_batch(self, values: Iterable[object]) -> None:
        """A column of inner join values: collected, NULLs dropped."""
        if self._frozen:
            raise EstimationError("inner side already frozen")
        self.inner_values.extend(v for v in values if v is not None)

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

    def on_outer_batch(self, values: Iterable[object]) -> None:
        """A column of outer join values: one bisect per value, one ``add``
        per checkpoint piece."""
        contributions = list(map(self.contribution, values))
        for (piece,) in self.acc.split(contributions):
            self.acc.add(len(piece), sum(piece), sum(map(mul, piece, piece)))

    def finalize(self) -> None:
        """The outer pass completed: the estimate is now exact."""
        self.acc.finalize()


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
    inner_of = itemgetter(join.inner_child.output_schema.index_of(inner_column))
    outer_of = itemgetter(join.outer_child.output_schema.index_of(outer_column))

    def on_inner_rows(_keys: list, rows: list[tuple]) -> None:
        estimator.on_inner_batch(map(inner_of, rows))

    def on_outer_rows(_keys: list, rows: list[tuple]) -> None:
        estimator.on_outer_batch(map(outer_of, rows))

    join.input_hooks[1].append(on_inner_rows)
    join.input_end_hooks[1].append(estimator.freeze_inner)
    join.input_hooks[0].append(on_outer_rows)
    join.input_end_hooks[0].append(estimator.finalize)
    return estimator
