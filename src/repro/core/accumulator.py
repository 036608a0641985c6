"""The paper's one online join estimator, written once (Section 4.1).

As a stream S goes by *in its original random order*, every join estimator
of the framework maintains the same recurrence

    D_{t+1} = (D_t · t + c_{t+1} · |S|) / (t + 1)        i.e.  D_t = |S| × mean_t(c)

where ``c`` is the number of output rows the t-th tuple of S generates.
Inner, semi, anti and outer equi-joins, inequality predicates and every
level of Algorithm 1's pushed-down chains differ *only* in how ``c`` is
looked up (docs/THEORY.md §2.2); the estimate is unbiased at every t, its
confidence interval shrinks as 1/sqrt(t), and when the pass completes
(t = |S|) it equals the exact join cardinality — *before* any actual
joining has happened.

:class:`OnceAccumulator` is that recurrence. It stores the sufficient
statistics ``(t, Σc, Σc²)`` — integers, so folding a batch at once is
bit-identical to per-tuple refinement. An estimator owns one per join it
answers for and keeps only its contribution kernel and hook wiring. The
same sums are what would make the state mergeable across partitions
(docs/THEORY.md §2.3); nothing merges them today.
"""

from __future__ import annotations

from typing import Callable

from repro.core.confidence import mean_interval

__all__ = [
    "OnceAccumulator",
    "TotalProvider",
    "total_provider",
]

TotalProvider = Callable[[], float]


def total_provider(total: float | TotalProvider | None) -> TotalProvider:
    """Normalise a stream total: a number, a provider re-evaluated at each
    estimate (e.g. a selection whose selectivity is still being observed),
    or None — no external knowledge, so the tuples seen are all that can be
    assumed (every consumer floors the total at its own ``t``)."""
    if total is None:
        return lambda: 0.0
    if callable(total):
        return total
    value = float(total)
    return lambda: value


class OnceAccumulator:
    """``|S| × mean_t(c)`` over one stream: ``total`` is ``|S|`` (see
    :func:`total_provider`).

    This is the state every reader of a join's estimate reads — the
    progress monitor included. ``max_multiplicity`` is the most rows one
    stream tuple can generate (the build side's maximum key multiplicity),
    for bound refinement: None until the join's build pass has ended, since
    the maximum of a half-built histogram bounds nothing.
    """

    __slots__ = (
        "t",
        "sum_c",
        "sum_c_sq",
        "exact",
        "max_multiplicity",
        "_total",
    )

    def __init__(self, total: float | TotalProvider | None = None):
        self.t: int = 0
        self.sum_c: int = 0
        self.sum_c_sq: int = 0
        self.exact: bool = False
        self.max_multiplicity: float | None = None
        self._total = total_provider(total)

    def add(self, n: int, sum_c: int, sum_c_sq: int) -> None:
        """Fold ``n`` stream tuples whose contributions sum to
        ``sum_c`` and whose squares sum to ``sum_c_sq``."""
        self.t += n
        self.sum_c += sum_c
        self.sum_c_sq += sum_c_sq

    def finalize(self) -> None:
        """The whole stream has been seen: ``Σc`` is the exact answer."""
        self.exact = True

    @property
    def started(self) -> bool:
        """Has the stream begun? Until then the estimate is vacuous."""
        return self.exact or self.t > 0

    @property
    def stream_total(self) -> float:
        """``|S|``, never below the tuples already seen: a total that
        under-counts (an optimizer guess for an aggregate's output, say)
        must not scale the estimate below the ``Σc`` rows already certain."""
        return max(float(self._total()), float(self.t))

    def estimate(self) -> float:
        """Current D_t (exact once the pass has completed)."""
        if self.exact:
            return float(self.sum_c)
        if self.t == 0:
            return 0.0
        return self.sum_c / self.t * self.stream_total

    def confidence_interval(self, alpha: float = 0.99) -> tuple[float, float]:
        """Empirical-variance interval for the estimated cardinality."""
        if self.exact:
            return (float(self.sum_c),) * 2
        total = self.stream_total
        return mean_interval(
            self.t, self.sum_c, self.sum_c_sq, total, alpha, population=total
        )
