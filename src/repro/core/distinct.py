"""Group-count (distinct value) estimation for aggregation (Section 4.2).

Three pieces, matching the paper:

**GEE (Algorithm 2)** — Charikar et al.'s Guaranteed Error Estimator,

    D_t = sqrt(|T| / t) · f_1  +  Σ_{j>=2} f_j,

maintained *incrementally*: the frequency-of-frequencies index gives the
singleton count ``S_1 = f_1`` and the multi-occurrence count
``S_+ = d_seen - f_1`` in O(1), so each new tuple costs one histogram
update. GEE scales the singletons up geometrically, which makes it strong
on high-skew data but a severe over-estimator on small samples of low-skew
data ("it tends to overestimate the number of groups when the sample size
is small").

**MLE estimator** — the paper's new estimator for the low-skew regime.
After t of |T| values, plug the MLE frequency estimates p̂ = i/t of the
observed groups into the expected-new-groups formula over a doubling
horizon (capped at the remaining input):

    D_t = ĝ + Σ_i f_i [ (1 - i/t)^t - (1 - i/t)^(t + r) ],   r = min(t, |T| - t)

with ĝ = Σ_i f_i the groups seen so far. (The published formula is partly
garbled in the available text; this reconstruction matches every stated
property: it is monotone, converges to the correct value as t → |T|,
"rarely overestimates ... prone to underestimation", and beats GEE on
low-skew data with moderately many groups.) Recomputation costs
O(#distinct frequencies), so it is *scheduled*, not per-tuple:

**Algorithm 3** — the adaptive recomputation interval. Start at the lower
bound l; whenever a recomputation lands within k of the previous estimate,
double the interval (up to u); otherwise reset it to l. Estimates are thus
refreshed often exactly when they are moving.

**The chooser** — the squared coefficient of variation γ² of observed group
frequencies (maintained in O(1) from prefix sums; see
:class:`repro.common.stats.IncrementalFrequencyStats`) measures skew. With
threshold τ (=10 in the paper): γ² < τ selects MLE, otherwise GEE.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from repro.common.stats import IncrementalFrequencyStats
from repro.core.accumulator import (
    EstimatorExport,
    TotalProvider,
    cut_batch,
    total_provider,
)
from repro.core.histogram import FrequencyHistogram

__all__ = [
    "GEEEstimator",
    "GroupFrequencyState",
    "HybridGroupCountEstimator",
    "MLEEstimator",
    "RecomputeScheduler",
]

DEFAULT_TAU = 10.0


class GroupFrequencyState:
    """Shared observation state: frequency histogram + γ² moments.

    ``observe(value, weight)`` supports weighted increments so the same
    state can be fed by a simulated join output (aggregation push-down).
    """

    __slots__ = ("histogram", "moments")

    def __init__(self) -> None:
        self.histogram = FrequencyHistogram(track_frequencies=True)
        self.moments = IncrementalFrequencyStats()

    def observe(self, value: object, weight: int = 1) -> None:
        old = self.histogram.add(value, weight)
        moments = self.moments
        if weight == 1:
            # Inlined unit-step transition: this is the per-input-tuple hot
            # path of every attached aggregate.
            if old == 0:
                moments.num_groups += 1
            moments.sum_freq += 1
            moments.sum_freq_sq += 2 * old + 1
        else:
            moments.observe_transition(old, old + weight)

    def observe_batch(self, values: Sequence[object]) -> None:
        """Counter-aggregated unit observations (one per value).

        One histogram update and one moment transition per *distinct*
        value: the weighted transition ``old -> old + w`` nets the same
        num_groups / Σf / Σf² deltas as the w unit steps, and everything is
        integer arithmetic, so the end state is identical to calling
        :meth:`observe` once per value. None is a legitimate group key here
        (NULL groups aggregate), unlike in the join histograms.
        """
        hist = self.histogram
        counts = hist.counts
        fof = hist.freq_of_freq
        new_groups = 0
        sq_delta = 0
        # FrequencyHistogram.add's transition, inlined per distinct value.
        for value, weight in Counter(values).items():
            old = counts.get(value, 0)
            new = counts[value] = old + weight
            if old:
                remaining = fof[old] - 1
                if remaining:
                    fof[old] = remaining
                else:
                    del fof[old]
            else:
                new_groups += 1
            fof[new] = fof.get(new, 0) + 1
            sq_delta += new * new - old * old
        hist.total += len(values)
        moments = self.moments
        moments.num_groups += new_groups
        moments.sum_freq += len(values)
        moments.sum_freq_sq += sq_delta

    @property
    def t(self) -> int:
        """Tuples observed (sum of all frequencies)."""
        return self.histogram.total

    @property
    def distinct_seen(self) -> int:
        return self.histogram.num_distinct

    @property
    def singletons(self) -> int:
        """f_1: groups seen exactly once."""
        return self.histogram.freq_of_freq.get(1, 0)

    @property
    def gamma_squared(self) -> float:
        return self.moments.gamma_squared


class GEEEstimator:
    """Guaranteed Error Estimator, O(1) per query (Algorithm 2)."""

    name = "gee"
    __slots__ = ("state",)

    def __init__(self, state: GroupFrequencyState):
        self.state = state

    def estimate(self, total: float) -> float:
        t = self.state.t
        if t == 0:
            return 0.0
        scale = math.sqrt(max(total, t) / t)
        f1 = self.state.singletons
        rest = self.state.distinct_seen - f1
        return scale * f1 + rest


class MLEEstimator:
    """The paper's MLE-based estimator (see module docstring for the
    reconstruction notes). O(#distinct frequencies) per evaluation."""

    name = "mle"
    __slots__ = ("state",)

    def __init__(self, state: GroupFrequencyState):
        self.state = state

    def estimate(self, total: float) -> float:
        t = self.state.t
        if t == 0:
            return 0.0
        seen = float(self.state.distinct_seen)
        remaining = max(total - t, 0.0)
        if remaining <= 0.0:
            return seen
        horizon = min(float(t), remaining)
        correction = 0.0
        for i, f_i in self.state.histogram.freq_of_freq.items():
            base = 1.0 - i / t
            if base <= 0.0:
                continue
            p_unseen_now = base ** t
            if p_unseen_now < 1e-12:
                continue
            p_unseen_later = base ** (t + horizon)
            correction += f_i * (p_unseen_now - p_unseen_later)
        return seen + correction


class RecomputeScheduler:
    """Algorithm 3: adaptive recomputation interval.

    Parameters
    ----------
    lower / upper:
        Interval bounds in tuples (the paper sets them to 0.1% and 3.2% of
        the input size).
    stability:
        k: relative difference under which the interval doubles (paper: 1%).
    """

    __slots__ = ("lower", "upper", "stability", "interval", "recompute_count")

    def __init__(self, lower: int, upper: int, stability: float = 0.01):
        if lower < 1 or upper < lower:
            raise ValueError(
                f"need 1 <= lower <= upper, got lower={lower}, upper={upper}"
            )
        if stability <= 0:
            raise ValueError(f"stability must be > 0, got {stability}")
        self.lower = lower
        self.upper = upper
        self.stability = stability
        self.interval = lower
        self.recompute_count = 0

    def due(self, t: int) -> bool:
        """Is a recomputation due at tuple count ``t``?"""
        return t > 0 and t % self.interval == 0

    def after_recompute(self, old_estimate: float, new_estimate: float) -> None:
        """Adapt the interval given the previous and fresh estimates."""
        self.recompute_count += 1
        if new_estimate > 0 and abs(1.0 - old_estimate / new_estimate) < self.stability:
            self.interval = min(self.interval * 2, self.upper)
        else:
            self.interval = self.lower


class HybridGroupCountEstimator:
    """GEE/MLE with the γ² chooser and scheduled MLE recomputation.

    ``observe`` is the per-tuple hot path: one histogram update, one O(1)
    moment update, and — only when the scheduler says so — one MLE
    recomputation. ``estimate()`` itself is O(1).

    Parameters
    ----------
    total:
        |T|: total input size (number or provider).
    tau:
        γ² threshold; below it MLE is used, above it GEE (paper: 10).
    lower_fraction / upper_fraction:
        Algorithm 3 interval bounds as fractions of |T| (paper: 0.001 and
        0.032); resolved lazily against the current total.
    record_every:
        If > 0, append ``(t, estimate)`` to ``history`` every that many
        observed tuples.
    """

    __slots__ = (
        "state",
        "gee",
        "mle",
        "tau",
        "_total",
        "scheduler",
        "_cached_mle",
        "exact",
        "record_every",
        "history",
    )

    def __init__(
        self,
        total: float | TotalProvider,
        tau: float = DEFAULT_TAU,
        lower_fraction: float = 0.001,
        upper_fraction: float = 0.032,
        stability: float = 0.01,
        record_every: int = 0,
    ):
        self.state = GroupFrequencyState()
        self.gee = GEEEstimator(self.state)
        self.mle = MLEEstimator(self.state)
        self.tau = tau
        self._total = total_provider(total)
        total_now = max(self._total(), 1.0)
        lower = max(int(total_now * lower_fraction), 1)
        upper = max(int(total_now * upper_fraction), lower)
        self.scheduler = RecomputeScheduler(lower, upper, stability)
        self._cached_mle: float = 0.0
        self.exact: bool = False
        self.record_every = record_every
        self.history: list[tuple[int, float]] = []

    @property
    def total(self) -> float:
        return float(self._total())

    def observe(self, value: object, weight: int = 1) -> None:
        """Feed one (possibly weighted) tuple of the grouping column."""
        self.state.observe(value, weight)
        self._boundary_actions(self.state.histogram.total)

    def _boundary_actions(self, t: int) -> None:
        """The boundary actions due at tuple count ``t``: the scheduled MLE
        recompute (which adapts the schedule) and the history checkpoint."""
        if t % self.scheduler.interval == 0:
            old = self._cached_mle
            self._cached_mle = self.mle.estimate(self.total)
            self.scheduler.after_recompute(old, self._cached_mle)
        if self.record_every and t % self.record_every == 0:
            self.history.append((t, self.estimate()))

    def observe_batch(self, values: Sequence[object]) -> None:
        """Feed a batch of unit-weight grouping values in one shot.

        Segments the batch at every recomputation and ``record_every``
        boundary it jumps over, applying each segment as one aggregated
        :meth:`GroupFrequencyState.observe_batch` and firing the boundary
        actions (MLE recompute + scheduler adaptation, history checkpoint)
        at exactly the t the per-tuple path would — the scheduler's
        interval adapts after every recompute, so the next boundary is
        re-derived inside the loop. End state (histogram, moments, cached
        MLE, scheduler interval, history) is identical to one
        :meth:`observe` call per value.
        """
        n = len(values)
        state = self.state
        scheduler = self.scheduler
        rec = self.record_every

        def to_next_boundary() -> int:
            t = state.histogram.total
            step = scheduler.interval - t % scheduler.interval
            return min(step, rec - t % rec) if rec else step

        for start, end in cut_batch(n, to_next_boundary):
            state.observe_batch(values if end - start == n else values[start:end])
            self._boundary_actions(state.histogram.total)

    def observe_hook(self, keys: Sequence[object], _rows: Sequence[tuple]) -> None:
        """``(keys, rows)`` adapter for operator input hooks."""
        self.observe_batch(keys)

    def finalize(self) -> None:
        """The whole input has been seen: the group count is exact."""
        self.exact = True
        if self.record_every:
            self.history.append((self.state.t, float(self.state.distinct_seen)))

    @property
    def started(self) -> bool:
        """Has the input begun? Until then the estimate is vacuous."""
        return self.exact or self.state.t > 0

    @property
    def chosen(self) -> str:
        """Which estimator the γ² chooser currently selects."""
        return self.mle.name if self.state.gamma_squared < self.tau else self.gee.name

    def estimate(self) -> float:
        """Current estimate of the total number of groups in |T|."""
        if self.exact:
            return float(self.state.distinct_seen)
        if self.state.t == 0:
            return 0.0
        if self.chosen == self.mle.name:
            # Between scheduled recomputations, serve the cached value, but
            # never below the groups already seen (monotone floor).
            if self._cached_mle <= 0.0:
                self._cached_mle = self.mle.estimate(self.total)
            return max(self._cached_mle, float(self.state.distinct_seen))
        return max(self.gee.estimate(self.total), float(self.state.distinct_seen))

    def export(self) -> EstimatorExport:
        """The group-value histogram: counts sum across partitions (every
        input tuple is observed in exactly one), nothing else is needed to
        rerun the chooser over the merged state."""
        counts = dict(self.state.histogram.counts)
        return EstimatorExport("group", (), (counts,), self.total, self.exact)
