"""Group-count (distinct value) estimation for aggregation (Section 4.2).

Three pieces, matching the paper:

**GEE (Algorithm 2)** — Charikar et al.'s Guaranteed Error Estimator,

    D_t = sqrt(|T| / t) · f_1  +  Σ_{j>=2} f_j,

maintained *incrementally*: the kept f_1 gives the singleton count
``S_1 = f_1`` and the multi-occurrence count ``S_+ = d_seen - f_1`` in
O(1), so each new tuple costs one count update. GEE scales the singletons
up geometrically, which makes it strong on high-skew data but a severe
over-estimator on small samples of low-skew data ("it tends to
overestimate the number of groups when the sample size is small").

**MLE estimator** — the paper's new estimator for the low-skew regime.
After t of |T| values, plug the MLE frequency estimates p̂ = i/t of the
observed groups into the expected-new-groups formula over a doubling
horizon (capped at the remaining input):

    D_t = ĝ + Σ_i f_i [ (1 - i/t)^t - (1 - i/t)^(t + r) ],   r = min(t, |T| - t)

with ĝ = Σ_i f_i the groups seen so far. (The published formula is partly
garbled in the available text; this reconstruction matches every stated
property: it is monotone, converges to the correct value as t → |T|,
"rarely overestimates ... prone to underestimation", and beats GEE on
low-skew data with moderately many groups.) A class with
(1 - i/t)^t < 1e-12 adds nothing, and (1 - i/t)^t ≤ e^(-i) puts every
i ≥ 28 there, so only f_1 … f_27 are kept and read. Recomputation still
costs up to 27 powers, so it is *scheduled*, not per-tuple:

**Algorithm 3** — the adaptive recomputation interval. Start at the lower
bound l; whenever a recomputation lands within k of the previous estimate,
double the interval (up to u); otherwise reset it to l. Estimates are thus
refreshed often exactly when they are moving. Here the schedule decides
whether a *read* recomputes: a read that chooses the MLE recomputes it at
its own t if a multiple of the interval has passed since the last
recompute, and a read that chooses GEE recomputes nothing.

**The chooser** — the squared coefficient of variation γ² of observed group
frequencies (O(1) from the group count, Σc and Σc², the prefix sums the
paper says to maintain) measures skew. With threshold τ (=10 in the
paper): γ² < τ selects MLE, otherwise GEE.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from typing import Iterable, Sequence

from repro.core.accumulator import TotalProvider, total_provider

__all__ = [
    "GEEEstimator",
    "GroupFrequencyState",
    "HybridGroupCountEstimator",
    "MLEEstimator",
    "RecomputeScheduler",
]

DEFAULT_TAU = 10.0
#: Algorithm 3's interval bounds as fractions of |T| (paper: 0.1 % and
#: 3.2 %), and k, the relative change under which the interval doubles
#: (paper: 1 %).
RECOMPUTE_LOWER_FRACTION = 0.001
RECOMPUTE_UPPER_FRACTION = 0.032
RECOMPUTE_STABILITY = 0.01

#: A frequency class whose probability of staying unseen, (1 − i/t)^t, is
#: below this adds nothing to the MLE estimate.
NEGLIGIBLE = 1e-12
#: (1 − i/t)^t ≤ e^{−i} < NEGLIGIBLE for every i ≥ LOW, so the MLE never
#: reads f_i there and :class:`GroupFrequencyState` does not keep it.
LOW = math.ceil(-math.log(NEGLIGIBLE))


class GroupFrequencyState:
    """Shared observation state: exactly what GEE, MLE and γ² read.

    * ``counts`` — value -> frequency c_v (a :class:`~collections.Counter`,
      so a batch is counted in C), so ``len(counts)`` is the number of
      groups seen;
    * ``t`` — Σ c_v, the tuples observed;
    * ``sum_sq`` — Σ c_v², for γ²;
    * ``fof`` — ``fof[i]`` = f_i = |{v : c_v = i}| for 0 < i < :data:`LOW`
      (``fof[0]`` stays 0). GEE reads f_1 and the MLE nothing above
      f_{LOW-1}, so higher frequencies are not indexed.

    A unit batch (:meth:`observe_batch`) only counts; ``sum_sq`` and
    ``fof`` settle at the next read (docs/THEORY.md §4) to the per-tuple
    definition's values. A weighted batch (:meth:`observe_weighted`) — a
    join chain's simulated output feeds it in aggregation push-down —
    settles first and stays eager.
    """

    __slots__ = ("counts", "t", "_sum_sq", "_fof", "_unsettled", "_pending")

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.t: int = 0
        self._sum_sq: int = 0
        self._fof: list[int] = [0] * LOW
        self._unsettled: int = 0  # keys observed since the last settle
        # Their batches; None once rebuilding from the counts is cheaper.
        self._pending: list[Sequence[object]] | None = []

    def observe(self, value: object, weight: int = 1) -> None:
        """One weighted observation: :meth:`observe_weighted`'s one-pair case."""
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        self.observe_weighted((value,), (weight,))

    def observe_weighted(self, values: Sequence[object], weights: Sequence[int]) -> None:
        """``weights[j]`` observations of ``values[j]`` for every j, in one
        fold: the weights are summed per value in C — a zero weight adds
        nothing, and the pass is as long as the weights' total, which in
        push-down is the number of rows the chain emits for the batch —
        then one settle, one ``counts.update`` and one :meth:`_fold` over
        the batch's distinct values. Counts, t, f_i and Σc² are those of
        observing the pairs one unit at a time, since all four are
        functions of the counts."""
        moves = Counter(chain.from_iterable(map(repeat, values, weights)))
        self._settle()
        self.counts.update(moves)
        self.t += moves.total()
        self._fold(moves.items())

    def observe_batch(self, keys: Sequence[object]) -> None:
        """Unit observations, one per key, counted in C. None is a
        legitimate group key here (NULL groups aggregate), unlike in the
        join histograms."""
        self.counts.update(keys)
        self.t += len(keys)
        self._unsettled += len(keys)
        if self._pending is not None:
            # Groups only grow by keys observed, so once they are at most
            # four per unsettled key they stay so: the settle will rebuild.
            if len(self.counts) <= 4 * self._unsettled:
                self._pending = None
            else:
                self._pending.append(keys)

    def _settle(self) -> None:
        """Bring ``sum_sq`` and ``fof`` up to the observed keys: rebuild
        them when there are at most four groups per unsettled key, else
        fold those keys."""
        if not self._unsettled:
            return
        if self._pending is None:  # rebuild from the counts
            sum_sq, fof = 0, [0] * LOW
            for c, f in Counter(self.counts.values()).items():
                sum_sq += c * c * f
                if c < LOW:
                    fof[c] = f
            self._sum_sq, self._fof = sum_sq, fof
        else:
            self._fold(Counter(chain.from_iterable(self._pending)).items())
        self._unsettled = 0
        self._pending = []

    def _fold(self, moves: Iterable[tuple[object, int]]) -> None:
        """Apply ``(value, w)``: value's count went from ``new − w`` to its
        current ``new``, which nets the same Σc² and f_i deltas as w unit
        steps."""
        counts, fof = self.counts, self._fof
        sq_delta = 0
        for value, weight in moves:
            new = counts[value]
            old = new - weight
            sq_delta += weight * (old + new)  # new² − old²
            if 0 < old < LOW:
                fof[old] -= 1
            if new < LOW:
                fof[new] += 1
        self._sum_sq += sq_delta

    @property
    def sum_sq(self) -> int:
        self._settle()
        return self._sum_sq

    @property
    def fof(self) -> list[int]:
        self._settle()
        return self._fof

    @property
    def distinct_seen(self) -> int:
        return len(self.counts)

    @property
    def singletons(self) -> int:
        """f_1: groups seen exactly once."""
        return self.fof[1]

    @property
    def gamma_squared(self) -> float:
        """Squared coefficient of variation of the observed frequencies,
        ``(n·Σc² − (Σc)²) / (Σc)²`` over the n groups seen."""
        n = len(self.counts)
        if n == 0 or self.t == 0:
            return 0.0
        s1 = float(self.t)
        var_times_n2 = n * float(self.sum_sq) - s1 * s1
        if var_times_n2 <= 0.0:
            return 0.0
        return var_times_n2 / (s1 * s1)


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
    reconstruction notes). Sums f_1 … f_{LOW−1} in ascending i: at most
    ``LOW − 1`` terms per evaluation, whatever the number of groups."""

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
        for i, f_i in enumerate(self.state.fof):
            if not f_i:
                continue
            base = 1.0 - i / t
            if base <= 0.0:
                continue
            p_unseen_now = base ** t
            if p_unseen_now < NEGLIGIBLE:
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

    def __init__(self, lower: int, upper: int, stability: float = RECOMPUTE_STABILITY):
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

    def due(self, since: int, t: int) -> bool:
        """Is a recompute due at ``t``, the last having been at ``since``?
        Yes iff a multiple of the interval lies in ``(since, t]``."""
        return t // self.interval > since // self.interval

    def after_recompute(self, old_estimate: float, new_estimate: float) -> None:
        """Adapt the interval given the previous and fresh estimates."""
        self.recompute_count += 1
        if new_estimate > 0 and abs(1.0 - old_estimate / new_estimate) < self.stability:
            self.interval = min(self.interval * 2, self.upper)
        else:
            self.interval = self.lower


class HybridGroupCountEstimator:
    """GEE/MLE with the γ² chooser and scheduled MLE recomputation.

    A directly attached aggregate or DISTINCT feeds whole input batches
    (:meth:`observe_hook` → :meth:`observe_batch`): each batch is counted
    in C. A pushed-down one is fed by its join chain, a probe batch at a
    time, through :meth:`GroupFrequencyState.observe_weighted`. Only reads
    recompute the MLE.

    Parameters
    ----------
    total:
        |T|: total input size (number or provider).
    tau:
        γ² threshold; below it MLE is used, above it GEE (paper: 10).
    """

    __slots__ = (
        "state",
        "gee",
        "mle",
        "tau",
        "_total",
        "scheduler",
        "_cached_mle",
        "_mle_t",
        "exact",
    )

    def __init__(self, total: float | TotalProvider, tau: float = DEFAULT_TAU):
        self.state = GroupFrequencyState()
        self.gee = GEEEstimator(self.state)
        self.mle = MLEEstimator(self.state)
        self.tau = tau
        self._total = total_provider(total)
        # Resolved once, against the total the provider reports now.
        total_now = max(self._total(), 1.0)
        lower = max(int(total_now * RECOMPUTE_LOWER_FRACTION), 1)
        upper = max(int(total_now * RECOMPUTE_UPPER_FRACTION), lower)
        self.scheduler = RecomputeScheduler(lower, upper)
        self._cached_mle: float = 0.0
        self._mle_t: int = -1  # t at the last recompute; -1: the first is due
        self.exact: bool = False

    @property
    def total(self) -> float:
        return float(self._total())

    def observe_batch(self, keys: Sequence[object]) -> None:
        """Feed a batch of unit-weight grouping keys in one
        :meth:`GroupFrequencyState.observe_batch`; an empty batch is a
        no-op. Counts, f_i, Σc² and t are identical to one
        :meth:`GroupFrequencyState.observe` call per key.
        """
        if keys:
            self.state.observe_batch(keys)

    def observe_hook(self, keys: Sequence[object], _rows: Sequence[tuple]) -> None:
        """``(keys, rows)`` adapter for operator input hooks."""
        self.observe_batch(keys)

    def finalize(self) -> None:
        """The whole input has been seen: the group count is exact."""
        self.exact = True

    @property
    def started(self) -> bool:
        """Has the input begun? Until then the estimate is vacuous."""
        return self.exact or self.state.t > 0

    @property
    def chosen(self) -> str:
        """Which estimator the γ² chooser currently selects."""
        return self.mle.name if self.state.gamma_squared < self.tau else self.gee.name

    def estimate(self) -> float:
        """Current estimate of the total number of groups in |T|, never below
        the groups seen. Idempotent at a given ``t``: a read that chooses the
        MLE recomputes it here, adapting the interval once, iff the schedule
        is due since the last recompute; a GEE read recomputes nothing."""
        state = self.state
        t = state.t
        if self.exact:
            return float(state.distinct_seen)
        if t == 0:
            return 0.0
        seen = float(state.distinct_seen)
        if self.chosen == self.gee.name:
            return max(self.gee.estimate(self.total), seen)
        if self.scheduler.due(self._mle_t, t):
            old = self._cached_mle
            self._cached_mle = self.mle.estimate(self.total)
            self._mle_t = t
            self.scheduler.after_recompute(old, self._cached_mle)
        return max(self._cached_mle, seen)
