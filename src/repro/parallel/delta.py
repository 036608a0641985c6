"""Progress-delta wire format and the merge algebra over estimator state.

Workers do not ship point estimates — they ship the *sufficient
statistics* their estimators accumulate (PF-OLA's observation: online
estimators parallelize exactly when their state is mergeable). The
coordinator folds per-worker statistics into merged state and derives the
global estimate from that merged state:

* ONCE join estimators: ``Σ sum_counts / Σ t × Σ probe_total`` — the
  proper combined ratio estimator, not a sum of per-partition point
  estimates — which degenerates to the exact join size ``Σ sum_counts``
  once every worker has finished its probe pass.
* chain estimators: the same, per level.
* GEE/MLE group estimators: frequency-histogram counts sum across workers
  (each input tuple is observed on exactly one worker), and the hybrid
  chooser reruns over the merged histogram.

Build-side frequency histograms come in two merge modes, decided at plan
fragmentation time (:mod:`repro.parallel.fragments`):

* **partitioned** build (partition-wise join): every key lives in exactly
  one partition, so per-worker histograms have disjoint key sets and merge
  by summation — the merged histogram is bit-identical to the serial one.
* **replicated** build (broadcast join): every worker holds the *full*
  build histogram, so the merge takes the first copy (they are identical).

Probe-side statistics (``t``, ``sum_counts``/``sums``, interval moment
sums) always merge by summation: probe streams are partitioned, never
replicated, so each probe tuple contributes on exactly one worker.

Deltas are plain frozen dataclasses of builtins: a fragment's message
never aliases its live estimator state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.distinct import (
    DEFAULT_TAU,
    GEEEstimator,
    GroupFrequencyState,
    MLEEstimator,
)

__all__ = [
    "EstimatorDelta",
    "MergedChain",
    "MergedGroup",
    "MergedOnce",
    "ProgressDelta",
    "merge_estimator_deltas",
]


@dataclass(frozen=True, slots=True)
class EstimatorDelta:
    """One estimator's sufficient statistics, re-keyed to serial node ids.

    ``kind`` is ``"once"``, ``"chain"`` or ``"group"``. ``node_ids`` holds
    the serial plan node ids the statistics anchor to — one entry for
    once/group, the chain's joins bottom-up for chains. ``hists`` carries
    one ``{key: count}`` dict per histogram (the single build histogram
    for once, one per chain level, the group-value histogram for group);
    ``replicated`` carries the matching merge-mode flag per histogram
    (group histograms are never replicated). ``sums`` is ``(sum_counts,)``
    for once, the per-level Σ for chains, and empty for group.
    ``interval_sums`` is ``(count, Σx, Σx²)`` triples feeding
    :meth:`repro.core.confidence.MeanEstimateInterval.merge_sums`.
    """

    kind: str
    node_ids: tuple[int, ...]
    t: int = 0
    sums: tuple[int, ...] = ()
    hists: tuple[dict, ...] = ()
    replicated: tuple[bool, ...] = ()
    interval_sums: tuple[tuple[int, float, float], ...] = ()
    probe_total: float = 0.0
    total: float = 0.0
    exact: bool = False
    # True when the estimator's whole anchor subtree is replicated (a join
    # nested inside a broadcast build): every worker then observes the same
    # full streams, so ALL its statistics merge take-first, not by sum.
    stats_replicated: bool = False

    @property
    def key(self) -> tuple:
        """Identity of the serial estimator these statistics belong to."""
        return (self.kind, self.node_ids)


@dataclass(frozen=True, slots=True)
class ProgressDelta:
    """One worker's cumulative progress message.

    Deltas are *cumulative snapshots*, not increments: ``counters`` and
    ``totals`` map serial node ids to the worker's current ``K_i`` and
    local ``N̂_i``, and ``estimators`` carries full sufficient statistics.
    The coordinator keeps only the latest delta per worker (guarded by
    ``seq``), which makes the protocol idempotent and loss-tolerant — a
    dropped intermediate delta costs staleness, never correctness.
    """

    worker_id: int
    seq: int
    counters: dict[int, float] = field(default_factory=dict)
    totals: dict[int, float] = field(default_factory=dict)
    estimators: tuple[EstimatorDelta, ...] = ()
    done: bool = False
    degraded: bool = False
    degraded_reason: str | None = None


# -- merged estimator state --------------------------------------------------------


class MergedOnce:
    """Coordinator-side merged state of one ONCE join estimator."""

    __slots__ = ("node_id", "t", "sum_counts", "counts", "interval_sums",
                 "probe_total", "exact", "_replica_folded")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.t = 0
        self.sum_counts = 0
        self.counts: dict = {}
        self.interval_sums = (0, 0.0, 0.0)
        self.probe_total = 0.0
        self.exact = True  # AND-folded: vacuously true until a delta lands
        self._replica_folded = False

    def fold(self, delta: EstimatorDelta) -> None:
        if delta.stats_replicated:
            if self._replica_folded:
                return
            self._replica_folded = True
        self.t += delta.t
        self.sum_counts += delta.sums[0] if delta.sums else 0
        _fold_hist(self.counts, delta.hists[0], delta.replicated[0])
        if delta.interval_sums:
            c, sx, sxx = delta.interval_sums[0]
            mc, msx, msxx = self.interval_sums
            self.interval_sums = (mc + c, msx + sx, msxx + sxx)
        self.probe_total += delta.probe_total
        self.exact = self.exact and delta.exact

    def estimate(self) -> float:
        if self.exact:
            return float(self.sum_counts)
        if self.t == 0:
            return 0.0
        return self.sum_counts / self.t * max(self.probe_total, self.t)


class MergedChain:
    """Coordinator-side merged state of one hash-join chain estimator."""

    __slots__ = ("node_ids", "k", "t", "sums", "hists", "probe_total",
                 "interval_sums", "exact", "_replica_folded")

    def __init__(self, node_ids: tuple[int, ...]):
        self.node_ids = node_ids
        self.k = len(node_ids)
        self.t = 0
        self.sums = [0] * self.k
        self.hists: list[dict] = [{} for _ in range(self.k)]
        self.interval_sums = [(0, 0.0, 0.0)] * self.k
        self.probe_total = 0.0
        self.exact = True
        self._replica_folded = False

    def fold(self, delta: EstimatorDelta) -> None:
        if delta.stats_replicated:
            if self._replica_folded:
                return
            self._replica_folded = True
        self.t += delta.t
        for m in range(self.k):
            self.sums[m] += delta.sums[m]
            _fold_hist(self.hists[m], delta.hists[m], delta.replicated[m])
            if delta.interval_sums:
                c, sx, sxx = delta.interval_sums[m]
                mc, msx, msxx = self.interval_sums[m]
                self.interval_sums[m] = (mc + c, msx + sx, msxx + sxx)
        self.probe_total += delta.probe_total
        self.exact = self.exact and delta.exact

    def estimate_level(self, m: int) -> float:
        """Merged output-size estimate of chain join level ``m``."""
        if self.exact:
            return float(self.sums[m])
        if self.t == 0:
            return 0.0
        return self.sums[m] / self.t * max(self.probe_total, self.t)

    def estimate_for(self, node_id: int) -> float | None:
        for m, nid in enumerate(self.node_ids):
            if nid == node_id:
                return self.estimate_level(m)
        return None


class MergedGroup:
    """Coordinator-side merged state of one GEE/MLE group-count estimator.

    Group histograms always sum-merge (every aggregate-input tuple is
    observed on exactly one worker), so the merged frequency histogram is
    bit-identical to the serial one and the serial hybrid chooser (γ²
    against τ, then GEE or MLE) reruns over reconstructed merged state.
    Note the *global* distinct count this estimates is NOT the sum of the
    workers' partial-aggregate output sizes — a group key can appear in
    several partitions — which is why per-node work totals sum while this
    statistic merges.
    """

    __slots__ = ("node_id", "counts", "total", "exact")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.counts: dict = {}
        self.total = 0.0
        self.exact = True

    def fold(self, delta: EstimatorDelta) -> None:
        _fold_hist(self.counts, delta.hists[0], replicated=False)
        self.total += delta.total
        self.exact = self.exact and delta.exact

    @property
    def t(self) -> int:
        return sum(self.counts.values())

    def estimate(self) -> float:
        if self.exact:
            return float(len(self.counts))
        if not self.counts:
            return 0.0
        state = GroupFrequencyState()
        for value, weight in self.counts.items():
            state.observe(value, weight)
        total = max(self.total, float(state.t))
        if state.gamma_squared <= DEFAULT_TAU:
            return MLEEstimator(state).estimate(total)
        return GEEEstimator(state).estimate(total)


def _fold_hist(merged: dict, counts: dict, replicated: bool) -> None:
    if replicated:
        # Full copies on every worker: take the first, verify nothing on
        # later folds (copies are identical by construction).
        if not merged:
            merged.update(counts)
        return
    for key, count in counts.items():
        merged[key] = merged.get(key, 0) + count


_MERGED_TYPES = {"once": MergedOnce, "chain": MergedChain, "group": MergedGroup}


def merge_estimator_deltas(
    deltas_per_worker: dict[int, tuple[EstimatorDelta, ...]],
) -> dict[tuple, MergedOnce | MergedChain | MergedGroup]:
    """Fold every worker's latest estimator statistics into merged state.

    Returns ``{(kind, node_ids): merged}``. Workers that have not yet
    reported a given estimator simply contribute nothing; ``exact`` only
    survives if *every* reporting worker is exact (and the coordinator
    additionally requires all workers done before trusting exactness —
    see :class:`repro.parallel.monitor.PartitionedProgressMonitor`).
    """
    merged: dict[tuple, MergedOnce | MergedChain | MergedGroup] = {}
    for _worker_id, deltas in sorted(deltas_per_worker.items()):
        for delta in deltas:
            state = merged.get(delta.key)
            if state is None:
                cls = _MERGED_TYPES[delta.kind]
                arg = delta.node_ids if delta.kind == "chain" else delta.node_ids[0]
                state = cls(arg)
                merged[delta.key] = state
            state.fold(delta)
    return merged
