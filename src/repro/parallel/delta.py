"""Progress-delta wire format and the merge algebra over estimator state.

Workers do not ship point estimates — they ship the *sufficient
statistics* their estimators accumulate (PF-OLA's observation: online
estimators parallelize exactly when their state is mergeable). Every
attached estimator ``export()``s its state
(:class:`~repro.core.accumulator.EstimatorExport`); the coordinator folds
the per-worker exports into one :class:`MergedEstimator` per serial
estimator and derives the global estimate from that:

* ONCE levels (a binary join is a chain of one) fold into the *same*
  :class:`~repro.core.accumulator.OnceAccumulator` the serial estimator
  owns: ``Σ Σc / Σ t × Σ|S|`` — the proper combined ratio estimator, not a
  sum of per-partition point estimates — which degenerates to the exact
  join size ``Σ Σc`` once every worker has finished its probe pass.
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

Probe-side statistics (``t``, ``Σc``, ``Σc²``, ``|S|``) always merge by
summation: probe streams are partitioned, never replicated, so each probe
tuple contributes on exactly one worker.

Deltas are plain frozen dataclasses of builtins: a fragment's message
never aliases its live estimator state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.accumulator import EstimatorExport, OnceAccumulator
from repro.core.distinct import HybridGroupCountEstimator

__all__ = [
    "EstimatorDelta",
    "MergedEstimator",
    "ProgressDelta",
    "merge_estimator_deltas",
]


@dataclass(frozen=True, slots=True)
class EstimatorDelta:
    """One estimator's exported state, re-keyed to serial node ids.

    ``node_ids`` holds the serial plan node ids ``state`` anchors to — a
    chain's joins bottom-up (one id for a binary join), the aggregate for
    a group estimator. ``replicated`` carries the merge-mode flag of each
    histogram in ``state.hists`` (group histograms are never replicated).
    """

    node_ids: tuple[int, ...]
    state: EstimatorExport
    replicated: tuple[bool, ...]
    # True when the estimator's whole anchor subtree is replicated (a join
    # nested inside a broadcast build): every worker then observes the same
    # full streams, so ALL its statistics merge take-first, not by sum.
    stats_replicated: bool = False

    @property
    def kind(self) -> str:
        return self.state.kind

    @property
    def key(self) -> tuple:
        """Identity of the serial estimator these statistics belong to."""
        return (self.state.kind, self.node_ids)


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


class MergedEstimator:
    """Coordinator-side fold of one serial estimator's per-worker exports.

    ``levels`` are the same accumulators a serial ONCE estimator owns, one
    per join of ``node_ids`` (none for a group estimator), fed by ``fold``;
    ``hists`` the merged histograms; ``total`` / ``exact`` the input
    stream's summed total and AND-folded exactness.
    """

    __slots__ = ("node_ids", "levels", "hists", "total", "exact", "_replica_folded")

    def __init__(self, first: EstimatorDelta):
        self.node_ids = first.node_ids
        self.levels = [OnceAccumulator.fold_target() for _ in first.state.levels]
        self.hists: list[dict] = [{} for _ in first.state.hists]
        self.total = 0.0
        self.exact = True  # AND-folded: vacuously true until a delta lands
        self._replica_folded = False

    def fold(self, delta: EstimatorDelta) -> None:
        if delta.stats_replicated:
            if self._replica_folded:
                return
            self._replica_folded = True
        state = delta.state
        for level, stats in zip(self.levels, state.levels):
            level.fold(stats)
        for merged, counts, replicated in zip(self.hists, state.hists, delta.replicated):
            _fold_hist(merged, counts, replicated)
        self.total += state.total
        self.exact = self.exact and state.exact

    def node_estimates(self) -> list[tuple[int, float]]:
        """``(serial node id, merged output-size estimate)`` per join.

        Empty for a group estimator: the *global* distinct count it
        estimates is NOT the sum of the workers' partial-aggregate output
        sizes — a group key can appear in several partitions — so the
        aggregate's work total stays the sum of the local totals while
        this statistic merges (:meth:`group_estimate`).
        """
        return [
            (nid, level.estimate()) for nid, level in zip(self.node_ids, self.levels)
        ]

    def group_estimate(self) -> float:
        """Merged group count of a group estimator's histogram.

        Group histograms always sum-merge (every aggregate-input tuple is
        observed on exactly one worker), so the merged frequency histogram
        is bit-identical to the serial one, and the answer is the serial
        hybrid estimator's (γ² against τ, then GEE or MLE) over it.
        """
        hybrid = HybridGroupCountEstimator(total=self.total)
        for value, weight in self.hists[0].items():
            hybrid.state.observe(value, weight)
        if self.exact:
            hybrid.finalize()
        return hybrid.estimate()


def _fold_hist(merged: dict, counts: dict, replicated: bool) -> None:
    if replicated:
        # Full copies on every worker: take the first, verify nothing on
        # later folds (copies are identical by construction).
        if not merged:
            merged.update(counts)
        return
    for key, count in counts.items():
        merged[key] = merged.get(key, 0) + count


def merge_estimator_deltas(
    deltas_per_worker: dict[int, tuple[EstimatorDelta, ...]],
) -> dict[tuple, MergedEstimator]:
    """Fold every worker's latest estimator statistics into merged state.

    Returns ``{(kind, node_ids): merged}``. Workers that have not yet
    reported a given estimator simply contribute nothing; ``exact`` only
    survives if *every* reporting worker is exact (and the coordinator
    additionally requires all workers done before trusting exactness —
    see :class:`repro.parallel.monitor.PartitionedProgressMonitor`).
    """
    merged: dict[tuple, MergedEstimator] = {}
    for _worker_id, deltas in sorted(deltas_per_worker.items()):
        for delta in deltas:
            state = merged.get(delta.key)
            if state is None:
                state = merged[delta.key] = MergedEstimator(delta)
            state.fold(delta)
    return merged
