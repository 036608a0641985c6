"""Coordinator-side merged progress: ``C = ΣC_p``, ``T̂`` from merged state.

:class:`PartitionedProgressMonitor` is the distributed analogue of
:class:`~repro.core.progress.ProgressMonitor`: it never touches a live
plan, it folds the workers' cumulative :class:`~repro.parallel.delta.
ProgressDelta` messages. Three merge rules produce the global snapshot:

* **work done** — per-node ``K_i`` counters sum across workers (every
  getnext happened on exactly one worker; replicated build subtrees run
  on every worker, and that really is work done P times).
* **work total** — per-node local totals sum too (each worker's ``N̂_i``
  covers its own shard's share of node ``i``'s work) — *except* join
  nodes carrying ONCE estimators, whose summed point estimates are
  replaced by the estimate derived from *merged* sufficient statistics
  (``Σ Σc / Σ t × Σ|S|``). The merged ratio estimator is the robust
  combination (cf. König et al.) and collapses to the exact join size
  ``Σ Σc`` once every worker finishes its probe pass.
* **monotonicity** — ``work_done`` is monotone by construction (per-worker
  ``seq`` guards + monotone counters); the reported progress fraction is
  additionally high-watered, so total refinements can never make the bar
  move backwards. When every worker is done the snapshot pins
  ``total = done`` — final progress is exactly 1.0.

Group (GEE/MLE) statistics merge too — histogram counts sum, the hybrid
chooser reruns over merged state — but feed the *global* distinct-count
statistic (:meth:`merged_estimators`), not the per-node totals: a group
key may occur in several partitions, so the partial-aggregate work total
is the sum of local group counts, which is exactly what summing local
totals already yields.
"""

from __future__ import annotations

import threading
import time

from repro.common.locks import acquires, guarded_by
from repro.core.progress import ProgressSnapshot
from repro.parallel.delta import (
    MergedEstimator,
    ProgressDelta,
    merge_estimator_deltas,
)

__all__ = ["PartitionedProgressMonitor"]


class PartitionedProgressMonitor:
    """Fold per-worker deltas into one monotone global progress view."""

    # Lock discipline (machine-checked by repro.analysis.concurrency):
    # deltas are folded by whichever thread runs the fragments while any
    # other thread may read the merged view, so every piece of merge state
    # lives under one private mutex.
    _guarded_by_ = {
        "_deltas": "_lock",
        "_hw_ratio": "_lock",
        "_degraded": "_lock",
        "_degraded_reason": "_lock",
        "snapshots": "_lock",
    }

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self._lock = threading.Lock()
        self._deltas: dict[int, ProgressDelta] = {}
        self._hw_ratio = 0.0
        self._degraded = False
        self._degraded_reason: str | None = None
        self._started = time.perf_counter()
        self.snapshots: list[ProgressSnapshot] = []

    # -- ingestion ---------------------------------------------------------------

    @acquires("_lock")
    def observe(self, delta: ProgressDelta) -> None:
        """Fold in one fragment delta and record the merged snapshot.

        Stale deltas (``seq`` not newer than the worker's last) are
        dropped — the protocol is cumulative, so only the latest message
        per worker matters. Every accepted delta appends one entry to
        :attr:`snapshots`, as ``ProgressMonitor`` does per bus tick."""
        with self._lock:
            current = self._deltas.get(delta.worker_id)
            if current is not None and delta.seq <= current.seq:
                return
            self._deltas[delta.worker_id] = delta
            if delta.degraded and not self._degraded:
                self._degraded = True
                self._degraded_reason = delta.degraded_reason
            snap = self._merged_locked(len(self.snapshots))
            self._hw_ratio = max(self._hw_ratio, snap.progress)
            self.snapshots.append(snap)

    # -- observation -------------------------------------------------------------

    @property
    @acquires("_lock")
    def all_done(self) -> bool:
        with self._lock:
            return self._all_done_locked()

    @guarded_by("_lock")
    def _all_done_locked(self) -> bool:
        return len(self._deltas) == self.num_workers and all(
            d.done for d in self._deltas.values()
        )

    @acquires("_lock")
    def merged_estimators(self) -> dict[tuple, MergedEstimator]:
        """Merged estimator state keyed ``(kind, serial node ids)``."""
        with self._lock:
            return merge_estimator_deltas(
                {w: d.estimators for w, d in self._deltas.items()}
            )

    @acquires("_lock")
    def merged_counters(self) -> dict[int, int]:
        """Global per-node ``K_i``: counters summed across workers."""
        with self._lock:
            counts: dict[int, int] = {}
            for delta in self._deltas.values():
                for nid, k_i in delta.counters.items():
                    counts[nid] = counts.get(nid, 0) + int(k_i)
            return counts

    @acquires("_lock")
    def true_total(self) -> float:
        """``ΣΣ K_i``: the exact T(Q) once every worker is done."""
        with self._lock:
            return sum(
                k for d in self._deltas.values() for k in d.counters.values()
            )

    @acquires("_lock")
    def snapshot(self, tick: int = -1) -> ProgressSnapshot:
        """The merged global view as of the last accepted delta.

        Idempotent at a given ``t``: it neither records history nor moves
        the high-water mark (:meth:`observe` does both), so any thread may
        call it."""
        with self._lock:
            return self._merged_locked(tick)

    @guarded_by("_lock")
    def _merged_locked(self, tick: int) -> ProgressSnapshot:
        done_by_node: dict[int, float] = {}
        total_by_node: dict[int, float] = {}
        for delta in self._deltas.values():
            for nid, k_i in delta.counters.items():
                done_by_node[nid] = done_by_node.get(nid, 0.0) + k_i
            for nid, total in delta.totals.items():
                total_by_node[nid] = total_by_node.get(nid, 0.0) + total
        merged = merge_estimator_deltas(
            {w: d.estimators for w, d in self._deltas.items()}
        )
        for state in merged.values():
            # Joins only: a group estimator's node total stays summed (see
            # module doc).
            for nid, estimate in state.node_estimates():
                total_by_node[nid] = max(estimate, done_by_node.get(nid, 0.0))
        work_done = sum(done_by_node.values())
        if self._all_done_locked():
            work_total = work_done
        else:
            work_total = max(sum(total_by_node.values()), work_done)
            if work_done > 0 and work_done / work_total < self._hw_ratio:
                # A total refinement shrank the fraction: report the
                # high-water ratio by inflating the total, never move back.
                work_total = work_done / self._hw_ratio
        return ProgressSnapshot(
            tick=tick,
            timestamp=time.perf_counter() - self._started,
            work_done=work_done,
            work_total_estimate=work_total,
            pipeline_states={},
            degraded=self._degraded,
            degraded_reason=self._degraded_reason,
        )
