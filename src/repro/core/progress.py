"""The getnext-model progress monitor (Sections 3 and 4.4).

Progress of query Q is ``gnm = C(Q) / T(Q)``: getnext calls made so far over
getnext calls the query will make in total. ``C(Q)`` is observed exactly —
it is the sum of tuples emitted by all operators. ``T(Q)`` must be
estimated, and the whole framework exists to refine that estimate online:

* **finished pipelines** — ``T(p)`` is known exactly (it already happened);
* **the currently executing pipeline** — refined by the attached estimators
  (ONCE chains, merge-join ONCE, GEE/MLE for aggregates) with the
  driver-node estimator as fallback, or purely by dne / the byte model when
  the monitor runs in a baseline mode;
* **pipelines yet to begin** — optimizer estimates clamped into the
  upper/lower bounds of :class:`~repro.optimizer.bounds.CardinalityBounds`,
  which tighten as upstream cardinalities become exact (the treatment of
  future pipelines in Chaudhuri et al. [9]).

The monitor subscribes to the executor's :class:`TickBus`, so snapshots are
taken *during* blocking phases too — exactly when a progress bar is most
needed. After the run, :meth:`ratio_errors` replays the snapshots against
the now-known true total, producing the paper's ratio-error curves
(R = estimated T' / true T, equivalently actual/estimated progress).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.common.locks import acquires, guarded_by, holds_lock
from repro.core.accumulator import OnceAccumulator
from repro.core.dne import DriverNodeEstimator
from repro.core.manager import EstimationManager
from repro.executor.engine import TickBus
from repro.executor.operators.base import Operator
from repro.executor.pipeline import Pipeline, decompose_pipelines
from repro.faults.plan import SITE_ESTIMATOR_HOOK, FaultPlan
from repro.optimizer.bounds import CardinalityBounds
from repro.storage.catalog import Catalog

__all__ = ["ProgressMonitor", "ProgressSnapshot"]

MODES = ("once", "dne", "byte")


@dataclass(slots=True)
class ProgressSnapshot:
    """One observation of query progress.

    ``degraded`` is True once any estimator has been demoted at runtime by
    the graceful-degradation guards (the query keeps running on the dne
    fallback); ``degraded_reason`` carries the most recent demotion reason.

    Slotted: monitors allocate one per tick and sessions retain the full
    history for ratio-error replay, so the per-instance ``__dict__`` is
    pure overhead on the hottest allocation in the serving path.
    """

    tick: int
    timestamp: float
    work_done: float
    work_total_estimate: float
    pipeline_states: dict[int, str] = field(default_factory=dict)
    degraded: bool = False
    degraded_reason: str | None = None

    @property
    def progress(self) -> float:
        if self.work_total_estimate <= 0:
            return 0.0
        return min(self.work_done / self.work_total_estimate, 1.0)


class ProgressMonitor:
    """Online gnm progress estimation for one plan.

    Parameters
    ----------
    root:
        The physical plan. Operators should carry optimizer estimates
        (``annotate_plan``); pass ``catalog`` to have the monitor annotate.
    mode:
        ``"once"`` — this paper's framework (with dne fallback for
        operators without a preprocessing pass);
        ``"dne"`` / ``"byte"`` — the baselines.
    bus:
        When given, the monitor subscribes and records a snapshot per bus
        callback; otherwise call :meth:`snapshot` manually.
    resilient:
        Harden the estimator hooks (``"once"`` mode only): a hook that
        raises demotes its estimator to the dne fallback and flags the
        snapshots ``degraded`` instead of failing the query. Off by
        default so the bare monitor keeps its measured overhead profile;
        the server's sessions turn it on.
    faults:
        Optional :class:`~repro.faults.FaultPlan` arming the
        ``estimator.hook`` injection site (hooks are wrapped even when
        ``resilient`` is False, so the chaos meta-test can prove a missing
        fallback fails the query).
    """

    # Lock discipline: the snapshot list is appended from bus callbacks and
    # read by the post-run analysis helpers; both sides take the sampling
    # lock, so replay never observes a half-appended list.
    _guarded_by_ = {"snapshots": "_lock"}

    def __init__(
        self,
        root: Operator,
        mode: str = "once",
        catalog: Catalog | None = None,
        bus: TickBus | None = None,
        resilient: bool = False,
        faults: FaultPlan | None = None,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.root = root
        self.mode = mode
        if catalog is not None:
            from repro.optimizer.cardinality import annotate_plan

            annotate_plan(root, catalog)
        self.pipelines: list[Pipeline] = decompose_pipelines(root)
        self.bounds = CardinalityBounds(root)
        self.manager: EstimationManager | None = (
            EstimationManager(root) if mode == "once" else None
        )
        # Join accumulators yet to publish a build maximum, and finished
        # pipelines' K_i: neither can change back.
        registry = self.manager.registry.values() if self.manager else ()
        self._awaiting = [
            e.source for e in registry if isinstance(e.source, OnceAccumulator)
        ]
        self._finished: dict[int, list[int]] = {}
        self.bounds.refine()
        if self.manager is not None:
            wants_hook_faults = faults is not None and faults.has_site(
                SITE_ESTIMATOR_HOOK
            )
            if resilient or wants_hook_faults:
                self.manager.harden(
                    faults=faults if wants_hook_faults else None,
                    demote=resilient,
                )
        self._dne = {p.pipeline_id: DriverNodeEstimator(p) for p in self.pipelines}
        self.snapshots: list[ProgressSnapshot] = []
        self._started = time.perf_counter()
        # Sampling lock: shared with the execution driver through the bus
        # (PlanCursor/ExecutionEngine hold ``bus.lock`` across each pull),
        # so snapshot() is safe to call from a non-executing thread — it
        # serializes against both concurrent snapshots and the estimator
        # mutations that happen inside pulls. Reentrant, because bus
        # callbacks snapshot from inside a pull that already holds it.
        if bus is not None:
            self._lock: threading.RLock = bus.lock
        else:
            # Bus-less monitors are driven manually from a single thread; a
            # private RLock keeps snapshot() uniform without a TickBus.
            self._lock = threading.RLock()  # noqa: R006
        if bus is not None:
            bus.subscribe(self._on_tick)

    # -- sampling ----------------------------------------------------------------

    @holds_lock("_lock")
    def _on_tick(self, count: int) -> None:
        # Bus callbacks only ever fire from inside a pull that owns the
        # sampling lock, so appending here is race-free by construction.
        self.snapshots.append(self.snapshot(count))

    @acquires("_lock")
    def snapshot(self, tick: int = -1) -> ProgressSnapshot:
        """Record current (C(Q), T̂(Q)) and per-pipeline states.

        Thread-safe: may be called from a thread that is not executing the
        plan. Successive snapshots (from any mix of threads) observe
        non-decreasing ``work_done``, because the sampling lock serializes
        them and every ``tuples_emitted`` counter is monotone.
        """
        with self._lock:
            self.refresh_bounds()
            work_done = 0.0
            work_total = 0.0
            states: dict[int, str] = {}
            for pipeline in self.pipelines:
                pid = pipeline.pipeline_id
                status = self._status(pipeline)
                states[pid] = status
                if status == "finished":
                    # Every mode's N_i of a finished operator is its K_i (an
                    # int below 2**53: adding it adds float(K_i) exactly).
                    for k_i in self._finished[pid]:
                        work_done += k_i
                        work_total += k_i
                    continue
                # N_d: one number per pipeline, read once and shared by every
                # operator's dne / byte estimate (None while not executing).
                total = self._dne[pid].driver_total() if status == "current" else None
                for op in pipeline.operators:
                    work_done += float(op.tuples_emitted)
                    work_total += self._total_for_mode(op, pipeline, status, total)
            degraded = self.manager is not None and self.manager.degraded
            return ProgressSnapshot(
                tick=tick,
                timestamp=time.perf_counter() - self._started,
                work_done=work_done,
                work_total_estimate=max(work_total, work_done),
                pipeline_states=states,
                degraded=degraded,
                degraded_reason=self.manager.demotions[-1][1] if degraded else None,
            )

    @guarded_by("_lock")
    def refresh_bounds(self) -> None:
        """Re-propagate the bounds when a join published a build-side
        maximum multiplicity. That is the only input of ``refine`` that
        moves during a run: nothing here calls ``bounds.set_known`` /
        ``set_estimate``, and a caller that does must ``bounds.refine``
        itself — this check would not see it. Only joins still in the
        registry lend their maximum: a demoted join's bounds nothing."""
        still = [acc for acc in self._awaiting if acc.max_multiplicity is None]
        if len(still) < len(self._awaiting):
            self.bounds.refine(
                {
                    op_id: e.source.max_multiplicity
                    for op_id, e in self.manager.registry.items()
                    if isinstance(e.source, OnceAccumulator)
                    and e.source.max_multiplicity is not None
                }
            )
            self._awaiting = still

    # -- estimation dispatch ----------------------------------------------------------

    def _status(self, pipeline: Pipeline) -> str:
        pid = pipeline.pipeline_id
        if pid not in self._finished and pipeline.is_finished:
            self._finished[pid] = [op.tuples_emitted for op in pipeline.operators]
        if pid in self._finished:
            return "finished"
        if pipeline.has_started:
            return "current"
        return "future"

    def _total_for_mode(
        self, op: Operator, pipeline: Pipeline, status: str, total: float | None
    ) -> float:
        """Estimated N_i (total getnext calls) of one operator under the
        monitor's mode; ``total`` is its pipeline's driver total, read once
        per snapshot (None unless the pipeline is executing).

        Finished/exhausted and future operators do not depend on the mode;
        only the currently executing pipeline's dispatch differs.
        """
        k_i = float(op.tuples_emitted)
        if status == "finished" or op.is_exhausted:
            return k_i
        if status == "future":
            return max(self.bounds.estimate_of(op), k_i)
        # Currently executing pipeline.
        dne = self._dne[pipeline.pipeline_id]
        if self.mode == "once":
            entry = self.manager.registry.get(id(op))
            if entry is not None and entry.source.started:
                return max(entry.source.estimate(), k_i)
            # Operators without estimators — or whose estimator has not
            # begun observing — fall back to dne (Section 4.4).
        elif self.mode == "byte":
            return max(dne.byte_estimate_for(op, total), k_i)
        return max(dne.estimate_for(op, total), k_i)

    # -- post-run analysis -------------------------------------------------------------

    @acquires("_lock")
    def true_total(self) -> float:
        """T(Q): only meaningful after the query finished.

        Takes the sampling lock so pinning a finished session's total from
        a snapshot thread (``QuerySession.snapshot``) reads a consistent
        counter sum even while sibling plans on the same bus are still
        executing.
        """
        with self._lock:
            return float(
                sum(op.tuples_emitted for p in self.pipelines for op in p.operators)
            )

    @acquires("_lock")
    def ratio_errors(self) -> list[tuple[float, float]]:
        """``(actual progress, ratio error R)`` per snapshot.

        R = T'(Q)/T(Q) = actual progress / estimated progress; R = 1 is a
        perfect progress estimate (paper, Section 5.1).
        """
        with self._lock:
            true_total = self.true_total()
            if true_total <= 0:
                return []
            out = []
            for snap in self.snapshots:
                actual = snap.work_done / true_total
                ratio = snap.work_total_estimate / true_total
                out.append((actual, ratio))
            return out

    @acquires("_lock")
    def progress_curve(self) -> list[tuple[float, float]]:
        """``(actual progress, estimated progress)`` per snapshot."""
        with self._lock:
            true_total = self.true_total()
            if true_total <= 0:
                return []
            return [
                (snap.work_done / true_total, snap.progress)
                for snap in self.snapshots
            ]
