"""The coordinator: run every fragment in-process, merge rows + progress.

One :class:`Coordinator` drives one fragmented query to completion.
Fragments run one after another in the calling process — there are no
worker processes (docs/PARALLEL.md records why: P=2 never reached serial
speed) — so a run is deterministic and exists to exercise the merge
algebra: every fragment's cumulative deltas fold into one
:class:`~repro.parallel.monitor.PartitionedProgressMonitor`, and the
fragmentation plan's merge recipe turns the concatenated fragment rows
into the serial result.

A fragment that raises fails the whole run with
:class:`ParallelExecutionError`; no partial rows are returned.

Lint scope: this module is *coordinator* code — it never drives a
``TickBus`` (no ``tick``/``tick_n``, no ``.count`` writes; machine-checked
by lint R001's coordinator-package rule). All execution ticking happens
inside the fragments' own cursors.
"""

from __future__ import annotations

import time

from repro.executor.engine import DEFAULT_BATCH_SIZE
from repro.faults.plan import FaultPlan
from repro.parallel.fragments import FragmentPlan
from repro.parallel.monitor import PartitionedProgressMonitor
from repro.parallel.worker import WorkerTask, run_fragment

__all__ = ["Coordinator", "ParallelExecutionError", "ParallelResult"]


class ParallelExecutionError(RuntimeError):
    """A fragment of the partitioned run raised."""


class ParallelResult:
    """What a completed partitioned run produced."""

    __slots__ = (
        "rows",
        "row_count",
        "raw_row_count",
        "wall_time_s",
        "monitor",
        "plan",
        "operator_counts",
        "degraded",
        "degraded_reason",
    )

    def __init__(
        self,
        rows: list[tuple],
        raw_row_count: int,
        wall_time_s: float,
        monitor: PartitionedProgressMonitor,
        plan: FragmentPlan,
    ):
        self.rows = rows
        self.row_count = len(rows)
        self.raw_row_count = raw_row_count
        self.wall_time_s = wall_time_s
        self.monitor = monitor
        self.plan = plan
        snap = monitor.snapshot()
        self.degraded = snap.degraded
        self.degraded_reason = snap.degraded_reason
        self.operator_counts = monitor.merged_counters()


class Coordinator:
    """Drive one fragmented plan to completion, fragment by fragment."""

    def __init__(
        self,
        plan: FragmentPlan,
        mode: str = "once",
        tick_interval: int = 1000,
        batch_size: int = DEFAULT_BATCH_SIZE,
        delta_every: int = 4096,
        faults: FaultPlan | None = None,
    ):
        self.plan = plan
        self.mode = mode
        self.tick_interval = tick_interval
        self.batch_size = batch_size
        self.delta_every = delta_every
        self.faults = faults
        self.monitor = PartitionedProgressMonitor(plan.num_partitions)

    def _task(self, worker_id: int) -> WorkerTask:
        faults = self.faults
        return WorkerTask(
            worker_id=worker_id,
            fragment=self.plan.build_fragment(worker_id),
            node_map=self.plan.node_map,
            broadcast_builds=self.plan.broadcast_builds,
            replicated_nodes=self.plan.replicated_nodes,
            mode=self.mode,
            tick_interval=self.tick_interval,
            batch_size=self.batch_size,
            delta_every=self.delta_every,
            # Per-fragment fault streams: same schedule shape, decorrelated
            # opportunity draws, reproducible from (seed, worker_id).
            fault_seed=(faults.seed + worker_id) if faults is not None else 0,
            fault_specs=faults.specs if faults is not None else (),
        )

    def run(self) -> ParallelResult:
        """Run every fragment, fold its deltas, merge the rows."""
        started = time.perf_counter()
        raw: list[tuple] = []
        for worker_id in range(self.plan.num_partitions):
            try:
                run_fragment(self._task(worker_id), raw.extend, self.monitor.observe)
            except Exception as exc:  # noqa: BLE001 - any fragment failure fails the run
                raise ParallelExecutionError(
                    f"worker {worker_id}: {type(exc).__name__}: {exc}"
                ) from exc
        merged = self.plan.merge_rows(raw)
        wall = time.perf_counter() - started
        return ParallelResult(merged, len(raw), wall, self.monitor, self.plan)
