"""The fragment runner of ``repro.parallel``: run one shard, emit deltas.

One fragment owns its own ``TickBus``, ``ProgressMonitor`` (with the full
estimator stack attached to the fragment) and ``PlanCursor`` drain loop —
the serial execution machinery, unchanged, over one shard.
:func:`run_fragment` runs in the calling process and hands two things to
its caller as it goes:

``on_rows([tuple, ...])``
    A fetched batch of result rows (fragment output, pre-merge).
``on_delta(ProgressDelta)``
    Cumulative progress: per-operator ``K_i``/``N̂_i`` re-keyed to serial
    node ids, plus every estimator's sufficient statistics. The first
    fetch always emits one; the last one has ``done=True`` and is sent
    after the cursor closed, so all its estimators are exact.

A fragment that raises propagates to the caller (the coordinator fails the
run). Faults: :class:`WorkerTask` carries ``(seed, specs)`` and every
fragment builds its own ``FaultPlan`` from them — same schedule shape,
decorrelated per-fragment streams, deterministic firing per fragment loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.progress import ProgressMonitor
from repro.executor.engine import DEFAULT_BATCH_SIZE, PlanCursor, TickBus
from repro.executor.operators.base import Operator
from repro.faults.plan import FaultPlan, FaultSpec, TransientFault
from repro.parallel.delta import EstimatorDelta, ProgressDelta

__all__ = ["WorkerTask", "extract_delta", "run_fragment"]

# Mirrors the serial session's bounded transient-retry budget: a
# TransientFault at the cursor boundary is reissued, not fatal, until the
# budget runs out.
MAX_TRANSIENT_RETRIES = 5


@dataclass(frozen=True)
class WorkerTask:
    """Everything one fragment run needs."""

    worker_id: int
    fragment: Operator
    node_map: dict[int, int]
    broadcast_builds: frozenset[int] = frozenset()
    replicated_nodes: frozenset[int] = frozenset()
    mode: str = "once"
    tick_interval: int = 1000
    batch_size: int = DEFAULT_BATCH_SIZE
    # Minimum gnm ticks between two deltas (deltas carry full histograms,
    # so they are throttled, not per-batch).
    delta_every: int = 4096
    fault_seed: int = 0
    fault_specs: tuple[FaultSpec, ...] = field(default_factory=tuple)


def extract_delta(
    monitor: ProgressMonitor,
    task: WorkerTask,
    seq: int,
    done: bool,
) -> ProgressDelta:
    """Snapshot the fragment monitor into a cumulative wire delta.

    Everything is read under the monitor's sampling lock, so counters and
    estimator statistics form one consistent cut of the fragment's state.
    Fragment node ids translate to serial ids through ``task.node_map``;
    every attached estimator exports its own state, and its histograms get
    their merge-mode flags from the fragmentation plan (``broadcast_builds``
    → replicated build histogram, ``replicated_nodes`` → the whole
    estimator is a per-worker copy; an aggregate is never either).
    """
    broadcast = task.broadcast_builds
    replicated = task.replicated_nodes
    with monitor._lock:
        counters: dict[int, float] = {}
        totals: dict[int, float] = {}
        for frag_id, (k_i, total) in monitor.operator_totals().items():
            sid = task.node_map.get(frag_id)
            if sid is not None:
                counters[sid] = k_i
                totals[sid] = total
        manager = monitor.manager
        estimators: list[EstimatorDelta] = []
        for estimator, ops in manager.attached() if manager is not None else ():
            sids = tuple(task.node_map.get(op.node_id) for op in ops)
            if None in sids:
                continue
            estimators.append(
                EstimatorDelta(
                    sids,
                    estimator.export(),
                    replicated=tuple(
                        sid in broadcast or sid in replicated for sid in sids
                    ),
                    stats_replicated=sids[0] in replicated,
                )
            )
        degraded = manager is not None and manager.degraded
        reason = manager.demotions[-1][1] if degraded else None
    return ProgressDelta(
        worker_id=task.worker_id,
        seq=seq,
        counters=counters,
        totals=totals,
        estimators=tuple(estimators),
        done=done,
        degraded=degraded,
        degraded_reason=reason,
    )


def run_fragment(
    task: WorkerTask,
    on_rows: Callable[[list[tuple]], None],
    on_delta: Callable[[ProgressDelta], None],
) -> None:
    """Drain ``task.fragment`` in the calling process, handing fetched
    batches to ``on_rows`` and cumulative progress to ``on_delta``."""
    faults = (
        FaultPlan(task.fault_seed, task.fault_specs) if task.fault_specs else None
    )
    bus = TickBus(task.tick_interval)
    monitor = ProgressMonitor(
        task.fragment,
        mode=task.mode,
        bus=bus,
        resilient=True,
        faults=faults,
    )
    cursor = PlanCursor(task.fragment, bus, faults=faults)
    seq = 0
    last_count = 0
    retries_left = MAX_TRANSIENT_RETRIES
    cursor.open()
    while not cursor.exhausted:
        try:
            rows = cursor.fetch(task.batch_size)
        except TransientFault:
            # Same contract as the serial session: the transient boundary
            # fires before the pull enters the plan, so reissuing is sound.
            if retries_left <= 0:
                raise
            retries_left -= 1
            continue
        if rows:
            on_rows(rows)
        with bus.lock:
            # Uncontended in the single-threaded fragment loop; taken anyway
            # so the bus counter protocol stays machine-checkable.
            count = bus.count
        if seq == 0 or count - last_count >= task.delta_every:
            last_count = count
            seq += 1
            on_delta(extract_delta(monitor, task, seq, done=False))
    # Close before the final delta: closing marks every pipeline finished,
    # so the totals in the done delta are the exact K_i values.
    cursor.close()
    on_delta(extract_delta(monitor, task, seq + 1, done=True))
