"""Statistics feedback: finished runs teach the optimizer.

On FINISHED, the integration layer (engine / server session) calls
:func:`record_run`: the plan is fingerprinted, its progress curve and
per-subtree final cardinalities are captured, and one
:class:`~repro.robust.history.RunRecord` is appended to the store.
:func:`observed_view` then projects the whole history into an
:class:`~repro.storage.statistics.ObservedCardinalities` overlay that
:mod:`repro.optimizer.cardinality` consults before its model — observed
counts beat modeled counts for plans the system has actually run, in the
spirit of workload-driven estimation (*Is it Bigger than a Breadbox*).

Staleness is bounded twice (see ``ObservedCardinalities``): an observation
older than ``max_age_runs`` appends, or one whose base tables have
drifted more than ``max_drift`` in row count since observation, falls
back to the model.

This module does no file I/O (lint rule R008): persistence belongs to
:class:`~repro.robust.store.HistoryStore` alone.
"""

from __future__ import annotations

from repro.robust.history import RunRecord, base_table_rows, fingerprint_plan
from repro.robust.store import HistoryStore, HistoryWriteError
from repro.storage.statistics import ObservedCardinalities

__all__ = [
    "build_record",
    "observed_view",
    "record_run",
]

#: Progress-curve points kept per record — enough to plot, cheap to store.
MAX_CURVE_POINTS = 64


def _downsample(points: list[tuple[float, float]]) -> list[list[float]]:
    if len(points) <= MAX_CURVE_POINTS:
        return [[float(a), float(b)] for a, b in points]
    step = len(points) / MAX_CURVE_POINTS
    picked = [points[int(i * step)] for i in range(MAX_CURVE_POINTS)]
    picked[-1] = points[-1]
    return [[float(a), float(b)] for a, b in picked]


def build_record(monitor, wall_time_s: float, row_count: int) -> RunRecord:
    """A :class:`RunRecord` for the finished run ``monitor`` watched.

    The plan is fingerprinted here, after the run: node ids are pre-order
    positions either way (``validate_plan`` numbers them, as every
    ``PlanCursor`` run guarantees), so each operator's final ``K_i`` is
    keyed by the digest of the subtree it heads.
    """
    fingerprint = fingerprint_plan(monitor.root)
    node_cards: dict[str, float] = {}
    for pipeline in monitor.pipelines:
        for op in pipeline.operators:
            digest = fingerprint.nodes.get(op.node_id)
            if digest is not None:
                node_cards[digest] = float(op.tuples_emitted)
    return RunRecord(
        fingerprint=fingerprint.digest,
        signature=fingerprint.signature,
        mode=monitor.mode,
        wall_time_s=float(wall_time_s),
        true_total=monitor.true_total(),
        row_count=int(row_count),
        curve=_downsample(monitor.progress_curve()),
        node_cards=node_cards,
        table_rows=base_table_rows(monitor.root),
    )


def record_run(
    monitor,
    store: HistoryStore,
    wall_time_s: float,
    row_count: int,
    observed: ObservedCardinalities | None = None,
) -> str | None:
    """Persist and (optionally) feed back one finished run.

    Returns None once the record is stored, or why the store dropped it
    (a write fault or I/O error: it degrades this run's history, never the
    query, so nothing raises). When ``observed`` is given, a stored run's
    per-subtree cardinalities are folded into it so the next compilation
    sees them immediately, without a store round-trip.
    """
    try:
        record = store.append_run(build_record(monitor, wall_time_s, row_count))
    except HistoryWriteError as exc:
        return str(exc)
    if observed is not None:
        observed.absorb(record.node_cards, record.table_rows, record.seq)
    return None


def observed_view(store: HistoryStore, **kwargs) -> ObservedCardinalities:
    """Project a history store into an optimizer cardinality overlay.

    Records replay oldest-to-newest, so the newest observation of each
    subtree wins; ``kwargs`` forward to :class:`ObservedCardinalities`
    (``max_drift``, ``max_age_runs``).
    """
    observed = ObservedCardinalities(**kwargs)
    for record in store.records():
        observed.absorb(record.node_cards, record.table_rows, record.seq)
    return observed
