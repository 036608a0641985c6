"""The coordinator: run every fragment in-process, merge the rows.

One :class:`Coordinator` drives one fragmented query to completion.
Fragments run one after another in the calling process — there are no
worker processes (docs/PARALLEL.md records why: P=2 never reached serial
speed) — so a run is deterministic. Each fragment is drained through a
bare :class:`~repro.executor.engine.PlanCursor`, with no bus and no
progress monitor, and the fragmentation plan's merge recipe turns the
concatenated fragment rows into the serial result. Per-operator counts
are each fragment's ``tuples_emitted``, summed onto serial node ids.

A fragment that raises fails the whole run with
:class:`ParallelExecutionError`; no partial rows are returned.

Lint scope: this module is *coordinator* code — it never drives a
``TickBus`` (no ``tick``/``tick_n``, no ``.count`` writes; machine-checked
by lint R001's coordinator-package rule).
"""

from __future__ import annotations

import time

from repro.executor.engine import DEFAULT_BATCH_SIZE, PlanCursor
from repro.faults.plan import FaultPlan, TransientFault
from repro.parallel.fragments import FragmentPlan

__all__ = ["Coordinator", "ParallelExecutionError", "ParallelResult"]

# Mirrors the serial session's bounded transient-retry budget: a
# TransientFault at the cursor boundary is reissued, not fatal, until the
# budget runs out.
MAX_TRANSIENT_RETRIES = 5


class ParallelExecutionError(RuntimeError):
    """A fragment of the partitioned run raised."""


class ParallelResult:
    """What a completed partitioned run produced."""

    __slots__ = (
        "rows",
        "row_count",
        "raw_row_count",
        "wall_time_s",
        "plan",
        "operator_counts",
    )

    def __init__(
        self,
        rows: list[tuple],
        raw_row_count: int,
        wall_time_s: float,
        plan: FragmentPlan,
        operator_counts: dict[int, int],
    ):
        self.rows = rows
        self.row_count = len(rows)
        self.raw_row_count = raw_row_count
        self.wall_time_s = wall_time_s
        self.plan = plan
        self.operator_counts = operator_counts


class Coordinator:
    """Drive one fragmented plan to completion, fragment by fragment."""

    def __init__(self, plan: FragmentPlan, faults: FaultPlan | None = None):
        self.plan = plan
        self.faults = faults

    def _run_fragment(self, p: int, rows: list[tuple], counts: dict[int, int]) -> None:
        """Drain fragment ``p`` into ``rows`` and add its per-operator
        counts, re-keyed to serial node ids, into ``counts``."""
        faults = None
        if self.faults is not None and self.faults.specs:
            # Per-fragment fault streams: same schedule shape, decorrelated
            # opportunity draws, reproducible from (seed, p).
            faults = FaultPlan(self.faults.seed + p, self.faults.specs)
        cursor = PlanCursor(self.plan.build_fragment(p), faults=faults)
        retries_left = MAX_TRANSIENT_RETRIES
        cursor.open()
        try:
            while not cursor.exhausted:
                try:
                    rows.extend(cursor.fetch(DEFAULT_BATCH_SIZE))
                except TransientFault:
                    # Same contract as the serial session: the transient
                    # boundary fires before the pull enters the plan, so
                    # reissuing is sound.
                    if retries_left <= 0:
                        raise
                    retries_left -= 1
        finally:
            cursor.close()
        node_map = self.plan.node_map
        for op in cursor.operators:
            sid = node_map[op.node_id]
            counts[sid] = counts.get(sid, 0) + op.tuples_emitted

    def run(self) -> ParallelResult:
        """Run every fragment, sum its counts, merge the rows."""
        started = time.perf_counter()
        raw: list[tuple] = []
        counts: dict[int, int] = {}
        for p in range(self.plan.num_partitions):
            try:
                self._run_fragment(p, raw, counts)
            except Exception as exc:  # noqa: BLE001 - any fragment failure fails the run
                raise ParallelExecutionError(
                    f"worker {p}: {type(exc).__name__}: {exc}"
                ) from exc
        merged = self.plan.merge_rows(raw)
        wall = time.perf_counter() - started
        return ParallelResult(merged, len(raw), wall, self.plan, counts)
