"""Execution driver.

:class:`ExecutionEngine` pulls the plan root to exhaustion, counting rows
and wall time. A :class:`TickBus` — shared by every operator in the tree —
lets observers (the progress monitor) sample execution state at a bounded
frequency *during* blocking phases, when no rows surface at the root for
long stretches; this plays the role of the paper's modification to
"the central control function for query execution in PostgreSQL, which acts
like a wrapper for all operators".
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ExecutorError
from repro.common.locks import acquires, holds_lock
from repro.executor.operators.base import Operator
from repro.executor.plan import validate_plan
from repro.faults.plan import SHORT_READ, SITE_CURSOR_FETCH, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robust.store import HistoryStore

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ExecutionEngine",
    "ExecutionResult",
    "PlanCursor",
    "TickBus",
]

#: Rows per pull when the caller names no size and no bus asks for finer.
DEFAULT_BATCH_SIZE = 1024


class TickBus:
    """A shared work counter with bounded-frequency callbacks.

    Operators report units of internal work (input rows consumed in a
    blocking phase, output rows emitted) through :meth:`tick_n`, once per
    batch. Whenever the count crosses a multiple of ``interval``, the bus
    invokes its callbacks — frequent enough for smooth progress curves.

    The bus also carries the plan's sampling lock (:attr:`lock`): the
    execution driver holds it while pulling the plan, and any thread that
    wants a consistent read of executor/estimator state (the progress
    monitor's :meth:`~repro.core.progress.ProgressMonitor.snapshot`)
    acquires it first. The lock is reentrant, so callbacks fired from
    inside a pull — which already holds the lock — may snapshot freely.
    Subscribe/unsubscribe are safe from any thread; callbacks are iterated
    over an immutable copy so a watcher detaching mid-fire is harmless.
    """

    __slots__ = ("count", "interval", "callbacks", "lock")

    # Lock discipline (machine-checked by repro.analysis.concurrency):
    # ``lock`` is the plan-wide *critical* sampling lock — nothing may block
    # while holding it (X005). ``count`` is read and written only under it;
    # ``callbacks`` holds an immutable tuple that is swapped under the lock
    # and may be read lock-free (the immutable-snapshot pattern).
    _critical_locks_ = ("lock",)
    _guarded_by_ = {"count": "lock"}
    _write_guarded_by_ = {"callbacks": "lock"}

    def __init__(self, interval: int = 1000):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.count = 0
        self.interval = interval
        self.callbacks: tuple[Callable[[int], None], ...] = ()
        self.lock = threading.RLock()

    @holds_lock("lock")
    def tick(self) -> None:
        self.count += 1
        if self.count % self.interval == 0:
            for cb in self.callbacks:
                cb(self.count)

    @holds_lock("lock")
    def tick_n(self, k: int) -> None:
        """Advance the counter by ``k`` units in one call.

        The count ends up exactly where ``k`` :meth:`tick` calls would
        leave it, and callbacks fire **once** when the jump crosses one or
        more interval boundaries — not ``k // interval`` times — so a big
        batch never floods observers.
        """
        if k <= 0:
            return
        boundary = self.count // self.interval
        self.count += k
        if self.count // self.interval != boundary:
            for cb in self.callbacks:
                cb(self.count)

    @acquires("lock")
    def subscribe(self, callback: Callable[[int], None]) -> None:
        with self.lock:
            self.callbacks = (*self.callbacks, callback)

    @acquires("lock")
    def unsubscribe(self, callback: Callable[[int], None]) -> None:
        """Detach ``callback``; unknown callbacks are ignored.

        Watchers that come and go (a dropped ``watch`` connection, a
        finished dashboard) must detach or their callbacks leak — the bus
        would keep invoking them for the lifetime of the plan.
        """
        with self.lock:
            self.callbacks = tuple(
                cb for cb in self.callbacks if cb is not callback
            )


class PlanCursor:
    """The resumable pull loop: open once, fetch batches, close.

    This is the single place the repository drains a plan from.
    :class:`ExecutionEngine` wraps it for run-to-completion semantics, and
    the server's :class:`~repro.server.session.QuerySession` steps it one
    quantum at a time, suspending between quanta — which is what makes a
    query *schedulable*. Each :meth:`fetch` holds the bus's sampling lock
    (when a bus is attached) for the duration of the pull, so concurrent
    readers never observe half-updated estimator state.

    Parameters
    ----------
    root:
        Plan root. Validated, and node ids assigned.
    bus:
        Optional tick bus; attached to the subtree and ticked once per
        fetched batch via :meth:`TickBus.tick_n`.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; installed on the subtree
        (arming ``operator.pull`` / ``scan.read``) and probed at the
        ``cursor.fetch`` site before each pull.
    """

    def __init__(
        self,
        root: Operator,
        bus: TickBus | None = None,
        faults: FaultPlan | None = None,
    ):
        self.root = root
        self.bus = bus
        self.faults = faults
        self.operators = validate_plan(root)
        if bus is not None:
            root.attach_bus(bus)
        if faults is not None:
            root.attach_faults(faults)
        self.rows_pulled = 0
        self._opened = False
        self._closed = False

    @property
    def opened(self) -> bool:
        return self._opened

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def exhausted(self) -> bool:
        """True once the root has produced its last row (sticky)."""
        return self.root.is_exhausted

    def open(self) -> None:
        if self._opened:
            raise ExecutorError("PlanCursor.open() called twice")
        self._opened = True
        self.root.open()

    @acquires("bus.lock")
    def fetch(self, max_rows: int) -> list[tuple]:
        """Pull up to ``max_rows`` rows; ``[]`` means the plan is exhausted.

        A short non-empty batch does *not* imply exhaustion (same contract
        as :meth:`Operator.next_batch`). The pull — including any blocking
        phase it triggers — runs under the bus lock, so it is safe against
        concurrent :meth:`ProgressMonitor.snapshot` calls.
        """
        if not self._opened or self._closed:
            raise ExecutorError("PlanCursor.fetch() outside open/close window")
        if not self.root.fetch_size:
            # The first request sizes every blocking input pass of the
            # plan (Operator._drain), before a Limit or a fault shrinks it.
            for op in self.operators:
                op.fetch_size = max_rows
        if self.faults is not None:
            # The one *retryable* boundary: fired before the bus lock is
            # taken and before any operator runs, so nothing is mid-flight
            # when a TransientFault unwinds — the caller may simply call
            # fetch() again. (Also keeps injected stalls outside the
            # critical sampling lock.)
            spec = self.faults.fire(SITE_CURSOR_FETCH, detail=self.root.op_name)
            if spec is not None and spec.kind == SHORT_READ:
                max_rows = self.faults.short_read(max_rows)
        bus = self.bus
        if bus is not None:
            with bus.lock:
                batch = self.root.next_batch(max_rows)
                if batch:
                    bus.tick_n(len(batch))
        else:
            batch = self.root.next_batch(max_rows)
        self.rows_pulled += len(batch)
        return batch

    def close(self) -> None:
        if self._opened and not self._closed:
            self._closed = True
            self.root.close()


@dataclass
class ExecutionResult:
    """Outcome of running a plan to completion."""

    root: Operator
    row_count: int
    wall_time_s: float
    rows: list[tuple] | None = None
    operator_counts: dict[int, int] = field(default_factory=dict)
    # Why the history store dropped this run's record; None when it was
    # stored or the engine has no history.
    history_fault: str | None = None


class ExecutionEngine:
    """Run a plan to completion, optionally collecting output rows.

    Parameters
    ----------
    root:
        Plan root operator. The tree is validated and node ids assigned.
    bus:
        Optional tick bus to attach to every operator. When None, operators
        skip all instrumentation beyond the emitted-tuple counters.
    collect_rows:
        Keep output rows in the result (disable for large results).
    faults:
        Optional :class:`~repro.faults.FaultPlan` installed on the plan for
        deterministic fault injection (see docs/FAULTS.md). ``None`` keeps
        every injection site a zero-cost no-op.
    history:
        Optional :class:`~repro.robust.HistoryStore`. When given, the
        engine attaches a :class:`ProgressMonitor` (creating a
        :class:`TickBus` if none was passed) and, on a successful serial
        run, appends the run record — its progress curve and per-subtree
        cardinalities — to the store. A failed write drops that record and
        nothing else; the result's ``history_fault`` says why.
    """

    def __init__(
        self,
        root: Operator,
        bus: TickBus | None = None,
        collect_rows: bool = True,
        faults: FaultPlan | None = None,
        history: HistoryStore | None = None,
    ):
        self.root = root
        self.faults = faults
        self.collect_rows = collect_rows
        self.history = history
        self.monitor = None
        if history is not None and bus is None:
            bus = TickBus()
        self.bus = bus
        # The one cursor of this engine's one run: it validates the plan and
        # attaches the bus and the fault plan.
        self._cursor = PlanCursor(root, bus=bus, faults=faults)
        self.operators = self._cursor.operators
        if history is not None:
            # Imported here: repro.core.progress imports this module for
            # the TickBus, so the dependency must stay one-way.
            from repro.core.progress import ProgressMonitor

            self.monitor = ProgressMonitor(root, mode="once", bus=bus)

    @acquires("bus.lock")
    def run(
        self,
        row_callback: Callable[[tuple], None] | None = None,
        batch_size: int | None = None,
        parallel: int | None = None,
    ) -> ExecutionResult:
        """Open, drain, and close the plan.

        ``batch_size`` is the number of rows per :meth:`PlanCursor.fetch`.
        ``None`` derives it: ``DEFAULT_BATCH_SIZE``, capped at the bus's
        ``interval`` so a monitored run never reports coarser than its bus
        asks. Every size produces the same rows, the same per-operator
        counts and the same bus totals.

        ``parallel=P`` (P > 1) hands the plan to :mod:`repro.parallel`:
        the plan is fragmented across P partitions and the fragments run
        one after another *in this process*, unmonitored, with
        per-operator counts summed over the fragments. It is never faster
        than the serial loop (see docs/PARALLEL.md). Plans the fragmenter
        cannot split fall back to this engine's serial loop. A partitioned
        run reports no progress and records no history, so an engine with
        a bus or a history store raises :class:`ValueError` for P > 1
        before any fragment runs.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if parallel is not None and parallel > 1:
            if self.bus is not None or self.history is not None:
                raise ValueError(
                    "parallel > 1 runs unmonitored; this engine has a bus or "
                    "a history store"
                )
            result = self._run_parallel(parallel, row_callback)
            if result is not None:
                return result
            # Unfragmentable plan: fall through to the serial loop.
        bus = self.bus
        if batch_size is None:
            batch_size = (
                DEFAULT_BATCH_SIZE
                if bus is None
                else min(DEFAULT_BATCH_SIZE, bus.interval)
            )
        rows: list[tuple] | None = [] if self.collect_rows else None
        cursor = self._cursor
        started = time.perf_counter()
        cursor.open()
        try:
            count = 0
            while True:
                batch = cursor.fetch(batch_size)
                if not batch:
                    break
                count += len(batch)
                if rows is not None:
                    rows.extend(batch)
                if row_callback is not None:
                    for row in batch:
                        row_callback(row)
        finally:
            cursor.close()
        elapsed = time.perf_counter() - started
        counts = {
            op.node_id: op.tuples_emitted
            for op in self.operators
            if op.node_id is not None
        }
        history_fault = None
        if self.history is not None and self.monitor is not None:
            from repro.robust.feedback import record_run

            history_fault = record_run(self.monitor, self.history, elapsed, count)
        return ExecutionResult(
            root=self.root,
            row_count=count,
            wall_time_s=elapsed,
            rows=rows,
            operator_counts=counts,
            history_fault=history_fault,
        )

    def _run_parallel(
        self,
        num_partitions: int,
        row_callback: Callable[[tuple], None] | None,
    ) -> ExecutionResult | None:
        """Fragment + coordinate; None when the plan is unfragmentable."""
        # Imported here: repro.parallel builds on this module, so the
        # dependency must stay one-way at import time.
        from repro.parallel.coordinator import Coordinator
        from repro.parallel.fragments import try_compile

        fragments = try_compile(self.root, num_partitions)
        if fragments is None:
            return None
        coordinator = Coordinator(fragments, faults=self.faults)
        result = coordinator.run()
        if row_callback is not None:
            for row in result.rows:
                row_callback(row)
        return ExecutionResult(
            root=self.root,
            row_count=result.row_count,
            wall_time_s=result.wall_time_s,
            rows=result.rows if self.collect_rows else None,
            operator_counts=result.operator_counts,
        )
