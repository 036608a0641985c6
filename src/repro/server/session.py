"""Resumable query sessions: one running query under service management.

A :class:`QuerySession` wraps a physical plan, its
:class:`~repro.core.progress.ProgressMonitor` and a
:class:`~repro.executor.engine.PlanCursor` into a *stepper*: each
:meth:`step` call advances the query by one quantum of output rows and
returns, which is what lets a thread-pool scheduler time-slice many
queries over few workers. Between steps the session is entirely passive —
no thread is parked inside it.

State machine::

    PENDING --step--> RUNNING --exhausted--> FINISHED
        \\                |   \\--error------> FAILED
         \\               \\---cancel/deadline--> CANCELLED
          \\--cancel--> CANCELLED

Cancellation is cooperative: :meth:`cancel` only raises a flag, honoured
at the next step boundary (a quantum is the unit of preemption, exactly
like a scheduler turn). A per-session ``timeout_s`` is enforced the same
way, measured from the first step.

Progress reporting never touches executor internals from server threads:
the worker thread publishes a :class:`SessionSnapshot` on every tick of
the session's bus (piggybacking on the monitor's freshly recorded
snapshot, so publishes follow the embedded monitor's cadence, including
from inside a long hash-join build) and once more at the terminal
transition — never per quantum, so ``status``/``list`` may lag a running
session by up to one tick interval. Reported per-session
progress is a high-water mark — ``T̂(Q)`` revisions may shrink the
estimate, but a progress bar that moves backwards helps nobody, and the
acceptance bar for streamed snapshots is monotone non-decreasing.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.common.locks import acquires, assert_owned, guarded_by, holds_lock
from repro.core.progress import ProgressMonitor, ProgressSnapshot
from repro.executor.engine import PlanCursor, TickBus
from repro.executor.operators.base import Operator
from repro.faults.plan import FaultPlan, TransientFault
from repro.storage.catalog import Catalog

__all__ = ["QuerySession", "SessionSnapshot", "SessionState", "TERMINAL_STATES"]

_session_ids = itertools.count(1)


class SessionState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"
    CANCELLED = "cancelled"
    FAILED = "failed"


TERMINAL_STATES = frozenset(
    {SessionState.FINISHED, SessionState.CANCELLED, SessionState.FAILED}
)


@dataclass(frozen=True)
class SessionSnapshot:
    """An immutable, wire-ready view of one session's progress.

    ``degraded`` marks progress running on the dne fallback after a
    runtime estimator demotion (the query itself is fine — only estimate
    quality degraded); ``retries`` counts transient storage faults
    absorbed by the session's retry budget. A run-history store fault
    (with no estimator demotion to report) also sets ``degraded``, with
    the store's reason: the query is fine, only its record was lost.
    """

    session_id: str
    name: str
    state: str
    seq: int
    progress: float
    work_done: float
    work_total_estimate: float
    row_count: int
    elapsed_s: float
    error: str | None = None
    degraded: bool = False
    degraded_reason: str | None = None
    retries: int = 0

    def to_wire(self) -> dict:
        """The snapshot's wire dict, memoized per instance.

        A snapshot is frozen and uniquely identified by its seq, so the
        dict is built once and shared between the publish-time frame
        encoder and ``status``/``list`` responses — callers must treat
        it as immutable (copy before mutating).
        """
        cached = self.__dict__.get("_wire")
        if cached is None:
            cached = {
                "session_id": self.session_id,
                "name": self.name,
                "state": self.state,
                "seq": self.seq,
                "progress": round(self.progress, 6),
                "work_done": self.work_done,
                "work_total_estimate": self.work_total_estimate,
                "row_count": self.row_count,
                "elapsed_s": round(self.elapsed_s, 6),
                "error": self.error,
                "degraded": self.degraded,
                "degraded_reason": self.degraded_reason,
                "retries": self.retries,
            }
            object.__setattr__(self, "_wire", cached)
        return cached


class QuerySession:
    """A resumable, cancellable execution of one plan.

    Parameters
    ----------
    plan:
        The physical plan to run.
    mode / catalog / tick_interval:
        Forwarded to a freshly built :class:`ProgressMonitor` unless
        ``monitor``/``bus`` are injected (a caller that already built the
        monitor on a shared bus, e.g. the benchmark's staged trace).
    quantum_rows:
        Output rows pulled per :meth:`step`.
    row_cap:
        Result spool bound: at most this many rows are retained for
        ``fetch``; production beyond the cap still runs (and counts), the
        spool is just truncated. ``0`` disables spooling.
    timeout_s:
        Cooperative deadline measured from the first step; exceeding it
        cancels the session with a timeout error.
    faults:
        Optional :class:`~repro.faults.FaultPlan` installed on the plan,
        cursor and estimator hooks (see docs/FAULTS.md).
    resilient:
        Harden estimator hooks so a raising hook demotes its estimator
        (snapshots turn ``degraded``) instead of failing the query. On by
        default for sessions — a served query should never die for the
        sake of its own progress bar.
    retry_budget:
        Transient storage faults (:class:`TransientFault`, fired at the
        resumable cursor boundary) absorbed per session before the next
        one is treated as fatal.
    history / observed:
        Optional :class:`~repro.robust.HistoryStore` and
        :class:`~repro.storage.statistics.ObservedCardinalities`. With a
        store attached, the session appends the run record on FINISHED —
        folding its per-subtree cardinalities into ``observed`` for the
        optimizer's observed-over-modeled feedback loop. Its snapshots
        surface the store's ``degraded_reason`` (a failed load), and its
        terminal snapshot why its own record was dropped, if it was.
    """

    # Lock discipline (machine-checked by repro.analysis.concurrency).
    # ``_step_lock`` serializes execution: every state transition and every
    # piece of run bookkeeping is written only by the thread stepping the
    # quantum. ``_snap_lock`` is the cheap observation lock: snapshot
    # sequencing and the high-water mark are touched by arbitrary reader
    # threads, so they get their own mutex — readers never contend with a
    # running quantum. ``_cancel_reason`` is deliberately unguarded: cancel
    # must take effect without blocking behind a quantum in flight (the
    # Event provides the ordering).
    _guarded_by_ = {
        "_high_water": "_snap_lock",
        "_snap_seq": "_snap_lock",
    }
    # Written only under the lock; read lock-free. Every field below holds
    # either an immutable value (str/float/enum/frozen snapshot/tuple) that
    # is swapped atomically, or — for ``rows`` — a list that only grows and
    # is copied on read.
    _write_guarded_by_ = {
        "state": "_step_lock",
        "row_count": "_step_lock",
        "rows": "_step_lock",
        "error": "_step_lock",
        "started_at": "_step_lock",
        "finished_at": "_step_lock",
        "_deadline": "_step_lock",
        "_last_progress": "_step_lock",
        "_history_fault": "_step_lock",
        "_retries_left": "_step_lock",
        "retry_count": "_step_lock",
        "listeners": "_snap_lock",
    }

    def __init__(
        self,
        plan: Operator,
        name: str | None = None,
        session_id: str | None = None,
        mode: str = "once",
        catalog: Catalog | None = None,
        monitor: ProgressMonitor | None = None,
        bus: TickBus | None = None,
        tick_interval: int = 1000,
        quantum_rows: int = 256,
        row_cap: int = 10_000,
        timeout_s: float | None = None,
        faults: FaultPlan | None = None,
        resilient: bool = True,
        retry_budget: int = 3,
        history=None,
        observed=None,
    ):
        if quantum_rows < 1:
            raise ValueError(f"quantum_rows must be >= 1, got {quantum_rows}")
        if row_cap < 0:
            raise ValueError(f"row_cap must be >= 0, got {row_cap}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {retry_budget}")
        self.session_id = session_id or f"s{next(_session_ids):04d}"
        self.name = name or self.session_id
        self.plan = plan
        self.quantum_rows = quantum_rows
        self.row_cap = row_cap
        self.timeout_s = timeout_s
        self.bus = bus if bus is not None else TickBus(interval=tick_interval)
        self.faults = faults
        self.retry_budget = retry_budget
        self.history = history
        self.observed = observed
        # Why this run's history record was dropped (None unless it was).
        self._history_fault: str | None = None
        self.monitor = (
            monitor
            if monitor is not None
            else ProgressMonitor(
                plan,
                mode=mode,
                catalog=catalog,
                bus=self.bus,
                resilient=resilient,
                faults=faults,
            )
        )
        self.cursor = PlanCursor(plan, bus=self.bus, faults=faults)
        self.state = SessionState.PENDING
        self.row_count = 0
        self.rows: list[tuple] = []
        self.error: str | None = None
        self.created_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.listeners: tuple[Callable[["QuerySession", SessionSnapshot], None], ...] = ()
        self._step_lock = threading.RLock()
        self._snap_lock = threading.Lock()
        self._cancel = threading.Event()
        self._cancel_reason: str | None = None
        self._deadline: float | None = None
        self._snap_seq = 0
        self._last_progress: ProgressSnapshot | None = None
        self._high_water = 0.0
        self._retries_left = retry_budget
        self.retry_count = 0
        self.bus.subscribe(self._on_bus_tick)

    # -- observation -------------------------------------------------------------

    @acquires("_snap_lock")
    def add_listener(
        self, listener: Callable[["QuerySession", SessionSnapshot], None]
    ) -> None:
        """Register a callback invoked with every published snapshot.

        The listener tuple is swapped under ``_snap_lock`` and iterated
        lock-free by :meth:`_publish` — a listener attached mid-run joins
        at the next publish, and publishing never blocks on registration.
        """
        with self._snap_lock:
            self.listeners = (*self.listeners, listener)

    @holds_lock("bus.lock", "_step_lock")
    def _on_bus_tick(self, _count: int) -> None:
        # Fired by the executing thread, including from deep inside
        # blocking phases — for a session, every pull happens in step(),
        # so the tick arrives with both the sampling lock and the step
        # lock held by construction. The monitor's own subscription ran
        # first (it subscribed in its constructor), so its freshest
        # snapshot is the last list entry — reuse it instead of sampling
        # twice.
        assert_owned(self.bus.lock, "bus sampling lock")
        assert_owned(self._step_lock, "session step lock")
        if self.monitor.snapshots:
            self._last_progress = self.monitor.snapshots[-1]
            self._publish()

    @guarded_by("_step_lock")
    @acquires("_snap_lock")
    def _publish(self) -> None:
        snap = self.snapshot()
        dead: list[Callable] = []
        for listener in self.listeners:
            try:
                listener(self, snap)
            except Exception:  # noqa: BLE001 - a broken watcher must not kill the query
                dead.append(listener)
        if dead:
            # Detach, don't die: the erroring subscriber stops receiving
            # snapshots, every other watcher and the query itself carry on.
            with self._snap_lock:
                self.listeners = tuple(
                    fn for fn in self.listeners if not any(fn is d for d in dead)
                )

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def elapsed_s(self) -> float:
        start = self.started_at if self.started_at is not None else self.created_at
        end = self.finished_at if self.finished_at is not None else time.monotonic()
        return max(end - start, 0.0)

    @acquires("_step_lock")
    def remaining_work(self) -> float:
        """Live ``T̂(Q) − C(Q)``: the scheduler's shortest-expected-
        remaining-work key. Terminal sessions report 0.

        Takes the step lock: the not-yet-started branch below *writes*
        ``_last_progress``, and the scheduler calls this from its policy
        loop. Uncontended in practice — the scheduler only ranks sessions
        that are queued, never one a worker is currently stepping.
        """
        if self.state in TERMINAL_STATES:
            return 0.0
        with self._step_lock:
            progress = self._last_progress
            if progress is None:
                # Not yet started: prime from optimizer estimates. Safe — no
                # thread is executing this plan before its first step.
                progress = self.monitor.snapshot()
                self._last_progress = progress
        return max(progress.work_total_estimate - progress.work_done, 0.0)

    @acquires("_snap_lock")
    def snapshot(self) -> SessionSnapshot:
        """Current progress view, safe from any thread (never samples the
        live plan; reads the last snapshot the executing thread published).

        Lock order: the finished-session pinning below takes the bus
        sampling lock (inside ``true_total``) *before* ``_snap_lock`` is
        acquired, keeping the acquisition order acyclic against the
        publish path, which reaches here already holding the sampling
        lock.
        """
        state = self.state
        progress = self._last_progress
        degraded = progress is not None and progress.degraded
        reason = progress.degraded_reason if degraded else None
        if not degraded and self.history is not None:
            # History faults degrade the session, never the query: a failed
            # load is the store's, a dropped record this run's own. The
            # store publishes its reason lock-free, so this read takes no
            # lock under the sampling lock the publish path holds.
            reason = self.history.degraded_reason or self._history_fault
            degraded = reason is not None
        if state is SessionState.FINISHED:
            # C(Q) is now the exact T(Q): pin to 1.0 with matching totals
            # so aggregates over finished sessions cannot drift or regress.
            done = total = self.monitor.true_total()
            frac = 1.0
        elif progress is not None:
            done = progress.work_done
            total = progress.work_total_estimate
            frac = progress.progress
        else:
            done = total = 0.0
            frac = 0.0
        with self._snap_lock:
            self._high_water = max(self._high_water, frac)
            self._snap_seq += 1
            seq = self._snap_seq
            high_water = self._high_water
        return SessionSnapshot(
            session_id=self.session_id,
            name=self.name,
            state=state.value,
            seq=seq,
            progress=high_water if state is not SessionState.FINISHED else 1.0,
            work_done=done,
            work_total_estimate=total,
            row_count=self.row_count,
            elapsed_s=self.elapsed_s(),
            error=self.error,
            degraded=degraded,
            degraded_reason=reason,
            retries=self.retry_count,
        )

    def results(self) -> tuple[list[str], list[tuple], bool]:
        """``(columns, spooled rows, truncated?)`` for the fetch op."""
        columns = self.plan.output_schema.names()
        return columns, list(self.rows), self.row_count > len(self.rows)

    # -- control -----------------------------------------------------------------

    def cancel(self, reason: str = "cancelled by client") -> None:
        """Request cooperative cancellation; honoured at the next step."""
        self._cancel_reason = reason
        self._cancel.set()

    @acquires("_step_lock")
    def step(self) -> bool:
        """Advance by one quantum. Returns True while more work remains.

        Terminal transitions (FINISHED / CANCELLED / FAILED) happen inside
        this call: the plan is closed, the final snapshot published, and
        False returned — at which point the scheduler drops the session
        and the worker is free.
        """
        with self._step_lock:
            if self.state in TERMINAL_STATES:
                return False
            if self._cancel.is_set():
                self._finalize(SessionState.CANCELLED, self._cancel_reason)
                return False
            if self.state is SessionState.PENDING:
                self.started_at = time.monotonic()
                if self.timeout_s is not None:
                    self._deadline = self.started_at + self.timeout_s
                try:
                    self.cursor.open()
                except Exception as exc:  # noqa: BLE001 - reported as FAILED
                    self._finalize(SessionState.FAILED, _describe_error(exc))
                    return False
                self.state = SessionState.RUNNING
            if self._deadline is not None and time.monotonic() >= self._deadline:
                self._finalize(
                    SessionState.CANCELLED,
                    f"deadline exceeded (timeout_s={self.timeout_s:g})",
                )
                return False
            try:
                batch = self._fetch_with_retry()
            except Exception as exc:  # noqa: BLE001 - reported as FAILED
                self._finalize(SessionState.FAILED, _describe_error(exc))
                return False
            if batch:
                self.row_count += len(batch)
                room = self.row_cap - len(self.rows)
                if room > 0:
                    self.rows.extend(batch[:room])
            if self.cursor.exhausted or not batch:
                self._finalize(SessionState.FINISHED, None)
                return False
            return True

    @guarded_by("_step_lock")
    def _fetch_with_retry(self) -> list[tuple]:
        """Pull one quantum, absorbing retryable storage faults.

        :class:`TransientFault` fires at the cursor boundary *before* the
        pull enters the plan, so no operator or estimator state is
        mid-flight when it unwinds — reissuing the fetch is sound. Each
        retry consumes the bounded per-session budget; once exhausted, the
        next transient fault propagates and fails the session. Anything
        raised from inside the plan (including non-retryable injected
        faults) propagates immediately: a generator-driven operator cannot
        resume across an unwound exception, so "retrying" would silently
        lose rows.
        """
        while True:
            try:
                return self.cursor.fetch(self.quantum_rows)
            except TransientFault:
                if self._retries_left <= 0:
                    raise
                self._retries_left -= 1
                self.retry_count += 1

    @guarded_by("_step_lock")
    def _finalize(self, state: SessionState, error: str | None) -> None:
        assert_owned(self._step_lock, "session step lock")
        self.error = error
        if self.cursor.opened and not self.cursor.closed:
            # Sample *before* close: closing marks every pipeline finished,
            # which would make a cancelled mid-flight session read as 1.0.
            self._last_progress = self.monitor.snapshot()
        try:
            self.cursor.close()
        except Exception as exc:  # noqa: BLE001 - close failure must not mask state
            if self.error is None:
                self.error = _describe_error(exc)
        self.state = state
        self.finished_at = time.monotonic()
        if state is SessionState.FINISHED and self.history is not None:
            # Statistics feedback: persist the run before the terminal
            # publish, so a store fault here shows on the terminal frame. It
            # degrades the session's history, never the (already complete)
            # query — record_run absorbs it and says why.
            from repro.robust.feedback import record_run

            self._history_fault = record_run(
                self.monitor,
                self.history,
                self.elapsed_s(),
                self.row_count,
                observed=self.observed,
            )
        self.bus.unsubscribe(self._on_bus_tick)
        self._publish()


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"
