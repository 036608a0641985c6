"""Thread-pool scheduling of query sessions with pluggable policies.

The scheduler owns a pool of worker threads and a ready queue of
:class:`~repro.server.session.QuerySession` objects. A worker's loop is a
single primitive: pick a session per policy, run ``session.step()`` (one
quantum), requeue it if it still has work. Everything interesting —
cancellation, deadlines, failure — happens inside the step, so a worker
can never be captured by a dying session.

Policies
--------
``fair``
    Round-robin: FIFO over the ready queue. With one worker the turn
    order is deterministic — the classic cooperative interleave.
``serw``
    Shortest expected remaining work: pick the ready session with the
    smallest live ``T̂(Q) − C(Q)``. This is the progress framework feeding
    *back into* execution — the same online estimates that drive the
    progress bars order the queue, so short queries slip past long ones
    (shortest-remaining-processing-time approximated online). Estimates
    refine as queries run, so the ordering self-corrects.

Admission control
-----------------
The scheduler owns at most ``max_pending`` non-terminal sessions; further
submissions raise :class:`AdmissionError` immediately rather than building
an unbounded backlog (the overload answer a service needs: reject fast).
"""

from __future__ import annotations

import collections
import threading

from repro.common.locks import acquires, guarded_by
from repro.server.session import QuerySession

__all__ = ["AdmissionError", "POLICIES", "Scheduler"]

POLICIES = ("fair", "serw")


class AdmissionError(RuntimeError):
    """Submission rejected: the scheduler is full or shut down."""


class Scheduler:
    """Run many sessions over few threads, one quantum at a time."""

    # Every piece of scheduler state lives under the one condition
    # variable: queue, counters, worker table and the stop flag all change
    # together at pick/requeue boundaries, and the waits below predicate
    # on combinations of them.
    _guarded_by_ = {
        "_ready": "_cond",
        "_pending": "_cond",
        "_stepping": "_cond",
        "_stop": "_cond",
        "_threads": "_cond",
        "steps_taken": "_cond",
    }

    def __init__(
        self,
        workers: int = 4,
        policy: str = "fair",
        max_pending: int = 64,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.workers = workers
        self.policy = policy
        self.max_pending = max_pending
        self.steps_taken = 0
        self._cond = threading.Condition()
        self._ready: collections.deque[QuerySession] = collections.deque()
        self._stepping = 0  # sessions currently inside step()
        self._pending = 0  # non-terminal sessions owned by the scheduler
        self._threads: list[threading.Thread] = []
        self._stop = False

    # -- lifecycle ---------------------------------------------------------------

    @acquires("_cond")
    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        with self._cond:
            if self._stop:
                raise AdmissionError("scheduler is shut down")
            missing = self.workers - len(self._threads)
            for i in range(missing):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-sched-{len(self._threads) + 1}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    @acquires("_cond")
    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers. Queued sessions are left unstepped; running
        quanta complete (a quantum is the preemption unit here too)."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
            # Copy under the lock: a concurrent start() may still be
            # appending worker threads, and joining must iterate a stable
            # list (the joins themselves happen outside the lock so a
            # draining worker can re-enter the condition).
            threads = list(self._threads)
        if wait:
            for thread in threads:
                thread.join(timeout=30.0)

    def __enter__(self) -> "Scheduler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    # -- submission --------------------------------------------------------------

    @acquires("_cond")
    def submit(self, session: QuerySession) -> QuerySession:
        """Admit ``session`` for execution, or raise :class:`AdmissionError`."""
        with self._cond:
            if self._stop:
                raise AdmissionError("scheduler is shut down")
            if self._pending >= self.max_pending:
                raise AdmissionError(
                    f"scheduler is full ({self._pending} pending sessions, "
                    f"max_pending={self.max_pending})"
                )
            self._pending += 1
            self._ready.append(session)
            self._cond.notify()
        self.start()
        return session

    @acquires("_cond")
    def join(self, timeout: float | None = None) -> bool:
        """Block until every admitted session reached a terminal state."""
        with self._cond:
            return self._cond.wait_for(lambda: self._pending == 0, timeout)

    def run_until_complete(self, timeout: float | None = None) -> bool:
        """Convenience: start workers and wait for the backlog to drain."""
        self.start()
        return self.join(timeout)

    @property
    @acquires("_cond")
    def pending(self) -> int:
        with self._cond:
            return self._pending

    # -- the worker loop ---------------------------------------------------------

    @guarded_by("_cond")
    def _pick_locked(self) -> QuerySession:
        if self.policy == "fair" or len(self._ready) == 1:
            return self._ready.popleft()
        best_idx = min(
            range(len(self._ready)),
            key=lambda i: self._ready[i].remaining_work(),
        )
        self._ready.rotate(-best_idx)
        session = self._ready.popleft()
        self._ready.rotate(best_idx)
        return session

    @acquires("_cond")
    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._ready and not self._stop:
                    self._cond.wait()
                if self._stop:
                    return
                session = self._pick_locked()
                self._stepping += 1
            more = False
            try:
                more = session.step()
            finally:
                with self._cond:
                    self._stepping -= 1
                    self.steps_taken += 1
                    if more:
                        self._ready.append(session)
                    else:
                        self._pending -= 1
                    self._cond.notify_all()
