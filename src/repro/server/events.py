"""Change notification: which sessions have published since a watcher looked.

Every published frame carries a session's whole ``(C(Q), T̂(Q))`` state and
replaces the one before it, and the session's
:class:`~repro.server.wire.SessionStreamEncoder` keeps the latest
(``latest_frame``). So a watcher needs no queue of frames, only the set of
sessions that have published since it last looked; it then reads each
one's latest frame. Design constraints, in order:

* **publishers never block** — :meth:`EventBus.publish` adds a session id
  to each subscription's set and notifies it. The set holds one entry per
  session however often that session publishes, so it is bounded by the
  registry whatever the watcher's pace: a slow watcher does not fall
  behind, it reads a newer frame when it next looks. A terminal frame is
  its session's last, so it is always the one read.
* **detach is first-class** — a watcher whose connection dies unsubscribes
  and is immediately forgotten; the bus holds no reference afterwards
  (the event-layer twin of :meth:`TickBus.unsubscribe`).
* **no executor coupling** — a publish, made on the executing worker, only
  adds an id to sets; the bus never touches operator or estimator state.
"""

from __future__ import annotations

import threading

from repro.common.locks import acquires

__all__ = ["EventBus", "Subscription"]


class Subscription:
    """One watcher's set of sessions that published since its last
    :meth:`take`, optionally filtered to one session at subscribe time."""

    # The changed set and the closed latch live under the condition's lock.
    _guarded_by_ = {"_changed": "_cond", "_closed": "_cond"}

    def __init__(self, bus: "EventBus", session_id: str | None = None):
        self._bus = bus
        self.session_id = session_id
        self._cond = threading.Condition()
        # An ordered set: take() returns ids in first-publish order.
        self._changed: dict[str, None] = {}
        self._closed = False

    @acquires("_cond")
    def _mark(self, session_id: str) -> None:
        if self.session_id is not None and session_id != self.session_id:
            return
        with self._cond:
            if not self._closed:
                self._changed[session_id] = None
                self._cond.notify()

    @acquires("_cond")
    def _mark_closed(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @acquires("_cond")
    def take(self, timeout: float | None = None) -> list[str] | None:
        """The ids of the sessions that published since the last take,
        emptying the set; ``None`` once closed and emptied.

        Raises :class:`TimeoutError` if ``timeout`` elapses with the
        subscription still live and nothing published.
        """
        with self._cond:
            self._cond.wait_for(lambda: self._changed or self._closed, timeout)
            if self._changed:
                changed = list(self._changed)
                self._changed.clear()
                return changed
            if self._closed:
                return None
            raise TimeoutError("no publish within timeout")

    def close(self) -> None:
        """Detach from the bus and wake any blocked :meth:`take`."""
        self._bus.unsubscribe(self)


class EventBus:
    """Fan-out of "this session published" to any number of subscriptions."""

    # Subscription tuple + closed latch are swapped under ``_lock`` and
    # read lock-free (the immutable-snapshot pattern): publish() iterates
    # whatever tuple it sees, so a subscriber detaching mid-fire is
    # harmless and publishers never contend with subscribe/unsubscribe.
    _write_guarded_by_ = {"_subs": "_lock", "_closed": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subs: tuple[Subscription, ...] = ()
        self._closed = False

    @acquires("_lock")
    def subscribe(self, session_id: str | None = None) -> Subscription:
        """A new subscription to every session, or to ``session_id`` only."""
        sub = Subscription(self, session_id)
        with self._lock:
            if self._closed:
                sub._mark_closed()
            else:
                self._subs = (*self._subs, sub)
        return sub

    @acquires("_lock")
    def unsubscribe(self, sub: Subscription) -> None:
        """Detach ``sub``; unknown subscriptions are ignored."""
        with self._lock:
            self._subs = tuple(s for s in self._subs if s is not sub)
        sub._mark_closed()

    def publish(self, session_id: str) -> None:
        """Tell every live subscription that ``session_id`` published,
        without blocking. The frame itself stays with the session's
        encoder; the bus carries only the id."""
        for sub in self._subs:
            sub._mark(session_id)

    @acquires("_lock")
    def close(self) -> None:
        """Shut the bus down; every subscription is taken empty, then ends."""
        with self._lock:
            subs, self._subs = self._subs, ()
            self._closed = True
        for sub in subs:
            sub._mark_closed()
