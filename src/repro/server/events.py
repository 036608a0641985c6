"""Pub/sub event bus: N watchers over one stream of progress events.

The service publishes one pre-encoded ``PublishedFrame`` per session
step / state transition; watchers (``watch`` connections, dashboards, tests) each get their own
bounded mailbox. Design constraints, in order:

* **publishers never block** — a slow or stalled watcher must not be able
  to hold up a scheduler worker, so mailboxes are bounded. On overflow
  the mailbox first *conflates*: progress snapshots are cumulative, so
  the oldest queued event that a newer same-session event supersedes is
  evicted (``Subscription.conflated`` counts these — bounded staleness,
  the watcher still sees a strictly increasing per-session seq with the
  latest state). Only when nothing is superseded — every queued event is
  the newest of its session, or has no session at all — does the mailbox
  fall back to dropping its oldest event (``Subscription.dropped``).
  The conflation-aware policy also closes the resume-cursor gap of plain
  drop-oldest: a watcher can no longer observe a stale frame whose newer
  replacement was the one dropped.
* **detach is first-class** — a watcher whose connection dies unsubscribes
  and is immediately forgotten; the bus holds no reference afterwards
  (the event-layer twin of :meth:`TickBus.unsubscribe`).
* **no executor coupling** — events are produced *outside* the
  execution lock; the bus never touches operator or estimator state.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from repro.common.locks import acquires, guarded_by

__all__ = ["EventBus", "Subscription", "conflation_key"]


def conflation_key(event: Any) -> str | None:
    """The session identity an event can be conflated on, if any.

    Pre-encoded published frames carry ``session_id`` as an attribute.
    Events without one (workload aggregates, arbitrary test dicts) return
    ``None`` and are never conflated — they keep plain drop-oldest.
    """
    return getattr(event, "session_id", None)


class Subscription:
    """One watcher's bounded mailbox of events.

    Iterate it (``for event in sub:``) or call :meth:`get`. Iteration ends
    when the subscription is closed (by :meth:`close`, or the bus shutting
    down) and the mailbox has drained.
    """

    # The mailbox and overflow counters live under the condition's lock;
    # ``_closed`` is a write-guarded latch (bool swap) that ``closed`` may
    # read lock-free — it only ever goes False -> True, and a stale False
    # just means one extra get() round-trip.
    _guarded_by_ = {
        "_events": "_cond",
        "dropped": "_cond",
        "conflated": "_cond",
    }
    _write_guarded_by_ = {"_closed": "_cond"}

    def __init__(self, bus: "EventBus", maxlen: int):
        self._bus = bus
        self._cond = threading.Condition()
        self._events: deque[Any] = deque(maxlen=maxlen)
        self._closed = False
        self.dropped = 0
        self.conflated = 0

    @acquires("_cond")
    def _push(self, event: Any) -> None:
        with self._cond:
            if self._closed:
                return
            if len(self._events) == self._events.maxlen:
                if not self._conflate(conflation_key(event)):
                    self.dropped += 1
            self._events.append(event)
            self._cond.notify()

    @guarded_by("_cond")
    def _conflate(self, incoming_key: str | None) -> bool:
        """Evict the oldest queued event superseded by a newer one.

        Called under ``_cond`` when the mailbox is full. An event is
        superseded when a newer event for the same session sits behind it
        in the queue (or is the incoming event itself) — progress
        snapshots are cumulative, so the newer frame carries everything
        the older one did. Returns True when a victim was evicted (the
        append then fits without loss); False means nothing is
        superseded and the caller falls back to drop-oldest.
        """
        last_index: dict[str, int] = {}
        for i, queued in enumerate(self._events):
            key = conflation_key(queued)
            if key is not None:
                last_index[key] = i
        for i, queued in enumerate(self._events):
            key = conflation_key(queued)
            if key is None:
                continue
            if last_index[key] > i or key == incoming_key:
                del self._events[i]
                self.conflated += 1
                return True
        return False

    @acquires("_cond")
    def _mark_closed(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    @acquires("_cond")
    def get(self, timeout: float | None = None) -> Any | None:
        """Next event; ``None`` once closed and drained.

        Raises :class:`TimeoutError` if ``timeout`` elapses with the
        subscription still live but empty.
        """
        with self._cond:
            got = self._cond.wait_for(
                lambda: self._events or self._closed, timeout
            )
            if self._events:
                return self._events.popleft()
            if self._closed:
                return None
            if not got:
                raise TimeoutError("no event within timeout")
            return None  # pragma: no cover - unreachable

    def __iter__(self):
        while True:
            event = self.get()
            if event is None:
                return
            yield event

    def close(self) -> None:
        """Detach from the bus and wake any blocked :meth:`get`."""
        self._bus.unsubscribe(self)


class EventBus:
    """Fan-out of progress events to any number of subscriptions."""

    # Subscription tuple + closed latch are swapped under ``_lock`` and
    # read lock-free (the immutable-snapshot pattern): publish() iterates
    # whatever tuple it sees, so a subscriber detaching mid-fire is
    # harmless and publishers never contend with subscribe/unsubscribe.
    _write_guarded_by_ = {"_subs": "_lock", "_closed": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subs: tuple[Subscription, ...] = ()
        self._closed = False

    @property
    def subscriber_count(self) -> int:
        return len(self._subs)

    @acquires("_lock")
    def subscribe(self, maxlen: int = 256) -> Subscription:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        sub = Subscription(self, maxlen)
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

    def publish(self, event: Any) -> None:
        """Deliver ``event`` to every live subscription without blocking.

        Events are opaque to the bus: plain dicts or pre-encoded
        :class:`~repro.server.wire.PublishedFrame` objects — the bus
        never encodes, it only fans references out.
        """
        for sub in self._subs:
            sub._push(event)

    @acquires("_lock")
    def close(self) -> None:
        """Shut the bus down; all subscriptions drain and then end."""
        with self._lock:
            subs, self._subs = self._subs, ()
            self._closed = True
        for sub in subs:
            sub._mark_closed()
