"""Thread-safe session registry and workload-level aggregation.

The registry is the service's source of truth for "what queries exist",
and the one place aggregate (workload) progress is computed. Aggregation
uses the gnm measure over published per-session snapshots —
``Σ_q C(Q_q) / Σ_q T̂(Q_q)``, the multi-query extension of Luo et al.
([19] in the paper's bibliography) — with one terminal-session rule: a
session that reached a terminal state contributes its *final observed*
work for both numerator and denominator, so a finished query whose
estimator undershot ``T̂(Q)`` cannot drag the workload below 1.0, and
aggregate progress never regresses when a query completes or is
cancelled.

Each session sits beside its :class:`~repro.server.wire.SessionStreamEncoder`,
the one record of what it published: the service answers ``list``/``status``
and every watch from there, never from live executor state, which is what
makes them safe at any request rate while 16 workers are mid-quantum.

Retention is bounded: the registry keeps the newest
:data:`RETAINED_SESSIONS` terminal sessions, in the order they published
their terminal snapshot, and evicts the oldest past that. An evicted
session's pinned ``(done, done)`` contribution and its state move into
:class:`Retired` totals, so the aggregate is bit-identical across an
eviction and never falls. PENDING and RUNNING sessions are never evicted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.common.locks import acquires
from repro.server.session import SessionSnapshot, SessionState, QuerySession
from repro.server.wire import TERMINAL_WIRE_STATES, SessionStreamEncoder

__all__ = [
    "RETAINED_SESSIONS",
    "RegistryEntry",
    "Retired",
    "SessionRegistry",
    "WorkloadView",
]

#: Terminal sessions the registry keeps; past it the one that finished
#: first is evicted into the :class:`Retired` totals, so the registry's
#: memory is bounded whatever clients submit.
RETAINED_SESSIONS = 256


@dataclass(frozen=True)
class WorkloadView:
    """Aggregate progress across every session the registry has held:
    ``sessions``, ``states`` and the work totals count evicted sessions
    too, ``per_session`` lists only the retained ones."""

    work_done: float
    work_total_estimate: float
    sessions: int
    states: dict[str, int] = field(default_factory=dict)
    per_session: dict[str, float] = field(default_factory=dict)

    @property
    def progress(self) -> float:
        if self.work_total_estimate <= 0:
            return 0.0
        return min(self.work_done / self.work_total_estimate, 1.0)

    @property
    def idle(self) -> bool:
        """True when every session is terminal (or none exist)."""
        active = sum(
            count
            for state, count in self.states.items()
            if state in (SessionState.PENDING.value, SessionState.RUNNING.value)
        )
        return active == 0

    def to_wire(self) -> dict:
        return {
            "progress": round(self.progress, 6),
            "work_done": self.work_done,
            "work_total_estimate": self.work_total_estimate,
            "sessions": self.sessions,
            "states": dict(self.states),
            "per_session": {k: round(v, 6) for k, v in self.per_session.items()},
            "idle": self.idle,
        }


class RegistryEntry(NamedTuple):
    """A session and the encoder holding what it last published."""

    session: QuerySession
    encoder: SessionStreamEncoder

    def latest(self) -> SessionSnapshot:
        """The last published snapshot; a session that has not published
        yet (pending its first step) is snapshotted instead."""
        snap = self.encoder.latest
        return snap if snap is not None else self.session.snapshot()


@dataclass(frozen=True)
class Retired:
    """What the evicted sessions still contribute to the workload: each
    one's final published ``work_done`` (its pinned ``(done, done)`` pair)
    and its terminal state."""

    sessions: int = 0
    work_done: float = 0.0
    states: dict[str, int] = field(default_factory=dict)

    def plus(self, snap: SessionSnapshot) -> "Retired":
        states = dict(self.states)
        states[snap.state] = states.get(snap.state, 0) + 1
        return Retired(self.sessions + 1, self.work_done + snap.work_done, states)


_NOTHING_RETIRED = Retired()


class SessionRegistry:
    """Registry of the sessions the service has accepted: every live one
    and the newest :data:`RETAINED_SESSIONS` terminal ones."""

    # The entry table, the finish order and the retired totals change
    # together under ``_lock`` (an eviction moves a session from the first
    # two into the third), and readers get fresh copies, never the dicts
    # themselves, so callers cannot race a concurrent submit or eviction.
    # Entries are immutable; an encoder guards its own contents.
    _guarded_by_ = {"_entries": "_lock", "_terminal": "_lock", "_retired": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, RegistryEntry] = {}
        # Retained terminal sessions in the order they finished, each with
        # the terminal snapshot it published.
        self._terminal: dict[str, SessionSnapshot] = {}
        self._retired = _NOTHING_RETIRED

    @acquires("_lock")
    def add(self, session: QuerySession) -> QuerySession:
        """Register ``session`` beside a new encoder, before its first publish."""
        entry = RegistryEntry(session, SessionStreamEncoder())
        with self._lock:
            if session.session_id in self._entries:
                raise ValueError(f"duplicate session id {session.session_id!r}")
            self._entries[session.session_id] = entry
        return session

    @acquires("_lock")
    def entry(self, session_id: str) -> RegistryEntry | None:
        with self._lock:
            return self._entries.get(session_id)

    def get(self, session_id: str) -> QuerySession | None:
        entry = self.entry(session_id)
        return None if entry is None else entry.session

    def encoder(self, session_id: str) -> SessionStreamEncoder | None:
        entry = self.entry(session_id)
        return None if entry is None else entry.encoder

    @acquires("_lock")
    def remove(self, session_id: str) -> None:
        with self._lock:
            self._entries.pop(session_id, None)
            self._terminal.pop(session_id, None)

    @acquires("_lock")
    def finished(self, snap: SessionSnapshot) -> None:
        """Record ``snap``, a session's published terminal snapshot. Past
        :data:`RETAINED_SESSIONS` terminal sessions, evict the one that
        finished first, session and encoder together, and fold its final
        ``work_done`` and state into the retired totals."""
        with self._lock:
            if snap.session_id not in self._entries:
                return
            self._terminal[snap.session_id] = snap
            while len(self._terminal) > RETAINED_SESSIONS:
                session_id = next(iter(self._terminal))
                final = self._terminal.pop(session_id)
                del self._entries[session_id]
                self._retired = self._retired.plus(final)

    @acquires("_lock")
    def entries(self, session_ids: Iterable[str] | None = None) -> list[RegistryEntry]:
        """The entries of ``session_ids`` (unknown ids skipped), or of every
        session when None."""
        with self._lock:
            if session_ids is None:
                return list(self._entries.values())
            return [self._entries[sid] for sid in session_ids if sid in self._entries]

    @acquires("_lock")
    def published(self) -> tuple[list[SessionSnapshot], Retired]:
        """Every retained session's latest published snapshot, and the
        retired totals, read together: an eviction in between would count
        a session twice or not at all."""
        with self._lock:
            entries = list(self._entries.values())
            retired = self._retired
        return [entry.latest() for entry in entries], retired

    def sessions(self) -> list[QuerySession]:
        return [entry.session for entry in self.entries()]

    @acquires("_lock")
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @acquires("_lock")
    def workload(self) -> WorkloadView:
        """Aggregate gnm progress over fresh snapshots of all sessions."""
        with self._lock:
            sessions = [entry.session for entry in self._entries.values()]
            retired = self._retired
        return self.workload_from([session.snapshot() for session in sessions], retired)

    @staticmethod
    def workload_from(
        snapshots: list[SessionSnapshot], retired: Retired = _NOTHING_RETIRED
    ) -> WorkloadView:
        """Aggregate a given snapshot set plus ``retired`` — the registry's
        gnm fold made reusable, so the service can aggregate over *cached*
        published snapshots without resampling every session per request."""
        # Terminal work (retired included) is summed apart from live work:
        # work counts tuples, so the pinned sum is exact in any order, and
        # an eviction, which only moves a pinned pair into ``retired``,
        # leaves both totals bit-identical.
        pinned = retired.work_done
        live_done = 0.0
        live_total = 0.0
        states = dict(retired.states)
        per_session: dict[str, float] = {}
        for snap in snapshots:
            states[snap.state] = states.get(snap.state, 0) + 1
            per_session[snap.session_id] = snap.progress
            if snap.state in TERMINAL_WIRE_STATES:
                # Terminal: freeze the contribution at observed work so the
                # aggregate reflects completion/cancellation immediately.
                pinned += snap.work_done
            else:
                live_done += snap.work_done
                live_total += max(snap.work_total_estimate, snap.work_done)
        return WorkloadView(
            work_done=pinned + live_done,
            work_total_estimate=pinned + live_total,
            sessions=len(snapshots) + retired.sessions,
            states=states,
            per_session=per_session,
        )
