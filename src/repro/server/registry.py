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
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.common.locks import acquires
from repro.server.session import SessionSnapshot, SessionState, QuerySession
from repro.server.wire import SessionStreamEncoder

__all__ = ["RegistryEntry", "SessionRegistry", "WorkloadView"]

_TERMINAL_VALUES = frozenset(
    {
        SessionState.FINISHED.value,
        SessionState.CANCELLED.value,
        SessionState.FAILED.value,
    }
)


@dataclass(frozen=True)
class WorkloadView:
    """Aggregate progress across every registered session."""

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


class SessionRegistry:
    """Registry of every session the service has accepted."""

    # The entry table is the only mutable state; every access goes
    # through ``_lock``, and readers get fresh list copies (never the
    # dict itself), so callers cannot race a concurrent submit/remove.
    # Entries are immutable; an encoder guards its own contents.
    _guarded_by_ = {"_entries": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, RegistryEntry] = {}

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
    def get(self, session_id: str) -> QuerySession | None:
        with self._lock:
            entry = self._entries.get(session_id)
        return None if entry is None else entry.session

    @acquires("_lock")
    def encoder(self, session_id: str) -> SessionStreamEncoder | None:
        with self._lock:
            entry = self._entries.get(session_id)
        return None if entry is None else entry.encoder

    @acquires("_lock")
    def remove(self, session_id: str) -> None:
        with self._lock:
            self._entries.pop(session_id, None)

    @acquires("_lock")
    def entries(self, session_ids: Iterable[str] | None = None) -> list[RegistryEntry]:
        """The entries of ``session_ids`` (unknown ids skipped), or of every
        session when None."""
        with self._lock:
            if session_ids is None:
                return list(self._entries.values())
            return [self._entries[sid] for sid in session_ids if sid in self._entries]

    def sessions(self) -> list[QuerySession]:
        return [entry.session for entry in self.entries()]

    @acquires("_lock")
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def workload(self) -> WorkloadView:
        """Aggregate gnm progress over fresh snapshots of all sessions."""
        return self.workload_from([session.snapshot() for session in self.sessions()])

    @staticmethod
    def workload_from(snapshots: list[SessionSnapshot]) -> WorkloadView:
        """Aggregate a given snapshot set — the registry's gnm fold made
        reusable, so the service can aggregate over *cached* published
        snapshots without resampling every session per request."""
        work_done = 0.0
        work_total = 0.0
        states: dict[str, int] = {}
        per_session: dict[str, float] = {}
        for snap in snapshots:
            states[snap.state] = states.get(snap.state, 0) + 1
            per_session[snap.session_id] = snap.progress
            if snap.state in _TERMINAL_VALUES:
                # Terminal: freeze the contribution at observed work so the
                # aggregate reflects completion/cancellation immediately.
                work_done += snap.work_done
                work_total += snap.work_done
            else:
                work_done += snap.work_done
                work_total += max(snap.work_total_estimate, snap.work_done)
        return WorkloadView(
            work_done=work_done,
            work_total_estimate=work_total,
            sessions=len(snapshots),
            states=states,
            per_session=per_session,
        )
