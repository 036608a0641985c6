"""Bounded retention: the registry keeps the newest ``RETAINED_SESSIONS``
terminal sessions and folds older ones into retired totals.

What must hold with the cap made small: the registry's size stops at the
cap; PENDING and RUNNING sessions are never evicted, however many there
are; an evicted id answers ``unknown_session`` on every op (and the client
raises it on the first reply, without reconnecting); the aggregate is
unchanged, bit for bit, across an eviction and never falls across a
finish; and a per-session watch that resolved its entry before the
eviction still ends on the terminal frame.
"""

from __future__ import annotations

import socket
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import ProgressClient, ProgressService, ServiceError
from repro.server import client as client_module
from repro.server import registry as registry_module
from repro.server.protocol import decode, encode
from repro.server.registry import SessionRegistry
from repro.server.session import QuerySession, SessionSnapshot
from repro.sql import compile_select

CAP = 4

SHORT = "SELECT n.nationkey, n.name FROM nation n WHERE n.regionkey = 1"
#: 150 customers at sf 0.001: about ten quanta of 16 rows.
STEPPED = "SELECT c.custkey, c.name FROM customer c"


@pytest.fixture(scope="module")
def db():
    from repro.datagen import generate_tpch

    return generate_tpch(sf=0.001, seed=3)


@pytest.fixture
def cap(monkeypatch):
    monkeypatch.setattr(registry_module, "RETAINED_SESSIONS", CAP)
    return CAP


def run_one(svc: ProgressService, sql: str = SHORT) -> QuerySession:
    """Submit ``sql`` and wait until the scheduler is done with it — which
    is after its terminal publish, so after any eviction it caused."""
    session = svc.submit_sql(sql)
    assert svc.scheduler.join(timeout=30.0), "scheduler wedged"
    return session


def hand_stepped(svc: ProgressService, db, sql: str = STEPPED) -> QuerySession:
    """A session registered like a submitted one, but stepped by the test."""
    session = QuerySession(compile_select(db, sql).plan, quantum_rows=16, tick_interval=50)
    session.add_listener(svc._on_session_event)
    return svc.registry.add(session)


def finish(session: QuerySession) -> None:
    while session.step():
        pass


class TestCap:
    def test_three_caps_of_sessions_leave_cap_in_the_registry(self, db, cap):
        with ProgressService(db, workers=2) as svc:
            sessions = [run_one(svc) for _ in range(3 * cap)]
            assert len(svc.registry) == cap
            newest = [s.session_id for s in sessions[-cap:]]
            assert [s.session_id for s in svc.registry.sessions()] == newest
            view = svc._workload()
            assert view.sessions == 3 * cap
            assert view.states == {"finished": 3 * cap}
            assert sorted(view.per_session) == sorted(newest)
            # Every session's final work is still in the total, exactly.
            assert view.work_done == sum(s.snapshot().work_done for s in sessions)
            assert view.work_total_estimate == view.work_done
            assert view.progress == 1.0

    def test_count_guard_at_the_default_cap(self, db):
        # 300 sessions at the shipped cap of 256: the registry stops at 256
        # while the workload still counts every session.
        with ProgressService(db, workers=2) as svc:
            for _ in range(30):
                for _ in range(10):
                    svc.submit_sql(SHORT)
                assert svc.scheduler.join(timeout=30.0)
            assert len(svc.registry) == 256
            view = svc._workload()
            assert view.sessions == 300
            assert view.states == {"finished": 300}
            assert len(view.per_session) == 256


class TestLiveSessionsStay:
    def test_more_than_cap_running_at_once_none_evicted(self, db, cap):
        svc = ProgressService(db)
        running = [hand_stepped(svc, db) for _ in range(3 * cap)]
        pending = [hand_stepped(svc, db) for _ in range(cap)]
        for session in running:
            assert session.step(), "the session must still be RUNNING"
        assert len(svc.registry) == 4 * cap
        finished: list[str] = []
        for session in running:
            finish(session)
            finished.append(session.session_id)
            retained = {s.session_id for s in svc.registry.sessions()}
            unfinished = {s.session_id for s in running + pending} - set(finished)
            assert unfinished <= retained, "a live session was evicted"
            assert retained - unfinished == set(finished[-cap:])
        assert len(svc.registry) == cap + len(pending)
        assert svc._workload().states == {"finished": 3 * cap, "pending": cap}


class TestEvictedIds:
    @pytest.fixture
    def evicted(self, db, cap):
        """A served session pushed out by ``cap`` later ones, and a client."""
        with ProgressService(db, workers=2) as svc:
            with ProgressClient(svc.host, svc.port, timeout=30.0) as client:
                first = run_one(svc).session_id
                for _ in range(cap):
                    run_one(svc)
                assert svc.registry.entry(first) is None
                yield svc, client, first

    def test_all_four_ops_answer_unknown_session(self, evicted):
        _svc, client, first = evicted
        for op in (client.status, client.fetch, client.cancel):
            with pytest.raises(ServiceError) as exc:
                op(first)
            assert exc.value.code == "unknown_session"
        with pytest.raises(ServiceError) as exc:
            next(client.watch(first))
        assert exc.value.code == "unknown_session"
        assert client.ping(), "the connection pool is still healthy"

    def test_client_raises_on_the_first_reply_without_reconnecting(
        self, evicted, monkeypatch
    ):
        _svc, client, first = evicted

        def no_retry(*_args):
            raise AssertionError("unknown_session was retried")

        monkeypatch.setattr(client_module, "_backoff_s", no_retry)
        connects = []
        connect = client._connect
        monkeypatch.setattr(client, "_connect", lambda: connects.append(1) or connect())
        for op in (
            lambda: list(client.watch(first, since=3, max_reconnects=5)),
            lambda: client.wait(first, timeout=30.0, max_retries=5),
        ):
            connects.clear()
            with pytest.raises(ServiceError) as exc:
                op()
            assert exc.value.code == "unknown_session"
            # One request on a pooled or new connection, never a reconnect.
            assert len(connects) <= 1


class TestPerSessionWatchHoldsItsEntry:
    def test_eviction_before_the_terminal_frame_is_read(self, db, cap, monkeypatch):
        # The watch primes on a PENDING session, then hears nothing until
        # the session has finished *and* been evicted; woken then, it must
        # still write the terminal frame and ``end`` from the entry it holds.
        with ProgressService(db, workers=1) as svc:
            watched = hand_stepped(svc, db)
            sid = watched.session_id
            publish = svc.events.publish
            monkeypatch.setattr(
                svc.events, "publish", lambda s: None if s == sid else publish(s)
            )
            with socket.create_connection((svc.host, svc.port), timeout=10.0) as conn:
                reader = conn.makefile("rb")
                conn.sendall(encode({"op": "watch", "session_id": sid}))
                primed = decode(reader.readline())
                assert primed["session"]["state"] == "pending"
                finish(watched)
                for _ in range(cap):
                    run_one(svc)
                assert svc.registry.entry(sid) is None, "the session was not evicted"
                publish(sid)  # the held-back wake-up
                events = []
                while not events or events[-1].get("event") != "end":
                    events.append(decode(reader.readline()))
                reader.close()
        assert events[-1] == {"event": "end", "reason": "session terminal"}
        terminal = events[-2]
        assert terminal["event"] == "snapshot"
        assert terminal["session"]["state"] == "finished"
        assert terminal["session"]["progress"] == 1.0


# -- the retired fold under any interleaving -----------------------------------------

TERMINAL = ("finished", "cancelled", "failed")


def _snap(sid: str, seq: int, state: str, done: float, total: float) -> SessionSnapshot:
    return SessionSnapshot(
        session_id=sid,
        name=sid,
        state=state,
        seq=seq,
        progress=min(done / total, 1.0) if total > 0 else 0.0,
        work_done=done,
        work_total_estimate=total,
        row_count=0,
        elapsed_s=0.0,
    )


_live = st.tuples(
    st.sampled_from(("pending", "running")),
    st.integers(0, 10_000),  # work done: a count of tuples
    st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False),  # T̂(Q)
)
_finish = st.tuples(
    st.integers(0, 1_000),  # index into the still-live sessions
    st.sampled_from(TERMINAL),
    st.integers(0, 5_000),  # work done after the last live snapshot
)


class TestRetiredFold:
    @settings(max_examples=150, deadline=None)
    @given(
        live=st.lists(_live, min_size=1, max_size=16),
        finishes=st.lists(_finish, max_size=16),
        cap_size=st.integers(0, 4),
    )
    def test_finishes_and_evictions_never_lower_the_aggregate(
        self, live, finishes, cap_size
    ):
        # Drives the registry the way the publish listener does: encode the
        # snapshot, then record a terminal one (which may evict).
        registry = SessionRegistry()
        saved = registry_module.RETAINED_SESSIONS
        registry_module.RETAINED_SESSIONS = cap_size
        try:
            last: dict[str, SessionSnapshot] = {}

            def publish(snap: SessionSnapshot) -> None:
                registry.encoder(snap.session_id).encode(snap)
                last[snap.session_id] = snap

            def view():
                return SessionRegistry.workload_from(*registry.published())

            for i, (state, done, total) in enumerate(live):
                sid = f"q{i}"
                registry.add(types.SimpleNamespace(session_id=sid))
                publish(_snap(sid, 1, state, float(done), total))
            submitted = len(live)
            unfinished = list(last)
            before = view()
            for index, state, extra in finishes:
                if not unfinished:
                    break
                sid = unfinished.pop(index % len(unfinished))
                prev = last[sid]
                final = prev.work_done + extra
                publish(_snap(sid, prev.seq + 1, state, final, final))
                published = view()
                assert published.work_done >= before.work_done
                assert published.progress >= before.progress - 1e-12
                registry.finished(last[sid])
                after = view()
                # An eviction only moves a pinned pair into the retired
                # totals: the aggregate is unchanged, bit for bit.
                assert (after.work_done, after.work_total_estimate) == (
                    published.work_done,
                    published.work_total_estimate,
                )
                assert after.states == published.states
                assert after.sessions == submitted
                assert sum(after.states.values()) == submitted
                retained = {e.session.session_id for e in registry.entries()}
                assert set(unfinished) <= retained
                assert len(retained) == len(unfinished) + min(
                    cap_size, submitted - len(unfinished)
                )
                before = after
        finally:
            registry_module.RETAINED_SESSIONS = saved
