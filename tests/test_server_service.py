"""End-to-end tests for the TCP progress service and client library.

Covers the acceptance scenario from the server subsystem design: 16
concurrent sessions on a 4-worker scheduler, each watched by two
concurrent subscribers, with monotone streamed progress, exact 1.0 final
snapshots, results that match the single-threaded engine row for row, and
cancellation that frees the worker and shows up in the aggregate view.
"""

import socket
import statistics
import threading
import time

import pytest

from repro.executor.engine import ExecutionEngine
from repro.server import ProgressClient, ProgressService, ServiceError
from repro.server import service as service_module
from repro.server.client import MAX_IDLE_CONNECTIONS, TRANSIENT_CODES
from repro.server.protocol import decode, encode
from repro.server.session import QuerySession
from repro.sql import compile_select

from tests.test_server_client import wait_for

QUERIES = [
    "SELECT c.name, o.totalprice FROM customer c JOIN orders o"
    " ON c.custkey = o.custkey",
    "SELECT o.orderkey, o.totalprice FROM orders o WHERE o.totalprice > 1000",
    "SELECT n.name, c.name FROM nation n JOIN customer c"
    " ON n.nationkey = c.nationkey",
    "SELECT o.custkey, COUNT(*) FROM orders o GROUP BY o.custkey",
]

LONG_QUERY = (
    "SELECT a.orderkey, b.orderkey FROM orders a JOIN orders b"
    " ON a.custkey = b.custkey"
)


@pytest.fixture(scope="module")
def db():
    from repro.datagen import generate_tpch

    return generate_tpch(sf=0.002, seed=21)


@pytest.fixture()
def service(db):
    svc = ProgressService(
        db,
        port=0,
        workers=4,
        quantum_rows=64,
        tick_interval=200,
        row_cap=50_000,
        max_pending=64,
    )
    svc.start()
    client = ProgressClient(svc.host, svc.port, timeout=30.0)
    try:
        yield svc, client
    finally:
        client.close()
        svc.shutdown()


def collect_watch(client, session_id, out):
    events = [e for e in client.watch(session_id)]
    out.append(events)


class TestAcceptance:
    def test_sixteen_concurrent_sessions_two_watchers_each(self, db, service):
        _svc, client = service
        expected_rows = {}
        for i, sql in enumerate(QUERIES):
            result = ExecutionEngine(compile_select(db, sql).plan).run()
            expected_rows[i % len(QUERIES)] = result.rows

        submitted = []
        for i in range(16):
            sql = QUERIES[i % len(QUERIES)]
            snap = client.submit(sql, name=f"q{i:02d}")
            submitted.append((i, snap["session_id"]))

        streams: dict[str, list] = {}
        threads = []
        for _i, sid in submitted:
            for _w in range(2):
                out = []
                streams.setdefault(sid, []).append(out)
                t = threading.Thread(
                    target=collect_watch, args=(client, sid, out), daemon=True
                )
                t.start()
                threads.append(t)

        finals = {sid: client.wait(sid, timeout=120.0) for _i, sid in submitted}
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive(), "watcher thread did not terminate"

        for i, sid in submitted:
            final = finals[sid]
            assert final["state"] == "finished"
            assert final["progress"] == 1.0
            assert final["work_done"] == final["work_total_estimate"]

            fetched = client.fetch(sid)
            assert not fetched["truncated"]
            got = [tuple(row) for row in fetched["rows"]]
            assert got == expected_rows[i % len(QUERIES)]

            for out in streams[sid]:
                (events,) = out
                assert events, f"watcher of {sid} saw no events"
                assert events[-1]["event"] == "end"
                snaps = [e["session"] for e in events if e["event"] == "snapshot"]
                assert snaps, f"watcher of {sid} saw no snapshots"
                assert all(s["session_id"] == sid for s in snaps)
                progresses = [s["progress"] for s in snaps]
                assert progresses == sorted(progresses), (
                    f"stream for {sid} regressed: {progresses}"
                )
                assert snaps[-1]["progress"] == 1.0
                assert snaps[-1]["state"] == "finished"

        workload = client.list_sessions()["workload"]
        assert workload["progress"] == 1.0
        assert workload["states"] == {"finished": 16}

    def test_cancel_mid_flight_reflected_in_workload(self, service):
        _svc, client = service
        victim = client.submit(LONG_QUERY, name="victim", quantum_rows=16)
        survivor = client.submit(QUERIES[1], name="survivor")
        cancelled = client.cancel(victim["session_id"], reason="operator abort")
        final_victim = client.wait(victim["session_id"], timeout=60.0)
        final_survivor = client.wait(survivor["session_id"], timeout=60.0)
        assert cancelled["session_id"] == victim["session_id"]
        assert final_victim["state"] == "cancelled"
        assert final_victim["error"] == "operator abort"
        # The worker was released: the other query still ran to completion.
        assert final_survivor["state"] == "finished"
        listing = client.list_sessions()
        workload = listing["workload"]
        assert workload["states"]["cancelled"] == 1
        assert workload["states"]["finished"] == 1
        assert workload["idle"]
        by_id = {s["session_id"]: s for s in listing["sessions"]}
        assert by_id[victim["session_id"]]["state"] == "cancelled"

    def test_timeout_cancels_session(self, service):
        _svc, client = service
        snap = client.submit(LONG_QUERY, timeout_s=0.001, quantum_rows=8)
        final = client.wait(snap["session_id"], timeout=60.0)
        assert final["state"] == "cancelled"
        assert "deadline exceeded" in final["error"]


class TestProtocolOps:
    def test_ping(self, service):
        _svc, client = service
        assert client.ping() is True

    def test_status_unknown_session(self, service):
        _svc, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.status("no-such-session")
        assert excinfo.value.code == "unknown_session"

    def test_submit_bad_sql(self, service):
        _svc, client = service
        with pytest.raises(ServiceError):
            client.submit("SELECT FROM WHERE")

    def test_unknown_op_rejected(self, service):
        svc, _client = service
        with socket.create_connection((svc.host, svc.port), timeout=10) as conn:
            conn.sendall(encode({"op": "explode"}))
            with conn.makefile("rb") as stream:
                response = decode(stream.readline())
        assert response["ok"] is False

    def test_multiple_requests_one_connection(self, service):
        svc, _client = service
        with socket.create_connection((svc.host, svc.port), timeout=10) as conn:
            with conn.makefile("rb") as stream:
                for _ in range(3):
                    conn.sendall(encode({"op": "ping"}))
                    response = decode(stream.readline())
                    assert response["ok"] and response["pong"]

    def test_aggregate_watch_until_idle(self, service):
        _svc, client = service
        sids = [
            client.submit(QUERIES[i % len(QUERIES)], name=f"agg{i}")["session_id"]
            for i in range(3)
        ]
        events = list(client.watch(until_idle=True))
        assert events[-1]["event"] == "end"
        workloads = [e["workload"] for e in events if e.get("event") == "workload"]
        assert workloads, "aggregate watch never reported workload progress"
        dones = [w["work_done"] for w in workloads]
        assert dones == sorted(dones)
        assert workloads[-1]["progress"] == 1.0
        for sid in sids:
            assert client.status(sid)["state"] == "finished"

    def test_admission_error_surfaces_to_client(self, db):
        svc = ProgressService(db, port=0, workers=1, max_pending=1)
        svc.start()
        client = ProgressClient(svc.host, svc.port)
        try:
            client.submit(LONG_QUERY, quantum_rows=8)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(LONG_QUERY, quantum_rows=8)
            assert excinfo.value.code == "admission"
        finally:
            client.close()
            svc.shutdown()

    def test_shutdown_op(self, db):
        svc = ProgressService(db, port=0, workers=1)
        svc.start()
        client = ProgressClient(svc.host, svc.port)
        client.shutdown_server()
        assert svc._stopped.wait(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                socket.create_connection((svc.host, svc.port), timeout=1).close()
            except OSError:
                return  # listening socket is gone: clean shutdown
            time.sleep(0.05)
        pytest.fail("server socket still accepting connections after shutdown")


@pytest.fixture()
def connects(monkeypatch):
    """Counts every ``socket.create_connection`` made while the test runs."""
    made = []
    real = socket.create_connection

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return made


def submit_watch_fetch(client, sql=QUERIES[1]) -> str:
    sid = client.submit(sql)["session_id"]
    events = list(client.watch(sid))
    assert events[-1]["event"] == "end"
    assert events[-2]["session"]["state"] == "finished"
    assert client.fetch(sid)["state"] == "finished"
    return sid


class TestPooledConnections:
    """The client's persistent transport against the live service."""

    def test_fifty_ops_one_connection(self, service, connects):
        svc, client = service
        for _ in range(50):
            submit_watch_fetch(client)
        assert len(connects) == 1
        assert len(svc.registry) == 50

    def test_eight_threads_share_the_pool(self, service, connects):
        svc, client = service
        errors = []

        def loop():
            try:
                for _ in range(10):
                    submit_watch_fetch(client)
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=loop, daemon=True) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
            assert not t.is_alive()
        assert errors == []
        # A thread only connects when every pooled connection is busy, so
        # eight threads never need more than eight.
        assert 1 <= len(connects) <= 8
        assert len(client._idle) <= MAX_IDLE_CONNECTIONS
        assert len(svc.registry) == 80

    def test_warm_watch_of_finished_session_does_not_stall(self, service):
        """Guards ``TCP_NODELAY`` on a *reused* connection.

        With Nagle on, a second small write on a warm connection waits for
        the peer's delayed ACK of the first: ~40 ms per stream (measured
        42.5 ms), invisible on fresh connections because Linux starts
        those in quick-ACK mode. The per-session watch of a finished
        session is one write now (frame + ``end``), so the aggregate
        watch — frame, workload line, ``end``: three writes — is what
        still fails with the two ``TCP_NODELAY`` settings removed. (It is
        the server's that loopback timing can see; the client's is
        asserted directly in ``test_server_client.py``.)
        """
        _svc, client = service
        sid = submit_watch_fetch(client)
        single, aggregate = [], []
        for _ in range(50):
            t0 = time.perf_counter()
            events = list(client.watch(sid))
            t1 = time.perf_counter()
            idle = list(client.watch(until_idle=True))
            t2 = time.perf_counter()
            single.append(t1 - t0)
            aggregate.append(t2 - t1)
            assert [e["event"] for e in events] == ["snapshot", "end"]
            assert [e["event"] for e in idle] == ["snapshot", "workload", "end"]
        assert statistics.median(single) < 0.010
        assert statistics.median(aggregate) < 0.010

    def test_abandoned_watch_leaves_no_stray_frames(self, service, db):
        svc, client = service
        # Registered but never submitted: the test steps it, so it is still
        # running when the cancel arrives however fast the machine is.
        held = QuerySession(compile_select(db, LONG_QUERY).plan, quantum_rows=16)
        held.add_listener(svc._on_session_event)
        sid = svc.registry.add(held).session_id
        stream = client.watch(sid)
        assert next(stream)["event"] == "snapshot"
        stream.close()
        for _ in range(20):  # frames published to the abandoned watch
            assert held.step()
        # The next op gets its own reply, not a frame the stream left behind.
        status = client.status(sid)
        assert status["session_id"] == sid and "state" in status
        assert client.ping() is True
        client.cancel(sid)
        assert not held.step()
        assert client.wait(sid, timeout=60.0)["state"] == "cancelled"

    def test_server_restart_between_submits_no_duplicate(self, db):
        first = ProgressService(db, port=0, workers=1)
        first.start()
        second = ProgressService(db, port=first.port, workers=1)
        replies = 0
        with ProgressClient(first.host, first.port, timeout=10.0) as client:
            try:
                client.submit(QUERIES[1])
                replies += 1
                first.shutdown()
                # The dead server's FIN must have landed for the stale
                # check to see it; wait for that, not for a fixed sleep.
                wait_for(lambda: all(c.stale() for c in client._idle))
                second.start()
                client.submit(QUERIES[1])
                replies += 1
                assert client.ping() is True
            finally:
                first.shutdown()
                second.shutdown()
        assert replies == 2
        assert len(first.registry) + len(second.registry) == replies


class TestConnectionLifecycle:
    """Server side of long-lived connections: blank-line floods, the
    connection cap, and idle connections at shutdown."""

    def test_blank_line_flood_then_ping_is_answered(self, service):
        svc, _client = service
        with socket.create_connection((svc.host, svc.port), timeout=10) as conn:
            conn.sendall(b"\n" * 5000 + encode({"op": "ping"}))
            with conn.makefile("rb") as stream:
                assert decode(stream.readline()) == {"ok": True, "pong": True}

    def test_connection_cap_refuses_then_readmits(self, db, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_CONNECTIONS", 2)
        svc = ProgressService(db, port=0, workers=1)
        svc.start()
        address = (svc.host, svc.port)

        def pinged(conn) -> bool:
            conn.sendall(encode({"op": "ping"}))
            with conn.makefile("rb") as stream:
                return decode(stream.readline()).get("pong") is True

        try:
            with socket.create_connection(address, timeout=10) as one:
                with socket.create_connection(address, timeout=10) as two:
                    assert pinged(one) and pinged(two)
                    with socket.create_connection(address, timeout=10) as three:
                        with three.makefile("rb") as stream:
                            refusal = decode(stream.readline())
                            assert refusal["ok"] is False
                            assert refusal["error"]["code"] == "too_many_connections"
                            assert stream.readline() == b""  # then EOF
                    assert pinged(one) and pinged(two)  # the admitted two are unharmed
                # ``two`` is closed: once its handler has let go, a newcomer fits.
                wait_for(lambda: len(svc._server._connections) == 1)
                with socket.create_connection(address, timeout=10) as four:
                    assert pinged(four)
        finally:
            svc.shutdown()

    def test_client_at_the_cap_backs_off_until_a_slot_frees(self, db, monkeypatch):
        """A refusal at the cap is transient: ``wait`` retries it with
        backoff instead of failing, and gets in once a slot frees."""
        monkeypatch.setattr(service_module, "MAX_CONNECTIONS", 1)
        svc = ProgressService(db, port=0, workers=1)
        svc.start()
        try:
            sid = svc.submit_sql(QUERIES[1]).session_id
            holder = socket.create_connection((svc.host, svc.port), timeout=10)
            try:
                with ProgressClient(svc.host, svc.port, timeout=10.0) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        client.ping()
                    assert excinfo.value.code == "too_many_connections"
                    assert excinfo.value.code in TRANSIENT_CODES
                    threading.Timer(0.2, holder.close).start()
                    assert client.wait(sid, timeout=30.0)["state"] == "finished"
            finally:
                holder.close()
        finally:
            svc.shutdown()

    def test_shutdown_ends_idle_connections(self, db):
        threads_before = threading.active_count()
        svc = ProgressService(db, port=0, workers=1)
        svc.start()
        try:
            with socket.create_connection((svc.host, svc.port), timeout=2.0) as conn:
                with conn.makefile("rb") as stream:
                    conn.sendall(encode({"op": "ping"}))
                    assert decode(stream.readline())["pong"] is True
                    # The handler is now parked in readline() on this socket.
                    svc.shutdown()
                    assert stream.readline() == b""  # EOF within the 2 s timeout
        finally:
            svc.shutdown()
        wait_for(lambda: threading.active_count() <= threads_before, timeout=2.0)


class TestIdleReaping:
    """An idle connection is closed after ``IDLE_TIMEOUT_S`` and its slot
    freed; a watch parked on a quiet session is not idle."""

    @pytest.fixture
    def reaping(self, db, monkeypatch):
        monkeypatch.setattr(service_module, "IDLE_TIMEOUT_S", 0.2)
        svc = ProgressService(db, port=0, workers=1)
        svc.start()
        client = ProgressClient(svc.host, svc.port, timeout=10.0)
        try:
            yield svc, client
        finally:
            client.close()
            svc.shutdown()

    def test_idle_pooled_connection_frees_its_slot(self, reaping, connects):
        svc, client = reaping
        assert client.ping()
        assert len(svc._server._connections) == 1
        wait_for(lambda: not svc._server._connections, timeout=5.0)
        # The pooled connection now polls EOF: the stale check drops it
        # before sending, so the next op simply connects again.
        assert client.ping()
        assert len(connects) == 2

    def test_quiet_watch_is_not_reaped(self, db, reaping):
        svc, client = reaping
        held = QuerySession(compile_select(db, QUERIES[1]).plan, quantum_rows=64)
        held.add_listener(svc._on_session_event)
        svc.registry.add(held)  # never submitted: PENDING until stepped here
        events = []

        def watch():
            for event in client.watch(held.session_id, max_reconnects=0):
                events.append(event)

        watcher = threading.Thread(target=watch)
        watcher.start()
        wait_for(lambda: events, timeout=5.0)  # the primed PENDING frame
        time.sleep(1.0)  # five idle timeouts
        assert watcher.is_alive()
        while held.step():
            pass
        watcher.join(timeout=10.0)
        assert not watcher.is_alive()
        assert events[0]["session"]["state"] == "pending"
        assert events[-2]["session"]["state"] == "finished"
        assert events[-1] == {"event": "end", "reason": "session terminal"}
