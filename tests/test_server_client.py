"""Unit tests for ProgressClient's transport-failure handling.

These run against tiny hand-scripted TCP servers (not ProgressService), so
each failure mode — truncated reply, slammed connection, refused port,
server verdicts — is produced exactly, and the client's typed
:class:`ServiceError` contract plus the watch/wait retry machinery can be
asserted in isolation.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time

import pytest

from repro.server.client import TRANSIENT_CODES, ProgressClient, ServiceError
from repro.server.protocol import decode, encode


class ScriptedServer:
    """Accept connections; for each, read one line, run the next script
    step and close — or, with ``persistent=True``, keep reading lines off
    the same connection (one step each) until the peer or a step closes
    it. Steps are callables ``(conn, request_line) -> None``; the server
    replays the last step once the script runs out."""

    def __init__(self, *steps, persistent: bool = False):
        self.steps = list(steps)
        self.persistent = persistent
        self.requests: list[dict | None] = []
        self.connections = 0
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        index = 0
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn, conn.makefile("rb") as reader:
                try:
                    while True:
                        line = reader.readline()
                        if self.persistent and not line:
                            break  # the peer (or a step) closed it
                        try:
                            self.requests.append(decode(line) if line else None)
                        except Exception:  # noqa: BLE001 - scripted peer, keep going
                            self.requests.append(None)
                        step = self.steps[min(index, len(self.steps) - 1)]
                        index += 1
                        step(conn, line)
                        if not self.persistent:
                            break
                except OSError:
                    pass

    def close(self):
        self._stop.set()
        # Closing alone does not wake a thread blocked in accept() on Linux;
        # shutting the listener down does (other platforms may refuse it).
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        self._thread.join(timeout=5.0)


def reply(*messages):
    def step(conn, _line):
        for message in messages:
            conn.sendall(encode(message))

    return step


def reply_raw(data: bytes):
    def step(conn, _line):
        conn.sendall(data)

    return step


def slam(conn, _line):
    # shutdown, not just close: the server's reader still references the
    # socket, which would defer a bare close() past the next readline.
    conn.shutdown(socket.SHUT_RDWR)


@pytest.fixture
def scripted(request):
    servers = []

    def make(*steps, persistent=False):
        server = ScriptedServer(*steps, persistent=persistent)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()


class TestRoundtripErrors:
    def test_truncated_reply_is_protocol_error(self, scripted):
        server = scripted(reply_raw(b'{"ok": true, "po'))
        client = ProgressClient("127.0.0.1", server.port, timeout=5.0)
        with pytest.raises(ServiceError) as excinfo:
            client.ping()
        assert excinfo.value.code == "protocol"
        assert "malformed" in str(excinfo.value)

    def test_immediate_close_is_closed_error(self, scripted):
        server = scripted(slam)
        client = ProgressClient("127.0.0.1", server.port, timeout=5.0)
        with pytest.raises(ServiceError) as excinfo:
            client.ping()
        assert excinfo.value.code in ("closed", "connection")

    def test_refused_port_is_connection_error(self):
        # Bind-then-close guarantees nothing is listening on the port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ProgressClient("127.0.0.1", port, timeout=2.0)
        with pytest.raises(ServiceError) as excinfo:
            client.ping()
        assert excinfo.value.code == "connection"

    def test_server_verdict_code_preserved(self, scripted):
        server = scripted(
            reply({"ok": False, "error": {"code": "unknown_session", "message": "s9"}})
        )
        client = ProgressClient("127.0.0.1", server.port, timeout=5.0)
        with pytest.raises(ServiceError) as excinfo:
            client.status("s9")
        assert excinfo.value.code == "unknown_session"
        assert excinfo.value.message == "s9"
        assert excinfo.value.code not in TRANSIENT_CODES

    def test_ok_response_passes_through(self, scripted):
        server = scripted(reply({"ok": True, "pong": True}))
        client = ProgressClient("127.0.0.1", server.port, timeout=5.0)
        assert client.ping() is True
        assert server.requests == [{"op": "ping"}]


class TestPooledTransport:
    """The connection pool against scripted peers: reuse, the stale check
    before reuse, and the rule that nothing is resent after a send."""

    def test_ops_share_one_connection(self, scripted):
        final = _snapshot("s1", 2, 1.0, state="finished")
        server = scripted(
            reply({"ok": True, "session": final["session"]}),
            reply(final, {"event": "end", "reason": "session terminal"}),
            reply({"ok": True, "columns": [], "data": [], "truncated": False}),
            reply({"ok": True, "pong": True}),
            persistent=True,
        )
        with ProgressClient("127.0.0.1", server.port, timeout=5.0) as client:
            assert client.submit("SELECT 1")["session_id"] == "s1"
            assert [e["event"] for e in client.watch("s1")] == ["snapshot", "end"]
            assert client.fetch("s1")["rows"] == []
            assert client.ping() is True
            # One request per reply never trips Nagle on loopback, so no
            # timing test can see this; a request over one MSS on a real
            # network would stall on it.
            (conn,) = client._idle
            assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        assert [r["op"] for r in server.requests] == ["submit", "watch", "fetch", "ping"]
        assert server.connections == 1

    def test_stale_connection_replaced_before_send(self, scripted):
        # The classic peer closes after every reply, so each pooled
        # connection is dead by the next op: the stale check must swap it
        # out *before* sending — every request arrives exactly once.
        server = scripted(reply({"ok": True, "pong": True}))
        with ProgressClient("127.0.0.1", server.port, timeout=5.0) as client:
            for _ in range(5):
                assert client.ping() is True
                # The peer's FIN follows its reply; let it land so the next
                # checkout deterministically sees the connection as stale.
                wait_for(lambda: all(c.stale() for c in client._idle))
        assert server.requests == [{"op": "ping"}] * 5
        assert server.connections == 5

    def test_failure_after_send_is_not_retried(self, scripted):
        # A warm connection whose peer reads the submit and slams it: the
        # submit may have been admitted, so the client raises — exactly
        # one submit reaches the server, on no second connection.
        server = scripted(reply({"ok": True, "pong": True}), slam, persistent=True)
        with ProgressClient("127.0.0.1", server.port, timeout=5.0) as client:
            assert client.ping() is True
            with pytest.raises(ServiceError) as excinfo:
                client.submit("SELECT 1")
            assert excinfo.value.code == "closed"
            assert client._idle == []  # the failed connection was dropped
        assert [r["op"] for r in server.requests] == ["ping", "submit"]
        assert server.connections == 1

    def test_abandoned_watch_connection_is_not_reused(self, scripted):
        # Frames the abandoned stream never read must not be mistaken for
        # the next op's reply: the connection is closed, not pooled.
        server = scripted(
            reply(_snapshot("s1", 1, 0.1), _snapshot("s1", 2, 0.2)),
            reply({"ok": True, "session": _snapshot("s1", 3, 0.3)["session"]}),
            persistent=True,
        )
        with ProgressClient("127.0.0.1", server.port, timeout=5.0) as client:
            stream = client.watch("s1")
            assert next(stream)["session"]["seq"] == 1
            stream.close()
            assert client._idle == []
            assert client.status("s1")["seq"] == 3
        assert server.connections == 2

    def test_idle_connections_capped_and_closed(self, scripted):
        from repro.server.client import MAX_IDLE_CONNECTIONS

        server = scripted(reply({"ok": True, "pong": True}), persistent=True)
        client = ProgressClient("127.0.0.1", server.port, timeout=5.0)
        conns = [client._checkout() for _ in range(MAX_IDLE_CONNECTIONS + 2)]
        for conn in conns:
            client._checkin(conn)
        assert len(client._idle) == MAX_IDLE_CONNECTIONS
        assert all(c.sock.fileno() == -1 for c in conns[MAX_IDLE_CONNECTIONS:])
        client.close()
        assert client._idle == []
        assert all(c.sock.fileno() == -1 for c in conns)


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


def _snapshot(sid, seq, progress, state="running"):
    return {
        "event": "snapshot",
        "session": {"session_id": sid, "seq": seq, "progress": progress, "state": state},
    }


class TestWatchReconnect:
    def test_resume_sends_since_cursor(self, scripted):
        # First stream dies after seq 3 without an "end"; the reconnect
        # must carry since=3 and the merged stream must not duplicate.
        server = scripted(
            reply(_snapshot("s1", 1, 0.1), _snapshot("s1", 3, 0.3)),
            reply(
                _snapshot("s1", 4, 0.6),
                _snapshot("s1", 5, 1.0, state="finished"),
                {"event": "end", "reason": "finished"},
            ),
        )
        client = ProgressClient("127.0.0.1", server.port, timeout=5.0)
        events = list(client.watch("s1", backoff_s=0.01))
        seqs = [e["session"]["seq"] for e in events if e["event"] == "snapshot"]
        assert seqs == [1, 3, 4, 5]
        assert events[-1]["event"] == "end"
        first, second = server.requests
        assert "since" not in first
        assert second["since"] == 3

    def test_duplicate_snapshots_across_seam_suppressed(self, scripted):
        # A server that ignores `since` and replays seq 1-2 anyway: the
        # client must still deliver each seq exactly once.
        server = scripted(
            reply(_snapshot("s1", 1, 0.1), _snapshot("s1", 2, 0.2)),
            reply(
                _snapshot("s1", 1, 0.1),
                _snapshot("s1", 2, 0.2),
                _snapshot("s1", 3, 1.0, state="finished"),
                {"event": "end", "reason": "finished"},
            ),
        )
        client = ProgressClient("127.0.0.1", server.port, timeout=5.0)
        seqs = [
            e["session"]["seq"]
            for e in client.watch("s1", backoff_s=0.01)
            if e["event"] == "snapshot"
        ]
        assert seqs == [1, 2, 3]

    def test_gives_up_after_max_reconnects(self, scripted):
        server = scripted(slam)
        client = ProgressClient("127.0.0.1", server.port, timeout=5.0)
        with pytest.raises(ServiceError) as excinfo:
            list(client.watch("s1", max_reconnects=2, backoff_s=0.01))
        assert excinfo.value.code == "connection"
        assert len(server.requests) == 3  # initial + 2 reconnects

    def test_server_verdict_ends_watch_without_retry(self, scripted):
        server = scripted(
            reply({"ok": False, "error": {"code": "unknown_session", "message": "s9"}})
        )
        client = ProgressClient("127.0.0.1", server.port, timeout=5.0)
        with pytest.raises(ServiceError) as excinfo:
            list(client.watch("s9", backoff_s=0.01))
        assert excinfo.value.code == "unknown_session"
        assert len(server.requests) == 1


class TestWaitRetry:
    def test_wait_retries_transient_then_succeeds(self, scripted):
        final = {"session_id": "s1", "seq": 9, "progress": 1.0, "state": "finished"}
        server = scripted(
            slam,
            reply_raw(b"garbage that is not json\n"),
            reply({"ok": True, "session": final}),
        )
        client = ProgressClient("127.0.0.1", server.port, timeout=5.0)
        snap = client.wait("s1", timeout=10.0, backoff_s=0.01)
        assert snap == final
        assert len(server.requests) == 3

    def test_wait_does_not_retry_verdicts(self, scripted):
        server = scripted(
            reply({"ok": False, "error": {"code": "unknown_session", "message": "s9"}})
        )
        client = ProgressClient("127.0.0.1", server.port, timeout=5.0)
        with pytest.raises(ServiceError) as excinfo:
            client.wait("s9", timeout=5.0, backoff_s=0.01)
        assert excinfo.value.code == "unknown_session"
        assert len(server.requests) == 1

    def test_wait_gives_up_after_consecutive_failures(self, scripted):
        server = scripted(slam)
        client = ProgressClient("127.0.0.1", server.port, timeout=5.0)
        with pytest.raises(ServiceError):
            client.wait("s1", timeout=10.0, max_retries=2, backoff_s=0.01)
        assert len(server.requests) == 3
