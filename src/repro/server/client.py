"""Client library for the progress service.

Thin and stdlib-only, mirroring the protocol one method per op. Every
op runs on a persistent connection checked out of a small pool the
client owns, so a thread issuing ``submit`` + ``watch`` + ``fetch``
connects once, not three times. Any thread may call any method: a
connection serves one op at a time, concurrent ops each take their own
(at most :data:`MAX_IDLE_CONNECTIONS` stay open once they finish), and
the pool lock is never held across connect, send or receive.

    with ProgressClient("127.0.0.1", 7661) as client:
        session = client.submit("SELECT ... ")
        for event in client.watch(session["session_id"]):
            print(event["session"]["progress"])

Reuse rules. An idle connection that polls readable has hit EOF (server
restarted, idle handler dropped) or carries bytes nobody asked for: it
is closed *before* anything is sent and the op takes another. Once
request bytes have left, nothing is ever resent — a ``submit`` that
failed after the send may have been admitted — so any failure closes
that connection and raises. ``TCP_NODELAY`` is set on every connection:
without it a warm connection stalls ~40 ms per ``watch`` on Nagle
meeting the peer's delayed ACK (docs/SERVER.md, "Connection lifecycle").

Failure handling: every transport-level failure surfaces as a
:class:`ServiceError` with a stable code — ``connection`` (socket error /
reset / timeout), ``closed`` (EOF before a reply), ``protocol`` (truncated
or malformed frame) — never a raw ``ConnectionResetError`` or
``json.JSONDecodeError``. :meth:`watch` and :meth:`wait` additionally
retry those transient codes with bounded exponential backoff; a resumed
watch passes the last seen snapshot ``seq`` as the protocol's
``since`` cursor, so the re-attached stream never replays or regresses.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import time
from typing import Iterator

from repro.server.protocol import ProtocolError, decode, encode, read_message, unpack_columns
from repro.server.wire import TERMINAL_WIRE_STATES, apply_delta

__all__ = ["ProgressClient", "ServiceError"]

#: ServiceError codes that describe transport trouble rather than a server
#: verdict — the only ones watch/wait reconnect on (a server-sent error
#: like ``unknown_session`` will not get better by retrying).
#: ``too_many_connections`` belongs here: the server refused the
#: *connection*, before reading any request, and a slot frees as soon as
#: another client closes one.
TRANSIENT_CODES = frozenset(
    {"connection", "closed", "protocol", "too_many_connections"}
)

#: How many finished-with connections a client keeps open for reuse. More
#: threads than this may be mid-op at once (each on its own connection);
#: the surplus is closed on check-in rather than parked on server threads.
MAX_IDLE_CONNECTIONS = 4


class ServiceError(RuntimeError):
    """The service answered ``{"ok": false, ...}`` — or could not answer.

    ``code`` distinguishes server verdicts (``unknown_session``,
    ``admission``, ...) from transport failures (:data:`TRANSIENT_CODES`).
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _raise_if_error(response: dict) -> dict:
    if not response.get("ok", False):
        error = response.get("error") or {}
        raise ServiceError(
            str(error.get("code", "unknown")), str(error.get("message", response))
        )
    return response


def _backoff_s(attempt: int, base_s: float, cap_s: float) -> float:
    """Bounded exponential backoff: base * 2^(attempt-1), capped."""
    return min(base_s * (2 ** max(attempt - 1, 0)), cap_s)


class _Connection:
    """One socket and its one buffered reader, together for the socket's
    life: a second ``makefile`` on the same socket would lose whatever the
    first had already buffered."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def stale(self) -> bool:
        """An *idle* connection owes us nothing, so one that polls readable
        has hit EOF or holds stray bytes — either way not reusable."""
        readable, _, _ = select.select([self.sock], [], [], 0)
        return bool(readable)

    def close(self) -> None:
        try:
            self.reader.close()
        finally:
            self.sock.close()


class ProgressClient:
    """Speaks the JSON-lines protocol to one service endpoint.

    Owns a pool of persistent connections; :meth:`close` (or leaving the
    ``with`` block) closes the idle ones. A closed client stays usable —
    the next op simply connects again.
    """

    _guarded_by_ = {"_idle": "_pool_lock"}

    def __init__(self, host: str = "127.0.0.1", port: int = 7661, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._pool_lock = threading.Lock()
        # LIFO: the most recently used connection is the likeliest alive.
        self._idle: list[_Connection] = []

    # -- plumbing ---------------------------------------------------------------

    def _connect(self) -> _Connection:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _Connection(sock)

    def _checkout(self) -> _Connection:
        """The newest healthy idle connection, else a fresh one. Stale ones
        are discarded here — before any request byte is sent — which is
        the only place a dead connection is ever papered over."""
        while True:
            with self._pool_lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                return self._connect()
            if not conn.stale():
                return conn
            conn.close()

    def _checkin(self, conn: _Connection) -> None:
        """Return a connection whose last op fully completed."""
        with self._pool_lock:
            if len(self._idle) < MAX_IDLE_CONNECTIONS:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Close every idle connection."""
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ProgressClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip(self, request: dict) -> dict:
        try:
            conn = self._checkout()
            try:
                conn.sock.sendall(encode(request))
                response = read_message(conn.reader)
                if response is None:
                    raise ServiceError("closed", "connection closed before a response")
            except BaseException:
                # The request may have reached the server: the connection
                # is dropped and the failure raised, never a resend.
                conn.close()
                raise
        except ProtocolError as exc:
            # Truncated or malformed reply: surface a typed error, never a
            # raw JSONDecodeError, so callers can tell "bad wire" from
            # "server said no".
            raise ServiceError("protocol", f"malformed server reply: {exc}") from None
        except (ConnectionError, TimeoutError, OSError) as exc:
            raise ServiceError(
                "connection", f"{type(exc).__name__}: {exc}"
            ) from None
        self._checkin(conn)
        return _raise_if_error(response)

    # -- operations -------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self._roundtrip({"op": "ping"}).get("pong"))

    def submit(
        self,
        sql: str,
        mode: str | None = None,
        name: str | None = None,
        timeout_s: float | None = None,
        quantum_rows: int | None = None,
    ) -> dict:
        """Submit SQL; returns the session's snapshot (incl. ``session_id``)."""
        request: dict = {"op": "submit", "sql": sql}
        if mode is not None:
            request["mode"] = mode
        if name is not None:
            request["name"] = name
        if timeout_s is not None:
            request["timeout_s"] = timeout_s
        if quantum_rows is not None:
            request["quantum_rows"] = quantum_rows
        return self._roundtrip(request)["session"]

    def status(self, session_id: str) -> dict:
        return self._roundtrip({"op": "status", "session_id": session_id})["session"]

    def list_sessions(self) -> dict:
        """``{"sessions": [...], "workload": {...}}``."""
        response = self._roundtrip({"op": "list"})
        return {"sessions": response["sessions"], "workload": response["workload"]}

    def cancel(self, session_id: str, reason: str | None = None) -> dict:
        request: dict = {"op": "cancel", "session_id": session_id}
        if reason is not None:
            request["reason"] = reason
        return self._roundtrip(request)["session"]

    def fetch(self, session_id: str) -> dict:
        """``{"columns": [...], "rows": [...], "truncated": bool, ...}``,
        the rows rebuilt from the reply's column-major ``data``."""
        response = self._roundtrip({"op": "fetch", "session_id": session_id})
        response.pop("ok", None)
        try:
            columns = unpack_columns(response.pop("data"))
        except (KeyError, TypeError, ValueError, struct.error) as exc:
            raise ServiceError("protocol", f"malformed fetch reply: {exc!r}") from None
        response["rows"] = [list(row) for row in zip(*columns)]
        return response

    def shutdown_server(self) -> None:
        self._roundtrip({"op": "shutdown"})
        self.close()

    def watch(
        self,
        session_id: str | None = None,
        until_idle: bool = False,
        since: int | None = None,
        max_reconnects: int = 5,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
    ) -> Iterator[dict]:
        """Stream watch events until the server ends the stream.

        Yields every event line including the final ``end`` event. The
        stream holds one pooled connection, which goes back to the pool
        only once ``end`` has been read off it; closing the generator
        early closes the connection instead, which detaches the
        server-side subscription.

        The server sends each session a full keyframe first and then,
        between periodic keyframes, compact ``delta`` frames holding only
        the changed fields. Reassembly is transparent — callers always see
        full ``snapshot`` events, bit-identical to what the server
        published. A delta that cannot be applied (base state lost) forces
        a reconnect, which resyncs via a fresh keyframe.

        A stream that dies *without* an ``end`` event (reset, truncated
        frame, EOF) is re-attached with bounded exponential backoff, up to
        ``max_reconnects`` consecutive failures. Single-session watches
        resume exactly: the last seen snapshot ``seq`` rides along as the
        protocol's ``since`` cursor, so the server suppresses anything the
        client already saw and the merged stream keeps its strictly
        increasing ``seq`` / non-regressing progress guarantees. ``since``
        can also be seeded explicitly to continue from an earlier watch.
        """
        last_seq = since
        failures = 0
        # Per-session reassembly bases: the last full snapshot dict seen for
        # each session, which the next delta frame merges onto.
        bases: dict[str, dict] = {}
        while True:
            request: dict = {"op": "watch", "until_idle": until_idle}
            if session_id is not None:
                request["session_id"] = session_id
                if last_seq is not None:
                    request["since"] = last_seq
            try:
                conn = self._checkout()
            except (ConnectionError, TimeoutError, OSError) as exc:
                failures += 1
                if failures > max_reconnects:
                    raise ServiceError(
                        "connection",
                        f"watch reconnect gave up after {max_reconnects} attempts: {exc}",
                    ) from None
                time.sleep(_backoff_s(failures, backoff_s, max_backoff_s))
                continue
            # True only once ``end`` has been consumed: anything else —
            # an abandoned generator, an error line, a lost delta base, a
            # socket error — leaves unread frames (or a live subscription)
            # behind, so the connection is closed rather than reused.
            drained = False
            try:
                conn.sock.sendall(encode(request))  # noqa: R007 - once per (re)connect
                while True:
                    line = conn.reader.readline()
                    if not line:
                        break  # dropped without "end": reconnect below
                    event = decode(line)
                    if not event.get("ok", True):
                        code = str((event.get("error") or {}).get("code", ""))
                        if code in TRANSIENT_CODES:
                            # The server judged *our request* garbled —
                            # which, under socket faults, means the wire
                            # truncated it in flight — or refused the
                            # connection at its cap. Re-send, don't die.
                            break
                        _raise_if_error(event)  # a real verdict: no retry
                    if event.get("event") == "delta":
                        sid = str(event.get("session_id", ""))
                        base = bases.get(sid)
                        try:
                            if base is None:
                                raise ValueError(f"no base snapshot for {sid}")
                            merged = apply_delta(base, event)
                        except (ValueError, KeyError, TypeError):
                            # Base state lost (shouldn't happen on a
                            # healthy stream): resync via a keyframe on
                            # a fresh connection instead of guessing.
                            break
                        event = {"event": "snapshot", "session": merged}
                    if event.get("event") == "snapshot":
                        wire = event.get("session", {})
                        bases[str(wire.get("session_id", ""))] = wire
                        if session_id is not None:
                            seq = int(wire.get("seq", 0))
                            if last_seq is not None and seq <= last_seq:
                                continue  # duplicate across a reconnect seam
                            last_seq = seq
                    failures = 0  # the stream is demonstrably alive
                    drained = event.get("event") == "end"
                    yield event
                    if drained:
                        return
            except ProtocolError:
                pass  # truncated/garbled frame: treat as a dead stream
            except (ConnectionError, TimeoutError, OSError):
                pass
            finally:
                if drained:
                    self._checkin(conn)
                else:
                    conn.close()
            failures += 1
            if failures > max_reconnects:
                raise ServiceError(
                    "connection",
                    f"watch stream lost after {max_reconnects} reconnect attempts",
                )
            time.sleep(_backoff_s(failures, backoff_s, max_backoff_s))

    def wait(
        self,
        session_id: str,
        timeout: float = 120.0,
        poll_s: float = 0.05,
        max_retries: int = 5,
        backoff_s: float = 0.05,
        max_backoff_s: float = 1.0,
    ) -> dict:
        """Poll ``status`` until the session is terminal; returns the final
        snapshot. Raises :class:`TimeoutError` when ``timeout`` elapses.

        Transport-level :class:`ServiceError`\\ s (:data:`TRANSIENT_CODES`)
        are retried with bounded exponential backoff — up to ``max_retries``
        *consecutive* failures — since the session keeps executing
        server-side regardless of how many status polls get through.
        """
        deadline = time.monotonic() + timeout
        failures = 0
        while True:
            try:
                snap = self.status(session_id)
            except ServiceError as exc:
                if exc.code not in TRANSIENT_CODES:
                    raise
                failures += 1
                if failures > max_retries:
                    raise
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"session {session_id} status unreachable after {timeout}s"
                    ) from None
                time.sleep(_backoff_s(failures, backoff_s, max_backoff_s))
                continue
            failures = 0
            if snap["state"] in TERMINAL_WIRE_STATES:
                return snap
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"session {session_id} still {snap['state']} after {timeout}s"
                )
            time.sleep(poll_s)
