"""Client library for the progress service.

Thin and stdlib-only, mirroring the protocol one method per op. Simple
request/response ops open a short-lived connection each (no client-side
locking needed, any thread may call any method); :meth:`watch` keeps its
connection open and yields decoded events until the stream ends.

    client = ProgressClient("127.0.0.1", 7661)
    session = client.submit("SELECT ... ")
    for event in client.watch(session["session_id"]):
        print(event["session"]["progress"])

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

import socket
import time
from typing import Iterator

from repro.server.protocol import ProtocolError, decode, encode, read_message
from repro.server.wire import apply_delta

__all__ = ["ProgressClient", "ServiceError"]

#: ServiceError codes that describe transport trouble rather than a server
#: verdict — the only ones watch/wait reconnect on (a server-sent error
#: like ``unknown_session`` will not get better by retrying).
TRANSIENT_CODES = frozenset({"connection", "closed", "protocol"})


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


class ProgressClient:
    """Speaks the JSON-lines protocol to one service endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7661, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ---------------------------------------------------------------

    def _connect(self) -> socket.socket:
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def _roundtrip(self, request: dict) -> dict:
        try:
            with self._connect() as conn:
                conn.sendall(encode(request))
                with conn.makefile("rb") as stream:
                    response = read_message(stream)
        except ProtocolError as exc:
            # Truncated or malformed reply: surface a typed error, never a
            # raw JSONDecodeError, so callers can tell "bad wire" from
            # "server said no".
            raise ServiceError("protocol", f"malformed server reply: {exc}") from None
        except (ConnectionError, TimeoutError, OSError) as exc:
            raise ServiceError(
                "connection", f"{type(exc).__name__}: {exc}"
            ) from None
        if response is None:
            raise ServiceError("closed", "connection closed before a response")
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
        """``{"columns": [...], "rows": [...], "truncated": bool, ...}``."""
        response = self._roundtrip({"op": "fetch", "session_id": session_id})
        response.pop("ok", None)
        return response

    def shutdown_server(self) -> None:
        self._roundtrip({"op": "shutdown"})

    def watch(
        self,
        session_id: str | None = None,
        until_idle: bool = False,
        since: int | None = None,
        max_reconnects: int = 5,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        delta: bool = True,
    ) -> Iterator[dict]:
        """Stream watch events until the server ends the stream.

        Yields every event line including the final ``end`` event. Closing
        the generator closes the connection, which detaches the server-side
        subscription.

        By default the client asks for a *delta* stream: the server sends
        each session a periodic full keyframe and, in between, compact
        ``delta`` frames holding only the changed fields. Reassembly is
        transparent — callers always see full ``snapshot`` events,
        bit-identical to a ``delta=False`` stream. A delta that cannot be
        applied (base state lost) forces a reconnect, which resyncs via a
        fresh keyframe. ``delta=False`` requests plain full snapshots
        (compatibility with pre-delta servers, which simply ignore the
        flag either way).

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
            if delta:
                request["delta"] = True
            if session_id is not None:
                request["session_id"] = session_id
                if last_seq is not None:
                    request["since"] = last_seq
            try:
                conn = self._connect()
            except (ConnectionError, TimeoutError, OSError) as exc:
                failures += 1
                if failures > max_reconnects:
                    raise ServiceError(
                        "connection",
                        f"watch reconnect gave up after {max_reconnects} attempts: {exc}",
                    ) from None
                time.sleep(_backoff_s(failures, backoff_s, max_backoff_s))
                continue
            try:
                conn.sendall(encode(request))  # noqa: R007 - once per (re)connect
                with conn.makefile("rb") as stream:
                    while True:
                        line = stream.readline()
                        if not line:
                            break  # dropped without "end": reconnect below
                        event = decode(line)
                        if not event.get("ok", True):
                            code = str((event.get("error") or {}).get("code", ""))
                            if code in TRANSIENT_CODES:
                                # The server judged *our request* garbled —
                                # which, under socket faults, means the wire
                                # truncated it in flight. Re-send, don't die.
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
                        yield event
                        if event.get("event") == "end":
                            return
            except ProtocolError:
                pass  # truncated/garbled frame: treat as a dead stream
            except (ConnectionError, TimeoutError, OSError):
                pass
            finally:
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
            if snap["state"] in ("finished", "cancelled", "failed"):
                return snap
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"session {session_id} still {snap['state']} after {timeout}s"
                )
            time.sleep(poll_s)
