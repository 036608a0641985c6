"""The query-progress service: sessions + scheduler + events over TCP.

:class:`ProgressService` composes the server subsystem into one object:

* SQL arrives over :mod:`repro.server.protocol`, is compiled against the
  service's catalog once per text (a bounded statement cache hands each
  session a ``fresh()`` copy of the compiled plan), wrapped in a
  :class:`~repro.server.session.QuerySession` and admitted to the
  :class:`~repro.server.scheduler.Scheduler`;
* every session is listed in the
  :class:`~repro.server.registry.SessionRegistry` beside its frame
  encoder, and announces each publish on the service's
  :class:`~repro.server.events.EventBus`;
* a stdlib :class:`socketserver.ThreadingTCPServer` serves the protocol —
  one daemon thread per *client connection*, which clients keep open
  between ops (an idle one is parked in ``readline`` for at most
  :data:`IDLE_TIMEOUT_S`), at most :data:`MAX_CONNECTIONS` of them;
  ``watch`` connections are parked on their subscriptions, everything else
  is answered from published snapshots. :meth:`ProgressService.shutdown`
  ends the idle ones.

Fan-out is serialize-once: each published snapshot is encoded to its
wire frame(s) exactly once by the session's
:class:`~repro.server.wire.SessionStreamEncoder`, which keeps the latest
:class:`~repro.server.wire.PublishedFrame`; the bus carries only the
session id. A watch stream writes that frame's pre-encoded bytes (the
delta when its base is the seq the connection wrote last, the full
keyframe otherwise), and ``status``/``list`` answer from the latest
published snapshot instead of resampling. N watchers therefore cost one
encode per publish, not N (lint rule R007 bans per-watcher encodes
mechanically).

Server threads never drive or mutate executor state (lint rule R001
enforces this mechanically for the whole ``repro.server`` package): the
only threads inside operators are scheduler workers, and the only
mutation path is ``Operator.next``/``next_batch`` under the bus lock.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from collections import OrderedDict
from contextlib import closing

from repro.executor.operators.base import Operator
from repro.faults.plan import (
    SHORT_READ,
    SITE_SERVER_READ,
    SITE_SERVER_WRITE,
    FaultPlan,
    InjectedFault,
)
from repro.common.locks import acquires
from repro.server.events import EventBus, Subscription
from repro.server.protocol import (
    OPS,
    ProtocolError,
    encode,
    error_response,
    ok_response,
    pack_columns,
    read_message,
    write_frame,
    write_message,
)
from repro.server.registry import RegistryEntry, SessionRegistry, WorkloadView
from repro.server.scheduler import AdmissionError, Scheduler
from repro.server.session import QuerySession, SessionSnapshot
from repro.server.wire import TERMINAL_WIRE_STATES, PublishedFrame
from repro.storage.catalog import Catalog

__all__ = ["ProgressService"]

#: Live client connections (busy or idle) the server holds at once; one
#: past it is refused with ``too_many_connections``, so the handler-thread
#: count is bounded whatever clients do.
MAX_CONNECTIONS = 256

#: Seconds a connection may sit between requests before the server closes
#: it and frees its slot. A watch waits on its subscription, not on the
#: socket, so a quiet watch is never reaped.
IDLE_TIMEOUT_S = 60.0

#: Compiled statements the service keeps; past it the least recently used
#: is dropped, so the cache is bounded whatever SQL clients send.
STATEMENT_CACHE_SIZE = 256

#: The ``end`` lines a watch stream closes with, encoded once at import so
#: each rides in one send with the line before it and no watcher encodes one.
_END = {
    reason: encode({"event": "end", "reason": reason})
    for reason in ("session terminal", "workload idle", "server shutdown")
}


class ProgressService:
    """A multi-session query-progress service over one catalog."""

    # The statement cache is the only service-level mutable state beyond
    # the composed subsystems (each of which guards its own): every access
    # to it goes through ``_stmt_lock``, and compiling and copying a
    # statement happen outside it.
    _guarded_by_ = {"_statements": "_stmt_lock"}

    def __init__(
        self,
        catalog: Catalog,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        policy: str = "fair",
        quantum_rows: int = 512,
        tick_interval: int = 2000,
        row_cap: int = 10_000,
        max_pending: int = 64,
        sample_fraction: float = 0.0,
        default_timeout_s: float | None = None,
        faults: FaultPlan | None = None,
        history_path=None,
    ):
        self.catalog = catalog
        self.host = host
        self.port = port
        self.quantum_rows = quantum_rows
        self.tick_interval = tick_interval
        self.row_cap = row_cap
        self.sample_fraction = sample_fraction
        self.default_timeout_s = default_timeout_s
        # Deterministic fault injection, only from an explicit plan
        # (``repro serve --faults`` builds one); without it every injection
        # site in the stack stays a zero-cost no-op.
        self.faults = faults
        # Robust subsystem: a run-history store shared by every session
        # (run records out) plus the observed-cardinality overlay the
        # compiler consults. Built after ``faults`` so the store's
        # history.read/write sites are armed; a read fault here degrades
        # the store to an empty history, never the service.
        self.history = None
        self.observed = None
        if history_path is not None:
            from repro.robust import HistoryStore, observed_view

            self.history = HistoryStore(history_path, faults=self.faults)
            self.observed = observed_view(self.history)
        self.registry = SessionRegistry()
        self.events = EventBus()
        self._stmt_lock = threading.Lock()
        self._statements: OrderedDict[tuple, Operator] = OrderedDict()
        self.scheduler = Scheduler(
            workers=workers,
            policy=policy,
            max_pending=max_pending,
        )
        self._server: _ProtocolServer | None = None
        self._server_thread: threading.Thread | None = None
        self._stopped = threading.Event()

    # -- session operations (usable in-process, no TCP required) -----------------

    def submit_sql(
        self,
        sql: str,
        mode: str | None = None,
        name: str | None = None,
        timeout_s: float | None = None,
        quantum_rows: int | None = None,
    ) -> QuerySession:
        """Compile ``sql`` (or copy its cached plan), admit it for
        execution, return the session."""
        session = QuerySession(
            self._plan_for(sql),
            name=name,
            mode=mode or "once",
            tick_interval=self.tick_interval,
            quantum_rows=quantum_rows or self.quantum_rows,
            row_cap=self.row_cap,
            timeout_s=(
                timeout_s if timeout_s is not None else self.default_timeout_s
            ),
            faults=self.faults,
            history=self.history,
            observed=self.observed,
        )
        self.registry.add(session)
        session.add_listener(self._on_session_event)
        try:
            self.scheduler.submit(session)
        except AdmissionError:
            self.registry.remove(session.session_id)
            raise
        return session

    @acquires("_stmt_lock")
    def _plan_for(self, sql: str) -> Operator:
        """A ``fresh()`` copy of ``sql``'s cached, never-run template,
        compiled on a miss. The key holds every other compile input; a
        statement that fails to compile raises and is not cached."""
        from repro.sql import compile_select

        observed = self.observed
        key = (sql, self.catalog.version, None if observed is None else observed.version)
        with self._stmt_lock:
            template = self._statements.get(key)
            if template is not None:
                self._statements.move_to_end(key)
        if template is None:
            template = compile_select(
                self.catalog, sql, sample_fraction=self.sample_fraction, observed=observed
            ).plan
            with self._stmt_lock:
                self._statements[key] = template
                if len(self._statements) > STATEMENT_CACHE_SIZE:
                    self._statements.popitem(last=False)
        return template.fresh()

    def cancel(self, session_id: str, reason: str = "cancelled by client") -> bool:
        session = self.registry.get(session_id)
        if session is None:
            return False
        session.cancel(reason)
        return True

    def _on_session_event(self, session: QuerySession, snap: SessionSnapshot) -> None:
        # The one encode point of the fan-out path: the executing worker
        # turns its snapshot into a pre-encoded frame, and every watcher
        # downstream only ever copies bytes. The frame is stored before
        # the bus is told, so a watcher woken by the id reads it (or newer).
        # A terminal frame is recorded last: from then on the session may be
        # evicted, and a watcher holding its entry still reads the frame.
        encoder = self.registry.encoder(session.session_id)
        if encoder is not None:  # unregistered: nobody can watch it
            encoder.encode(snap)
            self.events.publish(session.session_id)
            if snap.state in TERMINAL_WIRE_STATES:
                self.registry.finished(snap)

    def _workload(self) -> WorkloadView:
        """Aggregate progress over the latest *published* snapshots — no
        resampling — plus the sessions retention has evicted."""
        return SessionRegistry.workload_from(*self.registry.published())

    def _write_session(self, wfile, session: QuerySession) -> None:
        # The latest published snapshot; one the registry no longer holds
        # (never published, or evicted since it was looked up) is taken now.
        entry = self.registry.entry(session.session_id)
        snap = session.snapshot() if entry is None else entry.latest()
        write_message(wfile, ok_response(session=snap.to_wire()))

    @staticmethod
    def _latest_frames(entries: list[RegistryEntry], prime: bool = False) -> list[PublishedFrame]:
        """The latest published frame of each of ``entries``. With ``prime``,
        a session that has never published gets one snapshot pushed through
        its encoder — a once-per-connection cost that also seeds its first
        keyframe."""
        frames = []
        for session, encoder in entries:
            frame = encoder.latest_frame
            if frame is None and prime:
                frame = encoder.encode(session.snapshot())  # noqa: R007 - a prime, once
            if frame is not None:
                frames.append(frame)
        return frames

    # -- TCP lifecycle ------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind and serve in a background thread; returns (host, port)."""
        if self._server is not None:
            return self.host, self.port
        self.scheduler.start()
        self._server = _ProtocolServer((self.host, self.port), self)
        self.host, self.port = self._server.server_address[:2]
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._server_thread.start()
        return self.host, self.port

    def serve_forever(self) -> None:
        """Start and block until :meth:`shutdown` (for the CLI)."""
        self.start()
        self._stopped.wait()

    def shutdown(self) -> None:
        """Stop accepting connections, end watch streams, wake idle
        connections, stop workers."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self.events.close()
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
            server.end_connections()
        if self._server_thread is not None:
            self._server_thread.join(timeout=10.0)
            self._server_thread = None
        self.scheduler.shutdown(wait=True)

    def __enter__(self) -> "ProgressService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- request handling ---------------------------------------------------------

    def handle_request(self, request: dict, wfile) -> bool:
        """Answer one request on ``wfile``; returns False to drop the
        connection (only after ``shutdown``)."""
        op = request.get("op")
        if op not in OPS:
            write_message(
                wfile, error_response("bad_op", f"unknown op {op!r}; ops: {sorted(OPS)}")
            )
            return True
        try:
            handler = getattr(self, f"_op_{op}")
            return handler(request, wfile)
        except (BrokenPipeError, ConnectionResetError):
            raise
        except Exception as exc:  # noqa: BLE001 - the wire gets a typed error
            write_message(
                wfile, error_response(type(exc).__name__.lower(), str(exc))
            )
            return True

    def _session_or_error(self, request: dict, wfile) -> QuerySession | None:
        session_id = request.get("session_id")
        session = self.registry.get(session_id) if session_id else None
        if session is None:
            write_message(
                wfile,
                error_response("unknown_session", f"no session {session_id!r}"),
            )
        return session

    def _op_ping(self, request: dict, wfile) -> bool:
        write_message(wfile, ok_response(pong=True))
        return True

    def _op_submit(self, request: dict, wfile) -> bool:
        sql = request.get("sql")
        if not sql or not isinstance(sql, str):
            write_message(wfile, error_response("bad_request", "submit needs 'sql'"))
            return True
        try:
            session = self.submit_sql(
                sql,
                mode=request.get("mode"),
                name=request.get("name"),
                timeout_s=request.get("timeout_s"),
                quantum_rows=request.get("quantum_rows"),
            )
        except AdmissionError as exc:
            write_message(wfile, error_response("admission", str(exc)))
            return True
        self._write_session(wfile, session)
        return True

    def _op_status(self, request: dict, wfile) -> bool:
        session = self._session_or_error(request, wfile)
        if session is not None:
            self._write_session(wfile, session)
        return True

    def _op_list(self, request: dict, wfile) -> bool:
        # Served entirely from cached published snapshots: a list request
        # never samples live sessions, whatever the request rate.
        snapshots, retired = self.registry.published()
        write_message(
            wfile,
            ok_response(
                sessions=[snap.to_wire() for snap in snapshots],
                workload=SessionRegistry.workload_from(snapshots, retired).to_wire(),
            ),
        )
        return True

    def _op_cancel(self, request: dict, wfile) -> bool:
        session = self._session_or_error(request, wfile)
        if session is not None:
            session.cancel(str(request.get("reason") or "cancelled by client"))
            self._write_session(wfile, session)
        return True

    def _op_fetch(self, request: dict, wfile) -> bool:
        session = self._session_or_error(request, wfile)
        if session is not None:
            columns, rows, truncated = session.results()
            write_message(
                wfile,
                ok_response(
                    columns=columns,
                    data=pack_columns(rows, len(columns)),
                    truncated=truncated,
                    row_count=session.row_count,
                    state=session.state.value,
                ),
            )
        return True

    def _op_shutdown(self, request: dict, wfile) -> bool:
        write_message(wfile, ok_response())
        # Shut down from a helper thread: shutdown() joins the serve loop,
        # which would deadlock if called from a handler thread directly.
        threading.Thread(target=self.shutdown, daemon=True).start()
        return False

    def _op_watch(self, request: dict, wfile) -> bool:
        # A "delta" key from older clients is ignored: every stream is a
        # delta stream.
        session_id = request.get("session_id")
        until_idle = bool(request.get("until_idle"))
        since = request.get("since")
        error = None
        if since is not None:
            try:
                since = int(since)
            except (TypeError, ValueError):
                error = ("bad_request", f"since must be an int, got {since!r}")
            if session_id is None:
                error = error or ("bad_request", "since requires a session_id (per-session seq)")
        # A per-session watch resolves its entry once and keeps it, so the
        # stream reaches the terminal frame even if retention evicts the
        # session meanwhile.
        entry = None if session_id is None else self.registry.entry(session_id)
        if session_id is not None and entry is None:
            error = error or ("unknown_session", f"no session {session_id!r}")
        if error is not None:
            write_message(wfile, error_response(*error))
            return True
        # Detach whether the stream ended or the client went away —
        # otherwise every dead watcher would keep being notified.
        with closing(self.events.subscribe(session_id)) as subscription:
            self._stream_watch(subscription, entry, until_idle, wfile, since)
        return True

    def _stream_watch(
        self,
        subscription: Subscription,
        entry: RegistryEntry | None,
        until_idle: bool,
        wfile,
        since,
    ) -> None:
        # ``sent``: the last seq this connection wrote per session. Nothing at
        # or below it is written again (seq strictly increases), and a delta
        # only onto exactly it (a session's first frame here is a keyframe).
        # ``since``, a resuming client's cursor, floors the watched session.
        # ``entry`` is the watched session's (None for a workload watch).
        session_id = subscription.session_id
        sent: dict[str, int] = {}
        floor = -1 if since is None else since

        def emit(frame: PublishedFrame, then: bytes = b"") -> None:
            # ``then`` rides in the same write as the frame: two small
            # sends back to back are what Nagle + delayed ACK stall on,
            # and one syscall is cheaper than two either way.
            last = sent.get(frame.session_id)
            payload = b""
            if frame.seq > (floor if last is None else last):
                chained = last is not None and frame.base == last
                payload = frame.delta if chained else frame.full
                sent[frame.session_id] = frame.seq
            if payload or then:
                write_frame(wfile, payload + then)

        def flush(frames: list[PublishedFrame], primed: bool = False) -> bool:
            """Write ``frames``; True once the stream has ended."""
            for frame in frames:
                if session_id is not None and frame.terminal:
                    emit(frame, then=_END["session terminal"])
                    return True
                emit(frame)
            if session_id is not None or not (primed or any(f.terminal for f in frames)):
                return False
            # O(state transitions), not O(steps): workload lines only ride
            # along on priming and terminal frames, built from the latest
            # published snapshots.
            view = self._workload()
            done = until_idle and view.idle
            if done:
                # The view is read from the encoders, which hold each
                # session's terminal frame before the bus announces it:
                # write every session's latest frame, so the stream never
                # ends with one unsent.
                for frame in self._latest_frames(self.registry.entries()):
                    emit(frame)
            line = encode({"event": "workload", "workload": view.to_wire()})
            write_frame(wfile, line + _END["workload idle"] if done else line)
            return done

        def entries(changed: list[str] | None) -> list[RegistryEntry]:
            return [entry] if entry is not None else self.registry.entries(changed)

        # Prime the stream with current state so watchers render instantly.
        if flush(self._latest_frames(entries(None), prime=True), primed=True):
            return
        # Shutdown closes the bus, which ends every take() with None.
        while (changed := subscription.take()) is not None:
            if flush(self._latest_frames(entries(changed))):
                return
        write_frame(wfile, _END["server shutdown"])


class _FaultyStream:
    """Socket-file wrapper arming the ``server.read``/``server.write`` sites.

    Injected faults surface as the failure modes a real network produces:
    ``error`` becomes a dropped connection (:class:`ConnectionResetError`,
    which the handler's normal disconnect path absorbs), ``stall`` a
    latency spike, and ``short_read`` a truncated frame — half the line on
    reads, half the bytes then a broken pipe on writes, which is exactly
    the malformed/truncated-reply case clients must survive.
    """

    def __init__(self, raw, faults: FaultPlan, site: str):
        self._raw = raw
        self._faults = faults
        self._site = site

    def _probe(self):
        try:
            return self._faults.fire(self._site)
        except InjectedFault as exc:
            raise ConnectionResetError(str(exc)) from None

    def readline(self, limit: int = -1) -> bytes:
        spec = self._probe()
        line = self._raw.readline(limit)
        if spec is not None and spec.kind == SHORT_READ and len(line) > 1:
            return line[: len(line) // 2]
        return line

    def write(self, data: bytes) -> int:
        spec = self._probe()
        if spec is not None and spec.kind == SHORT_READ and len(data) > 1:
            self._raw.write(data[: len(data) // 2])
            self._raw.flush()
            raise BrokenPipeError(f"injected short write at {self._site}")
        return self._raw.write(data)

    def flush(self) -> None:
        self._raw.flush()


class _ProtocolHandler(socketserver.StreamRequestHandler):
    # Replies are single small writes on a connection the client keeps
    # open: with Nagle on, a reply queued behind an unacknowledged one
    # waits out the client's delayed ACK (~40 ms per op).
    disable_nagle_algorithm = True

    @property
    def timeout(self) -> float:
        # The stdlib sets it on the connection: a ``readline`` idle this long
        # raises TimeoutError, an OSError, which ``handle`` treats as "client
        # went away" — the connection closes with no reply and frees its slot.
        return IDLE_TIMEOUT_S

    def handle(self) -> None:
        service: ProgressService = self.server.service  # type: ignore[attr-defined]
        rfile, wfile = self.rfile, self.wfile
        faults = service.faults
        if faults is not None:
            if faults.has_site(SITE_SERVER_READ):
                rfile = _FaultyStream(rfile, faults, SITE_SERVER_READ)
            if faults.has_site(SITE_SERVER_WRITE):
                wfile = _FaultyStream(wfile, faults, SITE_SERVER_WRITE)
        try:
            while True:
                try:
                    request = read_message(rfile)
                except ProtocolError as exc:
                    # One error reply per garbled request, then the
                    # connection drops — not a fan-out encode.
                    write_message(  # noqa: R007
                        wfile, error_response("protocol", str(exc))
                    )
                    return
                if request is None:
                    return
                if not service.handle_request(request, wfile):
                    return
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # client went away; watch subscriptions were detached


class _ProtocolServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection TCP server that knows its live connections:
    it refuses new ones past :data:`MAX_CONNECTIONS` (so the thread count is
    bounded) and can wake every idle one at shutdown."""

    allow_reuse_address = True
    daemon_threads = True

    _guarded_by_ = {"_connections": "_conn_lock"}

    def __init__(self, address: tuple[str, int], service: ProgressService):
        self.service = service
        self._conn_lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        super().__init__(address, _ProtocolHandler)

    def verify_request(self, request, client_address) -> bool:
        """Admit ``request`` if under the cap. Runs on the accept thread,
        before a handler thread exists; a refused connection gets one
        error line and is closed by the caller."""
        with self._conn_lock:
            admitted = len(self._connections) < MAX_CONNECTIONS
            if admitted:
                self._connections.add(request)
        if not admitted:
            try:
                request.sendall(
                    encode(
                        error_response(
                            "too_many_connections",
                            f"server is at its limit of {MAX_CONNECTIONS} connections",
                        )
                    )
                )
            except OSError:
                pass  # the peer is already gone; it is being closed anyway
        return admitted

    def shutdown_request(self, request) -> None:
        with self._conn_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def end_connections(self) -> None:
        """Shut the read side of every live connection: a handler parked
        in ``readline`` on an idle client sees EOF and exits (closing the
        socket, so the client's next stale check sees EOF too), while a
        handler mid-reply — a watch writing its ``end`` line — still gets
        to finish writing."""
        with self._conn_lock:
            live = list(self._connections)
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # raced with the handler closing it
