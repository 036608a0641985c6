"""The JSON-lines wire protocol.

One UTF-8 JSON object per ``\\n``-terminated line, both directions. A
connection carries any number of requests in sequence; ``watch`` turns
the response side into a stream of event lines that ends with an ``end``
event, after which the connection is ready for the next request.

Requests::

    {"op": "submit", "sql": "...", "mode": "once", "name": "...",
     "timeout_s": 30.0}                      -> {"ok": true, "session": {...}}
    {"op": "status", "session_id": "s0001"}  -> {"ok": true, "session": {...}}
    {"op": "list"}                           -> {"ok": true, "sessions": [...],
                                                 "workload": {...}}
    {"op": "watch", "session_id": "s0001"}   -> stream (see below)
    {"op": "watch", "session_id": "s0001",
     "since": 17}                            -> stream, resumed: snapshots
                                                with seq <= 17 suppressed
    {"op": "watch", "until_idle": true}      -> aggregate stream
    {"op": "cancel", "session_id": "s0001"}  -> {"ok": true, "session": {...}}
    {"op": "fetch", "session_id": "s0001"}   -> {"ok": true, "columns": [...],
                                                 "data": [...], "truncated": false,
                                                 "row_count": n, "state": "..."}
    {"op": "ping"}                           -> {"ok": true, "pong": true}
    {"op": "shutdown"}                       -> {"ok": true} (server then stops)

Stream lines are ``{"event": "snapshot", "session": {...}}``,
``{"event": "delta", "session_id": "...", "seq": n, "base": m,
"changed": {...}}`` (a compact frame holding just the snapshot fields
that changed since the frame with ``seq == base``, reassembled
client-side; every watch stream is a delta stream),
``{"event": "workload", "workload": {...}}`` and finally
``{"event": "end", "reason": "..."}``. Errors are
``{"ok": false, "error": {"code": "...", "message": "..."}}``; unknown
ops, oversized lines and malformed JSON all produce an error response
rather than a dropped connection.

A fetch reply is column-major: ``data`` holds one entry per name in
``columns`` (:func:`pack_columns`). A column whose every value is a
Python ``float`` travels as ``{"f64": "<base64>"}`` — its values packed
as little-endian IEEE-754 doubles, exact to the bit (-0.0, ±inf, NaN
payloads and subnormals included); any other column is a JSON array,
encoded like every other wire value. :func:`unpack_columns` inverts it.

``since`` is the watch resume cursor: a reconnecting client sends the
last snapshot ``seq`` it saw (per-session sequences are strictly
increasing), and the server suppresses anything at or below it — so a
stream re-attached after a network fault neither replays nor regresses.
A resumed delta stream always restarts each session with a full
keyframe, never a delta against state the connection has not seen.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import IO

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "ProtocolError",
    "decode",
    "encode",
    "error_response",
    "ok_response",
    "pack_columns",
    "read_message",
    "unpack_columns",
    "write_frame",
    "write_message",
]

#: Upper bound on one wire line; longer lines are a protocol error.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Every operation the service understands.
OPS = frozenset(
    {"submit", "status", "watch", "cancel", "list", "fetch", "ping", "shutdown"}
)


class ProtocolError(ValueError):
    """Malformed frame: not JSON, not an object, or over the line limit."""


# One shared compact encoder for every wire line. Building a JSONEncoder
# per call (what ``json.dumps`` with non-default options does) costs an
# allocation + option validation on the hottest path in the repo; a single
# configured instance is reused process-wide (encode() is pure).
_ENCODER = json.JSONEncoder(
    ensure_ascii=False, separators=(",", ":"), default=str
)


def encode(message: dict) -> bytes:
    """One wire frame: compact JSON + newline."""
    return _ENCODER.encode(message).encode() + b"\n"


def decode(line: bytes | str) -> dict:
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(message).__name__}"
        )
    return message


def read_message(stream: IO[bytes]) -> dict | None:
    """Read one frame from a binary stream; ``None`` on clean EOF.

    Blank lines are skipped in a loop, not by recursion: the peer chooses
    how many it sends, and a handler thread must not die of them.
    """
    while True:
        line = stream.readline(MAX_LINE_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
        if line.strip():
            return decode(line)


def write_message(stream: IO[bytes], message: dict) -> None:
    stream.write(encode(message))
    stream.flush()


def write_frame(stream: IO[bytes], frame: bytes) -> None:
    """Write one *pre-encoded* wire line (already newline-terminated).

    The serialize-once fan-out path: watch streams ship frames encoded
    exactly once at publish time, so writing to N watchers never
    re-encodes (R007 bans per-watcher ``encode`` calls outright).
    """
    stream.write(frame)
    stream.flush()


def pack_columns(rows: list[tuple], width: int) -> list:
    """``rows`` column-major: an all-float column as packed doubles
    (``{"f64": base64}``), any other as its list of values."""
    columns = list(zip(*rows)) or [()] * width
    return [
        {"f64": base64.b64encode(struct.pack(f"<{len(col)}d", *col)).decode("ascii")}
        if col and all(type(v) is float for v in col)
        else col
        for col in columns
    ]


def unpack_columns(data: list) -> list:
    """The columns :func:`pack_columns` sent, each as a sequence of values."""
    columns = []
    for col in data:
        if isinstance(col, dict):
            raw = base64.b64decode(col["f64"])
            col = struct.unpack(f"<{len(raw) // 8}d", raw)
        columns.append(col)
    return columns


def ok_response(**fields) -> dict:
    return {"ok": True, **fields}


def error_response(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}
