"""Serialize-once snapshot frames and delta encoding for the fan-out path.

The serving layer's hottest path is snapshot fan-out: every tick of a
session's bus, and its terminal transition, publishes one
:class:`~repro.server.session.SessionSnapshot`, and every watcher used
to pay its own ``json.dumps`` of that snapshot — O(watchers × publishes)
encodes, the exact scaling wall PF-OLA identifies when online
estimates go to many concurrent consumers. This module is the *single*
publish-time encode point (lint rule R007 bans encoding anywhere else in
a server loop): each published snapshot becomes one
:class:`PublishedFrame` carrying

* ``full`` — the pre-encoded ``{"event": "snapshot", ...}`` wire line
  every watcher can write verbatim, and
* ``delta`` — when the frame is not a keyframe, the pre-encoded
  ``{"event": "delta", "seq": n, "base": m, "changed": {...}}`` line
  holding only the fields that changed since the previous published
  frame (``base``).

So N watchers cost at most *two* encodes per publish — one full, one delta
— instead of N. The encoder keeps only the latest frame; a watch stream
writes its delta when ``base`` is the seq the connection wrote last, and
the full frame otherwise, so the first frame of a session on a
connection (``watch since=`` resumes included) is always full. Keyframes
are forced on the first frame of a session, every
:data:`KEYFRAME_EVERY` frames, and on every terminal transition.

Delta streams are transparently reassembled client-side
(:func:`apply_delta` in :class:`~repro.server.client.ProgressClient`);
callers keep seeing full snapshots, bit-identical to the published
ones.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.server.protocol import encode

if TYPE_CHECKING:  # annotation-only: keeps the module importable by the
    from repro.server.session import SessionSnapshot  # thin stdlib client

__all__ = [
    "KEYFRAME_EVERY",
    "TERMINAL_WIRE_STATES",
    "PublishedFrame",
    "SessionStreamEncoder",
    "apply_delta",
    "diff_wire",
    "encode_snapshot_event",
]

#: Publish a full keyframe at least every this-many frames per session.
KEYFRAME_EVERY = 16

#: Wire values of the terminal session states (always sent as keyframes).
TERMINAL_WIRE_STATES = frozenset({"finished", "cancelled", "failed"})


@dataclass(frozen=True)
class PublishedFrame:
    """One published snapshot, encoded exactly once.

    ``wire`` is the full snapshot dict (shared with ``full``'s encoding —
    treat it as immutable); ``base`` is the seq the delta applies to, or
    ``None`` for keyframes (``delta`` is then ``None`` too).
    """

    session_id: str
    seq: int
    base: int | None
    state: str
    wire: dict
    full: bytes
    delta: bytes | None

    @property
    def is_keyframe(self) -> bool:
        return self.delta is None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_WIRE_STATES


def encode_snapshot_event(wire: dict) -> bytes:
    """The full-frame wire line for one snapshot dict."""
    return encode({"event": "snapshot", "session": wire})


def diff_wire(prev: dict, curr: dict) -> dict:
    """Fields of ``curr`` that differ from ``prev`` (``seq`` excluded —
    it rides at the top level of the delta event)."""
    return {
        key: value
        for key, value in curr.items()
        if key != "seq" and prev.get(key, _MISSING) != value
    }


_MISSING = object()


def apply_delta(base_wire: dict, event: dict) -> dict:
    """Reassemble the full snapshot dict a delta event stands for.

    ``base_wire`` must be the full snapshot whose ``seq`` equals the
    event's ``base`` — the stream logic guarantees a delta is only sent
    on top of the frame the connection last delivered. Raises
    :class:`ValueError` on a base mismatch so callers can resync via a
    keyframe (reconnect with ``since=``) instead of silently merging
    onto the wrong state.
    """
    base = event.get("base")
    if base is None or int(base_wire.get("seq", -1)) != int(base):
        raise ValueError(
            f"delta base {base!r} does not match cached seq "
            f"{base_wire.get('seq')!r}"
        )
    merged = dict(base_wire)
    merged.update(event.get("changed") or {})
    merged["seq"] = int(event["seq"])
    return merged


class SessionStreamEncoder:
    """Per-session serialize-once frame encoder.

    One instance per session, in its registry entry, fed by the service's
    publish listener — which runs on the session's executing worker under
    its step lock, so :meth:`encode` calls for one session never race each
    other. The lock below exists for the *readers*: watch and
    ``status``/``list`` threads consume :attr:`latest`/:attr:`latest_frame`
    concurrently with a publish. :attr:`latest_frame` is the only record of
    what the session published: no queue holds older frames.

    ``encode_calls`` counts wire encodes performed (1 per keyframe, 2
    per delta frame) — the benchmark's proof that encoding is
    O(publishes), not O(publishes × watchers).
    """

    _guarded_by_ = {
        "_latest": "_lock",
        "_latest_frame": "_lock",
        "_since_keyframe": "_lock",
        "encode_calls": "_lock",
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latest: SessionSnapshot | None = None
        self._latest_frame: PublishedFrame | None = None
        self._since_keyframe = 0
        self.encode_calls = 0

    @property
    def latest(self) -> SessionSnapshot | None:
        """Most recently published snapshot (cached, never resampled)."""
        with self._lock:
            return self._latest

    @property
    def latest_frame(self) -> PublishedFrame | None:
        """Most recently published frame — pre-encoded, ready to write."""
        with self._lock:
            return self._latest_frame

    def encode(self, snap: SessionSnapshot) -> PublishedFrame:
        """Encode one published snapshot into its shared wire frame(s)."""
        wire = snap.to_wire()
        with self._lock:
            prev = self._latest_frame
            if prev is not None and snap.seq <= prev.seq:
                # Out-of-order publish (defensive; the step lock makes
                # this unreachable in practice): keep the chain intact.
                return prev
            keyframe = (
                prev is None
                or self._since_keyframe + 1 >= KEYFRAME_EVERY
                or snap.state in TERMINAL_WIRE_STATES
            )
            full = encode_snapshot_event(wire)
            self.encode_calls += 1
            base: int | None = None
            delta: bytes | None = None
            if not keyframe:
                base = prev.seq
                delta = encode(
                    {
                        "event": "delta",
                        "session_id": snap.session_id,
                        "seq": snap.seq,
                        "base": base,
                        "changed": diff_wire(prev.wire, wire),
                    }
                )
                self.encode_calls += 1
            frame = PublishedFrame(
                session_id=snap.session_id,
                seq=snap.seq,
                base=base,
                state=snap.state,
                wire=wire,
                full=full,
                delta=delta,
            )
            self._latest = snap
            self._latest_frame = frame
            self._since_keyframe = 0 if keyframe else self._since_keyframe + 1
            return frame
