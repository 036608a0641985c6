"""Unit tests for the serialize-once frame + delta encoder (server/wire.py)."""

from __future__ import annotations

import threading

import pytest

from repro.server import wire
from repro.server.protocol import decode
from repro.server.session import SessionSnapshot
from repro.server.wire import (
    KEYFRAME_EVERY,
    PublishedFrame,
    SessionStreamEncoder,
    apply_delta,
    diff_wire,
    encode_snapshot_event,
)


def snap(seq, progress=None, state="running", sid="s1", **overrides):
    fields = dict(
        session_id=sid,
        name=f"query-{sid}",
        state=state,
        seq=seq,
        progress=progress if progress is not None else min(seq / 100.0, 1.0),
        work_done=float(seq),
        work_total_estimate=100.0,
        row_count=seq * 3,
        elapsed_s=seq * 0.01,
    )
    fields.update(overrides)
    return SessionSnapshot(**fields)


class TestToWireMemoization:
    def test_same_dict_object_returned(self):
        s = snap(4)
        assert s.to_wire() is s.to_wire()

    def test_wire_content_unchanged(self):
        wire = snap(7, progress=0.1234567).to_wire()
        assert wire["seq"] == 7
        assert wire["progress"] == 0.123457  # rounded to 6 places
        assert wire["state"] == "running"


class TestDiffAndApply:
    def test_diff_excludes_seq_and_unchanged_fields(self):
        prev, curr = snap(1).to_wire(), snap(2).to_wire()
        changed = diff_wire(prev, curr)
        assert "seq" not in changed
        assert "name" not in changed and "state" not in changed
        assert changed["work_done"] == 2.0

    def test_apply_delta_roundtrip(self):
        prev, curr = snap(1).to_wire(), snap(2).to_wire()
        event = {
            "event": "delta",
            "session_id": "s1",
            "seq": 2,
            "base": 1,
            "changed": diff_wire(prev, curr),
        }
        assert apply_delta(prev, event) == curr

    def test_apply_delta_base_mismatch_raises(self):
        prev = snap(1).to_wire()
        event = {"event": "delta", "seq": 3, "base": 2, "changed": {}}
        with pytest.raises(ValueError):
            apply_delta(prev, event)

    def test_apply_missing_base_raises(self):
        with pytest.raises(ValueError):
            apply_delta(snap(1).to_wire(), {"event": "delta", "seq": 2, "changed": {}})


class TestSessionStreamEncoder:
    def test_first_frame_is_keyframe(self):
        enc = SessionStreamEncoder()
        frame = enc.encode(snap(1))
        assert frame.is_keyframe and frame.delta is None and frame.base is None
        assert decode(frame.full) == {"event": "snapshot", "session": snap(1).to_wire()}

    def test_subsequent_frames_carry_deltas(self):
        enc = SessionStreamEncoder()
        enc.encode(snap(1))
        frame = enc.encode(snap(2))
        assert not frame.is_keyframe
        assert frame.base == 1
        event = decode(frame.delta)
        assert event["event"] == "delta"
        assert event["seq"] == 2 and event["base"] == 1
        assert apply_delta(snap(1).to_wire(), event) == snap(2).to_wire()

    def test_keyframe_cadence(self, monkeypatch):
        monkeypatch.setattr(wire, "KEYFRAME_EVERY", 4)
        enc = SessionStreamEncoder()
        frames = [enc.encode(snap(i)) for i in range(1, 13)]
        keyframes = [i for i, f in enumerate(frames) if f.is_keyframe]
        assert keyframes == [0, 4, 8]

    def test_terminal_state_forces_keyframe(self, monkeypatch):
        monkeypatch.setattr(wire, "KEYFRAME_EVERY", 100)
        enc = SessionStreamEncoder()
        enc.encode(snap(1))
        enc.encode(snap(2))
        frame = enc.encode(snap(3, progress=1.0, state="finished"))
        assert frame.is_keyframe and frame.terminal

    def test_delta_smaller_than_full_frame(self):
        enc = SessionStreamEncoder()
        enc.encode(snap(1))
        frame = enc.encode(snap(2))
        assert len(frame.delta) < len(frame.full)

    def test_encode_calls_bounded_by_two_per_step(self):
        enc = SessionStreamEncoder()
        steps = 50
        for i in range(1, steps + 1):
            enc.encode(snap(i))
        assert enc.encode_calls <= 2 * steps
        keyframes = 1 + (steps - 1) // KEYFRAME_EVERY
        assert enc.encode_calls == keyframes + 2 * (steps - keyframes)

    def test_stale_seq_returns_latest_frame(self):
        enc = SessionStreamEncoder()
        enc.encode(snap(1))
        newest = enc.encode(snap(5))
        assert enc.encode(snap(3)) is newest
        assert enc.latest_frame is newest

    def test_latest_snapshot_cached(self):
        enc = SessionStreamEncoder()
        assert enc.latest is None and enc.latest_frame is None
        s = snap(1)
        enc.encode(s)
        assert enc.latest is s

    def test_full_stream_reassembles_from_keyframes_and_deltas(self, monkeypatch):
        """Differential core: the delta chain reproduces every full frame."""
        monkeypatch.setattr(wire, "KEYFRAME_EVERY", 5)
        enc = SessionStreamEncoder()
        frames = [enc.encode(snap(i)) for i in range(1, 41)]
        current: dict | None = None
        for frame in frames:
            if frame.is_keyframe:
                current = decode(frame.full)["session"]
            else:
                current = apply_delta(current, decode(frame.delta))
            assert current == decode(frame.full)["session"] == frame.wire

    def test_concurrent_readers_never_see_torn_state(self):
        enc = SessionStreamEncoder()
        stop = threading.Event()
        errors: list[Exception] = []

        def read():
            while not stop.is_set():
                frame = enc.latest_frame
                if frame is None:
                    continue
                try:
                    assert decode(frame.full)["session"]["seq"] == frame.seq
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for i in range(1, 300):
            enc.encode(snap(i))
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        assert errors == []


class TestEncodeSnapshotEvent:
    def test_compact_single_line(self):
        payload = encode_snapshot_event(snap(1).to_wire())
        assert payload.endswith(b"\n") and payload.count(b"\n") == 1
        assert b", " not in payload and b": " not in payload

    def test_frame_is_frozen(self):
        frame = SessionStreamEncoder().encode(snap(1))
        assert isinstance(frame, PublishedFrame)
        with pytest.raises(AttributeError):
            frame.seq = 99
