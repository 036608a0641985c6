"""Conflation-aware overflow policy of the EventBus mailboxes."""

from __future__ import annotations

from repro.server.events import EventBus, conflation_key
from repro.server.session import SessionSnapshot
from repro.server.wire import SessionStreamEncoder


def frame(encoder, sid, seq, state="running"):
    return encoder.encode(
        SessionSnapshot(
            session_id=sid,
            name=sid,
            state=state,
            seq=seq,
            progress=min(seq / 10.0, 1.0),
            work_done=float(seq),
            work_total_estimate=10.0,
            row_count=seq,
            elapsed_s=seq * 0.01,
        )
    )


class TestConflationKey:
    def test_published_frame_key(self):
        f = frame(SessionStreamEncoder(), "s7", 1)
        assert conflation_key(f) == "s7"

    def test_generic_events_have_no_key(self):
        assert conflation_key({"n": 1}) is None
        assert conflation_key({"event": "snapshot", "session": {"session_id": "s3"}}) is None
        assert conflation_key({"event": "workload", "workload": {}}) is None


class TestConflatingOverflow:
    def test_superseded_frame_conflated_not_oldest_dropped(self):
        """Queue [A1, B1] + push B2: the stale B1 is evicted, A1 survives.

        Plain drop-oldest would evict A1 — losing the only frame of
        session A while keeping a B frame that B2 supersedes anyway.
        """
        bus = EventBus()
        sub = bus.subscribe(maxlen=2)
        enc_a, enc_b = SessionStreamEncoder(), SessionStreamEncoder()
        a1 = frame(enc_a, "A", 1)
        b1, b2 = frame(enc_b, "B", 1), frame(enc_b, "B", 2)
        bus.publish(a1)
        bus.publish(b1)
        bus.publish(b2)
        assert sub.conflated == 1 and sub.dropped == 0
        assert sub.get(timeout=1.0) is a1
        assert sub.get(timeout=1.0) is b2

    def test_incoming_key_supersedes_queued_frame(self):
        bus = EventBus()
        sub = bus.subscribe(maxlen=1)
        enc = SessionStreamEncoder()
        frames = [frame(enc, "A", i) for i in range(1, 6)]
        for f in frames:
            bus.publish(f)
        # Every overflow conflated the lone stale frame; only the newest
        # remains and nothing counted as a hard drop.
        assert sub.conflated == 4 and sub.dropped == 0
        assert sub.get(timeout=1.0) is frames[-1]

    def test_oldest_superseded_victim_chosen(self):
        """With two superseded candidates, the *oldest* one is evicted."""
        bus = EventBus()
        sub = bus.subscribe(maxlen=3)
        enc_a, enc_b = SessionStreamEncoder(), SessionStreamEncoder()
        a1, a2 = frame(enc_a, "A", 1), frame(enc_a, "A", 2)
        b1, b2 = frame(enc_b, "B", 1), frame(enc_b, "B", 2)
        bus.publish(a1)
        bus.publish(b1)
        bus.publish(a2)  # queue full: [a1, b1, a2]
        bus.publish(b2)  # a1 (superseded by a2) is older than b1 -> evicted
        assert list(sub._events) == [b1, a2, b2]
        assert sub.conflated == 1

    def test_seq_order_preserved_after_conflation(self):
        bus = EventBus()
        sub = bus.subscribe(maxlen=4)
        enc = SessionStreamEncoder()
        for i in range(1, 20):
            bus.publish(frame(enc, "A", i))
        seqs = []
        while True:
            try:
                event = sub.get(timeout=0.0)
            except TimeoutError:
                break
            seqs.append(event.seq)
        assert seqs == sorted(seqs)
        assert seqs[-1] == 19

    def test_generic_events_keep_drop_oldest(self):
        """Events with no session identity fall back to the old policy."""
        bus = EventBus()
        sub = bus.subscribe(maxlen=2)
        for n in range(5):
            bus.publish({"n": n})
        assert sub.dropped == 3 and sub.conflated == 0
        assert sub.get(timeout=1.0) == {"n": 3}
        assert sub.get(timeout=1.0) == {"n": 4}

    def test_mixed_traffic_prefers_conflating_stale_frames(self):
        """A generic event is never evicted while a stale frame exists."""
        bus = EventBus()
        sub = bus.subscribe(maxlen=2)
        enc = SessionStreamEncoder()
        marker = {"event": "workload", "workload": {}}
        bus.publish(marker)
        bus.publish(frame(enc, "A", 1))
        bus.publish(frame(enc, "A", 2))  # conflates A1, keeps the marker
        assert sub.conflated == 1 and sub.dropped == 0
        assert sub.get(timeout=1.0) is marker

    def test_terminal_frame_never_conflated_away(self):
        """A terminal frame is the newest of its session by construction,
        so conflation can never evict it — the watcher always learns the
        session ended."""
        bus = EventBus()
        sub = bus.subscribe(maxlen=2)
        enc_a, enc_b = SessionStreamEncoder(), SessionStreamEncoder()
        terminal = frame(enc_a, "A", 3, state="finished")
        bus.publish(terminal)
        for i in range(1, 8):
            bus.publish(frame(enc_b, "B", i))
        drained = []
        while True:
            try:
                drained.append(sub.get(timeout=0.0))
            except TimeoutError:
                break
        assert terminal in drained
