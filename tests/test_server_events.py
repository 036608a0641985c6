"""The EventBus changed set: a subscription holds the ids of the sessions
that published since its last take, never a queue of frames."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.server.events import EventBus
from repro.server.session import SessionSnapshot
from repro.server.wire import SessionStreamEncoder


def snap(sid, seq, state="running"):
    return SessionSnapshot(session_id=sid, name=sid, state=state, seq=seq,
                           progress=seq / 500, work_done=float(seq),
                           work_total_estimate=500.0, row_count=seq, elapsed_s=0.0)  # fmt: skip


def publish(bus, encoder, sid, seq, state="running"):
    """What a session does per step: store the frame, then announce it."""
    frame = encoder.encode(snap(sid, seq, state))
    bus.publish(sid)
    return frame


def read_latest(sub, encoders, timeout=1.0):
    """What a watcher does per wake-up: each changed session's latest frame."""
    return [encoders[sid].latest_frame for sid in sub.take(timeout=timeout)]


class TestConflatingOverflow:
    """A watcher that falls behind reads each session's newest frame: the
    frames it skipped are conflated away, and no other session's frame is
    ever dropped to make room."""

    def test_superseded_frame_conflated_not_oldest_dropped(self):
        bus = EventBus()
        sub = bus.subscribe()
        encoders = {"A": SessionStreamEncoder(), "B": SessionStreamEncoder()}
        a1 = publish(bus, encoders["A"], "A", 1)
        publish(bus, encoders["B"], "B", 1)
        b2 = publish(bus, encoders["B"], "B", 2)
        # B1 is superseded by B2; A1, the oldest, survives.
        assert read_latest(sub, encoders) == [a1, b2]

    def test_incoming_key_supersedes_queued_frame(self):
        bus = EventBus()
        sub = bus.subscribe()
        encoders = {"A": SessionStreamEncoder()}
        frames = [publish(bus, encoders["A"], "A", i) for i in range(1, 6)]
        assert read_latest(sub, encoders) == [frames[-1]]
        with pytest.raises(TimeoutError):
            sub.take(timeout=0.0)

    def test_seq_order_preserved_after_conflation(self):
        bus = EventBus()
        sub = bus.subscribe()
        encoders = {"A": SessionStreamEncoder()}
        seqs = []
        for i in range(1, 20):
            publish(bus, encoders["A"], "A", i)
            if i % 4 == 0 or i == 19:  # the watcher wakes every fourth publish
                seqs += [frame.seq for frame in read_latest(sub, encoders)]
        assert seqs == [4, 8, 12, 16, 19]

    def test_terminal_frame_never_conflated_away(self):
        """A terminal frame is the newest of its session by construction,
        so however many frames other sessions publish after it, the watcher
        reads it — it always learns the session ended."""
        bus = EventBus()
        sub = bus.subscribe()
        encoders = {"A": SessionStreamEncoder(), "B": SessionStreamEncoder()}
        terminal = publish(bus, encoders["A"], "A", 3, state="finished")
        for i in range(1, 8):
            publish(bus, encoders["B"], "B", i)
        drained = read_latest(sub, encoders)
        assert terminal in drained and terminal.terminal


class TestChangedSet:
    def test_take_empties_the_set_in_publish_order(self):
        bus = EventBus()
        sub = bus.subscribe()
        bus.publish("s2")
        bus.publish("s1")
        assert sub.take(timeout=1) == ["s2", "s1"]
        with pytest.raises(TimeoutError):
            sub.take(timeout=0.01)

    def test_many_publishes_of_one_session_leave_one_entry(self):
        bus = EventBus()
        sub = bus.subscribe()
        for _ in range(1000):
            bus.publish("a")
            bus.publish("b")
        assert sub.take(timeout=1) == ["a", "b"]

    def test_session_subscription_filters(self):
        bus = EventBus()
        sub = bus.subscribe("s1")
        bus.publish("s2")
        bus.publish("s1")
        assert sub.take(timeout=1) == ["s1"]

    def test_close_wakes_a_blocked_take(self):
        bus = EventBus()
        sub = bus.subscribe()
        got = []
        taker = threading.Thread(target=lambda: got.append(sub.take()))
        taker.start()
        threading.Timer(0.05, sub.close).start()
        taker.join(timeout=5.0)
        assert not taker.is_alive() and got == [None]

    def test_terminal_frame_delivered_after_burst(self):
        """Four publishers, one per session, race one watcher that reads
        each changed session's latest frame, switching threads every
        microsecond: no mark is lost, so the watcher reads every
        session's terminal frame, each session's seq never falling back."""
        bus, sids = EventBus(), ["s1", "s2", "s3", "s4"]
        encoders = {sid: SessionStreamEncoder() for sid in sids}
        sub = bus.subscribe()

        def publish_burst(sid):
            for seq in range(1, 501):
                encoders[sid].encode(snap(sid, seq, "finished" if seq == 500 else "running"))
                bus.publish(sid)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            publishers = [threading.Thread(target=publish_burst, args=(s,)) for s in sids]
            for publisher in publishers:
                publisher.start()
            seen = {sid: [0] for sid in sids}
            while any(seqs[-1] < 500 for seqs in seen.values()):
                for sid in sub.take(timeout=5.0):
                    seen[sid].append(encoders[sid].latest_frame.seq)
            for publisher in publishers:
                publisher.join(timeout=5.0)
                assert not publisher.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert all(seqs == sorted(seqs) for seqs in seen.values())
        assert all(encoder.latest_frame.terminal for encoder in encoders.values())
