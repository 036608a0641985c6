"""Differential and property tests for delta-encoded watch streams.

The contract under test: a delta stream (keyframes + changed-field
frames) reassembles **bit-identically** to the full-snapshot stream —
same dicts, same seqs — across concurrent sessions, ``since=`` resumes,
and mailbox conflation under a slow reader. Ground truth is captured at
the publish boundary itself (a session listener recording every
published wire dict), so every comparison is against exactly what the
server serialized, not a re-derivation.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.datagen.skew import customer_variant
from repro.server import ProgressClient, ProgressService
from repro.server.protocol import decode, encode
from repro.server.session import QuerySession
from repro.server.wire import apply_delta
from repro.sql import compile_select
from repro.storage.catalog import Catalog

ROWS = 900
DOMAIN = 120

#: A spread of shapes: join fan-out, filter, aggregate.
QUERIES = [
    "SELECT ca.custkey, cb.custkey FROM ca JOIN cb ON ca.nationkey = cb.nationkey",
    "SELECT ca.custkey, ca.name FROM ca WHERE ca.nationkey > 10",
    "SELECT ca.nationkey, COUNT(*) FROM ca GROUP BY ca.nationkey",
]

WIRE_FIELDS = {
    "session_id", "name", "state", "seq", "progress", "work_done",
    "work_total_estimate", "row_count", "elapsed_s", "error", "degraded",
    "degraded_reason", "retries", "ensemble", "weights", "prior_source",
}


@pytest.fixture(scope="module")
def db():
    catalog = Catalog()
    catalog.register(
        customer_variant(z=0.0, domain_size=DOMAIN, variant=0, num_rows=ROWS, name="ca")
    )
    catalog.register(
        customer_variant(z=0.0, domain_size=DOMAIN, variant=1, num_rows=ROWS, name="cb")
    )
    return catalog


@pytest.fixture()
def service(db):
    svc = ProgressService(
        db, port=0, workers=2, quantum_rows=32, tick_interval=100, row_cap=0
    )
    svc.start()
    client = ProgressClient(svc.host, svc.port, timeout=30.0)
    try:
        yield svc, client
    finally:
        client.close()
        svc.shutdown()


def attach_truth(session) -> dict[int, dict]:
    """Record every published wire dict, keyed by seq — the ground truth
    any watcher's stream must reproduce exactly."""
    truth: dict[int, dict] = {}
    session.add_listener(lambda _s, snap: truth.setdefault(snap.seq, snap.to_wire()))
    return truth


def snaps_of(events: list[dict], sid: str) -> list[dict]:
    return [
        e["session"]
        for e in events
        if e.get("event") == "snapshot" and e["session"]["session_id"] == sid
    ]


def assert_stream_matches_truth(snaps: list[dict], truth: dict[int, dict]) -> None:
    seqs = [s["seq"] for s in snaps]
    assert seqs == sorted(set(seqs)), f"seq not strictly increasing: {seqs}"
    for snap in snaps:
        assert set(snap) == WIRE_FIELDS
        if snap["seq"] in truth:
            assert snap == truth[snap["seq"]], (
                f"reassembled snapshot for seq {snap['seq']} diverged"
            )


class TestClientTransparentReassembly:
    def test_delta_stream_bit_identical_to_published_truth(self, service):
        svc, client = service
        session = svc.submit_sql(QUERIES[0], name="delta-diff")
        truth = attach_truth(session)
        events = list(client.watch(session.session_id, delta=True))
        snaps = snaps_of(events, session.session_id)
        assert snaps and events[-1]["event"] == "end"
        assert_stream_matches_truth(snaps, truth)
        assert snaps[-1]["state"] == "finished"
        assert snaps[-1]["progress"] == 1.0

    def test_delta_and_full_watchers_see_identical_streams(self, service):
        """Two concurrent watchers — one delta, one full — attached before
        the query starts must yield the same snapshots for shared seqs."""
        svc, client = service
        collected: dict[bool, list] = {}

        def run_watch(sid, use_delta):
            collected[use_delta] = list(client.watch(sid, delta=use_delta))

        session = svc.submit_sql(QUERIES[0], name="pair")
        truth = attach_truth(session)
        threads = [
            threading.Thread(target=run_watch, args=(session.session_id, d))
            for d in (True, False)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
        by_seq: dict[int, dict] = {}
        for use_delta in (True, False):
            snaps = snaps_of(collected[use_delta], session.session_id)
            assert snaps, f"delta={use_delta} watcher saw nothing"
            assert_stream_matches_truth(snaps, truth)
            for snap in snaps:
                assert by_seq.setdefault(snap["seq"], snap) == snap, (
                    f"watchers disagree on seq {snap['seq']}"
                )
        # Both watchers ended on the same terminal snapshot.
        assert collected[True][-1]["event"] == "end"
        assert collected[False][-1]["event"] == "end"

    def test_random_concurrent_sessions_aggregate_delta_watch(self, service):
        """Property run: several concurrent sessions of different shapes
        under one aggregate delta watch — per-session reassembly must hold
        for every session simultaneously."""
        svc, client = service
        sessions = [
            svc.submit_sql(QUERIES[i % len(QUERIES)], name=f"mix{i}")
            for i in range(6)
        ]
        truths = {s.session_id: attach_truth(s) for s in sessions}
        events = list(client.watch(until_idle=True, delta=True))
        assert events[-1]["event"] == "end"
        for session in sessions:
            sid = session.session_id
            snaps = snaps_of(events, sid)
            assert snaps, f"aggregate watch missed session {sid}"
            assert_stream_matches_truth(snaps, truths[sid])
            assert snaps[-1]["state"] == "finished"

    def test_until_idle_ends_only_after_every_terminal_frame(
        self, service, db, monkeypatch
    ):
        """The race the property run above used to lose about one time in
        eight, made deterministic. ``workload idle`` is read from the
        encoders, which run ahead of the bus — a frame is encoded, then
        published, and a full mailbox may drop it. Here the bus never
        delivers one session's terminal frame at all; the stream must
        carry it before it ends all the same."""
        svc, client = service

        def hand_stepped(sql):
            # Registered like a submitted session, but stepped by this
            # thread instead of the scheduler, so the order is ours.
            session = QuerySession(
                compile_select(db, sql).plan, quantum_rows=32, tick_interval=100
            )
            session.add_listener(svc._on_session_event)
            return svc.registry.add(session)

        withheld, other = hand_stepped(QUERIES[1]), hand_stepped(QUERIES[2])
        truths = {s.session_id: attach_truth(s) for s in (withheld, other)}
        publish = svc.events.publish
        monkeypatch.setattr(
            svc.events,
            "publish",
            lambda frame: None
            if frame.terminal and frame.session_id == withheld.session_id
            else publish(frame),
        )
        stream = client.watch(until_idle=True, delta=True)
        events = [next(stream) for _ in range(3)]  # primed: both pending
        assert [e["event"] for e in events] == ["snapshot", "snapshot", "workload"]
        for session in (withheld, other):
            while session.step():
                pass
        events += list(stream)
        assert events[-1] == {"event": "end", "reason": "workload idle"}
        assert events[-2]["workload"]["idle"] is True
        for sid, truth in truths.items():
            snaps = snaps_of(events, sid)
            assert_stream_matches_truth(snaps, truth)
            assert snaps[-1]["state"] == "finished"
            assert snaps[-1]["progress"] == 1.0


class TestWireLevelDelta:
    """Raw-socket assertions on the frames actually crossing the wire."""

    def watch_raw(self, svc, request) -> list[dict]:
        with socket.create_connection((svc.host, svc.port), timeout=30) as conn:
            conn.sendall(encode(request))
            events = []
            with conn.makefile("rb") as stream:
                while True:
                    line = stream.readline()
                    assert line, "stream died without an end event"
                    event = decode(line)
                    events.append(event)
                    if event.get("event") == "end":
                        return events

    def test_deltas_cross_the_wire_and_reassemble(self, service):
        svc, client = service
        session = svc.submit_sql(QUERIES[0], name="raw")
        truth = attach_truth(session)
        events = self.watch_raw(
            svc,
            {"op": "watch", "session_id": session.session_id, "delta": True},
        )
        kinds = [e["event"] for e in events]
        assert kinds[0] == "snapshot", "stream must open with a keyframe"
        assert "delta" in kinds, "delta stream never sent a delta frame"
        # Manual reassembly mirrors the client: every delta applies cleanly
        # onto the previous state and lands exactly on a published snapshot.
        current: dict | None = None
        for event in events:
            if event["event"] == "snapshot":
                current = event["session"]
            elif event["event"] == "delta":
                assert current is not None
                assert event["base"] == current["seq"], (
                    "delta base does not chain onto the previous frame"
                )
                current = apply_delta(current, event)
                assert set(event["changed"]).isdisjoint({"session_id", "name"}), (
                    "immutable fields leaked into a delta"
                )
            else:
                continue
            if current["seq"] in truth:
                assert current == truth[current["seq"]]
        assert current is not None and current["state"] == "finished"
        client.wait(session.session_id, timeout=60.0)

    def test_since_resume_restarts_with_keyframe(self, service):
        svc, client = service
        session = svc.submit_sql(QUERIES[0], name="resume")
        truth = attach_truth(session)
        first = self.watch_raw(
            svc,
            {"op": "watch", "session_id": session.session_id, "delta": True},
        )
        snaps = [e for e in first if e["event"] == "snapshot"]
        mid_seq = snaps[0]["session"]["seq"]
        resumed = self.watch_raw(
            svc,
            {
                "op": "watch",
                "session_id": session.session_id,
                "delta": True,
                "since": mid_seq,
            },
        )
        # The resumed stream's first session event is a full snapshot
        # strictly past the cursor — never a delta against unseen state.
        head = resumed[0]
        assert head["event"] == "snapshot"
        assert head["session"]["seq"] > mid_seq
        assert set(head["session"]) == WIRE_FIELDS
        assert head["session"] == truth[head["session"]["seq"]]

    def test_delta_flag_off_sends_only_full_snapshots(self, service):
        svc, _client = service
        session = svc.submit_sql(QUERIES[1], name="fullonly")
        events = self.watch_raw(
            svc, {"op": "watch", "session_id": session.session_id}
        )
        assert all(e["event"] in ("snapshot", "end") for e in events)


class TestSlowReaderConflation:
    def test_conflated_stream_stays_increasing_and_reaches_terminal(self, service):
        """A tiny, slowly drained mailbox forces conflation; the consumed
        stream must still be strictly increasing, match the published
        truth frame-for-frame, and end on the terminal snapshot."""
        svc, client = service
        sub = svc.events.subscribe(maxlen=3)
        consumed: list = []

        def slow_drain():
            for frame in sub:
                consumed.append(frame)
                time.sleep(0.004)

        drainer = threading.Thread(target=slow_drain, daemon=True)
        drainer.start()
        session = svc.submit_sql(QUERIES[0], name="slowpoke", quantum_rows=16)
        truth = attach_truth(session)
        final = client.wait(session.session_id, timeout=60.0)
        assert final["state"] == "finished"
        # Drain completes once the bus closes at shutdown; give the live
        # stream a moment to flush the tail, then detach.
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if consumed and getattr(consumed[-1], "state", "") == "finished":
                break
            time.sleep(0.01)
        sub.close()
        drainer.join(timeout=10.0)

        frames = [f for f in consumed if getattr(f, "session_id", None) == session.session_id]
        assert frames, "slow reader consumed nothing"
        seqs = [f.seq for f in frames]
        assert seqs == sorted(set(seqs)), f"conflated stream regressed: {seqs}"
        for frame in frames:
            if frame.seq in truth:
                assert frame.wire == truth[frame.seq]
        assert frames[-1].state == "finished", (
            "conflation lost the terminal frame"
        )
        assert sub.conflated > 0, (
            "stress never triggered conflation; tighten the mailbox"
        )
        assert sub.dropped == 0, (
            "single-session overflow must conflate, never hard-drop"
        )


class TestEncodeScaling:
    @pytest.mark.parametrize("watchers", [1, 16, 64])
    def test_encode_calls_scale_with_steps_not_watchers(self, service, watchers):
        """Watchers of one session must not multiply serialization: total
        wire encodes stay within the per-step frame budget (<= 2 per
        published snapshot) plus a once-per-watcher priming allowance."""
        svc, client = service
        session = svc.submit_sql(QUERIES[0], name="fanout", quantum_rows=16)
        truth = attach_truth(session)
        outs: list[list] = []

        def run_watch(out):
            out.extend(client.watch(session.session_id, delta=True))

        threads = []
        for _ in range(watchers):
            out: list = []
            outs.append(out)
            t = threading.Thread(target=run_watch, args=(out,), daemon=True)
            t.start()
            threads.append(t)
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
        published = len(truth)
        encoder = svc._encoder_for(session.session_id)
        # O(steps), not O(steps x watchers): each published snapshot costs
        # at most 2 encodes (full + delta), priming at most 1 per watcher.
        assert encoder.encode_calls <= 2 * published + watchers
        assert encoder.encode_calls < published * watchers or watchers <= 2
        for out in outs:
            snaps = snaps_of(out, session.session_id)
            assert snaps and snaps[-1]["progress"] == 1.0
            assert_stream_matches_truth(snaps, truth)
