"""Differential and property tests for delta-encoded watch streams.

The contract under test: a watch stream (keyframes + changed-field
frames) reassembles **bit-identically** to the snapshots the server
published — same dicts, same seqs — across concurrent sessions,
``since=`` resumes, and a reader too slow to take every frame. Ground
truth is captured at the publish boundary itself (a spy on the service's
publish listener records every published wire dict), so every comparison
is against exactly what the server serialized, not a re-derivation.
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
    "degraded_reason", "retries",
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


@pytest.fixture()
def truths(service, monkeypatch) -> dict[str, dict[int, dict]]:
    """Every published wire dict, by session id and then seq — the ground
    truth any watcher's stream must reproduce exactly. A spy on the
    service's own publish listener records it, so a session is covered from
    its first publish even if a worker steps it before the test looks."""
    svc, _client = service
    truths: dict[str, dict[int, dict]] = {}
    publish = svc._on_session_event

    def spy(session, snap) -> None:
        truths.setdefault(session.session_id, {}).setdefault(snap.seq, snap.to_wire())
        publish(session, snap)

    monkeypatch.setattr(svc, "_on_session_event", spy)
    return truths


def snaps_of(events: list[dict], sid: str) -> list[dict]:
    return [
        e["session"]
        for e in events
        if e.get("event") == "snapshot" and e["session"]["session_id"] == sid
    ]


def hand_stepped(svc, db, sql: str, tick_interval: int = 100) -> QuerySession:
    """A session registered like a submitted one, but stepped by the
    calling thread instead of the scheduler, so the order is the test's."""
    session = QuerySession(
        compile_select(db, sql).plan, quantum_rows=32, tick_interval=tick_interval
    )
    session.add_listener(svc._on_session_event)
    return svc.registry.add(session)


def reassemble(events: list[dict]) -> list[dict]:
    """The snapshots a raw single-session stream stands for, applying each
    delta onto the frame before it exactly as the client does."""
    snaps: list[dict] = []
    for event in events:
        if event["event"] == "snapshot":
            snaps.append(event["session"])
        elif event["event"] == "delta":
            assert snaps and event["base"] == snaps[-1]["seq"], (
                "delta base does not chain onto the previous frame"
            )
            assert set(event["changed"]).isdisjoint({"session_id", "name"}), (
                "immutable fields leaked into a delta"
            )
            snaps.append(apply_delta(snaps[-1], event))
    return snaps


def watch_raw(svc, request, rcvbuf=0, pause_s=0.0) -> list[dict]:
    """Every event line of one watch over a raw socket, up to ``end``."""
    with socket.socket() as conn:
        if rcvbuf:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        conn.settimeout(30)
        conn.connect((svc.host, svc.port))
        conn.sendall(encode(request))
        events = []
        with conn.makefile("rb") as stream:
            while True:
                line = stream.readline()
                assert line, "stream died without an end event"
                events.append(decode(line))
                if events[-1].get("event") == "end":
                    return events
                time.sleep(pause_s)


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
    def test_delta_stream_bit_identical_to_published_truth(self, service, truths):
        svc, client = service
        session = svc.submit_sql(QUERIES[0], name="delta-diff")
        events = list(client.watch(session.session_id))
        snaps = snaps_of(events, session.session_id)
        assert snaps and events[-1]["event"] == "end"
        assert_stream_matches_truth(snaps, truths[session.session_id])
        assert snaps[-1]["state"] == "finished"
        assert snaps[-1]["progress"] == 1.0

    def test_random_concurrent_sessions_aggregate_delta_watch(self, service, truths):
        """Property run: several concurrent sessions of different shapes
        under one aggregate delta watch — per-session reassembly must hold
        for every session simultaneously."""
        svc, client = service
        sessions = [
            svc.submit_sql(QUERIES[i % len(QUERIES)], name=f"mix{i}")
            for i in range(6)
        ]
        events = list(client.watch(until_idle=True))
        assert events[-1]["event"] == "end"
        for session in sessions:
            sid = session.session_id
            snaps = snaps_of(events, sid)
            assert snaps, f"aggregate watch missed session {sid}"
            assert_stream_matches_truth(snaps, truths[sid])
            assert snaps[-1]["state"] == "finished"

    def test_until_idle_ends_only_after_every_terminal_frame(
        self, service, db, truths, monkeypatch
    ):
        """``workload idle`` is read from the encoders, which hold a
        session's terminal frame before the bus announces it. Here the
        announcement of one session's terminal frame never arrives at all;
        the stream must carry that frame before it ends all the same."""
        svc, client = service
        withheld, other = hand_stepped(svc, db, QUERIES[1]), hand_stepped(svc, db, QUERIES[2])
        publish = svc.events.publish

        def hold_back(sid):
            # The terminal frame is stored; only its announcement is lost.
            if sid != withheld.session_id or not svc.registry.encoder(sid).latest_frame.terminal:
                publish(sid)

        monkeypatch.setattr(svc.events, "publish", hold_back)
        stream = client.watch(until_idle=True)
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

    def test_deltas_cross_the_wire_and_reassemble(self, service, db, truths):
        """Stepped in lockstep with a reader that keeps up, every frame
        reaches the wire, and the ones between keyframes as deltas.

        A session publishes on its ticks, and a quantum of this join may
        span none of them or several, so the reader takes one line per
        *publish*: a listener after the service's reads the frame just
        published before the step goes on."""
        svc, _client = service
        session = hand_stepped(svc, db, QUERIES[0], tick_interval=64)
        with socket.create_connection((svc.host, svc.port), timeout=30) as conn:
            # An older client's "delta" key is ignored: every stream is a
            # delta stream.
            conn.sendall(encode({"op": "watch", "session_id": session.session_id, "delta": True}))
            with conn.makefile("rb") as stream:
                events = [decode(stream.readline())]
                session.add_listener(
                    lambda _s, _snap: events.append(decode(stream.readline()))
                )
                while session.step():
                    pass
                while events[-1]["event"] != "end":
                    events.append(decode(stream.readline()))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "snapshot", "stream must open with a keyframe"
        assert kinds.count("delta") > kinds.count("snapshot")
        # Every delta applies cleanly onto the previous state and lands
        # exactly on a published snapshot.
        snaps = reassemble(events)
        truth = truths[session.session_id]
        assert [snap["seq"] for snap in snaps[1:]] == sorted(truth)
        assert_stream_matches_truth(snaps, truth)
        assert snaps[-1]["state"] == "finished"

    def test_since_resume_restarts_with_keyframe(self, service, db, truths):
        """A client drops its watch mid-run and resumes ``since`` the last
        seq it saw. Stepped by the test, so the session is still running at
        both connects however fast the machine is; a tick every 64 units of
        work lands in the first quantum and in any three after it."""
        svc, _client = service
        session = hand_stepped(svc, db, QUERIES[0], tick_interval=64)
        session.step()
        request = {"op": "watch", "session_id": session.session_id}
        with socket.create_connection((svc.host, svc.port), timeout=30) as conn:
            conn.sendall(encode(request))
            with conn.makefile("rb") as stream:
                mid_seq = decode(stream.readline())["session"]["seq"]
        for _ in range(3):  # frames the dropped client never sees
            session.step()
        with socket.create_connection((svc.host, svc.port), timeout=30) as conn:
            conn.sendall(encode({**request, "since": mid_seq}))
            with conn.makefile("rb") as stream:
                resumed = [decode(stream.readline())]
                while session.step():
                    pass
                while resumed[-1]["event"] != "end":
                    resumed.append(decode(stream.readline()))
        # The resumed stream's first session event is a full snapshot
        # strictly past the cursor — never a delta against unseen state.
        head = resumed[0]
        truth = truths[session.session_id]
        assert head["event"] == "snapshot"
        assert head["session"]["seq"] > mid_seq
        assert set(head["session"]) == WIRE_FIELDS
        assert head["session"] == truth[head["session"]["seq"]]
        snaps = reassemble(resumed)
        assert_stream_matches_truth(snaps, truth)
        assert snaps[-1]["state"] == "finished"


class TestSlowReaderConflation:
    def test_conflated_stream_stays_increasing_and_reaches_terminal(self, service, truths):
        """A reader pausing on every line, through a small receive buffer,
        is slower than the publisher. Publishes only mark the session
        changed, so the stream skips to the newest frame instead of
        queueing: it still rises strictly, matches the published truth and
        ends on the terminal frame, in fewer frames than were published."""
        svc, _client = service
        session = svc.submit_sql(QUERIES[0], name="slowpoke", quantum_rows=16)
        request = {"op": "watch", "session_id": session.session_id}
        snaps = reassemble(watch_raw(svc, request, rcvbuf=2048, pause_s=0.004))
        truth = truths[session.session_id]
        assert_stream_matches_truth(snaps, truth)
        assert snaps[-1]["state"] == "finished" and snaps[-1]["seq"] == max(truth)
        assert len(snaps) < len(truth), "the reader kept up; slow it down"


class TestEncodeScaling:
    @pytest.mark.parametrize("watchers", [1, 16, 64])
    def test_encode_calls_scale_with_steps_not_watchers(self, service, truths, watchers):
        """Watchers of one session must not multiply serialization: total
        wire encodes stay within the per-step frame budget (<= 2 per
        published snapshot) plus a once-per-watcher priming allowance."""
        svc, client = service
        session = svc.submit_sql(QUERIES[0], name="fanout", quantum_rows=16)
        outs: list[list] = []

        def run_watch(out):
            out.extend(client.watch(session.session_id))

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
        truth = truths[session.session_id]
        published = len(truth)
        encoder = svc.registry.encoder(session.session_id)
        # O(steps), not O(steps x watchers): each published snapshot costs
        # at most 2 encodes (full + delta), priming at most 1 per watcher.
        assert encoder.encode_calls <= 2 * published + watchers
        assert encoder.encode_calls < published * watchers or watchers <= 2
        for out in outs:
            assert out[-1]["event"] == "end"
            snaps = snaps_of(out, session.session_id)
            assert snaps and snaps[-1]["progress"] == 1.0
            assert_stream_matches_truth(snaps, truth)
