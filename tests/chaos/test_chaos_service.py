"""TCP-level chaos: connection + engine faults against the live service.

A :class:`ProgressService` runs with a seeded schedule mixing socket-level
faults (``server.read`` / ``server.write`` errors and short reads — dropped
connections, truncated frames) with engine-side noise (transient cursor
faults, short scan reads). All counts are finite, so the service always
becomes healthy again; what is under test is the client's typed-error +
retry/resume machinery and the wire-level invariants: merged watch streams
(across reconnects, resumed via the ``since`` cursor) keep strictly
increasing ``seq`` and non-regressing progress, finished queries deliver
exactly the fault-free rows, and the service stays serviceable throughout.
"""

from __future__ import annotations

import time

import pytest

from repro.executor.engine import ExecutionEngine
from repro.server import ProgressClient, ProgressService, ServiceError
from repro.server.client import TRANSIENT_CODES
from repro.sql import compile_select

from tests.chaos.invariants import TERMINAL_WIRE, check_wire_stream
from tests.chaos.schedules import (
    chaos_seeds,
    dump_failure,
    pooled_schedule,
    service_schedule,
)

QUERIES = [
    "SELECT c.name, o.totalprice FROM customer c JOIN orders o"
    " ON c.custkey = o.custkey",
    "SELECT o.custkey, COUNT(*) FROM orders o GROUP BY o.custkey",
    "SELECT o.orderkey, o.totalprice FROM orders o WHERE o.totalprice > 1000",
]


@pytest.fixture(autouse=True)
def _lock_asserts(monkeypatch):
    monkeypatch.setenv("REPRO_LOCK_ASSERTS", "1")


@pytest.fixture(scope="module")
def db():
    from repro.datagen import generate_tpch

    return generate_tpch(sf=0.002, seed=21)


@pytest.fixture(scope="module")
def expected(db):
    return [
        ExecutionEngine(compile_select(db, sql).plan).run().rows for sql in QUERIES
    ]


def submit_with_retry(client, sql, name, attempts=12):
    """Chaos-aware submit: transport errors are retried, server verdicts
    are not — exactly the contract TRANSIENT_CODES encodes."""
    for attempt in range(attempts):
        try:
            return client.submit(sql, name=name)
        except ServiceError as exc:
            if exc.code not in TRANSIENT_CODES or attempt == attempts - 1:
                raise
            time.sleep(0.02 * (attempt + 1))
    raise AssertionError("unreachable")


def fetch_with_retry(client, session_id, attempts=12):
    for attempt in range(attempts):
        try:
            return client.fetch(session_id)
        except ServiceError as exc:
            if exc.code not in TRANSIENT_CODES or attempt == attempts - 1:
                raise
            time.sleep(0.02 * (attempt + 1))
    raise AssertionError("unreachable")


@pytest.mark.parametrize("seed", chaos_seeds())
def test_service_chaos_invariants(db, expected, seed):
    plan = service_schedule(seed)
    svc = ProgressService(
        db,
        port=0,
        workers=2,
        quantum_rows=64,
        tick_interval=200,
        row_cap=50_000,
        faults=plan,
    )
    svc.start()
    client = ProgressClient(svc.host, svc.port, timeout=30.0)
    try:
        submitted = []
        for i, sql in enumerate(QUERIES):
            snap = submit_with_retry(client, sql, name=f"chaos{seed}-{i}")
            submitted.append((i, snap["session_id"]))

        streams = {
            sid: list(client.watch(sid, max_reconnects=10)) for _i, sid in submitted
        }
        finals = {sid: client.wait(sid, timeout=120.0) for _i, sid in submitted}

        try:
            for i, sid in submitted:
                final = finals[sid]
                assert final["state"] in TERMINAL_WIRE, (
                    f"session {sid} not terminal: {final['state']}"
                )
                events = streams[sid]
                assert events and events[-1]["event"] == "end", (
                    f"watch stream for {sid} never ended cleanly"
                )
                check_wire_stream(events, sid)
                # Engine faults in this schedule are all within the retry
                # budget, and socket faults never touch execution — every
                # query must actually finish with exactly the clean rows.
                assert final["state"] == "finished", (
                    f"{sid} ended {final['state']}: {final.get('error')}"
                )
                assert final["progress"] == 1.0
                fetched = fetch_with_retry(client, sid)
                assert not fetched["truncated"]
                got = [tuple(row) for row in fetched["rows"]]
                assert got == expected[i], f"rows diverged for {sid}"
        except AssertionError:
            dump_failure(
                f"service-seed{seed}",
                plan,
                [e for evs in streams.values() for e in evs],
                extra={"finals": finals},
            )
            raise

        # The schedule must have actually fired: a chaos run where nothing
        # went wrong proves nothing about the retry machinery.
        fired_sites = {record["site"] for record in plan.records()}
        assert fired_sites, f"schedule for seed {seed} never fired"

        # And the service is healthy once the budgets are exhausted. The
        # budgets drain on a timing-dependent schedule (status polls vary
        # with host load), so the health probe retries transport errors
        # like every other call here instead of assuming drain order.
        for attempt in range(12):
            try:
                assert client.ping()
                break
            except ServiceError as exc:
                if exc.code not in TRANSIENT_CODES or attempt == 11:
                    raise
                time.sleep(0.02 * (attempt + 1))
    finally:
        client.close()
        svc.shutdown()


@pytest.mark.parametrize("seed", chaos_seeds())
def test_pooled_client_under_faults_between_ops(db, expected, seed):
    """One client, one pool, 40 submit/watch/fetch loops while connections
    are reset and replies truncated — including while a connection sits
    idle in the pool. Every op either succeeds or raises a typed
    transient :class:`ServiceError` within its timeout; the client never
    resends, so the server never holds more sessions than submits were
    attempted (nor fewer than were acknowledged); and every acknowledged
    session still satisfies the wire invariants."""
    plan = pooled_schedule(seed)
    svc = ProgressService(
        db,
        port=0,
        workers=2,
        quantum_rows=64,
        tick_interval=200,
        row_cap=50_000,
        faults=plan,
    )
    svc.start()
    op_timeout = 10.0
    client = ProgressClient(svc.host, svc.port, timeout=op_timeout)
    acknowledged: list[tuple[int, str]] = []
    streams: dict[str, list] = {}
    outcomes: list[str] = []

    def timed(op, *args, **kwargs):
        """Run one client op: its result, or None after a *typed* failure."""
        t0 = time.monotonic()
        try:
            result = op(*args, **kwargs)
            outcomes.append("ok")
            return result
        except ServiceError as exc:
            assert exc.code in TRANSIENT_CODES, f"untyped failure: {exc}"
            outcomes.append(exc.code)
            return None
        finally:
            assert time.monotonic() - t0 < op_timeout, f"{op.__name__} hung"

    try:
        for i in range(40):
            attempted = i + 1
            snap = timed(client.submit, QUERIES[i % len(QUERIES)], name=f"pool{seed}-{i}")
            if snap is None:
                continue
            sid = snap["session_id"]
            acknowledged.append((i % len(QUERIES), sid))
            events = timed(lambda s=sid: list(client.watch(s, max_reconnects=0)))
            if events is not None:
                streams[sid] = events
            timed(client.fetch, sid)
            # No duplicate submission, at any point of the run.
            assert len(acknowledged) <= len(svc.registry) <= attempted

        try:
            for query, sid in acknowledged:
                final = client.wait(sid, timeout=120.0)
                assert final["state"] == "finished", (
                    f"{sid} ended {final['state']}: {final.get('error')}"
                )
                assert final["progress"] == 1.0
                fetched = fetch_with_retry(client, sid)
                assert [tuple(row) for row in fetched["rows"]] == expected[query]
            for sid, events in streams.items():
                assert events[-1]["event"] == "end"
                check_wire_stream(events, sid)
        except AssertionError:
            dump_failure(
                f"pooled-seed{seed}",
                plan,
                [e for evs in streams.values() for e in evs],
                extra={"outcomes": outcomes},
            )
            raise

        # Both sites fired, some ops failed and most did not: the schedule
        # exercised the pool rather than flattening or missing it.
        assert {r["site"] for r in plan.records()} == {"server.read", "server.write"}
        assert len(outcomes) // 2 < outcomes.count("ok") < len(outcomes)
        assert len(acknowledged) <= len(svc.registry) <= attempted
    finally:
        client.close()
        svc.shutdown()


@pytest.mark.parametrize("seed", chaos_seeds())
def test_watch_resumes_via_since_cursor(db, seed):
    """A watch that reconnects mid-query resumes from its ``since`` cursor:
    the merged stream has no duplicate and no regressing snapshot."""
    from repro.faults import (
        ERROR,
        SITE_CURSOR_FETCH,
        SITE_SERVER_WRITE,
        STALL,
        FaultPlan,
        FaultSpec,
    )

    # Kill the watch stream's socket every ~20 written lines, a few times.
    # A watcher that lags writes only each session's latest frame, so the
    # session's first 400 quanta stall 2 ms each: it then publishes no
    # faster than a watcher on a loaded host writes, and enough lines are
    # written for the write fault to land.
    plan = FaultPlan(
        seed=seed,
        specs=[
            FaultSpec(SITE_SERVER_WRITE, kind=ERROR, every=20, count=3),
            FaultSpec(SITE_CURSOR_FETCH, kind=STALL, every=1, count=400, delay_s=0.002),
        ],
    )
    # Sessions publish on their ticks only: a tick about twice a quantum
    # keeps the stream long enough for the write cadence to land in it.
    svc = ProgressService(
        db, port=0, workers=2, quantum_rows=16, tick_interval=10, faults=plan
    )
    svc.start()
    client = ProgressClient(svc.host, svc.port, timeout=30.0)
    try:
        long_sql = (
            "SELECT a.orderkey, b.orderkey FROM orders a JOIN orders b"
            " ON a.custkey = b.custkey"
        )
        sid = submit_with_retry(client, long_sql, name="resume-target")["session_id"]
        events = list(client.watch(sid, max_reconnects=10))
        final = client.wait(sid, timeout=120.0)
        assert final["state"] == "finished"
        assert events[-1]["event"] == "end"
        snaps = [e["session"] for e in events if e["event"] == "snapshot"]
        assert snaps, "watch saw no snapshots at all"
        seqs = [s["seq"] for s in snaps]
        assert len(seqs) == len(set(seqs)), f"duplicate seq across resume: {seqs}"
        check_wire_stream(events, sid)
        # The stream really did break and resume at least once.
        writes = [r for r in plan.records() if r["site"] == SITE_SERVER_WRITE]
        assert writes, "server.write fault never fired"
    finally:
        client.close()
        svc.shutdown()


@pytest.mark.parametrize("seed", chaos_seeds())
def test_delta_watch_resyncs_via_keyframe_after_write_faults(db, seed):
    """``server.write`` faults landing mid-delta-stream force reconnects;
    every resume must resync through a full keyframe, so the merged
    delta-reassembled stream never duplicates or regresses a ``seq`` and
    every yielded snapshot is complete (no fields lost to a delta applied
    against state the client never saw)."""
    from repro.faults import ERROR, SITE_SERVER_WRITE, FaultPlan, FaultSpec

    wire_fields = {
        "session_id", "name", "state", "seq", "progress", "work_done",
        "work_total_estimate", "row_count", "elapsed_s", "error", "degraded",
        "degraded_reason", "retries",
    }
    # Fire every ~15 written lines so faults land between keyframes
    # (default cadence 16), i.e. while the stream is mid-delta.
    plan = FaultPlan(
        seed=seed,
        specs=[FaultSpec(SITE_SERVER_WRITE, kind=ERROR, every=15, count=4)],
    )
    # Sessions publish on their ticks only: a tick about twice a quantum
    # keeps the stream long enough for the write cadence to land in it.
    svc = ProgressService(
        db, port=0, workers=2, quantum_rows=16, tick_interval=10, faults=plan
    )
    svc.start()
    client = ProgressClient(svc.host, svc.port, timeout=30.0)
    try:
        long_sql = (
            "SELECT a.orderkey, b.orderkey FROM orders a JOIN orders b"
            " ON a.custkey = b.custkey"
        )
        sid = submit_with_retry(client, long_sql, name="delta-resync")["session_id"]
        events = list(client.watch(sid, max_reconnects=12))
        final = client.wait(sid, timeout=120.0)
        assert final["state"] == "finished"
        assert events[-1]["event"] == "end"
        snaps = [e["session"] for e in events if e["event"] == "snapshot"]
        assert snaps, "delta watch saw no snapshots at all"
        seqs = [s["seq"] for s in snaps]
        assert len(seqs) == len(set(seqs)), f"duplicate seq across resync: {seqs}"
        assert seqs == sorted(seqs), f"seq regressed across resync: {seqs}"
        for snap in snaps:
            assert set(snap) == wire_fields, (
                f"incomplete reassembled snapshot at seq {snap['seq']}"
            )
        check_wire_stream(events, sid)
        assert snaps[-1]["progress"] == 1.0 and snaps[-1]["state"] == "finished"
        assert plan.records(), "server.write fault never fired mid-delta"
    finally:
        client.close()
        svc.shutdown()
