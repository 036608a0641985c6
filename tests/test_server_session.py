"""Tests for repro.server.session: resumable, cancellable query sessions."""

import pytest

from repro.datagen.skew import customer_variant
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import HashJoin, SeqScan
from repro.server.scheduler import Scheduler
from repro.server.session import QuerySession, SessionState, TERMINAL_STATES
from repro.server.wire import TERMINAL_WIRE_STATES
from repro.sql import compile_select
from repro.storage.catalog import Catalog


def make_join(rows: int, tag: str):
    a = customer_variant(1.0, 50, 0, rows, name=f"a{tag}")
    b = customer_variant(1.0, 50, 1, rows, name=f"b{tag}")
    return HashJoin(
        SeqScan(a), SeqScan(b), f"a{tag}.nationkey", f"b{tag}.nationkey"
    )


def drive(session: QuerySession, max_steps: int = 100_000) -> int:
    steps = 0
    while session.step():
        steps += 1
        assert steps < max_steps, "session did not terminate"
    return steps


class TestLifecycle:
    def test_runs_to_completion_and_matches_engine(self):
        plan = make_join(400, "m")
        expected = ExecutionEngine(make_join(400, "m")).run()
        session = QuerySession(plan, quantum_rows=64, row_cap=100_000)
        assert session.state is SessionState.PENDING
        drive(session)
        assert session.state is SessionState.FINISHED
        assert session.finished
        assert session.row_count == expected.row_count
        columns, rows, truncated = session.results()
        assert not truncated
        assert rows == expected.rows

    def test_final_snapshot_is_exactly_one(self):
        session = QuerySession(make_join(300, "f"), quantum_rows=50)
        drive(session)
        snap = session.snapshot()
        assert snap.state == "finished"
        assert snap.progress == 1.0
        assert snap.work_done == snap.work_total_estimate

    def test_step_after_terminal_is_noop(self):
        session = QuerySession(make_join(100, "n"), quantum_rows=1000)
        drive(session)
        assert session.step() is False
        assert session.state is SessionState.FINISHED

    def test_streamed_snapshots_monotone(self):
        session = QuerySession(
            make_join(500, "s"), quantum_rows=32, tick_interval=100
        )
        seen = []
        session.add_listener(lambda _s, snap: seen.append(snap))
        drive(session)
        assert len(seen) > 3
        progresses = [s.progress for s in seen]
        assert progresses == sorted(progresses)
        seqs = [s.seq for s in seen]
        assert seqs == sorted(seqs)
        assert seen[-1].progress == 1.0

    def test_work_done_monotone_in_stream(self):
        session = QuerySession(
            make_join(500, "w"), quantum_rows=32, tick_interval=100
        )
        work = []
        session.add_listener(lambda _s, snap: work.append(snap.work_done))
        drive(session)
        assert work == sorted(work)


class TestPublishCadence:
    def test_publishes_on_ticks_and_at_the_end_not_per_quantum(self):
        """A selective filter hands back one short batch per scan pull, so
        most quanta end between ticks. The session publishes once per tick
        of its bus and once at its end, never once per quantum."""
        catalog = Catalog()
        catalog.register(customer_variant(0.0, 120, 0, 12_000, name="sel"))
        plan = compile_select(
            catalog, "SELECT sel.custkey, sel.name FROM sel WHERE sel.nationkey < 12"
        ).plan
        session = QuerySession(plan, quantum_rows=16, tick_interval=100)
        published = []
        session.add_listener(lambda _s, snap: published.append(snap))
        steps = drive(session)
        ticks = len(session.monitor.snapshots)
        assert ticks >= 5 and steps > 10 * ticks
        assert len(published) == ticks + 1
        assert published[-1].state == "finished" and published[-1].progress == 1.0


class TestRowCap:
    def test_spool_truncated_at_cap(self):
        session = QuerySession(make_join(400, "c"), quantum_rows=64, row_cap=10)
        drive(session)
        columns, rows, truncated = session.results()
        assert len(rows) == 10
        assert truncated
        assert session.row_count > 10

    def test_row_cap_zero_disables_spool(self):
        session = QuerySession(make_join(200, "z"), quantum_rows=64, row_cap=0)
        drive(session)
        _, rows, truncated = session.results()
        assert rows == []
        assert truncated
        assert session.row_count > 0


class TestCancellation:
    def test_cancel_before_start(self):
        session = QuerySession(make_join(200, "cb"))
        session.cancel("never mind")
        assert session.step() is False
        assert session.state is SessionState.CANCELLED
        assert session.error == "never mind"

    def test_cancel_mid_flight(self):
        session = QuerySession(make_join(800, "cm"), quantum_rows=16)
        assert session.step()
        assert session.step()
        session.cancel()
        assert session.step() is False
        assert session.state is SessionState.CANCELLED
        snap = session.snapshot()
        assert snap.state == "cancelled"
        # A mid-flight cancel must not read as complete.
        assert snap.progress < 1.0

    def test_timeout_cancels(self):
        session = QuerySession(
            make_join(400, "t"), quantum_rows=16, timeout_s=1e-9
        )
        drive(session)  # deadline trips at the first step boundary past it
        assert session.state is SessionState.CANCELLED
        assert "deadline exceeded" in session.error

    def test_cancelled_session_reports_zero_remaining_work(self):
        session = QuerySession(make_join(300, "r"), quantum_rows=16)
        session.step()
        session.cancel()
        session.step()
        assert session.remaining_work() == 0.0


class TestFailure:
    def test_fetch_error_fails_session(self):
        class ExplodingScan(SeqScan):
            def next_batch(self, max_rows):
                raise ZeroDivisionError("boom")

        plan = ExplodingScan(customer_variant(1.0, 50, 0, 100, name="fx"))
        session = QuerySession(plan, quantum_rows=16)
        assert session.step() is False
        assert session.state is SessionState.FAILED
        assert "ZeroDivisionError" in session.error
        assert session.finished

    def test_raising_listener_is_detached_and_session_finishes(self):
        """A listener is the per-turn hook; one that raises must cost
        neither the query, nor the worker stepping it, nor its siblings."""
        session = QuerySession(
            make_join(500, "rl"), quantum_rows=32, tick_interval=100, row_cap=0
        )
        broken_calls, healthy = [], []

        def broken(_session, snap):
            broken_calls.append(snap.seq)
            raise RuntimeError("dashboard went away")

        session.add_listener(broken)
        session.add_listener(lambda _s, snap: healthy.append(snap))
        with Scheduler(workers=1) as sched:
            sched.submit(session)
            assert sched.run_until_complete(timeout=30.0)
        assert session.state is SessionState.FINISHED
        assert healthy[-1].progress == 1.0
        assert broken_calls == [1]
        # Nothing else sampled the session, so publishes own every seq.
        assert [snap.seq for snap in healthy] == list(range(1, len(healthy) + 1))
        assert len(healthy) > 3
        assert session.snapshot().seq == len(healthy) + 1

    def test_terminal_states_cover_enum(self):
        assert TERMINAL_STATES == {
            SessionState.FINISHED,
            SessionState.CANCELLED,
            SessionState.FAILED,
        }
        assert TERMINAL_WIRE_STATES == {state.value for state in TERMINAL_STATES}


class TestValidation:
    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            QuerySession(make_join(10, "v1"), quantum_rows=0)

    def test_rejects_bad_row_cap(self):
        with pytest.raises(ValueError):
            QuerySession(make_join(10, "v2"), row_cap=-1)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            QuerySession(make_join(10, "v3"), timeout_s=0)

    def test_remaining_work_primes_from_estimates(self):
        session = QuerySession(make_join(300, "p"))
        assert session.remaining_work() > 0.0
