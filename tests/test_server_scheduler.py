"""Tests for the scheduler, event bus, and session registry."""

import threading

import pytest

from repro.datagen.skew import customer_variant
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import HashJoin, SeqScan
from repro.server.events import EventBus
from repro.server.registry import SessionRegistry
from repro.server.scheduler import AdmissionError, Scheduler
from repro.server.session import QuerySession, SessionState


def make_join(rows: int, tag: str):
    a = customer_variant(1.0, 50, 0, rows, name=f"a{tag}")
    b = customer_variant(1.0, 50, 1, rows, name=f"b{tag}")
    return HashJoin(
        SeqScan(a), SeqScan(b), f"a{tag}.nationkey", f"b{tag}.nationkey"
    )


def make_sessions(n: int, rows: int = 300, **kwargs) -> list[QuerySession]:
    kwargs.setdefault("quantum_rows", 64)
    kwargs.setdefault("row_cap", 0)
    return [
        QuerySession(make_join(rows, f"g{i}"), name=f"q{i}", **kwargs)
        for i in range(n)
    ]


class TestScheduler:
    @pytest.mark.parametrize("policy", ["fair", "serw"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_workload_completes(self, policy, workers):
        sessions = make_sessions(6)
        with Scheduler(workers=workers, policy=policy, max_pending=16) as sched:
            for s in sessions:
                sched.submit(s)
            sched.run_until_complete()
        assert all(s.state is SessionState.FINISHED for s in sessions)
        assert all(s.snapshot().progress == 1.0 for s in sessions)
        assert sched.steps_taken > len(sessions)

    def test_results_match_single_threaded_engine(self):
        expected = {
            i: ExecutionEngine(make_join(250, f"g{i}")).run().row_count
            for i in range(4)
        }
        sessions = make_sessions(4, rows=250)
        with Scheduler(workers=4, max_pending=8) as sched:
            for s in sessions:
                sched.submit(s)
            sched.run_until_complete()
        for i, s in enumerate(sessions):
            assert s.row_count == expected[i]

    def test_admission_control(self, monkeypatch):
        sched = Scheduler(workers=1, max_pending=2)
        # Keep the worker threads parked: admission is checked in submit()
        # before start(), and a running worker could otherwise drain a
        # session between submits and free a slot (flaky under load).
        monkeypatch.setattr(sched, "start", lambda: None)
        sessions = make_sessions(3)
        try:
            sched.submit(sessions[0])
            sched.submit(sessions[1])
            with pytest.raises(AdmissionError):
                sched.submit(sessions[2])
        finally:
            sched.shutdown(wait=True)

    def test_submit_after_shutdown_rejected(self):
        sched = Scheduler(workers=1)
        sched.shutdown(wait=True)
        with pytest.raises(AdmissionError):
            sched.submit(make_sessions(1)[0])

    def test_cancel_releases_worker(self):
        """A cancelled session leaves the queue; remaining work completes."""
        sessions = make_sessions(3, rows=600, quantum_rows=16)
        sessions[1].cancel("test cancel")
        with Scheduler(workers=2, max_pending=8) as sched:
            for s in sessions:
                sched.submit(s)
            sched.run_until_complete()
        assert sessions[0].state is SessionState.FINISHED
        assert sessions[1].state is SessionState.CANCELLED
        assert sessions[2].state is SessionState.FINISHED

    def test_serw_prefers_less_remaining_work(self):
        """serw drains the short query before the long one finishes."""
        short = QuerySession(
            make_join(100, "sw"), name="short", quantum_rows=32, row_cap=0
        )
        long_ = QuerySession(
            make_join(2000, "lw"), name="long", quantum_rows=32, row_cap=0
        )
        order = []
        for session in (short, long_):
            session.add_listener(lambda s, _snap: order.append(s.name))
        with Scheduler(workers=1, policy="serw") as sched:
            sched.submit(long_)
            sched.submit(short)
            sched.run_until_complete()
        assert order.index("short") < len(order) - 1
        short_done = max(i for i, n in enumerate(order) if n == "short")
        long_done = max(i for i, n in enumerate(order) if n == "long")
        assert short_done < long_done

    def test_rejects_bad_policy_and_workers(self):
        with pytest.raises(ValueError):
            Scheduler(policy="lifo")
        with pytest.raises(ValueError):
            Scheduler(workers=0)


class TestFairWorkload:
    """The dashboard's view of a workload: two queries (one per estimator
    mode) on one fair worker, observed at every publish through a session
    listener reading ``SessionRegistry.workload()``."""

    QUANTUM = 50

    @pytest.fixture(scope="class")
    def run(self):
        registry = SessionRegistry()
        sessions = [
            registry.add(
                QuerySession(
                    make_join(rows, f"fw{mode}"),
                    name=mode,
                    mode=mode,
                    quantum_rows=self.QUANTUM,
                    row_cap=0,
                )
            )
            for rows, mode in ((700, "once"), (900, "dne"))
        ]
        observed = []  # (publishing session's state, workload view)
        for session in sessions:
            session.add_listener(
                lambda _s, snap: observed.append((snap.state, registry.workload()))
            )
        with Scheduler(workers=1, policy="fair") as sched:
            for session in sessions:
                sched.submit(session)
            assert sched.run_until_complete(timeout=60.0)
        return sessions, sched, observed

    def test_both_queries_are_mid_flight_on_some_turn(self, run):
        _, _, observed = run
        assert any(
            all(0.0 < p < 1.0 for p in view.per_session.values())
            for _, view in observed
        )
        final = observed[-1][1]
        assert final.progress == 1.0
        assert set(final.per_session.values()) == {1.0}

    def test_work_never_decreases_nor_progress_at_a_finish(self, run):
        # Aggregate *progress* may dip when a live T-hat is revised upward;
        # what must hold is that work only accumulates and that pinning a
        # finished query never costs the workload progress.
        _, _, observed = run
        work = [view.work_done for _, view in observed]
        assert work == sorted(work)
        finishes = [i for i, (state, _) in enumerate(observed) if state == "finished"]
        assert len(finishes) == 2
        for i in finishes:
            assert observed[i][1].progress >= observed[i - 1][1].progress - 1e-9

    def test_finished_session_takes_no_further_turns(self, run):
        # ceil(rows / quantum) producing turns plus one exhausting turn
        # each; the shorter query must not keep consuming turns while the
        # longer one drains.
        sessions, sched, _ = run
        expected = sum(-(-s.row_count // self.QUANTUM) + 1 for s in sessions)
        assert sched.steps_taken <= expected + 2


class TestEventBus:
    def test_publish_fans_out(self):
        bus = EventBus()
        a, b = bus.subscribe(), bus.subscribe()
        bus.publish("s1")
        assert a.take(timeout=1) == ["s1"] and b.take(timeout=1) == ["s1"]

    def test_closed_subscription_stops_receiving(self):
        bus = EventBus()
        sub = bus.subscribe()
        sub.close()
        assert bus._subs == ()  # detached: the bus holds no reference
        bus.publish("s1")
        assert sub.take(timeout=0.1) is None

    def test_bounded_mailbox_drops_oldest(self):
        """The mailbox holds one entry per session, so it is bounded by the
        session count whatever the publish rate: a session's older
        notifications fold into its newest, which keeps its first place."""
        bus = EventBus()
        sub = bus.subscribe()
        for n in range(500):
            bus.publish(f"s{n % 5}")
        assert sub.take(timeout=1) == [f"s{n}" for n in range(5)]

    def test_get_timeout_raises_when_open(self):
        bus = EventBus()
        sub = bus.subscribe()
        with pytest.raises(TimeoutError):
            sub.take(timeout=0.01)

    def test_close_drains_then_none(self):
        bus = EventBus()
        sub = bus.subscribe()
        bus.publish("s1")
        bus.close()
        assert sub.take(timeout=1) == ["s1"]
        assert sub.take(timeout=1) is None
        assert bus.subscribe().take(timeout=1) is None

    def test_iteration_ends_on_close(self):
        """A watcher's take loop drains what was published, then ends when
        the bus closes under it."""
        bus = EventBus()
        sub = bus.subscribe()
        bus.publish("s1")
        bus.publish("s2")
        closer = threading.Timer(0.05, bus.close)
        closer.start()
        taken = []
        while (changed := sub.take(timeout=5.0)) is not None:
            taken += changed
        closer.join()
        assert taken == ["s1", "s2"]


class TestRegistry:
    def test_add_get_remove(self):
        reg = SessionRegistry()
        (s,) = make_sessions(1)
        reg.add(s)
        assert reg.get(s.session_id) is s
        assert len(reg) == 1
        with pytest.raises(ValueError):
            reg.add(s)
        reg.remove(s.session_id)
        assert reg.get(s.session_id) is None

    def test_workload_aggregates_and_pins_terminal(self):
        reg = SessionRegistry()
        done, cancelled, live = make_sessions(3, rows=200, quantum_rows=32)
        for s in (done, cancelled, live):
            reg.add(s)
        while done.step():
            pass
        cancelled.step()
        cancelled.cancel()
        cancelled.step()
        live.step()
        view = reg.workload()
        assert view.sessions == 3
        assert view.states["finished"] == 1
        assert view.states["cancelled"] == 1
        assert view.states["running"] == 1
        assert not view.idle
        assert 0.0 < view.progress <= 1.0
        assert view.per_session[done.session_id] == 1.0
        # Terminal sessions contribute (done, done): the aggregate cannot
        # be dragged below their pinned contribution by stale estimates.
        assert view.work_done <= view.work_total_estimate
        # ...and a finished one contributes its exact T(Q).
        assert done.snapshot().work_done == done.monitor.true_total()
        assert view.work_done == pytest.approx(
            sum(s.snapshot().work_done for s in (done, cancelled, live))
        )

    def test_workload_idle_when_all_terminal(self):
        reg = SessionRegistry()
        (s,) = make_sessions(1, rows=100)
        reg.add(s)
        while s.step():
            pass
        view = reg.workload()
        assert view.idle
        assert view.progress == 1.0
