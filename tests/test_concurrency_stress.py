"""Stress test: hammer session/monitor snapshots with lock asserts enabled.

The lock-discipline rules (:mod:`repro.analysis.concurrency`) prove the
TickBus protocol statically; this test cross-checks the same model at
runtime. With ``REPRO_LOCK_ASSERTS=1`` every ``assert_owned`` call inside
``QuerySession._on_bus_tick`` and ``QuerySession._finalize`` verifies the
thread really owns the lock the static annotations claim it does — while
reader threads hammer ``snapshot()`` and listeners register mid-run,
against scheduler workers stepping batched sessions.
"""

from __future__ import annotations

import threading

import pytest

from repro.common.locks import ASSERTS_ENV
from repro.datagen.skew import customer_variant
from repro.executor.operators import HashJoin, SeqScan
from repro.server.scheduler import Scheduler
from repro.server.session import QuerySession, SessionState

N_READERS = 4


@pytest.fixture(autouse=True)
def _lock_asserts_on(monkeypatch):
    monkeypatch.setenv(ASSERTS_ENV, "1")


def make_join(rows: int, tag: str):
    a = customer_variant(1.0, 50, 0, rows, name=f"a{tag}")
    b = customer_variant(1.0, 50, 1, rows, name=f"b{tag}")
    return HashJoin(
        SeqScan(a), SeqScan(b), f"a{tag}.nationkey", f"b{tag}.nationkey"
    )


class SessionReader(threading.Thread):
    """Hammers ``QuerySession.snapshot()`` until told to stop."""

    def __init__(self, session: QuerySession, stop: threading.Event):
        super().__init__(daemon=True)
        self.session = session
        self.stop = stop
        self.samples: list = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            while not self.stop.is_set():
                self.samples.append(self.session.snapshot())
        except BaseException as exc:  # noqa: BLE001 - recorded for the assert
            self.error = exc


def test_snapshot_hammer_during_scheduled_run_with_asserts():
    session = QuerySession(
        make_join(1500, "xs"),
        mode="once",
        tick_interval=100,
        quantum_rows=64,
        row_cap=0,
    )
    published: list = []

    def listener(_session: QuerySession, snap) -> None:
        # Runs on worker threads from inside _publish; any lock-assert
        # failure in the publish path surfaces through the session error.
        published.append(snap)

    session.add_listener(listener)

    stop = threading.Event()
    readers = [SessionReader(session, stop) for _ in range(N_READERS)]
    scheduler = Scheduler(workers=2)
    try:
        for reader in readers:
            reader.start()
        scheduler.submit(session)
        # Listeners may attach while workers are stepping: exercises the
        # tuple-swap under _snap_lock against lock-free iteration.
        for _ in range(8):
            session.add_listener(lambda _s, _snap: None)
        assert scheduler.join(timeout=60.0), "scheduler never drained"
    finally:
        stop.set()
        scheduler.shutdown()
        for reader in readers:
            reader.join(timeout=30.0)

    assert session.state is SessionState.FINISHED, session.error
    assert session.error is None

    total_samples = 0
    for reader in readers:
        assert not reader.is_alive(), "reader thread wedged"
        assert reader.error is None, f"snapshot() raised in reader: {reader.error!r}"
        total_samples += len(reader.samples)
        seqs = [snap.seq for snap in reader.samples]
        assert seqs == sorted(seqs), "snapshot seq regressed within one reader"
        assert len(set(seqs)) == len(seqs), "snapshot seq collided (racy counter)"
        for snap in reader.samples:
            assert 0.0 <= snap.progress <= 1.0
    assert total_samples > N_READERS, "readers never actually raced the run"

    # The bus-tick publish path ran under the worker threads' step lock.
    assert published, "no snapshots were published to listeners"
    pub_seqs = [snap.seq for snap in published]
    assert pub_seqs == sorted(pub_seqs), "published seq regressed"
    assert published[-1].state == SessionState.FINISHED.value


def test_monitor_snapshot_hammer_with_asserts():
    """ProgressMonitor.snapshot() from many threads never trips the asserts.

    snapshot() takes the sampling lock with ``with`` and reads the
    ``@guarded_by``-annotated ``refresh_bounds`` under it (the analyzer's
    X002 obligation); readers racing the run never see a torn snapshot.
    """
    session = QuerySession(
        make_join(1000, "xm"), mode="once", tick_interval=100, quantum_rows=64
    )
    monitor = session.monitor
    stop = threading.Event()
    errors: list[BaseException] = []

    def hammer() -> None:
        try:
            while not stop.is_set():
                snap = monitor.snapshot()
                assert 0.0 <= snap.progress <= 1.0
        except BaseException as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)

    threads = [threading.Thread(target=hammer, daemon=True) for _ in range(N_READERS)]
    for thread in threads:
        thread.start()
    try:
        while session.step():
            pass
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)

    assert session.state is SessionState.FINISHED, session.error
    assert not errors, f"monitor.snapshot() raised under asserts: {errors[:1]!r}"
