"""Chaos invariant for the run-history store (satellite of repro.robust):
**history faults never change row results or terminal progress**.

History is an accelerant, never a dependency. A fault at ``history.read``
(store load) leaves the store empty; a fault at ``history.write`` (run
recording) drops the record — and that is the *whole* blast radius. Rows,
tick counts and the terminal progress state must be bit-identical to a
fault-free history-enabled run, with a ``degraded_reason`` surfaced
through session snapshots (the terminal frame included) so the
degradation is observable, not silent: a failed load on the store, for
every session sharing it; a dropped record on its own run's session only.
"""

from __future__ import annotations

import pytest

from repro.executor.engine import ExecutionEngine
from repro.faults import ERROR, SHORT_READ, FaultPlan, FaultSpec
from repro.faults.plan import SITE_HISTORY_READ, SITE_HISTORY_WRITE
from repro.robust import HistoryStore
from repro.server.session import QuerySession, SessionState

from tests.chaos.schedules import chaos_seeds
from tests.test_differential_batch import build_plan

TRIALS = (0, 3, 11, 29)
MAX_STEPS = 10_000
QUANTUM = 64

#: Every way the two history sites can fail, plus both together.
FAULT_SHAPES = [
    [FaultSpec(SITE_HISTORY_READ, kind=ERROR, every=1)],
    [FaultSpec(SITE_HISTORY_READ, kind=SHORT_READ, every=1)],
    [FaultSpec(SITE_HISTORY_WRITE, kind=ERROR, every=1)],
    [FaultSpec(SITE_HISTORY_WRITE, kind=SHORT_READ, every=1)],
    [
        FaultSpec(SITE_HISTORY_READ, kind=ERROR, every=1),
        FaultSpec(SITE_HISTORY_WRITE, kind=SHORT_READ, every=1),
    ],
]


@pytest.fixture(autouse=True)
def _lock_asserts(monkeypatch):
    monkeypatch.setenv("REPRO_LOCK_ASSERTS", "1")


def run_session(plan, store) -> QuerySession:
    session = QuerySession(
        plan, quantum_rows=QUANTUM, row_cap=1_000_000, history=store
    )
    for _ in range(MAX_STEPS):
        if not session.step():
            break
    else:
        pytest.fail(f"session wedged: still {session.state} after {MAX_STEPS} steps")
    return session


def terminal_facts(session: QuerySession):
    snap = session.snapshot()
    return (
        session.state,
        sorted(session.rows),
        session.row_count,
        snap.progress,
        snap.work_done,
        snap.work_total_estimate,
    )


@pytest.mark.parametrize("seed", chaos_seeds())
def test_history_faults_never_change_rows_or_terminal_progress(seed, tmp_path):
    for trial in TRIALS:
        path = tmp_path / f"history-{trial}.jsonl"
        # Warm the store with one clean run, then take the fault-free
        # warm-start run as the reference for rows + terminal progress.
        run_session(build_plan(trial), HistoryStore(path))
        reference = terminal_facts(run_session(build_plan(trial), HistoryStore(path)))
        assert reference[0] is SessionState.FINISHED
        assert reference[3] == 1.0

        shape = FAULT_SHAPES[seed % len(FAULT_SHAPES)]
        plan = FaultPlan(seed=seed, specs=[s for s in shape])
        store = HistoryStore(path, faults=plan)
        session = run_session(build_plan(trial), store)
        context = f"seed={seed} trial={trial} sites={[s.site for s in shape]}"

        # The one allowed effect: the session reports why its history
        # degraded.
        assert plan.records(), f"history fault never fired: {context}"
        assert session.snapshot().degraded_reason is not None, context
        # Everything else is bit-identical to the fault-free reference.
        assert terminal_facts(session) == reference, context


def test_read_fault_degradation_is_visible_in_snapshots(tmp_path):
    """A degraded store surfaces through the session's wire snapshots:
    ``degraded`` set with the store's reason."""
    path = tmp_path / "history.jsonl"
    run_session(build_plan(0), HistoryStore(path))  # warm the file
    plan = FaultPlan(
        seed=7, specs=[FaultSpec(SITE_HISTORY_READ, kind=ERROR, every=1)]
    )
    session = run_session(build_plan(0), HistoryStore(path, faults=plan))
    snap = session.snapshot()
    assert snap.degraded
    assert snap.degraded_reason is not None
    assert "history read fault" in snap.degraded_reason

    # The same plan without the fault reads the same file cleanly.
    clean = run_session(build_plan(0), HistoryStore(path))
    assert not clean.snapshot().degraded


def test_write_fault_is_visible_on_the_terminal_frame(tmp_path):
    """The run is recorded before the terminal publish, so a
    ``history.write`` fault at FINISHED shows on the last frame a watcher
    receives — and on no frame before it."""
    plan = FaultPlan(
        seed=5, specs=[FaultSpec(SITE_HISTORY_WRITE, kind=ERROR, every=1)]
    )
    store = HistoryStore(tmp_path / "history.jsonl", faults=plan)
    session = QuerySession(
        build_plan(0), quantum_rows=QUANTUM, row_cap=1_000_000, history=store
    )
    frames = []
    session.add_listener(lambda _session, snap: frames.append(snap.to_wire()))
    while session.step():
        pass
    terminal = frames[-1]
    assert terminal["state"] == "finished"
    assert terminal["degraded"] is True
    assert "history write" in terminal["degraded_reason"]
    assert not any(frame["degraded"] for frame in frames[:-1])
    assert len(store) == 0


def test_write_fault_drops_record_but_engine_rows_survive(tmp_path):
    """Engine-level: a faulted history write loses only the record — the
    store itself stays healthy for the next run."""
    baseline = ExecutionEngine(build_plan(1), collect_rows=True).run()
    plan = FaultPlan(
        seed=3, specs=[FaultSpec(SITE_HISTORY_WRITE, kind=ERROR, every=1)]
    )
    store = HistoryStore(tmp_path / "h.jsonl", faults=plan)
    result = ExecutionEngine(build_plan(1), collect_rows=True, history=store).run()
    assert result.rows == baseline.rows
    assert plan.records()  # the write fault fired
    assert len(store) == 0
    assert store.degraded_reason is None
    assert "history write fault" in result.history_fault


def test_a_stored_record_reports_no_history_fault(tmp_path):
    store = HistoryStore(tmp_path / "h.jsonl")
    result = ExecutionEngine(build_plan(1), history=store).run()
    assert len(store) == 1
    assert result.history_fault is None


def test_a_dropped_record_degrades_only_its_own_session(tmp_path):
    """Three sessions share one store whose first write faults: only the
    session whose record was dropped ends ``degraded``; the two after it
    are recorded and clean."""
    plan = FaultPlan(
        seed=9, specs=[FaultSpec(SITE_HISTORY_WRITE, kind=ERROR, every=1, count=1)]
    )
    store = HistoryStore(tmp_path / "history.jsonl", faults=plan)
    terminal = []
    for n in range(3):
        session = run_session(build_plan(0), store)
        snap = session.snapshot()
        terminal.append((snap.degraded, len(store)))
        if n == 0:
            assert "history write fault" in snap.degraded_reason
        else:
            assert snap.degraded_reason is None
    assert terminal == [(True, 0), (False, 1), (False, 2)]
