"""Parallel-vs-serial differential oracle.

Reuses the PR-2 random plan generator (``tests.test_differential_batch``)
and checks, for every fragmentable plan and P ∈ {1, 2, 4}:

1. **Row multisets identical** — merged parallel output equals the
   serial run's output as a multiset (ordering differs only where the
   serial plan itself had no order guarantee; peeled SortSteps restore
   exact order and are compared exactly in the fragments tests).
2. **Final progress exactly 1.0** — the merged monitor's last snapshot
   pins ``total = done``.
3. **Monotone merged progress stream** — the merged monitor records one
   snapshot per accepted delta (every fragment sends a first and a
   ``done`` delta, so at least 2·P), each equal to the fold of the deltas
   seen so far; ``work_done`` and ``progress`` never regress, the last
   entry is exactly 1.0, and for P ≥ 2 part of the stream predates the
   last fragment's completion.
4. **Merged estimator state bit-identical to serial** — after both runs
   finish, every ONCE/chain/group estimator's merged sufficient
   statistics (per level ``t``, ``Σc``, ``Σc²``, exactness; histogram
   counts) equal the serial estimator's own ``export()`` exactly. This is the strongest form of the paper-level claim: the
   parallel progress indicator is not merely *close* — at probe end it
   is the *same* estimator.

Fragments run in-process, one after another (docs/PARALLEL.md), so the
sweep is deterministic. The tail of the file pins what is left of the
failure behaviour: a fault inside a fragment fails the whole run, the
retired ``worker.*`` fault sites are unknown to the spec parser, and a
``submit`` request still carrying ``"parallel"`` is served serially.
"""

from __future__ import annotations

import collections

import pytest

from repro.core.progress import ProgressMonitor
from repro.executor.engine import ExecutionEngine, TickBus
from repro.faults import (
    ERROR,
    SITE_OPERATOR_PULL,
    SITE_SCAN_READ,
    FaultPlan,
    FaultSpec,
    parse_fault_spec,
)
from repro.parallel import Coordinator, ParallelExecutionError, try_compile
from repro.server import ProgressClient, ProgressService
from repro.server.session import QuerySession
from repro.sql import compile_select

from tests.test_differential_batch import build_plan

NUM_TRIALS = 48
PARALLELISMS = (1, 2, 4)


def _serial_observation(trial: int):
    """Run trial ``trial`` serially with full monitoring; return
    ``(rows multiset, estimator manager)``."""
    plan = build_plan(trial)
    bus = TickBus(1000)
    monitor = ProgressMonitor(plan, mode="once", bus=bus)
    result = ExecutionEngine(plan, bus=bus).run(batch_size=256)
    return collections.Counter(result.rows), monitor.manager


def _assert_merged_state_matches(manager, merged, trial, p):
    """Invariant 4: merged parallel statistics == serial statistics."""
    context = f"trial={trial} P={p}"
    for estimator, ops in manager.attached():
        serial = estimator.export()
        key = (serial.kind, tuple(op.node_id for op in ops))
        state = merged.get(key)
        assert state is not None, f"{context}: {key} missing from merge"
        # (t, Σc, Σc²) per level. The summed |S| is a float that per-shard
        # providers (a selection's observed selectivity) need not reproduce
        # bit for bit, and at probe end the estimate no longer reads it.
        assert [level.export()[:3] for level in state.levels] == [
            stats[:3] for stats in serial.levels
        ], f"{context}: {key} level statistics"
        for level, stats in zip(state.levels, serial.levels):
            assert level.exact and stats.exact, f"{context}: {key} exactness"
            assert level.estimate() == float(stats.sum_c), (
                f"{context}: {key} estimate must collapse to exact"
            )
        assert state.hists == list(serial.hists), f"{context}: {key} histograms"
        assert state.exact == serial.exact, f"{context}: {key} exactness"


def _run_parallel(trial, p):
    """Run trial ``trial`` at P=``p``; ``None`` when unfragmentable, else
    ``(coordinator, result, deltas)`` with every delta the merged monitor
    was handed, in arrival order."""
    fragments = try_compile(build_plan(trial), p)
    if fragments is None:
        return None
    coordinator = Coordinator(fragments, delta_every=512)
    deltas = []
    fold = coordinator.monitor.observe

    def recording_observe(delta):
        deltas.append(delta)
        fold(delta)

    coordinator.monitor.observe = recording_observe
    result = coordinator.run()
    return coordinator, result, deltas


def _assert_progress_stream(snapshots, deltas, p, context):
    """Invariant 3: one merged snapshot per accepted delta, monotone,
    ending at exactly 1.0, and not all taken after the fact."""
    assert len(snapshots) == len(deltas) >= 2 * p, (
        f"{context}: {len(snapshots)} snapshots for {len(deltas)} deltas"
    )
    latest: dict[int, object] = {}
    unfinished_prefixes = 0
    for snap, delta in zip(snapshots, deltas):
        latest[delta.worker_id] = delta
        folded = sum(k for d in latest.values() for k in d.counters.values())
        assert snap.work_done == folded, (
            f"{context}: snapshot is not the fold of the deltas seen so far"
        )
        if sum(d.done for d in latest.values()) < p:
            unfinished_prefixes += 1
    for a, b in zip(snapshots, snapshots[1:]):
        assert b.work_done >= a.work_done, f"{context}: work_done regressed"
        assert b.progress >= a.progress - 1e-12, (
            f"{context}: progress regressed: {[s.progress for s in snapshots]}"
        )
    assert snapshots[-1].progress == 1.0, f"{context}: stream does not end at 1.0"
    if p >= 2:
        assert unfinished_prefixes >= 1, (
            f"{context}: every snapshot was taken after the last fragment finished"
        )


@pytest.mark.parametrize("trial", range(NUM_TRIALS))
def test_inline_parallel_matches_serial(trial):
    serial_rows, manager = _serial_observation(trial)
    fragmented_any = False
    for p in PARALLELISMS:
        run = _run_parallel(trial, p)
        if run is None:
            continue
        fragmented_any = True
        coordinator, result, deltas = run
        # 1: identical row multisets.
        assert collections.Counter(result.rows) == serial_rows, (
            f"trial={trial} P={p}: rows diverged "
            f"({len(result.rows)} vs {sum(serial_rows.values())})"
        )
        # 2: final progress exactly 1.0.
        final = coordinator.monitor.snapshot()
        assert final.work_done == final.work_total_estimate, (
            f"trial={trial} P={p}: final total not pinned to done"
        )
        assert final.progress == 1.0
        # 3: monotone merged progress stream, recorded delta by delta —
        # and reading the final snapshot above must not have extended it.
        _assert_progress_stream(
            coordinator.monitor.snapshots, deltas, p, f"trial={trial} P={p}"
        )
        # 4: merged estimator state bit-identical to serial.
        if manager is not None:
            _assert_merged_state_matches(
                manager, coordinator.monitor.merged_estimators(), trial, p
            )
    if not fragmented_any:
        pytest.skip(f"trial {trial} not fragmentable at any P (serial fallback)")


def test_sweep_actually_covers_fragmentable_plans():
    """Meta-test: the generator must keep feeding the oracle real work —
    a harness where everything falls back to serial proves nothing."""
    fragmentable = sum(
        1
        for trial in range(NUM_TRIALS)
        if try_compile(build_plan(trial), 4) is not None
    )
    assert fragmentable >= NUM_TRIALS // 3, (
        f"only {fragmentable}/{NUM_TRIALS} trials fragmentable — "
        "the differential sweep lost its coverage"
    )


# -- retained failure behaviour ---------------------------------------------------

JOIN_SQL = (
    "SELECT c.name, o.totalprice FROM customer c JOIN orders o"
    " ON c.custkey = o.custkey"
)


@pytest.fixture(scope="module")
def db():
    from repro.datagen import generate_tpch

    return generate_tpch(sf=0.002, seed=21)


@pytest.mark.parametrize("site", [SITE_SCAN_READ, SITE_OPERATOR_PULL])
def test_fragment_fault_fails_run_without_rows(db, site):
    """An injected error inside any fragment fails the whole run with a
    diagnosis; no partial result escapes."""
    fragments = try_compile(compile_select(db, JOIN_SQL).plan, 4)
    assert fragments is not None, "fault query must be fragmentable"
    faults = FaultPlan(seed=7, specs=[FaultSpec(site, kind=ERROR, every=3, count=1)])
    coordinator = Coordinator(fragments, faults=faults)
    with pytest.raises(ParallelExecutionError, match="worker 0: InjectedFault"):
        coordinator.run()
    assert not coordinator.monitor.all_done


def test_retired_worker_fault_sites_are_rejected():
    for spec in ("worker.exec:error:every=1", "seed=3; worker.spawn:error:every=1"):
        with pytest.raises(ValueError, match="unknown injection site"):
            parse_fault_spec(spec)


def test_stray_parallel_field_is_served_serially(db):
    """The ``parallel`` field left the protocol: an old client that still
    sends it gets an ordinary serial session and the serial rows."""
    expected = ExecutionEngine(compile_select(db, JOIN_SQL).plan).run().rows
    service = ProgressService(db, port=0, workers=2, row_cap=50_000)
    service.start()
    try:
        client = ProgressClient(service.host, service.port, timeout=30.0)
        reply = client._roundtrip({"op": "submit", "sql": JOIN_SQL, "parallel": 4})
        sid = reply["session"]["session_id"]
        assert type(service.registry.get(sid)) is QuerySession
        assert client.wait(sid)["state"] == "finished"
        rows = [tuple(row) for row in client.fetch(sid)["rows"]]
    finally:
        service.shutdown()
    assert rows == expected
