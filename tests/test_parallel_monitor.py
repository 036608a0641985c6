"""PartitionedProgressMonitor + merge algebra over synthetic deltas."""

from __future__ import annotations

import pytest

from repro.core.accumulator import EstimatorExport, OnceStats
from repro.parallel.delta import (
    EstimatorDelta,
    MergedEstimator,
    ProgressDelta,
    merge_estimator_deltas,
)
from repro.parallel.monitor import PartitionedProgressMonitor


def _delta(worker, seq, counters, totals=None, done=False, **kw):
    return ProgressDelta(
        worker_id=worker,
        seq=seq,
        counters=dict(counters),
        totals=dict(totals if totals is not None else counters),
        done=done,
        **kw,
    )


# -- ingestion ----------------------------------------------------------------


def test_counters_sum_across_workers():
    monitor = PartitionedProgressMonitor(2)
    monitor.observe(_delta(0, 1, {1: 10, 2: 5}))
    monitor.observe(_delta(1, 1, {1: 7, 2: 3}))
    assert monitor.merged_counters() == {1: 17, 2: 8}
    snap = monitor.snapshot()
    assert snap.work_done == 25
    assert snap.work_total_estimate == 25


def test_seq_guard_drops_stale_deltas():
    monitor = PartitionedProgressMonitor(1)
    monitor.observe(_delta(0, 2, {1: 20}))
    monitor.observe(_delta(0, 1, {1: 5}))  # late reordered message
    assert monitor.merged_counters() == {1: 20}
    monitor.observe(_delta(0, 3, {1: 30}))
    assert monitor.merged_counters() == {1: 30}


def test_deltas_are_cumulative_not_increments():
    monitor = PartitionedProgressMonitor(1)
    monitor.observe(_delta(0, 1, {1: 10}))
    monitor.observe(_delta(0, 2, {1: 15}))
    assert monitor.true_total() == 15  # replaced, not 25


def test_first_degradation_reason_wins():
    monitor = PartitionedProgressMonitor(2)
    monitor.observe(_delta(1, 1, {1: 1}, degraded=True, degraded_reason="once@3 demoted"))
    monitor.observe(_delta(0, 1, {1: 1}, degraded=True, degraded_reason="once@5 demoted"))
    # The flag sticks even when a later delta no longer carries it.
    monitor.observe(_delta(1, 2, {1: 2}))
    snap = monitor.snapshot()
    assert snap.degraded
    assert snap.degraded_reason == "once@3 demoted"


def test_observe_records_one_snapshot_per_accepted_delta():
    monitor = PartitionedProgressMonitor(2)
    monitor.observe(_delta(0, 1, {1: 10}, totals={1: 40}))
    monitor.observe(_delta(1, 1, {1: 5}, totals={1: 20}))
    monitor.observe(_delta(0, 1, {1: 99}))  # stale: dropped, not recorded
    assert [s.work_done for s in monitor.snapshots] == [10, 15]
    # snapshot() is a pure read: same view, no new history entry.
    assert monitor.snapshot().work_done == 15
    assert monitor.snapshot().progress == monitor.snapshots[-1].progress
    assert len(monitor.snapshots) == 2


# -- snapshot semantics -------------------------------------------------------


def test_all_done_pins_total_to_done():
    monitor = PartitionedProgressMonitor(2)
    monitor.observe(_delta(0, 1, {1: 10}, totals={1: 50}))
    first = monitor.snapshot()
    assert first.work_total_estimate == 50
    assert not monitor.all_done
    monitor.observe(_delta(0, 2, {1: 40}, totals={1: 40}, done=True))
    monitor.observe(_delta(1, 1, {1: 60}, totals={1: 60}, done=True))
    assert monitor.all_done
    final = monitor.snapshot()
    assert final.work_done == final.work_total_estimate == 100
    assert final.progress == 1.0


def test_progress_fraction_is_high_watered():
    monitor = PartitionedProgressMonitor(1)
    monitor.observe(_delta(0, 1, {1: 50}, totals={1: 100}))
    first = monitor.snapshot()
    assert first.progress == pytest.approx(0.5)
    # The total estimate refines upward: naive ratio would regress.
    monitor.observe(_delta(0, 2, {1: 51}, totals={1: 500}))
    second = monitor.snapshot()
    assert second.progress >= first.progress - 1e-12
    fractions = [s.progress for s in (first, second)]
    assert fractions == sorted(fractions)


def test_empty_monitor_snapshot_is_zero():
    monitor = PartitionedProgressMonitor(3)
    snap = monitor.snapshot()
    assert snap.work_done == 0
    assert snap.progress == 0.0


def test_invalid_worker_count_raises():
    with pytest.raises(ValueError):
        PartitionedProgressMonitor(0)


# -- estimator merge algebra --------------------------------------------------


def _once_delta(node, t, sum_c, hist, *, replicated=False, probe_total=0.0,
                exact=False, stats_replicated=False, sum_c_sq=0):
    """A binary ONCE join on the wire: a chain of one level."""
    stats = OnceStats(t, sum_c, sum_c_sq, probe_total, exact)
    return EstimatorDelta(
        (node,),
        EstimatorExport("chain", (stats,), (dict(hist),), probe_total, exact),
        replicated=(replicated,),
        stats_replicated=stats_replicated,
    )


def _group_delta(node, hist, total, exact):
    return EstimatorDelta(
        (node,), EstimatorExport("group", (), (dict(hist),), total, exact), (False,)
    )


def test_partitioned_hists_sum_and_replicated_take_first():
    partitioned = merge_estimator_deltas(
        {
            0: (_once_delta(7, 10, 30, {1: 3, 2: 1}),),
            1: (_once_delta(7, 5, 12, {3: 4}),),
        }
    )[("chain", (7,))]
    assert partitioned.levels[0].t == 15
    assert partitioned.levels[0].sum_c == 42
    assert partitioned.hists == [{1: 3, 2: 1, 3: 4}]

    replicated = merge_estimator_deltas(
        {
            0: (_once_delta(7, 10, 30, {1: 9, 2: 9}, replicated=True),),
            1: (_once_delta(7, 5, 12, {1: 9, 2: 9}, replicated=True),),
        }
    )[("chain", (7,))]
    # Probe stats still sum; the build histogram folds once.
    assert replicated.levels[0].t == 15
    assert replicated.hists == [{1: 9, 2: 9}]


def test_stats_replicated_folds_whole_delta_take_first():
    merged = merge_estimator_deltas(
        {
            0: (_once_delta(5, 10, 30, {1: 2}, stats_replicated=True),),
            1: (_once_delta(5, 10, 30, {1: 2}, stats_replicated=True),),
        }
    )[("chain", (5,))]
    assert merged.levels[0].t == 10
    assert merged.levels[0].sum_c == 30


def test_merged_ratio_estimate_and_exact_collapse():
    first = _once_delta(3, 10, 40, {}, probe_total=100.0)
    state = MergedEstimator(first)
    state.fold(first)
    state.fold(_once_delta(3, 10, 20, {}, probe_total=100.0))
    # Combined ratio: (40+20)/(10+10) × 200 — not the sum of per-worker
    # point estimates (400 + 200)/... which would weight workers unevenly.
    assert state.node_estimates() == [(3, pytest.approx(60 / 20 * 200))]
    assert not state.exact and not state.levels[0].exact
    first = _once_delta(3, 10, 40, {}, exact=True)
    exact = MergedEstimator(first)
    exact.fold(first)
    exact.fold(_once_delta(3, 10, 20, {}, exact=True))
    assert exact.exact and exact.levels[0].exact
    assert exact.node_estimates() == [(3, 60.0)]


def test_once_estimator_overrides_summed_total_in_snapshot():
    monitor = PartitionedProgressMonitor(2)
    est0 = _once_delta(1, 10, 40, {}, probe_total=100.0)
    est1 = _once_delta(1, 10, 20, {}, probe_total=100.0)
    monitor.observe(
        _delta(0, 1, {1: 40}, totals={1: 400}, estimators=(est0,))
    )
    monitor.observe(
        _delta(1, 1, {1: 20}, totals={1: 200}, estimators=(est1,))
    )
    snap = monitor.snapshot()
    # Node 1's total comes from the merged ratio (600), not Σ totals (600
    # here by construction) — and never below the observed K_i.
    assert snap.work_total_estimate >= snap.work_done


def test_group_histograms_always_sum():
    deltas = {
        0: (_group_delta(9, {"a": 2, "b": 1}, total=3.0, exact=True),),
        1: (_group_delta(9, {"a": 1, "c": 4}, total=5.0, exact=True),),
    }
    merged = merge_estimator_deltas(deltas)[("group", (9,))]
    assert merged.hists == [{"a": 3, "b": 1, "c": 4}]
    assert merged.total == 8.0
    assert merged.node_estimates() == []  # the aggregate's total stays summed
    assert merged.group_estimate() == 3.0  # exact: the merged distinct count
