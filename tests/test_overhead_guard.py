"""Guard: progress monitoring stays lightweight (the paper's core pitch).

The framework's selling point is being *online and lightweight* — estimator
hooks on the build/probe streams plus a bounded-frequency tick bus. This
suite runs the same plan bare and monitored (TickBus + ProgressMonitor in
``once`` mode) and asserts the monitored run stays under a generous
wall-clock ratio, at the derived default batch size (``batch_size=None``:
1024 capped at the bus interval) and at an explicit 1024.

Timing tests are inherently jittery on shared CI runners, so each
configuration takes the best of three runs and the ratio bound is loose —
this catches accidental per-row blowups (an O(n) snapshot per tick, a hook
on the wrong loop), not single-digit-percent regressions; those belong to
``benchmarks/e2e`` (``overhead_ratio``).
"""

from __future__ import annotations

import time

import pytest

from repro.core.progress import ProgressMonitor
from repro.datagen.skew import customer_variant
from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.expressions import col, lit
from repro.executor.operators import Filter, HashJoin, SeqScan

#: Monitored wall-clock may be at most this multiple of bare wall-clock.
MAX_OVERHEAD_RATIO = 2.5
BEST_OF = 3
TICK_INTERVAL = 256

_BUILD = customer_variant(z=0.5, domain_size=200, variant=0, num_rows=2_000, name="ovb")
_PROBE = customer_variant(z=0.5, domain_size=200, variant=1, num_rows=16_000, name="ovp")


def _make_plan() -> HashJoin:
    probe = Filter(SeqScan(_PROBE), col("ovp.nationkey") < lit(120))
    return HashJoin(
        SeqScan(_BUILD),
        probe,
        "ovb.nationkey",
        "ovp.nationkey",
        num_partitions=2,
    )


def _bare_seconds(batch_size: int | None) -> float:
    best = float("inf")
    for _ in range(BEST_OF):
        plan = _make_plan()
        started = time.perf_counter()
        ExecutionEngine(plan, collect_rows=False).run(batch_size=batch_size)
        best = min(best, time.perf_counter() - started)
    return best


def _monitored_seconds(batch_size: int | None) -> tuple[float, int]:
    best = float("inf")
    snapshots = 0
    for _ in range(BEST_OF):
        plan = _make_plan()
        bus = TickBus(interval=TICK_INTERVAL)
        monitor = ProgressMonitor(plan, mode="once", bus=bus)
        started = time.perf_counter()
        ExecutionEngine(plan, bus=bus, collect_rows=False).run(batch_size=batch_size)
        best = min(best, time.perf_counter() - started)
        snapshots = len(monitor.snapshots)
    return best, snapshots


@pytest.mark.parametrize(
    "mode,batch_size",
    [("default", None), ("batch", 1024)],
    ids=["default", "batch-1024"],
)
def test_monitoring_overhead_is_bounded(mode, batch_size):
    bare = _bare_seconds(batch_size)
    monitored, snapshots = _monitored_seconds(batch_size)
    assert snapshots > 0, "monitor recorded no snapshots; the guard measured nothing"
    ratio = monitored / bare
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"{mode}: monitored run took {ratio:.2f}x the bare run "
        f"(bare {bare * 1e3:.1f} ms, monitored {monitored * 1e3:.1f} ms, "
        f"limit {MAX_OVERHEAD_RATIO}x)"
    )


def test_batch_monitoring_amortizes_ticks():
    """A batch larger than the bus interval must not snapshot more often
    than the derived default, which pulls at the interval — tick_n fires at
    most once per batch."""
    _, default_snapshots = _monitored_seconds(None)
    _, batch_snapshots = _monitored_seconds(1024)
    assert 0 < batch_snapshots <= default_snapshots
