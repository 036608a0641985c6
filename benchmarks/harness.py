"""Shared measurement helpers for the benchmark suite."""

from __future__ import annotations

from repro.core import DriverNodeEstimator, EstimationManager, ProgressMonitor
from repro.core.pipeline_estimators import HashJoinChainEstimator, find_hash_join_chains
from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.operators.base import Operator
from repro.executor.operators.hash_join import HashJoin

__all__ = [
    "attach_chain",
    "drive_until_exact",
    "estimate_trajectory",
    "progress_trajectory",
    "ratio_at_fractions",
]


def attach_chain(plan: Operator, record_every: int) -> HashJoinChainEstimator:
    """Attach a chain estimator to the plan's (single) hash-join chain."""
    chains = find_hash_join_chains(plan)
    assert len(chains) == 1, f"expected one chain, found {len(chains)}"
    return HashJoinChainEstimator(chains[0], record_every=record_every)


class _Converged(Exception):
    """Internal control-flow signal: the estimator has its exact answer."""


def drive_until_exact(plan: Operator, estimator, tick_interval: int = 256) -> None:
    """Pull the plan until the estimator has converged (end of the lowest
    probe pass), then abandon execution — the accuracy experiments don't
    need the (potentially enormous) join output itself.

    Convergence is detected from inside blocking phases via the tick bus,
    because a single pull on the root can otherwise block for the whole
    partition-wise join pass.
    """
    bus = TickBus(tick_interval)

    def check(_count: int) -> None:
        if estimator.exact:
            raise _Converged

    bus.subscribe(check)
    plan.attach_bus(bus)
    plan.open()
    try:
        while not estimator.exact:
            if not plan.next_batch(tick_interval):
                break
    except _Converged:
        pass
    finally:
        plan.close()


def ratio_at_fractions(
    history: list[tuple[int, float]],
    total: int,
    truth: float,
    fractions: list[float],
) -> list[float]:
    """Ratio error (estimate / truth) at given fractions of the stream."""
    out = []
    for fraction in fractions:
        target = fraction * total
        estimate = next((e for t, e in history if t >= target), history[-1][1])
        out.append(estimate / truth if truth else float("nan"))
    return out


def estimate_trajectory(
    plan: Operator,
    join: HashJoin,
    mode: str,
    tick_interval: int = 500,
) -> tuple[list[tuple[int, float]], int]:
    """Run ``plan`` fully under one estimator mode, sampling the estimate of
    ``join``'s output cardinality against the join's probe-rows-consumed
    counter. Returns (trajectory, actual join output)."""
    bus = TickBus(interval=tick_interval)
    monitor = ProgressMonitor(plan, mode=mode, bus=bus)
    pipeline = next(p for p in monitor.pipelines if join in p)
    dne = DriverNodeEstimator(pipeline)
    trajectory: list[tuple[int, float]] = []

    def sample(_count: int) -> None:
        if mode == "once":
            assert monitor.manager is not None
            entry = monitor.manager.registry.get(id(join))
            if entry is not None and entry.source.started:
                est = entry.source.estimate()
            else:
                est = join.estimated_cardinality or 0.0
        elif mode == "byte":
            est = dne.byte_estimate_for(join)
        else:
            est = dne.estimate_for(join)
        trajectory.append((join.rows_consumed[1], est))

    bus.subscribe(sample)
    ExecutionEngine(plan, bus=bus, collect_rows=False).run()
    return trajectory, join.tuples_emitted


def progress_trajectory(plan: Operator, mode: str, tick_interval: int = 2000):
    """Run a whole query under one mode; return the (actual, estimated)
    progress curve and the monitor."""
    bus = TickBus(interval=tick_interval)
    monitor = ProgressMonitor(plan, mode=mode, bus=bus)
    ExecutionEngine(plan, bus=bus, collect_rows=False).run()
    return monitor.progress_curve(), monitor


def curve_at(points: list[tuple[float, float]], targets: list[float]) -> list[float]:
    """Sample a (x, y) curve at given x targets (first y with x >= target)."""
    out = []
    for target in targets:
        out.append(next((y for x, y in points if x >= target), points[-1][1]))
    return out


def attach_manager(plan: Operator) -> EstimationManager:
    return EstimationManager(plan)
