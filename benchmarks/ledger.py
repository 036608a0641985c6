"""One seeded accuracy runner: a row and an estimator give a trajectory.

A :class:`Row` is something to run, a ``repro.workloads`` setup factory or
a Zipf value stream, plus its kind and its sampling cadence. :func:`run`
runs it under one estimator and returns a :class:`Trajectory` of
``(x, estimate)`` pairs. :func:`sample` is the one rule that reads a
trajectory at given x targets; :func:`settled_at` is the "work done before
the estimate stays within 10 %" column.

The row kinds, by what x and the estimate are:

* ``chain``: a plan's hash-join chain under its chain estimator (ONCE
  with push-down), abandoned once the lowest probe pass ends, or once
  the estimator freezes at the sample punctuation if the row sets
  ``stop_after_sample``. x is the lowest join's probe rows seen; the
  estimate is the size of join ``level`` (bottom-up), recorded every
  ``every`` probe rows and at the end.
* ``join``: a whole run under the progress monitor in mode ``once``,
  ``dne`` or ``byte``. x is the top join's probe rows consumed; the
  estimate is its output size, read every ``every`` units of work.
* ``query``: a whole run under a mode. x is the true progress and the
  estimate the reported one, one point per snapshot (every ``every``
  units of work).
* ``groups``: a value stream fed to ``gee``, ``mle`` or the ``hybrid``
  chooser. x is the values seen; the estimate is the group count, read
  every ``every`` values. The trajectory's ``setup`` is the estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from repro.core import DriverNodeEstimator, ProgressMonitor
from repro.core.distinct import DEFAULT_TAU, HybridGroupCountEstimator, RecomputeScheduler
from repro.core.pipeline_estimators import HashJoinChainEstimator, find_hash_join_chains
from repro.executor.engine import ExecutionEngine, TickBus

__all__ = ["Row", "Trajectory", "run", "sample", "settled_at"]


@dataclass(frozen=True)
class Row:
    kind: str  # "chain", "join", "query" or "groups"
    make: Callable[[], Any]  # a setup factory; for "groups", the value stream
    every: int  # the sampling cadence
    level: int = 0  # "chain": which join of the chain, bottom-up
    stop_after_sample: bool = False  # "chain": freeze at the sample punctuation
    tau: float = DEFAULT_TAU  # "groups": the hybrid's γ² threshold
    interval: int | None = None  # "groups": a fixed MLE recompute interval


@dataclass
class Trajectory:
    points: list[tuple[float, float]]  # (x, estimate), x ascending
    truth: float  # the exact value the estimates aim at
    total: float  # x at the end of the measured pass
    setup: Any  # what the row's factory built; for "groups", the estimator

    def at(self, fractions: list[float]) -> list[float]:
        """The estimates at fractions of ``total``."""
        return sample(self.points, [fraction * self.total for fraction in fractions])

    def ratios(self, fractions: list[float]) -> list[float]:
        """Ratio errors (estimate / truth) at fractions of the run."""
        return [e / self.truth if self.truth else float("nan") for e in self.at(fractions)]


def sample(points: list[tuple[float, float]], targets: list[float]) -> list[float]:
    """Per target, the first estimate whose x reaches it, else the last one."""
    return [next((y for x, y in points if x >= target), points[-1][1]) for target in targets]


def settled_at(trajectory: Trajectory) -> float | None:
    """The x from which every estimate stays within 10 % of the truth, or
    None if the last estimate is outside it."""
    points, truth = trajectory.points, trajectory.truth
    start = 0
    for i, (_, estimate) in enumerate(points):
        if abs(estimate - truth) > 0.1 * truth:
            start = i + 1
    return points[start][0] if start < len(points) else None


def run(row: Row, estimator: str = "once") -> Trajectory:
    """Run ``row`` under ``estimator`` and return its trajectory."""
    return _KINDS[row.kind](row, estimator)


class _Converged(Exception):
    """Control flow: the chain estimator is exact or frozen."""


@lru_cache(maxsize=1)  # Fig. 5 reads two levels of one drive
def _drive_chain(make: Callable[[], Any], every: int, stop_after_sample: bool):
    """Pull the plan until its chain estimator is exact (the end of the
    lowest probe pass) or frozen, then abandon it: the join output is not
    needed. This is checked from the tick bus, because one pull on the
    root can block for a whole partition-wise join pass.

    The chain's probe hook is wrapped in place: each batch is cut at every
    multiple of ``every`` it jumps over, and after a piece that lands ``t``
    on one, every level's ``(t, estimate)`` is read from that prefix state.
    """
    setup = make()
    chains = find_hash_join_chains(setup.plan)
    assert len(chains) == 1, f"expected one chain, found {len(chains)}"
    chain = HashJoinChainEstimator(chains[0], stop_after_sample=stop_after_sample)
    trajectories: list[list[tuple[int, float]]] = [[] for _ in chain.levels]

    def probe(keys: list, rows: list) -> None:
        start = 0
        while start < len(rows):
            t, end = chain.t, min(len(rows), start + every - chain.t % every)
            chain._on_probe(keys[start:end], rows[start:end])
            if chain.t != t and chain.t % every == 0:
                for points, level in zip(trajectories, chain.levels):
                    points.append((level.t, level.estimate()))
            start = end

    hooks = chains[0][0].input_hooks[1]
    hooks[hooks.index(chain._on_probe)] = probe
    bus = TickBus(256)

    def check(_count: int) -> None:
        if chain.exact or chain.frozen:
            raise _Converged

    bus.subscribe(check)
    setup.plan.attach_bus(bus)
    setup.plan.open()
    try:
        while not (chain.exact or chain.frozen) and setup.plan.next_batch(256):
            pass
    except _Converged:
        pass
    finally:
        setup.plan.close()
    return setup, chain, trajectories


def _chain(row: Row, estimator: str) -> Trajectory:
    assert estimator == "once", "a chain row runs under its chain estimator"
    setup, chain, trajectories = _drive_chain(row.make, row.every, row.stop_after_sample)
    level = chain.levels[row.level]
    # A frozen level's last read comes before the freeze; its sum_c is
    # then partial, not the truth.
    points = [*trajectories[row.level], (level.t, level.estimate())]
    return Trajectory(points, float(level.sum_c), level.t, setup)


def _join(row: Row, estimator: str) -> Trajectory:
    setup = row.make()
    join = setup.join
    bus = TickBus(interval=row.every)
    monitor = ProgressMonitor(setup.plan, mode=estimator, bus=bus)
    dne = DriverNodeEstimator(next(p for p in monitor.pipelines if join in p))
    points: list[tuple[float, float]] = []

    def read(_count: int) -> None:
        if estimator == "once":
            entry = monitor.manager.registry.get(id(join))
            if entry is not None and entry.source.started:
                est = entry.source.estimate()
            else:
                est = join.estimated_cardinality or 0.0
        elif estimator == "byte":
            est = dne.byte_estimate_for(join)
        else:
            est = dne.estimate_for(join)
        points.append((join.rows_consumed[1], est))

    bus.subscribe(read)
    ExecutionEngine(setup.plan, bus=bus, collect_rows=False).run()
    total = max(x for x, _ in points)
    return Trajectory(points, float(join.tuples_emitted), total, setup)


def _query(row: Row, estimator: str) -> Trajectory:
    setup = row.make()
    bus = TickBus(interval=row.every)
    monitor = ProgressMonitor(setup.plan, mode=estimator, bus=bus)
    ExecutionEngine(setup.plan, bus=bus, collect_rows=False).run()
    return Trajectory(monitor.progress_curve(), 1.0, 1.0, setup)


def _groups(row: Row, estimator: str) -> Trajectory:
    values = row.make()
    total = len(values)
    hybrid = HybridGroupCountEstimator(total=total, tau=row.tau)
    if row.interval:
        hybrid.scheduler = RecomputeScheduler(row.interval, row.interval)
    # gee and mle read the hybrid's two estimators raw: no chooser, no
    # recompute schedule, no floor at the groups seen.
    read = {
        "gee": lambda: hybrid.gee.estimate(total),
        "mle": lambda: hybrid.mle.estimate(total),
        "hybrid": hybrid.estimate,
    }[estimator]
    points = []
    for start in range(0, total, row.every):
        hybrid.observe_batch(values[start : start + row.every])
        points.append((hybrid.state.t, read()))
    return Trajectory(points, float(len(set(values))), total, hybrid)


_KINDS = {"chain": _chain, "join": _join, "query": _query, "groups": _groups}
