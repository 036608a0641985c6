"""Host-speed probe: how fast is this machine *right now*?

The benchmark runs on a few cores of a shared host whose speed moves with
its neighbours: for minutes at a time every instruction takes up to twice
as long, in wall *and* CPU time, with no steal reported. Within-run medians
cannot see that; a ratio to something measured at the same moment can.

The probe is a fixed pure-Python kernel — a hash join of 30 000 fact tuples
against 7 500 dimension tuples feeding a dict group-by, the executor's own
kind of work over a working set of its size, but none of its code — timed
every ``PERIOD_S`` of measured work. An operation's latency is divided by
the newest sample's ratio to ``NOMINAL_S``, so every timing is reported *as
on a host where the kernel takes ``NOMINAL_S``*. On the reference host the
raw 20 s medians of ``serve_watch`` spread 47 % over ten noisy minutes; the
normalised ones 3 %. (A register-only spin loop does not work: contention
here is for memory, and slowed it by half of what it slowed the queries.)
"""

from __future__ import annotations

import random
import statistics
import time

__all__ = ["NOMINAL_S", "PERIOD_S", "HostSpeed", "kernel"]

#: The kernel's median time on the quiet 2-core reference host.
NOMINAL_S = 0.0072
#: Measured work between two samples: the probe costs about a tenth of a run.
PERIOD_S = 0.08

_FACT_ROWS = 30_000
_DIM_ROWS = 7_500


def _tables() -> tuple[list[tuple], list[tuple]]:
    rng = random.Random(0)
    fact = [
        (i, rng.randrange(_DIM_ROWS), rng.random() * 100.0, rng.randrange(50))
        for i in range(_FACT_ROWS)
    ]
    dim = [(k, rng.randrange(25), f"name{k}") for k in range(_DIM_ROWS)]
    return fact, dim


def kernel(fact: list[tuple], dim: list[tuple]) -> list[tuple]:
    """Build, probe, filter, group, sort: a query's shape in plain Python."""
    build = {}
    for row in dim:
        build[row[0]] = row

    def joined():
        get = build.get
        for row in fact:
            match = get(row[1])
            if match is not None and row[3] > 5:
                yield row + match

    groups: dict[int, list] = {}
    for row in joined():
        state = groups.get(row[5])
        if state is None:
            groups[row[5]] = [1, row[2]]
        else:
            state[0] += 1
            state[1] += row[2]
    return sorted(groups.items())


class HostSpeed:
    """The newest sample's slowdown factors (1.0 = the reference host) and
    every factor sampled since the last ``mark()``."""

    def __init__(self):
        self._fact, self._dim = _tables()
        #: Divide a wall time by ``wall`` and a CPU time by ``cpu``. They
        #: differ when the process is descheduled: wall stretches, CPU not.
        self.wall = self.cpu = 1.0
        #: Seconds spent in the probe itself since ``mark()``.
        self.spent_s = 0.0
        self._walls: list[float] = []
        self._due = 0.0
        self.sample()

    def mark(self) -> None:
        """Start a new window with a fresh sample."""
        self._walls.clear()
        self.spent_s = 0.0
        self.sample()

    def sample(self) -> None:
        cpu0, t0 = time.process_time(), time.perf_counter()
        kernel(self._fact, self._dim)
        t1 = time.perf_counter()
        self.cpu = (time.process_time() - cpu0) / NOMINAL_S
        self.wall = (t1 - t0) / NOMINAL_S
        self._walls.append(self.wall)
        self.spent_s += t1 - t0
        self._due = t1 + PERIOD_S

    def refresh(self) -> None:
        """Sample again if the newest sample is older than ``PERIOD_S``."""
        if time.perf_counter() >= self._due:
            self.sample()

    def window_wall(self) -> float:
        """Median wall factor since ``mark()``."""
        return statistics.median(self._walls)
