"""Soak: thousands of short sessions through one service under faults.

The registry keeps only the newest ``RETAINED_SESSIONS`` terminal sessions,
so a long-lived service's memory must stop growing once that many have
finished. Short-mix sessions (the ``serve_short`` benchmark's statements)
run through an in-process :class:`ProgressService` under a seeded engine
fault schedule, some cancelled before they start. Checked after every
batch: aggregate ``work_done`` never falls, the workload counts every
session submitted, and the registry holds at most the cap plus the live
sessions. After ``gc.collect()``, the traced heap at session
``2 × RETAINED_SESSIONS`` and at the end differ by less than 1 MB.

2 000 sessions by default; set ``REPRO_SOAK_SESSIONS`` for a longer soak
(CI's chaos job runs 20 000).
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

from benchmarks.e2e.queries import short_mix
from repro.server import ProgressService
from repro.server.registry import RETAINED_SESSIONS, SessionRegistry

from tests.chaos.schedules import chaos_seeds, dump_failure, soak_schedule

SESSIONS = int(os.environ.get("REPRO_SOAK_SESSIONS", "2000"))
BATCH = 8
#: Every this-many-th session is cancelled before its first step.
CANCEL_EVERY = 97
MAX_GROWTH_BYTES = 1 << 20


@pytest.fixture(autouse=True)
def _lock_asserts(monkeypatch):
    monkeypatch.setenv("REPRO_LOCK_ASSERTS", "1")


@pytest.fixture(scope="module")
def db():
    from repro.datagen import generate_tpch

    return generate_tpch(sf=0.001, seed=5)


@pytest.mark.parametrize("seed", chaos_seeds())
def test_soak_memory_flat_and_work_never_falls(db, seed):
    assert SESSIONS > 2 * RETAINED_SESSIONS, "too short a soak to measure"
    plan = soak_schedule(seed, SESSIONS)
    mix = short_mix(seed)
    previous = None  # the workload after the last batch
    gc.collect()
    tracemalloc.start()
    try:
        with ProgressService(db, workers=2, quantum_rows=512, faults=plan) as svc:
            submitted = 0
            mid = None
            while submitted < SESSIONS:
                for _ in range(BATCH):
                    session = svc.submit_sql(mix[submitted % len(mix)].sql)
                    submitted += 1
                    if submitted % CANCEL_EVERY == 0:
                        session.cancel("soak")
                assert svc.scheduler.join(timeout=60.0), "scheduler wedged"
                view = SessionRegistry.workload_from(*svc.registry.published())
                try:
                    assert previous is None or view.work_done >= previous.work_done, (
                        "aggregate work_done fell"
                    )
                    assert view.sessions == submitted
                    assert sum(view.states.values()) == submitted
                    assert view.idle
                    assert len(svc.registry) <= RETAINED_SESSIONS
                except AssertionError:
                    dump_failure(
                        f"soak-seed{seed}",
                        plan,
                        [v for v in (previous, view) if v is not None],
                        extra={"submitted": submitted},
                    )
                    raise
                previous = view
                if mid is None and submitted >= 2 * RETAINED_SESSIONS:
                    gc.collect()
                    mid = tracemalloc.get_traced_memory()[0]
            gc.collect()
            end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert abs(end - mid) < MAX_GROWTH_BYTES, (
        f"traced heap moved {(end - mid) / 1024:.0f} KiB between session "
        f"{2 * RETAINED_SESSIONS} and {SESSIONS}"
    )
    states = previous.states
    assert {"finished", "cancelled", "failed"} <= set(states), states
    fired = {record["site"] for record in plan.records()}
    assert len(fired) == 4, f"the schedule did not fire at every site: {fired}"
