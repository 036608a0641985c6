"""Deterministic fault-schedule builders + failure replay dumps.

Schedules are derived from a seed via the repo's :func:`make_rng` ladder,
so a CI seed reproduces the exact same fault plan locally. The seed list
comes from ``REPRO_CHAOS_SEEDS`` (comma-separated), letting the CI matrix
shard one seed per job; the default trio keeps a local run fast.

On an invariant violation, :func:`dump_failure` writes the complete fault
plan (specs + firing log) and the observed event stream as JSON under
``chaos-failures/`` — CI uploads that directory as an artifact, and
feeding the recorded seed back through the same builder replays the run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.common.rng import make_rng
from repro.faults import (
    ERROR,
    SHORT_READ,
    SITE_CURSOR_FETCH,
    SITE_ESTIMATOR_HOOK,
    SITE_OPERATOR_PULL,
    SITE_SCAN_READ,
    SITE_SERVER_READ,
    SITE_SERVER_WRITE,
    STALL,
    FaultPlan,
    FaultSpec,
)

DEFAULT_SEEDS = "101,202,303"
FAILURE_DIR = Path(__file__).resolve().parents[2] / "chaos-failures"


def chaos_seeds() -> list[int]:
    raw = os.environ.get("REPRO_CHAOS_SEEDS", DEFAULT_SEEDS)
    return [int(part) for part in raw.split(",") if part.strip()]


def engine_schedule(seed: int, trial: int) -> FaultPlan:
    """A randomized (but seed-deterministic) schedule for in-process runs.

    Mixes the three engine-side sites. Counts are bounded so most runs can
    actually finish — the invariants must hold either way, but a schedule
    that always kills the query never exercises the FINISHED⇒exact-rows
    check. Transient cursor faults stay within the default retry budget
    roughly half the time.
    """
    rng = make_rng(seed, "chaos", "engine", trial)
    specs: list[FaultSpec] = []
    # Retryable cursor faults: sometimes inside the budget of 3, sometimes
    # past it (exercising the budget-exhausted FAILED path).
    if rng.random() < 0.7:
        specs.append(
            FaultSpec(
                SITE_CURSOR_FETCH,
                kind=ERROR,
                every=int(rng.integers(2, 6)),
                count=int(rng.integers(1, 6)),
            )
        )
    if rng.random() < 0.4:
        specs.append(
            FaultSpec(
                SITE_OPERATOR_PULL,
                kind=ERROR,
                rate=0.0005 * rng.random(),
                count=1,
            )
        )
    if rng.random() < 0.4:
        specs.append(
            FaultSpec(SITE_SCAN_READ, kind=ERROR, rate=0.001 * rng.random(), count=1)
        )
    # Non-fatal noise: stalls and short reads perturb timing and batch
    # shapes without ever being allowed to change results.
    specs.append(
        FaultSpec(
            SITE_OPERATOR_PULL,
            kind=STALL,
            every=int(rng.integers(50, 201)),
            count=int(rng.integers(1, 4)),
            delay_s=0.001,
        )
    )
    specs.append(
        FaultSpec(
            SITE_SCAN_READ,
            kind=SHORT_READ,
            every=int(rng.integers(3, 10)),
            count=int(rng.integers(2, 9)),
        )
    )
    if rng.random() < 0.5:
        specs.append(
            FaultSpec(
                SITE_ESTIMATOR_HOOK,
                kind=ERROR,
                every=int(rng.integers(10, 61)),
                count=int(rng.integers(1, 3)),
            )
        )
    return FaultPlan(seed=seed * 1_000 + trial, specs=specs)


def estimator_only_schedule(seed: int) -> FaultPlan:
    """Faults exclusively at ``estimator.hook`` — the degradation oracle."""
    rng = make_rng(seed, "chaos", "estimator")
    specs = [
        FaultSpec(
            SITE_ESTIMATOR_HOOK,
            kind=ERROR,
            every=int(rng.integers(2, 11)),
            count=int(rng.integers(2, 5)),
        )
    ]
    return FaultPlan(seed=seed, specs=specs)


def service_schedule(seed: int) -> FaultPlan:
    """A schedule for the TCP service: connection-level faults plus mild
    engine-side noise. All counts are finite and small, so the service is
    guaranteed to become healthy again — the client retry/resume paths are
    what is under test, not permanent outage behaviour.
    """
    rng = make_rng(seed, "chaos", "service")
    specs = [
        FaultSpec(
            SITE_SERVER_READ,
            kind=ERROR,
            every=int(rng.integers(3, 7)),
            count=int(rng.integers(2, 5)),
        ),
        FaultSpec(
            SITE_SERVER_WRITE,
            kind=ERROR,
            every=int(rng.integers(4, 9)),
            count=int(rng.integers(2, 5)),
        ),
        FaultSpec(
            SITE_SERVER_READ,
            kind=SHORT_READ,
            every=int(rng.integers(5, 10)),
            count=int(rng.integers(1, 4)),
        ),
        FaultSpec(
            SITE_CURSOR_FETCH,
            kind=ERROR,
            every=int(rng.integers(7, 16)),
            count=int(rng.integers(1, 4)),
        ),
        FaultSpec(
            SITE_SCAN_READ,
            kind=SHORT_READ,
            every=int(rng.integers(4, 11)),
            count=int(rng.integers(2, 7)),
        ),
    ]
    return FaultPlan(seed=seed, specs=specs)


def pooled_schedule(seed: int) -> FaultPlan:
    """Socket faults only, at cadences co-prime with the three lines a
    submit/watch/fetch loop reads and writes, so over 40 loops they land
    on every op in turn — and, since ``server.read`` fires as the handler
    *starts waiting* for a request, between ops on a connection the client
    has pooled. Finite counts: the tail of the run is fault-free.
    """
    rng = make_rng(seed, "chaos", "pooled")
    specs = [
        FaultSpec(SITE_SERVER_READ, kind=ERROR, every=7, count=int(rng.integers(6, 10))),
        FaultSpec(
            SITE_SERVER_WRITE,
            kind=ERROR,
            every=int(rng.choice([5, 7, 11])),
            count=int(rng.integers(4, 8)),
        ),
        FaultSpec(
            SITE_SERVER_WRITE,
            kind=SHORT_READ,
            every=int(rng.choice([8, 13])),
            count=int(rng.integers(3, 7)),
        ),
    ]
    return FaultPlan(seed=seed, specs=specs)


def soak_schedule(seed: int, sessions: int) -> FaultPlan:
    """Engine faults spread over a soak of ``sessions`` short-mix sessions.

    Each spec's cadence is scaled to the run's length, so faults keep
    firing to its end, and its budget is fixed, so the firing log stays
    small however long the soak is. The per-session opportunity counts
    (about 2 cursor fetches, 7 operator pulls, 3 scan reads and 2
    estimator hooks on the short mix) set the cadences.
    """
    rng = make_rng(seed, "chaos", "soak")

    def spread(site: str, per_session: int, count: int, **kwargs) -> FaultSpec:
        every = max(per_session * sessions // count, 2)
        after = int(rng.integers(0, every))
        return FaultSpec(site, every=every, count=count, after=after, **kwargs)

    specs = [
        # Retryable: absorbed by the session's retry budget.
        spread(SITE_CURSOR_FETCH, 2, 60, kind=ERROR),
        # Not retryable: the session FAILS.
        spread(SITE_OPERATOR_PULL, 7, 20, kind=ERROR),
        spread(SITE_SCAN_READ, 3, 100, kind=SHORT_READ),
        # The estimator demotes to dne; the query FINISHES degraded.
        spread(SITE_ESTIMATOR_HOOK, 2, 30, kind=ERROR),
    ]
    return FaultPlan(seed=seed, specs=specs)


def dump_failure(tag: str, plan: FaultPlan, events: list, extra: dict | None = None) -> Path:
    """Write a replayable failure record; returns the path written."""
    FAILURE_DIR.mkdir(parents=True, exist_ok=True)
    path = FAILURE_DIR / f"{tag}.json"
    record = {
        "tag": tag,
        "fault_plan": plan.to_wire(),
        "events": [
            event.to_wire() if hasattr(event, "to_wire") else event
            for event in events
        ],
    }
    if extra:
        record.update(extra)
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    return path
