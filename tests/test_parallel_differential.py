"""Parallel-vs-serial differential oracle.

Reuses the PR-2 random plan generator (``tests.test_differential_batch``)
and checks, for every fragmentable plan:

1. **Row multisets identical** (P ∈ {1, 2, 4}) — merged parallel output
   equals the serial run's output as a multiset (ordering differs only
   where the serial plan itself had no order guarantee; peeled SortSteps
   restore exact order and are compared exactly in the fragments tests).
2. **Per-node counts** (P ∈ {2, 4}) — ``operator_counts`` re-keyed onto
   serial node ids equal the serial counts, or P times them for nodes
   every fragment runs in full.

Fragments run in-process, one after another and unmonitored
(docs/PARALLEL.md), so the sweep is deterministic. The tail of the file
pins what is left of the failure behaviour: a fault inside a fragment
fails the whole run, a monitored engine refuses a partitioned run, the
retired ``worker.*`` fault sites are unknown to the spec parser, and a
``submit`` request still carrying ``"parallel"`` is served serially.
"""

from __future__ import annotations

import collections

import pytest

from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.operators.aggregate import _AggregateBase
from repro.executor.operators.distinct import Distinct
from repro.executor.plan import walk
from repro.faults import (
    ERROR,
    SITE_CURSOR_FETCH,
    SITE_OPERATOR_PULL,
    SITE_SCAN_READ,
    FaultPlan,
    FaultSpec,
    parse_fault_spec,
)
from repro.parallel import Coordinator, ParallelExecutionError, try_compile
from repro.robust.store import HistoryStore
from repro.server import ProgressClient, ProgressService
from repro.server.session import QuerySession
from repro.sql import compile_select

from tests.test_differential_batch import build_plan

NUM_TRIALS = 48
PARALLELISMS = (1, 2, 4)


@pytest.mark.parametrize("trial", range(NUM_TRIALS))
def test_inline_parallel_matches_serial(trial):
    serial_rows = collections.Counter(ExecutionEngine(build_plan(trial)).run().rows)
    fragmented_any = False
    for p in PARALLELISMS:
        fragments = try_compile(build_plan(trial), p)
        if fragments is None:
            continue
        fragmented_any = True
        result = Coordinator(fragments).run()
        assert collections.Counter(result.rows) == serial_rows, (
            f"trial={trial} P={p}: rows diverged "
            f"({len(result.rows)} vs {sum(serial_rows.values())})"
        )
    if not fragmented_any:
        pytest.skip(f"trial {trial} not fragmentable at any P (serial fallback)")


def _serial_node(root, node_id):
    return next(op for op in walk(root) if op.node_id == node_id)


@pytest.mark.parametrize("trial", range(NUM_TRIALS))
def test_partitioned_counts_match_serial(trial):
    """Per-node counts of a partitioned run, re-keyed onto serial node ids:
    every partitioned node emits the serial count summed over fragments,
    and a node every fragment runs in full (a broadcast build) emits P
    times it. A fragment's partial aggregate or local ``Distinct`` emits a
    partition-dependent count, so it is not compared."""
    serial = ExecutionEngine(build_plan(trial)).run().operator_counts
    fragmented_any = False
    for p in (2, 4):
        plan = build_plan(trial)
        fragments = try_compile(plan, p)
        if fragments is None:
            continue
        fragmented_any = True
        counts = ExecutionEngine(plan).run(parallel=p).operator_counts
        assert set(counts) == set(fragments.node_map.values())
        for nid, count in counts.items():
            if isinstance(_serial_node(plan, nid), (Distinct, _AggregateBase)):
                continue
            expected = serial[nid] * (p if nid in fragments.replicated_nodes else 1)
            assert count == expected, f"trial={trial} P={p} node={nid}"
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
    result = None
    with pytest.raises(ParallelExecutionError, match="worker 0: InjectedFault"):
        result = Coordinator(fragments, faults=faults).run()
    assert result is None


@pytest.mark.parametrize("fires, fails", [(5, False), (6, True)])
def test_transient_fetch_faults_retry_within_the_budget(db, fires, fails):
    """A transient ``cursor.fetch`` fault is reissued inside its fragment,
    up to the serial session's budget of five per fragment."""
    fragments = try_compile(compile_select(db, JOIN_SQL).plan, 2)
    spec = FaultSpec(SITE_CURSOR_FETCH, kind=ERROR, every=1, count=fires)
    coordinator = Coordinator(fragments, faults=FaultPlan(seed=7, specs=[spec]))
    if fails:
        with pytest.raises(ParallelExecutionError, match="worker 0: TransientFault"):
            coordinator.run()
    else:
        assert coordinator.run().row_count == len(db.table("orders"))


@pytest.mark.parametrize("observed", ["bus", "history"])
def test_monitored_engine_refuses_a_partitioned_run(db, observed, tmp_path, monkeypatch):
    """Fragments run unmonitored, so an engine with a bus or a history
    store would report no progress and record no run: ``parallel=P``
    refuses it before any fragment runs, and serial runs are unaffected."""
    plan = compile_select(db, JOIN_SQL).plan
    kwargs = (
        {"bus": TickBus(100)}
        if observed == "bus"
        else {"history": HistoryStore(tmp_path / "history.jsonl")}
    )
    engine = ExecutionEngine(plan, **kwargs)

    def no_fragment_may_run(self):
        raise AssertionError("a fragment ran")

    monkeypatch.setattr(Coordinator, "run", no_fragment_may_run)
    with pytest.raises(ValueError, match="parallel"):
        engine.run(parallel=2)
    assert engine.run(parallel=1).row_count == len(db.table("orders"))


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
