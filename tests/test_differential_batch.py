"""Differential batch-size oracle harness.

Generates ~200 seeded random plans over skewed (Zipf) data and asserts that
execution at batch sizes 1, 7 and 1024 is observationally identical. Size 1
sits in the reference seat: ``max_rows=1`` *is* the paper's getnext model
(its read-ahead is 0). Compared: output rows in order, per-operator
``tuples_emitted`` (the K_i of the progress model), ``TickBus`` counts,
bit-identical final T(Q) / ONCE join estimates, and bit-identical
*estimator internals*: t, Σcounts, build histograms (base and derived),
sufficient statistics of every confidence interval and group-count
moments.

Plan shapes follow the pull contract documented in ``docs/BATCHING.md``: a
*truncating* LIMIT is only placed where equivalence is exact — directly
over a scan (the request is capped, not the result), or over a blocking
operator (``Distinct``, aggregates, ``Materialize``: full input drain
either way). Over a streaming ``Filter``/``HashJoin`` a larger batch's
bounded read-ahead makes upstream counts diverge by design; that bound is
covered by ``tests/test_batch_operators.py``.

Trials ``NUM_PLANS..`` are not random shapes but the benchmark's
``j3_agg_top``: ``Limit`` over ``Sort`` over ``HashAggregate`` over a
two-join chain, where the LIMIT caps the first request every blocking
operator beneath it sees (the drain-size rule of docs/BATCHING.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.common.rng import make_rng
from repro.core.distinct import HybridGroupCountEstimator
from repro.core.join_estimators import OnceJoinEstimator
from repro.core.pipeline_estimators import HashJoinChainEstimator
from repro.core.progress import ProgressMonitor
from repro.datagen.skew import customer_variant
from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.expressions import col, lit
from repro.executor.operators import (
    AggregateSpec,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    IndexScan,
    Limit,
    Materialize,
    Project,
    SampleScan,
    SeqScan,
    Sort,
    SortAggregate,
)
from repro.executor.plan import walk
from repro.storage.schema import ColumnType, Schema
from repro.storage.table import Table

HARNESS_SEED = 0xD1FF
NUM_PLANS = 200
TOP_N_PLANS = 6  # trials NUM_PLANS..: the j3_agg_top shape, see _top_n_plan
BATCH_SIZES = (1, 7, 1024)
TICK_INTERVAL = 64

# -- shared data ---------------------------------------------------------------
# Built once: the harness re-instantiates *operators* per run, never data.

_TABLES: list[Table] | None = None
_NULLABLE: Table | None = None


def _customer_tables() -> list[Table]:
    global _TABLES
    if _TABLES is None:
        _TABLES = [
            customer_variant(z=1.0, domain_size=20, variant=0, num_rows=220, name="c1"),
            customer_variant(z=1.5, domain_size=20, variant=1, num_rows=180, name="c2"),
            customer_variant(z=0.3, domain_size=30, variant=2, num_rows=150, name="c3"),
        ]
    return _TABLES


def _nullable_table() -> Table:
    """A pair table whose join key is NULL ~10% of the time."""
    global _NULLABLE
    if _NULLABLE is None:
        rng = make_rng(HARNESS_SEED, "nullable")
        rows = [
            (None if rng.random() < 0.1 else int(rng.integers(1, 21)), i)
            for i in range(160)
        ]
        _NULLABLE = Table("tn", Schema.of("k:int", "v:int"), rows, block_size=16)
    return _NULLABLE


# -- random plan generator -----------------------------------------------------


@dataclass
class _Shape:
    """A plan under construction plus the flags the generator tracks."""

    op: object
    schema: Schema
    nonnull: list[str]  # columns that can never hold None
    exact_under_limit: bool  # see the module docstring / docs/BATCHING.md


def _pick(rng, items):
    return items[int(rng.integers(0, len(items)))]


def _scan(rng, *, allow_nullable: bool, alias_suffix: str = "") -> _Shape:
    if allow_nullable and rng.random() < 0.18:
        table = _nullable_table()
        if alias_suffix:
            table = table.aliased(table.name + alias_suffix)
        return _Shape(SeqScan(table), table.schema, [f"{table.name}.v"], True)
    table = _pick(rng, _customer_tables())
    if alias_suffix:
        table = table.aliased(table.name + alias_suffix)
    names = table.schema.names()
    kind = rng.random()
    if kind < 0.25:
        low = int(rng.integers(1, 8))
        op = IndexScan(table, f"{table.name}.nationkey", low=low)
    elif kind < 0.45:
        fraction = float(rng.uniform(0.1, 0.4))
        op = SampleScan(table, fraction, seed=int(rng.integers(0, 2**31)))
    else:
        op = SeqScan(table)
    return _Shape(op, table.schema, list(names), True)


def _maybe_filter(rng, shape: _Shape) -> _Shape:
    if rng.random() >= 0.5:
        return shape
    candidates = [
        c.qualified_name
        for c in shape.schema
        if c.ctype is ColumnType.INT and c.qualified_name in shape.nonnull
    ]
    if not candidates:
        return shape
    column = _pick(rng, candidates)
    cutoff = int(rng.integers(2, 26))
    pred = col(column) < lit(cutoff) if rng.random() < 0.7 else col(column) >= lit(cutoff)
    return _Shape(Filter(shape.op, pred), shape.schema, shape.nonnull, False)


def _maybe_join(rng, probe: _Shape) -> _Shape:
    if rng.random() >= 0.75:
        return probe
    build = _scan(rng, allow_nullable=rng.random() < 0.25, alias_suffix="b")
    build = _maybe_filter(rng, build)

    def join_key(schema: Schema) -> str:
        # The nullable table joins on "k", the customer tables on "nationkey".
        for column in schema:
            if column.name in ("k", "nationkey"):
                return column.qualified_name
        raise AssertionError(f"no join key in {schema!r}")

    build_key = join_key(build.schema)
    probe_key = join_key(probe.schema)
    join_type = _pick(rng, ["inner", "inner", "semi", "anti", "outer"])
    num_partitions = _pick(rng, [1, 2, 4, 8])
    memory_partitions = _pick(rng, [1, num_partitions])
    join = HashJoin(
        build.op,
        probe.op,
        build_key,
        probe_key,
        num_partitions=num_partitions,
        memory_partitions=memory_partitions,
        join_type=join_type,
    )
    if join_type == "inner":
        nonnull = build.nonnull + probe.nonnull
    else:
        # semi/anti keep only probe columns; outer NULL-pads the build side.
        nonnull = list(probe.nonnull)
    return _Shape(join, join.output_schema, nonnull, False)


def _maybe_shaper(rng, shape: _Shape) -> _Shape:
    """Optionally cap the plan with a projection, aggregation, distinct or
    sort.  Sort-based operators only see columns proven non-NULL."""
    choice = rng.random()
    int_cols = [c.qualified_name for c in shape.schema if c.ctype is ColumnType.INT]
    sum_col = _pick(rng, int_cols) if int_cols and rng.random() < 0.7 else None
    aggregates = [AggregateSpec("count", alias="n")]
    if sum_col is not None:
        aggregates.append(AggregateSpec("sum", sum_col, alias="s"))
    if choice < 0.2:
        return shape
    if choice < 0.4:
        names = shape.schema.names()
        keep = max(1, int(rng.integers(1, len(names) + 1)))
        picked = [names[i] for i in sorted(rng.choice(len(names), size=keep, replace=False))]
        proj = Project(shape.op, picked)
        nonnull = [n for n in picked if n in shape.nonnull]
        return _Shape(proj, proj.output_schema, nonnull, shape.exact_under_limit)
    if choice < 0.6:
        group = _pick(rng, shape.schema.names())
        agg = HashAggregate(shape.op, [group], aggregates)
        return _Shape(agg, agg.output_schema, [], True)
    if choice < 0.72 and shape.nonnull:
        group = _pick(rng, shape.nonnull)
        agg = SortAggregate(shape.op, [group], aggregates)
        return _Shape(agg, agg.output_schema, [], True)
    if choice < 0.86:
        names = shape.schema.names()
        keep = min(len(names), 2)
        picked = [names[i] for i in sorted(rng.choice(len(names), size=keep, replace=False))]
        op = Distinct(Project(shape.op, picked))
        return _Shape(op, op.output_schema, [], True)
    if shape.nonnull:
        key = _pick(rng, shape.nonnull)
        op = Sort(shape.op, [key])
        return _Shape(op, op.output_schema, shape.nonnull, True)
    return shape


def _maybe_limit(rng, shape: _Shape) -> _Shape:
    if rng.random() >= 0.35:
        return shape
    if shape.exact_under_limit and rng.random() < 0.7:
        n = int(rng.integers(1, 80))
        return _Shape(Limit(shape.op, n), shape.schema, shape.nonnull, True)
    if rng.random() < 0.4:
        # Materialize is a blocking barrier: a truncating LIMIT above it is
        # exact even when the subtree below streams.
        n = int(rng.integers(1, 80))
        op = Limit(Materialize(shape.op), n)
        return _Shape(op, shape.schema, shape.nonnull, True)
    return _Shape(Limit(shape.op, 10**6), shape.schema, shape.nonnull, shape.exact_under_limit)


def _top_n_plan(rng):
    """``Limit`` over ``Sort`` over ``HashAggregate`` over a two-join chain —
    the benchmark's ``j3_agg_top``: every blocking pass of the plan sits
    under a truncating LIMIT, which caps the first request the tree sees."""

    def key(shape: _Shape) -> str:
        return next(c.qualified_name for c in shape.schema if c.name == "nationkey")

    probe = _scan(rng, allow_nullable=False)
    lower_build = _maybe_filter(rng, _scan(rng, allow_nullable=False, alias_suffix="b"))
    upper_build = _maybe_filter(rng, _scan(rng, allow_nullable=False, alias_suffix="c"))
    lower = HashJoin(lower_build.op, probe.op, key(lower_build), key(probe))
    # The upper key comes from the lower build (Case 2) or the base stream.
    upper_key = key(lower_build) if rng.random() < 0.5 else key(probe)
    upper = HashJoin(upper_build.op, lower, key(upper_build), upper_key)
    group = _pick(rng, upper.output_schema.names())
    agg = HashAggregate(upper, [group], [AggregateSpec("count", alias="n")])
    return Limit(Sort(agg, ["n"]), int(rng.integers(1, 80)))


def build_plan(trial: int):
    """Deterministically build trial ``i``'s plan; every call with the same
    ``trial`` yields a structurally identical plan with fresh operators."""
    rng = make_rng(HARNESS_SEED, "plan", trial)
    if trial >= NUM_PLANS:
        return _top_n_plan(rng)
    shape = _scan(rng, allow_nullable=True)
    shape = _maybe_filter(rng, shape)
    shape = _maybe_join(rng, shape)
    shape = _maybe_shaper(rng, shape)
    shape = _maybe_limit(rng, shape)
    return shape.op


# -- execution + comparison ----------------------------------------------------


def _provider_stable(op) -> bool:
    """Is ``resolve_stream_total(op)`` constant for the whole execution?

    Mirrors the provider's recursion: scan totals are catalog constants;
    ``Filter`` consults ``observed_selectivity`` and the generic fallback
    consults ``tuples_emitted``, both of which sit at different points
    between sizes *while the pass is in flight* (batch read-ahead). Only
    when every node on the path is constant is an estimate read before
    the pass ends bit-comparable between batch sizes.
    """
    if isinstance(op, (SeqScan, SampleScan, IndexScan)):
        return True
    if isinstance(op, (Project, Sort, Materialize, Limit)):
        return _provider_stable(op.children()[0])
    return False


def _sums(acc) -> tuple[int, int, int]:
    """An accumulator's sufficient statistics ``(t, Σc, Σc²)``."""
    return (acc.t, acc.sum_c, acc.sum_c_sq)


def _estimator_state(manager) -> list[tuple]:
    """Deep snapshot of every attached estimator's internal state."""
    return [
        _STATE_OF[type(estimator)](estimator, ops[0], manager)
        for estimator, ops in manager.attached()
    ]


def _chain_state(chain, _join, _manager) -> tuple:
    return (
        "chain",
        [_sums(level) for level in chain.levels],
        chain.exact,
        [dict(h.counts) for h in chain.base_hists],
        {key: dict(h.counts) for key, h in chain.derived.items()},
        [level.confidence_interval() for level in chain.levels],
    )


def _once_state(est, _join, _manager) -> tuple:
    return (
        "once",
        _sums(est.acc),
        est.acc.exact,
        dict(est.histogram.counts),
        est.acc.confidence_interval(),
    )


def _group_state(hybrid, aggregate, manager) -> tuple:
    # Pushed-down totals track the feeding chain's (provider-backed)
    # estimate, so their estimate-side state is size-dependent too.
    pushed_down = len(manager.registry[id(aggregate)].fed_by) > 1
    stable = not pushed_down and _provider_stable(aggregate.child)
    group_state = hybrid.state
    entry = (
        "group",
        group_state.t,
        dict(group_state.counts),
        list(group_state.fof),
        group_state.sum_sq,
        hybrid.exact,
    )
    # The cached MLE, the interval and the recompute count are left out:
    # the MLE is recomputed when a snapshot reads it, and where snapshots
    # land moves with the batch size (``TestHybridBatch`` holds them equal
    # for equal read points instead).
    if stable:
        entry += (hybrid.estimate(),)
    return entry


_STATE_OF = {
    HashJoinChainEstimator: _chain_state,
    OnceJoinEstimator: _once_state,
    HybridGroupCountEstimator: _group_state,
}


@dataclass
class _Observation:
    rows: list[tuple]
    counts: list[tuple[str, int]]
    bus_count: int
    true_total: float
    t_q: float
    join_estimates: list[float | None]
    estimator_state: list[tuple]


def _observe(trial: int, batch_size: int) -> _Observation:
    plan = build_plan(trial)
    bus = TickBus(interval=TICK_INTERVAL)
    monitor = ProgressMonitor(plan, mode="once", bus=bus)
    result = ExecutionEngine(plan, bus=bus, collect_rows=True).run(batch_size=batch_size)
    final = monitor.snapshot()
    assert monitor.manager is not None
    registry = monitor.manager.registry
    join_estimates = [
        registry[id(op)].source.estimate() if id(op) in registry else None
        for op in walk(plan)
        if isinstance(op, HashJoin)
    ]
    return _Observation(
        rows=result.rows or [],
        counts=[(op.op_name, op.tuples_emitted) for op in walk(plan)],
        bus_count=bus.count,
        true_total=monitor.true_total(),
        t_q=final.work_total_estimate,
        join_estimates=join_estimates,
        estimator_state=_estimator_state(monitor.manager),
    )


@pytest.mark.parametrize("trial", range(NUM_PLANS + TOP_N_PLANS))
def test_row_and_batch_modes_agree(trial):
    reference = _observe(trial, batch_size=BATCH_SIZES[0])
    assert reference.t_q == reference.true_total  # final estimate is exact
    for batch_size in BATCH_SIZES[1:]:
        got = _observe(trial, batch_size=batch_size)
        context = f"trial={trial} batch_size={batch_size}"
        assert got.rows == reference.rows, context
        assert got.counts == reference.counts, context
        assert got.bus_count == reference.bus_count, context
        assert got.true_total == reference.true_total, context
        assert got.t_q == reference.t_q, context
        assert got.join_estimates == reference.join_estimates, context
        assert got.estimator_state == reference.estimator_state, context


# -- history differential guarantee --------------------------------------------
# Enabling run history must be observationally invisible to execution: the
# engine only records the finished run. Rows, ticks, per-operator counts,
# every recorded snapshot's work_done / work_total_estimate and the full
# estimator internals must be bit-identical with history off, with an
# empty store, and with a store that already holds a run of the plan.

HISTORY_TRIALS = range(0, NUM_PLANS, 10)


@dataclass
class _HistoryObservation:
    rows: list[tuple]
    counts: list[tuple[str, int]]
    bus_count: int
    true_total: float
    t_q: float
    snapshots: list[tuple[float, float, float]]
    estimator_state: list[tuple]


def _observe_history(trial: int, store) -> _HistoryObservation:
    plan = build_plan(trial)
    bus = TickBus(interval=TICK_INTERVAL)
    engine = ExecutionEngine(plan, bus=bus, collect_rows=True, history=store)
    # With a store the engine attaches the monitor itself; without one the
    # reference attaches the same monitor by hand.
    monitor = engine.monitor or ProgressMonitor(plan, mode="once", bus=bus)
    runs_before = len(store) if store is not None else 0
    result = engine.run()
    if store is not None:
        assert len(store) == runs_before + 1  # the run was recorded
    final = monitor.snapshot()
    assert monitor.manager is not None
    with monitor._lock:
        snapshots = [
            (s.work_done, s.work_total_estimate, s.progress)
            for s in monitor.snapshots
        ]
    return _HistoryObservation(
        rows=result.rows or [],
        counts=[(op.op_name, op.tuples_emitted) for op in walk(plan)],
        bus_count=bus.count,
        true_total=monitor.true_total(),
        t_q=final.work_total_estimate,
        snapshots=snapshots,
        estimator_state=_estimator_state(monitor.manager),
    )


@pytest.mark.parametrize("trial", HISTORY_TRIALS)
def test_history_enabled_runs_are_bit_identical(trial, tmp_path):
    from repro.robust import HistoryStore

    reference = _observe_history(trial, store=None)

    path = tmp_path / "history.jsonl"
    empty = _observe_history(trial, HistoryStore(path))
    holding_one = _observe_history(trial, HistoryStore(path))

    for label, got in (("empty store", empty), ("store holding one run", holding_one)):
        context = f"trial={trial} {label}"
        assert got.rows == reference.rows, context
        assert got.counts == reference.counts, context
        assert got.bus_count == reference.bus_count, context
        assert got.true_total == reference.true_total, context
        assert got.t_q == reference.t_q, context
        assert got.snapshots == reference.snapshots, context
        assert got.estimator_state == reference.estimator_state, context


# -- snapshot digest -----------------------------------------------------------
# Every snapshot every mode records over the whole plan space, hashed with
# its floats exact: a change that moves any progress number, anywhere,
# changes the digest. A change meant to move them updates the constant and
# says so in CHANGES.md.

SNAPSHOT_DIGEST = "0461d94395b27d19d29df354587bcc03eb04b77921a185c98969595505ea1eaa"


def _snapshot_digest() -> tuple[str, int]:
    import hashlib

    digest = hashlib.sha256()
    count = 0
    for trial in range(NUM_PLANS + TOP_N_PLANS):
        for batch_size in BATCH_SIZES:
            for mode in ("once", "dne", "byte"):
                plan = build_plan(trial)
                bus = TickBus(interval=TICK_INTERVAL)
                monitor = ProgressMonitor(plan, mode=mode, bus=bus)
                ExecutionEngine(plan, bus=bus).run(batch_size=batch_size)
                for snap in [*monitor.snapshots, monitor.snapshot()]:
                    line = (
                        snap.tick,
                        snap.work_done.hex(),
                        snap.work_total_estimate.hex(),
                        sorted(snap.pipeline_states.items()),
                    )
                    digest.update(repr(line).encode())
                    count += 1
    return digest.hexdigest(), count


def test_snapshot_digest_is_pinned():
    got, count = _snapshot_digest()
    assert got == SNAPSHOT_DIGEST, f"{count} snapshots hash to {got}"


def test_harness_covers_the_plan_space():
    """Meta-check: the random generator actually exercises joins, shapers
    and truncating limits rather than collapsing to bare scans."""
    kinds = set()
    for trial in range(NUM_PLANS):
        for op in walk(build_plan(trial)):
            kinds.add(op.op_name)
    assert {
        "seq_scan",
        "index_scan",
        "sample_scan",
        "filter",
        "hash_join",
        "project",
        "hash_aggregate",
        "sort_aggregate",
        "distinct",
        "sort",
        "limit",
        "materialize",
    } <= kinds
