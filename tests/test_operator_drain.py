"""``Operator._drain``: the one instrumented input pass.

Three things are pinned here: the contract of the method itself (on a
two-input stub operator), that every draining operator counts its input
per batch *before* its hooks run, and that a snapshot taken at a probe-pass
tick sees the estimator and the counter agree (at the parent commit the hash
join ticked before its probe hooks, so the estimator read one batch behind).
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter

import pytest

from repro.core.manager import EstimationManager
from repro.executor.engine import ExecutionEngine, PlanCursor, TickBus
from repro.executor.expressions import col
from repro.executor.operators import (
    Distinct,
    HashAggregate,
    HashJoin,
    IndexNestedLoopsJoin,
    Limit,
    Materialize,
    NestedLoopsJoin,
    SeqScan,
    Sort,
    SortAggregate,
    SortMergeJoin,
)
from repro.executor.operators.base import Operator
from repro.executor.plan import walk
from repro.faults.plan import SHORT_READ, SITE_CURSOR_FETCH, FaultPlan, FaultSpec
from repro.storage.schema import Schema
from repro.storage.table import Table


def _table(name: str, n: int) -> Table:
    return Table(name, Schema.of("k:int", "v:int"), [(i % 5, i) for i in range(n)])


class TwoPass(Operator):
    """Reads child 0 to its end, then streams child 1 — the shape every
    estimator in the paper needs, with nothing else in the way."""

    op_name = "two_pass"
    blocking_child_indexes = (0,)
    driver_child_index = 1

    __slots__ = ("first", "second", "extract_calls", "lazy_keys", "_gen")

    def __init__(self, first: Operator, second: Operator):
        super().__init__(2)
        self.first = first
        self.second = second
        self.extract_calls = 0
        self.lazy_keys: list = []
        self._gen = None

    def children(self):
        return (self.first, self.second)

    @property
    def output_schema(self):
        return self.second.output_schema

    def _extract(self, row: tuple):
        self.extract_calls += 1
        return row[0]

    def _next_batch(self, max_rows: int) -> list[tuple]:
        if self._gen is None:
            self._gen = self._run(max_rows)
        return list(islice(self._gen, max_rows))

    def _close(self) -> None:
        self._gen = None

    def _run(self, consume: int):
        self._set_phase("first")
        for keys, _batch in self._drain(0, consume, self._extract, need_keys=False):
            self.lazy_keys.append(keys)
        self._set_phase("second")
        for _keys, batch in self._drain(1, consume, itemgetter(0)):
            yield from batch


def _two_pass(n_first: int = 10, n_second: int = 6) -> TwoPass:
    return TwoPass(SeqScan(_table("a", n_first)), SeqScan(_table("b", n_second)))


class TestDrainContract:
    @pytest.mark.parametrize("size", [1, 4, 1024])
    def test_hooks_see_every_batch_once_in_input_order(self, size):
        op = _two_pass()
        seen: list[list] = [[], []]
        for i in (0, 1):
            op.input_hooks[i].append(
                lambda keys, rows, i=i: seen[i].extend(zip(keys, rows, strict=True))
            )
        result = ExecutionEngine(op).run(batch_size=size)
        assert seen[0] == [(i % 5, (i % 5, i)) for i in range(10)]
        assert seen[1] == [(i % 5, (i % 5, i)) for i in range(6)]
        assert result.rows == [(i % 5, i) for i in range(6)]
        assert op.rows_consumed == [10, 6]

    def test_extract_runs_only_for_a_hook_or_a_caller_that_reads_keys(self):
        op = _two_pass()
        ExecutionEngine(op).run(batch_size=4)
        assert op.extract_calls == 0
        assert op.lazy_keys == [None, None, None]

        op = _two_pass()
        op.input_hooks[0].append(lambda keys, rows: None)
        ExecutionEngine(op).run(batch_size=4)
        assert op.extract_calls == 10
        assert [k for keys in op.lazy_keys for k in keys] == [i % 5 for i in range(10)]

    def test_end_of_input_fires_once_after_last_tick_before_next_phase(self):
        op = _two_pass()
        events: list[tuple] = []
        bus = TickBus(interval=1)
        bus.subscribe(lambda count: events.append(("tick", count)))
        op.phase_hooks.append(lambda _op, phase: events.append(("phase", phase)))
        for i in (0, 1):
            op.input_end_hooks[i].append(lambda i=i: events.append(("end", i)))
        ExecutionEngine(op, bus=bus).run(batch_size=4)
        assert [e for e in events if e[0] == "end"] == [("end", 0), ("end", 1)]
        # Child 0 is 10 rows: its last batch ticks the bus to 10, then the
        # callback fires, then the operator moves on.
        at = events.index(("end", 0))
        assert events[at - 1] == ("tick", 10)
        assert events[at + 1] == ("phase", "second")
        # (Between the second callback and "done" the cursor ticks for the
        # rows the stub emitted, so compare with the ticks left out.)
        untimed = [e for e in events if e[0] != "tick"]
        assert untimed[-2:] == [("end", 1), ("phase", "done")]

    def test_closing_mid_pass_fires_no_end_of_input_callback(self):
        op = _two_pass()
        ended: list[int] = []
        for i in (0, 1):
            op.input_end_hooks[i].append(lambda i=i: ended.append(i))
        op.open()
        assert op.next_batch(2) == [(0, 0), (1, 1)]
        assert ended == [0]  # the first pass completed, the second is mid-way
        op.close()
        assert ended == [0]
        assert op.rows_consumed == [10, 2]

    def test_hooks_hardened_mid_pass_are_honoured_by_the_pass_in_flight(self):
        """``harden`` rewrites each list in place (``hooks[:] = ...``); a
        drain already running holds that list, not a copy of it."""
        op = _two_pass()
        calls: list[int] = []

        def exploding(keys, rows):
            calls.append(len(rows))
            if len(calls) > 1:
                raise RuntimeError("boom")

        op.input_hooks[1].append(exploding)
        manager = EstimationManager(op)
        op.open()
        assert op.next_batch(2) == [(0, 0), (1, 1)]
        manager.harden()  # the second pass is in flight
        rest = []
        while batch := op.next_batch(2):
            rest.extend(batch)
        op.close()
        assert rest == [(i % 5, i) for i in range(2, 6)]
        assert calls == [2, 2, 2]  # still called; the guard absorbs the raise
        assert manager.degraded


def _draining_operators():
    """Every operator that drains an input, with the children it drains."""
    a, b = _table("a", 23), _table("b", 17)

    def scans():
        return SeqScan(a), SeqScan(b)

    return [
        ("hash_join", lambda: HashJoin(*scans(), "a.k", "b.k"), (0, 1)),
        ("hash_join_grace", lambda: HashJoin(*scans(), "a.k", "b.k", 4, 0), (0, 1)),
        ("hash_aggregate", lambda: HashAggregate(SeqScan(a), ["a.k"]), (0,)),
        ("sort_aggregate", lambda: SortAggregate(SeqScan(a), ["a.k"]), (0,)),
        ("distinct", lambda: Distinct(SeqScan(a)), (0,)),
        ("sort", lambda: Sort(SeqScan(a), ["a.v"]), (0,)),
        ("materialize", lambda: Materialize(SeqScan(a)), (0,)),
        ("merge_join", lambda: SortMergeJoin(*scans(), "a.k", "b.k"), (0, 1)),
        (
            "nl_join",
            lambda: NestedLoopsJoin(*scans(), col("a.k") > col("b.k")),
            (0, 1),
        ),
        ("index_nl_join", lambda: IndexNestedLoopsJoin(*scans(), "a.k", "b.k"), (0, 1)),
    ]


_DRAIN_CASES = [
    pytest.param(make, child, id=f"{name}-{child}")
    for name, make, drained in _draining_operators()
    for child in drained
]


@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize("make,child", _DRAIN_CASES)
def test_hook_sees_consumed_count_equal_to_rows_delivered(make, child, size):
    """Counted per batch and before the hooks, on every pass of every
    operator — not after the pass (merge join) or never (NL inner)."""
    op = make()
    delivered = 0
    observed: list[tuple[int, int]] = []

    def hook(keys, rows):
        nonlocal delivered
        assert len(keys) == len(rows) <= size
        delivered += len(rows)
        observed.append((op.rows_consumed[child], delivered))

    op.input_hooks[child].append(hook)
    ExecutionEngine(op, collect_rows=False).run(batch_size=size)
    total = len(op.children()[child].table)
    assert observed, "the hook never fired"
    assert all(consumed == seen for consumed, seen in observed)
    assert observed[-1] == (total, total)
    assert op.rows_consumed[child] == total


@pytest.mark.parametrize("num_partitions,memory", [(1, 1), (8, 1), (4, 0)])
def test_probe_pass_snapshot_sees_once_and_the_counter_agree(
    skewed_pair, num_partitions, memory
):
    """Count -> hooks -> work -> tick, in the probe pass as everywhere: a
    bus callback fired inside the first probe batch finds ONCE started and
    ``t`` equal to the probe rows consumed, not one batch behind at 0."""
    left, right = skewed_pair
    join = HashJoin(
        SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey",
        num_partitions=num_partitions, memory_partitions=memory,
    )
    manager = EstimationManager(join)
    ((chain, _joins),) = manager.attached()
    bus = TickBus(interval=64)
    seen: list[tuple[bool, int, int]] = []

    def sample(_count: int) -> None:
        if join.rows_consumed[1]:
            seen.append((manager.registry[id(join)].source.started, chain.t, join.rows_consumed[1]))

    bus.subscribe(sample)
    ExecutionEngine(join, bus=bus, collect_rows=False).run()
    assert seen[0] == (True, 64, 64)  # inside the first probe batch
    assert all(started and t == consumed for started, t, consumed in seen)
    assert seen[-1][1:] == (len(right), len(right))


# -- the drain-size rule: blocking pass = fetch size, streaming pass = request size --

_N = 2500


def _blocking_under_limit():
    """``Limit(10)`` over each blocking operator, with the (operator, child)
    whose input pass is blocking."""
    a, b = _table("a", _N), _table("b", 40)
    return [
        ("sort", lambda: Sort(SeqScan(a), ["a.v"]), 0),
        ("hash_aggregate", lambda: HashAggregate(SeqScan(a), ["a.v"]), 0),
        ("sort_aggregate", lambda: SortAggregate(SeqScan(a), ["a.v"]), 0),
        ("distinct", lambda: Distinct(SeqScan(a)), 0),
        ("materialize", lambda: Materialize(SeqScan(a)), 0),
        ("hash_join_build", lambda: HashJoin(SeqScan(a), SeqScan(b), "a.k", "b.k"), 0),
        ("nl_inner", lambda: NestedLoopsJoin(SeqScan(b), SeqScan(a), col("a.k") > col("b.k")), 1),
        ("index_nl_inner", lambda: IndexNestedLoopsJoin(SeqScan(b), SeqScan(a), "b.k", "a.k"), 1),
    ]


def _run_limited(make, child, fetch, faults=None):
    op = make()
    plan = Limit(op, 10)
    batches: list[int] = []
    op.input_hooks[child].append(lambda keys, rows: batches.append(len(rows)))
    cursor = PlanCursor(plan, faults=faults)
    cursor.open()
    rows = []
    while batch := cursor.fetch(fetch):
        rows.extend(batch)
    cursor.close()
    return rows, batches, [o.tuples_emitted for o in walk(plan)]


@pytest.mark.parametrize(
    "make,child", [pytest.param(m, c, id=n) for n, m, c in _blocking_under_limit()]
)
class TestBlockingPassDrainsAtTheFetchSize:
    def test_limit_does_not_leak_into_a_blocking_pass(self, make, child):
        rows, batches, emitted = _run_limited(make, child, 1024)
        assert batches == [1024, 1024, _N - 2048]  # ceil(n / 1024), not n / 10
        # ... and nothing else moved. fetch(10) is what the parent commit did
        # at fetch(1024): every pass below the Limit at 10 rows a pull.
        ref_rows, ref_batches, ref_emitted = _run_limited(make, child, 10)
        assert ref_batches == [10] * (_N // 10)
        assert (rows, emitted) == (ref_rows, ref_emitted)
        assert len(rows) == 10
        # The differential's reference seat still drains a row at a time.
        assert _run_limited(make, child, 1)[1] == [1] * _N

    def test_short_read_on_the_first_fetch_does_not_shrink_the_drain(self, make, child):
        faults = FaultPlan(specs=[FaultSpec(SITE_CURSOR_FETCH, SHORT_READ, every=1, count=1)])
        rows, batches, emitted = _run_limited(make, child, 1024, faults)
        assert [r["site"] for r in faults.records()] == [SITE_CURSOR_FETCH]
        assert batches == [1024, 1024, _N - 2048]
        unfaulted_rows, _, unfaulted_emitted = _run_limited(make, child, 1024)
        assert (rows, emitted) == (unfaulted_rows, unfaulted_emitted)


def test_next_drains_one_row_at_a_time():
    """No cursor, no fetch size: ``next()`` is ``next_batch(1)`` all the way down."""
    agg = HashAggregate(SeqScan(_table("a", 30)), ["a.k"])
    batches: list[int] = []
    agg.input_hooks[0].append(lambda keys, rows: batches.append(len(rows)))
    agg.open()
    assert agg.next() is not None
    assert batches == [1] * 30


def test_streaming_passes_keep_the_request_size():
    """The probe pass under a truncating ``Limit`` is asked for 10 rows and
    pulls 10 at a time — bounded read-ahead — while the build pass of the
    same join drains at the fetch size."""
    join = HashJoin(
        SeqScan(_table("a", _N)), SeqScan(_table("b", _N)), "a.v", "b.v", num_partitions=1
    )
    plan = Limit(join, 10)
    sizes: list[list[int]] = [[], []]
    for i in (0, 1):
        join.input_hooks[i].append(lambda keys, rows, i=i: sizes[i].append(len(rows)))
    result = ExecutionEngine(plan).run(batch_size=1024)
    assert len(result.rows) == 10
    assert sizes[0] == [1024, 1024, _N - 2048]
    assert sizes[1] == [10]
    assert join.rows_consumed == [_N, 10]
