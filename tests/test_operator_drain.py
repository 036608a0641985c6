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
from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.expressions import col
from repro.executor.operators import (
    Distinct,
    HashAggregate,
    HashJoin,
    IndexNestedLoopsJoin,
    Materialize,
    NestedLoopsJoin,
    SeqScan,
    Sort,
    SortAggregate,
    SortMergeJoin,
)
from repro.executor.operators.base import Operator
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
    (chain,) = manager.chain_estimators
    bus = TickBus(interval=64)
    seen: list[tuple[bool, int, int]] = []

    def sample(_count: int) -> None:
        if join.rows_consumed[1]:
            seen.append((manager.has_started(join), chain.t, join.rows_consumed[1]))

    bus.subscribe(sample)
    ExecutionEngine(join, bus=bus, collect_rows=False).run()
    assert seen[0] == (True, 64, 64)  # inside the first probe batch
    assert all(started and t == consumed for started, t, consumed in seen)
    assert seen[-1][1:] == (len(right), len(right))
