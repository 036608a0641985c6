"""One conformance suite over the estimator registry.

Every attachable estimator family answers through the same kind of
object — the ``source`` of its :class:`~repro.core.manager.EstimatorEntry`
(a join's accumulator, an aggregate's hybrid), the state the progress
monitor reads — so the contract is asserted once, through that source
only, with the family as a parameter:

1. not ``started`` before the first batch of the pass that feeds it,
   ``started`` after it;
2. ``exact`` at the end of that pass, with ``estimate()`` already equal to
   what the operator will have emitted when the query finishes;
3. at every batch boundary of that pass, the same state as a drain of
   size 1 after the same number of stream rows, whatever the drain size
   (1 / 7 / 1024).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.accumulator import OnceAccumulator
from repro.core.manager import EstimationManager, EstimatorEntry
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import (
    AggregateSpec,
    HashAggregate,
    HashJoin,
    IndexNestedLoopsJoin,
    SeqScan,
    SortMergeJoin,
)
from repro.executor.operators.base import Operator
from repro.storage.schema import Schema
from repro.storage.table import Table

STREAM_ROWS = 600
DRAIN_SIZES = (1, 7, 1024)


def _table(name: str, cols: list[str], n: int, domain: int, seed: int) -> Table:
    data = np.random.default_rng(seed).integers(1, domain, size=(n, len(cols)))
    rows = [tuple(int(v) for v in row) for row in data]
    return Table(name, Schema.of(*[f"{c}:int" for c in cols]), rows, block_size=64)


#: The stream every family estimates over, and the inputs it is joined with.
C = _table("c", ["x", "y"], STREAM_ROWS, 25, seed=1)
B0 = _table("b0", ["x", "w"], 300, 25, seed=2)
B1 = _table("b1", ["y", "w"], 300, 25, seed=3)


@dataclass
class Attached:
    """A plan with estimators attached, seen through registry entries."""

    root: Operator
    pass_op: Operator  # the operator whose input pass feeds the entries ...
    pass_index: int  # ... and which of its children that pass reads
    entries: list[EstimatorEntry]  # one per operator answered for


def _managed(root, pass_op, pass_index, answered) -> Attached:
    manager = EstimationManager(root)
    return Attached(root, pass_op, pass_index, [manager.registry[id(op)] for op in answered])


def _hash_once(join_type):
    def make(c: Table) -> Attached:
        join = HashJoin(SeqScan(B0), SeqScan(c), "b0.x", "c.x", join_type=join_type)
        return _managed(join, join, 1, [join])

    return make


def _sort_merge(c: Table) -> Attached:
    join = SortMergeJoin(SeqScan(B0), SeqScan(c), "b0.x", "c.x")
    return _managed(join, join, 1, [join])


def _index_nl(c: Table) -> Attached:
    join = IndexNestedLoopsJoin(SeqScan(c), SeqScan(B0), "c.x", "b0.x")
    return _managed(join, join, 0, [join])


def _chain(upper_build_key: str, upper_probe_key: str):
    def make(c: Table) -> Attached:
        lower = HashJoin(SeqScan(B0), SeqScan(c), "b0.x", "c.x")
        upper = HashJoin(SeqScan(B1), lower, upper_build_key, upper_probe_key)
        return _managed(upper, lower, 1, [lower, upper])

    return make


def _group_direct(c: Table) -> Attached:
    agg = HashAggregate(SeqScan(c), ["c.y"], [AggregateSpec("count")])
    return _managed(agg, agg, 0, [agg])


def _group_pushed_down(c: Table) -> Attached:
    join = HashJoin(SeqScan(B0), SeqScan(c), "b0.x", "c.x")
    agg = HashAggregate(join, ["c.y"], [AggregateSpec("count")])
    attached = _managed(agg, join, 1, [join, agg])
    assert len(attached.entries[1].fed_by) == 2  # the hybrid and the chain
    return attached


FAMILIES = {
    "hash-inner": _hash_once("inner"),
    "hash-semi": _hash_once("semi"),
    "hash-anti": _hash_once("anti"),
    "hash-outer": _hash_once("outer"),
    "sort-merge": _sort_merge,
    "index-nl": _index_nl,
    "chain-same-attribute": _chain("b1.y", "c.x"),
    "chain-case1": _chain("b1.y", "c.y"),
    "chain-case2": _chain("b1.w", "b0.w"),
    "group-direct": _group_direct,
    "group-pushed-down": _group_pushed_down,
}

family = pytest.mark.parametrize("name", list(FAMILIES))


def _run(attached: Attached, batch_size: int = 64):
    return ExecutionEngine(attached.root, collect_rows=False).run(batch_size=batch_size)


@family
def test_started_then_exact_at_pass_end(name):
    attached = FAMILIES[name](C)
    entries = attached.entries
    before: list[list[bool]] = []
    after: list[list[bool]] = []
    at_end: list[tuple[bool, float]] = []
    hooks = attached.pass_op.input_hooks[attached.pass_index]
    # Around the estimators' own hooks, in the same batch.
    sources = [e.source for e in entries]
    hooks.insert(0, lambda keys, rows: before.append([s.started for s in sources]))
    hooks.append(lambda keys, rows: after.append([s.started for s in sources]))
    attached.pass_op.input_end_hooks[attached.pass_index].append(
        lambda: at_end.extend((s.exact, s.estimate()) for s in sources)
    )
    assert not any(s.started or s.exact for s in sources)
    _run(attached)
    assert not any(before[0]) and all(after[0])
    # Exact when the pass ended — before the operators had emitted it all.
    assert at_end == [(True, float(e.op.tuples_emitted)) for e in entries]
    assert all(e.source.exact and e.source.estimate() == e.op.tuples_emitted for e in entries)


def _prefix_state(source) -> tuple:
    """What a source holds, read without moving it: a hybrid's ``estimate()``
    would recompute its MLE, so its counts stand in for it."""
    if isinstance(source, OnceAccumulator):
        return (source.t, source.sum_c, source.sum_c_sq, source.estimate())
    return (source.state.t, dict(source.state.counts))


@family
def test_checkpoints_independent_of_drain_size(name):
    """Read after the estimators' hooks at every batch boundary of the pass,
    keyed by the stream rows consumed so far."""
    checkpoints = []
    for batch_size in DRAIN_SIZES:
        attached = FAMILIES[name](C)
        reads = {}

        def read(_keys, _rows):
            x = attached.pass_op.rows_consumed[attached.pass_index]
            reads[x] = [_prefix_state(e.source) for e in attached.entries]

        attached.pass_op.input_hooks[attached.pass_index].append(read)
        _run(attached, batch_size)
        checkpoints.append(reads)
    per_tuple = checkpoints[0]
    assert sorted(per_tuple) == list(range(1, STREAM_ROWS + 1))
    for reads in checkpoints[1:]:
        assert STREAM_ROWS in reads
        assert reads == {x: per_tuple[x] for x in reads}
