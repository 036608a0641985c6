"""Tests for validate_plan's hard structural gate (error paths)."""

import pytest

from repro.common.errors import PlanError
from repro.executor.engine import ExecutionEngine
from repro.executor.expressions import Comparison, col, lit
from repro.executor.operators import (
    AggregateSpec,
    Filter,
    HashAggregate,
    HashJoin,
    Operator,
    SeqScan,
)
from repro.executor.plan import validate_plan
from repro.storage.schema import Schema
from repro.storage.table import Table


def table(name):
    return Table(name, Schema.of("k:int", "v:int"), [(1, 10), (2, 20)])


class TestValidatePlan:
    def test_assigns_preorder_node_ids(self):
        join = HashJoin(SeqScan(table("b")), SeqScan(table("p")), "b.k", "p.k")
        ops = validate_plan(join)
        assert [op.node_id for op in ops] == [0, 1, 2]
        assert ops[0] is join

    def test_duplicate_node_rejected(self):
        join = HashJoin(SeqScan(table("b")), SeqScan(table("p")), "b.k", "p.k")
        join.probe_child = join.build_child  # alias one scan into both edges
        with pytest.raises(PlanError, match="appears twice"):
            validate_plan(join)

    def test_blocking_index_out_of_range(self):
        class _Rogue(Filter):
            blocking_child_indexes = (3,)

        op = _Rogue(SeqScan(table("t")), Comparison(">", col("t.v"), lit(0)))
        with pytest.raises(PlanError, match="blocking child index 3"):
            validate_plan(op)

    def test_driver_index_out_of_range(self):
        class _Rogue(Filter):
            driver_child_index = 9

        op = _Rogue(SeqScan(table("t")), Comparison(">", col("t.v"), lit(0)))
        with pytest.raises(PlanError, match="driver child index 9"):
            validate_plan(op)

    def test_closed_operator_rejected(self):
        scan = SeqScan(table("t"))
        scan.open()
        scan.close()
        with pytest.raises(PlanError, match="already closed"):
            validate_plan(scan)

    def test_engine_refuses_closed_plan(self):
        scan = SeqScan(table("t"))
        ExecutionEngine(scan).run()  # runs and closes the plan
        with pytest.raises(PlanError):
            ExecutionEngine(scan).run()


class TestOperatorsStayDictFree:
    """Operators are per-tuple hot objects (see ``operators/base.py``):
    one subclass without ``__slots__`` gives every instance a ``__dict__``
    back."""

    def test_every_operator_class_declares_slots(self):
        pending, seen = [Operator], []
        while pending:
            for cls in pending.pop().__subclasses__():
                # Test-local subclasses (exploding scans etc.) are exempt.
                if cls.__module__.startswith("repro."):
                    seen.append(cls)
                pending.append(cls)
        assert {HashJoin, HashAggregate} <= set(seen)  # direct and transitive
        assert [c.__name__ for c in seen if "__slots__" not in vars(c)] == []
        # One pull path: no operator grows a row twin back, and every
        # concrete one drains natively.
        assert [c.__name__ for c in seen if "_next" in vars(c)] == []
        assert [
            c.__name__ for c in seen if c._next_batch is Operator._next_batch
        ] == []

    def test_instantiated_plan_has_no_instance_dict(self):
        join = HashJoin(
            SeqScan(table("b")),
            Filter(SeqScan(table("p")), Comparison("<", col("p.v"), lit(15))),
            "b.k",
            "p.k",
        )
        plan = HashAggregate(join, ["b.k"], [AggregateSpec("count", alias="n")])
        ops = validate_plan(plan)
        assert len(ops) == 5
        assert [type(op).__name__ for op in ops if hasattr(op, "__dict__")] == []
