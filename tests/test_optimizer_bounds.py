"""Tests for bound-based refinement of future-pipeline estimates."""

import pytest

from repro.core.progress import ProgressMonitor
from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.expressions import Comparison, col, lit
from repro.executor.operators import (
    Filter,
    HashAggregate,
    HashJoin,
    IndexNestedLoopsJoin,
    SeqScan,
)
from repro.executor.plan import walk
from repro.optimizer.bounds import CardinalityBounds, RefinableEstimate
from repro.sql import compile_select
from repro.storage.schema import Schema
from repro.storage.table import Table


class TestRefinableEstimate:
    def test_clamping(self):
        est = RefinableEstimate(lo=10.0, est=5.0, hi=100.0)
        assert est.clamped() == 10.0
        est.est = 500.0
        assert est.clamped() == 100.0

    def test_bounds_only_tighten(self):
        est = RefinableEstimate(lo=0.0, est=50.0, hi=1000.0)
        est.update_bounds(lo=10.0, hi=500.0)
        est.update_bounds(lo=5.0, hi=2000.0)  # looser info is ignored
        assert est.lo == 10.0
        assert est.hi == 500.0

    def test_crossed_bounds_resolve_to_hi(self):
        est = RefinableEstimate(lo=0.0, est=5.0, hi=100.0)
        est.update_bounds(lo=50.0)
        est.update_bounds(hi=20.0)
        assert est.lo == est.hi == 20.0


class TestCardinalityBounds:
    def make_plan(self, tiny_table):
        scan = SeqScan(tiny_table)
        other = SeqScan(tiny_table.aliased("o"))
        join = HashJoin(other, Filter(scan, col("id") > lit(0)), "o.id", "tiny.id")
        join.estimated_cardinality = 1000.0  # absurd optimizer estimate
        scan.estimated_cardinality = 5.0
        other.estimated_cardinality = 5.0
        join.probe_child.estimated_cardinality = 5.0
        return join, scan, other

    def test_join_clamped_by_cross_product(self, tiny_table):
        join, *_ = self.make_plan(tiny_table)
        bounds = CardinalityBounds(join)
        bounds.refine()
        # |filter| <= 5, |build| = 5 -> join <= 25 << 1000.
        assert bounds.estimate_of(join) <= 25.0

    def test_max_multiplicity_tightens_join_bound(self, tiny_table):
        join, *_ = self.make_plan(tiny_table)
        bounds = CardinalityBounds(join)
        bounds.refine(max_multiplicity={id(join): 1.0})
        assert bounds.estimate_of(join) <= 5.0

    def test_scans_pinned_exactly(self, tiny_table):
        join, scan, other = self.make_plan(tiny_table)
        bounds = CardinalityBounds(join)
        bounds.refine()
        assert bounds.of(scan).lo == bounds.of(scan).hi == 5.0

    def test_set_known_pins_value(self, tiny_table):
        join, *_ = self.make_plan(tiny_table)
        bounds = CardinalityBounds(join)
        bounds.set_known(join, 17.0)
        assert bounds.estimate_of(join) == 17.0

    def test_aggregate_bounded_by_input(self, tiny_table):
        agg = HashAggregate(SeqScan(tiny_table), ["name"])
        agg.estimated_cardinality = 9999.0
        bounds = CardinalityBounds(agg)
        bounds.refine()
        assert bounds.estimate_of(agg) <= 5.0
        assert bounds.of(agg).lo >= 1.0

    def test_estimates_survive_execution(self, tiny_table):
        join, *_ = self.make_plan(tiny_table)
        bounds = CardinalityBounds(join)
        ExecutionEngine(join, collect_rows=False).run()
        bounds.refine()
        assert bounds.estimate_of(join) <= 25.0


class TestBoundsStaySoundDuringExecution:
    """A maximum multiplicity reaches ``refine`` only once its join's build
    pass has ended; ``update_bounds`` only ever tightens, so the maximum of
    an empty or half-built histogram would pin ``hi`` below the truth."""

    @staticmethod
    def _run_monitored(plan, interval, batch_size):
        bus = TickBus(interval=interval)
        monitor = ProgressMonitor(plan, mode="once", bus=bus)
        joins = [
            op for op in walk(plan) if isinstance(op, (HashJoin, IndexNestedLoopsJoin))
        ]
        seen: list[list[tuple[float, float]]] = []

        def sample(_count: int = -1) -> None:
            seen.append([(monitor.bounds.of(j).lo, monitor.bounds.of(j).hi) for j in joins])

        bus.subscribe(sample)
        ExecutionEngine(plan, bus=bus, collect_rows=False).run(batch_size=batch_size)
        monitor.snapshot()
        sample()
        return joins, seen

    def test_snapshot_before_a_build_does_not_pin_hi_to_zero(self, small_catalog):
        plan = compile_select(
            small_catalog,
            "SELECT l.orderkey, p.name, o.orderdate FROM lineitem l "
            "JOIN part p ON l.partkey = p.partkey "
            "JOIN orders o ON l.orderkey = o.orderkey",
        ).plan
        joins, seen = self._run_monitored(plan, interval=500, batch_size=256)
        assert len(joins) == 2 and len(seen) > 10
        for join, bounds in zip(joins, zip(*seen)):
            assert join.tuples_emitted == 6000
            for lo, hi in bounds:
                assert lo <= join.tuples_emitted <= hi
        # ... and once both builds ended the published maxima did tighten it
        # well below the cross product.
        assert all(hi <= 6000 * 7 for _lo, hi in seen[-1])

    def test_index_nl_join_bound_multiplies_the_probe_side(self):
        """The index NL join builds on its *inner* (right) input, so the
        bound is ``|outer| * maxmult(inner)``, not ``|inner| * maxmult``."""
        schema = Schema.of("k:int")
        outer = Table("outer", schema, [(1,)] * 200)
        inner = Table("inner", schema, [(1,)])
        join = IndexNestedLoopsJoin(SeqScan(outer), SeqScan(inner), "outer.k", "inner.k")
        (join,), seen = self._run_monitored(join, interval=50, batch_size=16)
        assert join.tuples_emitted == 200
        assert all(lo <= 200 <= hi for ((lo, hi),) in seen)
        assert seen[-1] == [(0.0, 200.0)]

    @pytest.mark.parametrize("join_type", ["outer", "anti"])
    def test_empty_build_of_a_probe_preserving_join_does_not_zero_hi(self, join_type):
        """An outer or anti join emits every unmatched probe row, so an
        empty build side publishes 1 row per probe tuple, not 0."""
        schema = Schema.of("k:int")
        build = Filter(
            SeqScan(Table("b", schema, [(i,) for i in range(50)])),
            Comparison("<", col("b.k"), lit(0)),
        )
        probe = SeqScan(Table("p", schema, [(i,) for i in range(200)]))
        join = HashJoin(build, probe, "b.k", "p.k", join_type=join_type)
        (join,), seen = self._run_monitored(join, interval=50, batch_size=16)
        assert join.tuples_emitted == 200
        assert all(lo <= 200 <= hi for ((lo, hi),) in seen)
        assert seen[-1] == [(0.0, 200.0)]
