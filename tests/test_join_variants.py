"""Tests for semi/anti/outer hash joins and their ONCE estimators."""

import pytest

from repro.common.errors import PlanError
from repro.core.join_estimators import attach_once_estimator
from repro.core.manager import EstimationManager
from repro.core.pipeline_estimators import find_hash_join_chains
from repro.datagen.skew import customer_variant
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import HashJoin, SeqScan
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.conftest import read_at_ticks


def small_tables():
    left = Table("l", Schema.of("k:int", "lv:str"), [(1, "a"), (2, "b"), (2, "c")])
    right = Table(
        "r", Schema.of("k:int", "rv:str"), [(2, "x"), (3, "y"), (None, "z")]
    )
    return left, right


class TestSemantics:
    def test_semi_join(self):
        left, right = small_tables()
        join = HashJoin(SeqScan(left), SeqScan(right), "l.k", "r.k", join_type="semi")
        result = ExecutionEngine(join).run()
        # Probe rows with at least one build match, emitted once each.
        assert result.rows == [(2, "x")]
        assert join.output_schema.names() == ["r.k", "r.rv"]

    def test_anti_join(self):
        left, right = small_tables()
        join = HashJoin(SeqScan(left), SeqScan(right), "l.k", "r.k", join_type="anti")
        result = ExecutionEngine(join).run()
        assert sorted(result.rows, key=str) == sorted(
            [(3, "y"), (None, "z")], key=str
        )

    def test_outer_join(self):
        left, right = small_tables()
        join = HashJoin(SeqScan(left), SeqScan(right), "l.k", "r.k", join_type="outer")
        result = ExecutionEngine(join).run()
        padded = [r for r in result.rows if r[0] is None and r[1] is None]
        matched = [r for r in result.rows if r[0] is not None]
        # 2 build rows match probe key 2; probe keys 3 and None unmatched.
        assert len(matched) == 2
        assert len(padded) == 2
        assert join.output_schema.names() == ["l.k", "l.lv", "r.k", "r.rv"]

    def test_counts_consistency(self, skewed_pair):
        """inner + anti-with-respect-to-matches identities."""
        left, right = skewed_pair

        def run(join_type):
            join = HashJoin(
                SeqScan(left), SeqScan(right),
                "left.nationkey", "right.nationkey", join_type=join_type,
            )
            return ExecutionEngine(join, collect_rows=False).run().row_count

        semi, anti, outer, inner = run("semi"), run("anti"), run("outer"), run("inner")
        assert semi + anti == len(right)
        assert outer == inner + anti

    def test_rejects_unknown_type(self):
        left, right = small_tables()
        with pytest.raises(PlanError, match="join_type"):
            HashJoin(SeqScan(left), SeqScan(right), "l.k", "r.k", join_type="full")


class TestEstimation:
    @pytest.mark.parametrize("join_type", ["inner", "semi", "anti", "outer"])
    def test_once_exact_for_all_types(self, join_type, skewed_pair):
        left, right = skewed_pair
        join = HashJoin(
            SeqScan(left), SeqScan(right),
            "left.nationkey", "right.nationkey", join_type=join_type,
        )
        estimator = attach_once_estimator(join)
        result = ExecutionEngine(join, collect_rows=False).run()
        assert estimator.acc.exact
        assert estimator.acc.estimate() == result.row_count

    def test_semi_estimate_reasonable_mid_stream(self):
        left = customer_variant(1.0, 200, 0, 8000, name="sl")
        right = customer_variant(1.0, 200, 1, 8000, name="sr")
        join = HashJoin(
            SeqScan(left), SeqScan(right),
            "sl.nationkey", "sr.nationkey", join_type="semi",
        )
        estimator = attach_once_estimator(join)
        acc = estimator.acc
        reads = read_at_ticks(join, lambda: (acc.t, acc.estimate()), 500)
        halfway = next(e for t, e in reads if t >= 4000)
        assert halfway == pytest.approx(join.tuples_emitted, rel=0.15)

    def test_non_inner_joins_break_chains(self):
        a = customer_variant(0.0, 20, 0, 200, name="a")
        b = customer_variant(0.0, 20, 1, 200, name="b")
        c = customer_variant(0.0, 20, 2, 200, name="c")
        lower = HashJoin(
            SeqScan(b), SeqScan(c), "b.nationkey", "c.nationkey", join_type="semi"
        )
        upper = HashJoin(SeqScan(a), lower, "a.nationkey", "c.nationkey")
        chains = find_hash_join_chains(upper)
        assert sorted(len(ch) for ch in chains) == [1, 1]

    def test_manager_attaches_binary_estimator_to_semi_join(self, skewed_pair):
        left, right = skewed_pair
        join = HashJoin(
            SeqScan(left), SeqScan(right),
            "left.nationkey", "right.nationkey", join_type="semi",
        )
        manager = EstimationManager(join)
        ExecutionEngine(join, collect_rows=False).run()
        assert manager.registry[id(join)].source.estimate() == join.tuples_emitted
        assert manager.registry[id(join)].source.exact
