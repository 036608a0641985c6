"""Tests for inequality-predicate join estimation."""

import pytest

from repro.common.errors import EstimationError
from repro.core.theta_estimators import OnceThetaJoinEstimator, attach_theta_estimator
from repro.executor.engine import ExecutionEngine
from repro.executor.expressions import col
from repro.executor.operators import NestedLoopsJoin, SeqScan
from repro.storage.schema import Schema
from repro.storage.table import Table


def make_tables(outer_vals, inner_vals):
    outer = Table("o", Schema.of("x:int"), [(v,) for v in outer_vals])
    inner = Table("i", Schema.of("y:int"), [(v,) for v in inner_vals])
    return outer, inner


class TestContributions:
    @pytest.mark.parametrize(
        "op,value,expected",
        [
            (">", 5, 2),    # inner values < 5: {1, 3}
            (">=", 5, 3),   # <= 5: {1, 3, 5}
            ("<", 5, 2),    # > 5: {7, 9}
            ("<=", 5, 3),   # >= 5: {5, 7, 9}
        ],
    )
    def test_bisect_counts(self, op, value, expected):
        est = OnceThetaJoinEstimator(op)
        for y in [9, 1, 5, 3, 7]:
            est.on_inner(y)
        est.freeze_inner()
        assert est.contribution(value) == expected

    def test_duplicates_counted(self):
        est = OnceThetaJoinEstimator(">")
        for y in [2, 2, 2]:
            est.on_inner(y)
        est.freeze_inner()
        assert est.contribution(3) == 3
        assert est.contribution(2) == 0

    def test_none_values_ignored(self):
        est = OnceThetaJoinEstimator(">")
        est.on_inner(None)
        est.on_inner(1)
        est.freeze_inner()
        assert est.contribution(None) == 0
        assert est.contribution(2) == 1

    def test_rejects_unknown_op(self):
        with pytest.raises(EstimationError):
            OnceThetaJoinEstimator("!=")

    def test_inner_frozen_guard(self):
        est = OnceThetaJoinEstimator(">")
        est.freeze_inner()
        with pytest.raises(EstimationError):
            est.on_inner(1)


class TestAttachment:
    # Exactness at the end of the outer pass, for all four comparisons:
    # tests/test_estimator_conformance.py, the ``theta-*`` families.

    def test_mid_stream_estimate_unbiased(self):
        import numpy as np

        rng = np.random.default_rng(4)
        outer_vals = [int(v) for v in rng.integers(0, 1000, size=4000)]
        inner_vals = [int(v) for v in rng.integers(0, 1000, size=300)]
        outer, inner = make_tables(outer_vals, inner_vals)
        join = NestedLoopsJoin(
            SeqScan(outer), SeqScan(inner), col("o.x") > col("i.y")
        )
        estimator = attach_theta_estimator(join, "o.x", "i.y", ">", record_every=400)
        result = ExecutionEngine(join, collect_rows=False).run()
        early = next(e for t, e in estimator.acc.history if t >= 800)
        assert early == pytest.approx(result.row_count, rel=0.15)

    def test_confidence_interval_covers_truth(self):
        import numpy as np

        rng = np.random.default_rng(5)
        outer_vals = [int(v) for v in rng.integers(0, 500, size=2000)]
        inner_vals = [int(v) for v in rng.integers(0, 500, size=100)]
        outer, inner = make_tables(outer_vals, inner_vals)
        join = NestedLoopsJoin(
            SeqScan(outer), SeqScan(inner), col("o.x") < col("i.y")
        )
        estimator = attach_theta_estimator(join, "o.x", "i.y", "<")
        join.open()
        pulled = 0
        while estimator.acc.t < 500:
            if join.next() is None:
                break
            pulled += 1
        lo, hi = estimator.acc.confidence_interval(alpha=0.999)
        while join.next() is not None:
            pass
        assert lo <= join.tuples_emitted <= hi
