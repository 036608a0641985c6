"""Tests for Algorithm-1 push-down estimation over hash-join chains."""

from collections import Counter

import pytest

from repro.common.errors import EstimationError
from repro.core.pipeline_estimators import HashJoinChainEstimator, find_hash_join_chains
from repro.executor.engine import ExecutionEngine, PlanCursor, TickBus
from repro.executor.expressions import col, lit
from repro.executor.operators import Filter, HashJoin, SeqScan
from repro.datagen.skew import customer_variant, customer_variant_with_custkey
from repro.workloads import paper_pipeline_same_attr


def make_chain(*, same_attr: bool, case: int = 1, rows: int = 3000, domain: int = 60):
    """Two-join pipelines mirroring Figure 2; returns (upper, lower, estimator)."""
    if same_attr:
        a = customer_variant(1.0, domain, 0, rows, name="a")
        b = customer_variant(1.0, domain, 1, rows, name="b")
        c = customer_variant(1.0, domain, 2, rows, name="c")
        lower = HashJoin(SeqScan(b), SeqScan(c), "b.nationkey", "c.nationkey")
        upper = HashJoin(SeqScan(a), lower, "a.nationkey", "b.nationkey")
    else:
        a = customer_variant_with_custkey(1.0, 1.0, domain * 4, 0, rows, name="a")
        b = customer_variant_with_custkey(1.0, 1.0, domain * 4, 1, rows, name="b")
        c = customer_variant_with_custkey(1.0, 1.0, domain * 4, 2, rows, name="c")
        lower = HashJoin(SeqScan(b), SeqScan(c), "b.nationkey", "c.nationkey")
        probe_key = "c.custkey" if case == 1 else "b.custkey"
        upper = HashJoin(SeqScan(a), lower, "a.custkey", probe_key)
    est = HashJoinChainEstimator([lower, upper])
    return upper, lower, est


class TestChainDiscovery:
    def test_single_join_is_a_chain(self, skewed_pair):
        left, right = skewed_pair
        join = HashJoin(SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey")
        chains = find_hash_join_chains(join)
        assert chains == [[join]]

    def test_two_level_chain_bottom_up(self):
        upper, lower, _ = make_chain(same_attr=True)
        chains = find_hash_join_chains(upper)
        assert chains == [[lower, upper]]

    def test_filter_breaks_chain(self):
        a = customer_variant(0.0, 10, 0, 100, name="a")
        b = customer_variant(0.0, 10, 1, 100, name="b")
        c = customer_variant(0.0, 10, 2, 100, name="c")
        lower = HashJoin(SeqScan(b), SeqScan(c), "b.nationkey", "c.nationkey")
        filt = Filter(lower, col("c.custkey") > lit(0))
        upper = HashJoin(SeqScan(a), filt, "a.nationkey", "b.nationkey")
        chains = find_hash_join_chains(upper)
        assert sorted(len(c) for c in chains) == [1, 1]

    def test_build_side_join_is_separate_chain(self):
        a = customer_variant(0.0, 10, 0, 100, name="a")
        b = customer_variant(0.0, 10, 1, 100, name="b")
        c = customer_variant(0.0, 10, 2, 100, name="c")
        build_join = HashJoin(SeqScan(a), SeqScan(b), "a.nationkey", "b.nationkey")
        top = HashJoin(build_join, SeqScan(c), "a.nationkey", "c.nationkey")
        chains = find_hash_join_chains(top)
        assert sorted(len(ch) for ch in chains) == [1, 1]


class TestExactConvergence:
    # Both levels exact at probe end, same attribute / Case 1 / Case 2:
    # tests/test_estimator_conformance.py, the three ``chain-*`` families.

    def test_exact_before_lower_join_pass(self):
        """Estimates for *both* joins are exact by the end of the lowest
        probe partitioning pass — before partition-wise joining begins."""
        upper, lower, est = make_chain(same_attr=True)
        upper.open()
        while not est.exact:
            assert upper.next() is not None
        # The upper join has emitted at most a trickle at this point.
        assert upper.tuples_emitted < est.levels[1].estimate() / 2

    def test_estimates_dict(self):
        upper, lower, est = make_chain(same_attr=True)
        ExecutionEngine(upper, collect_rows=False).run()
        estimates = dict(zip(est.chain, (level.estimate() for level in est.levels)))
        assert estimates == {lower: lower.tuples_emitted, upper: upper.tuples_emitted}

    def test_current_estimate_by_join(self):
        """``levels`` is aligned with ``chain``, bottom-up; the topmost
        join's is last."""
        upper, lower, est = make_chain(same_attr=True)
        ExecutionEngine(upper, collect_rows=False).run()
        assert est.levels[est.chain.index(lower)].estimate() == lower.tuples_emitted
        assert est.levels[-1].estimate() == upper.tuples_emitted


class TestFigure5Chain:
    """The paper's Figure 5 chain: the upper join is keyed on the lower
    build's own key, which equijoin transitivity traces to C's key."""

    @staticmethod
    def estimated():
        setup = paper_pipeline_same_attr(z=1.0, domain_size=20, num_rows=200, seed=1)
        (chain,) = find_hash_join_chains(setup.plan)
        return setup.plan, HashJoinChainEstimator(chain)

    def test_same_attribute_without_derived_histogram(self):
        _, est = self.estimated()
        assert [p.kind for p in est.provenance] == ["C", "C"]
        assert est.provenance[0].index == est.provenance[1].index
        assert est.derived == {}

    def test_level_state_pinned(self):
        plan, est = self.estimated()
        ExecutionEngine(plan, collect_rows=False).run()
        assert [(lv.t, lv.sum_c, lv.sum_c_sq) for lv in est.levels] == [
            (200, 2170, 36386),
            (200, 18499, 5516161),
        ]


class TestNestedReferences:
    def test_three_level_nested_case2(self):
        """J2 keyed on B1's column, J1 keyed on B0's column: requires the
        recursive derived-histogram composition."""
        import numpy as np

        rng = np.random.default_rng(5)
        from repro.storage.schema import Schema
        from repro.storage.table import Table

        def tbl(name, cols, n):
            data = rng.integers(1, 15, size=(n, len(cols)))
            return Table(name, Schema.of(*[f"{c}:int" for c in cols]),
                         [tuple(int(x) for x in row) for row in data])

        c = tbl("c", ["x"], 400)
        b0 = tbl("b0", ["x", "u"], 300)   # J0: b0.x = c.x
        b1 = tbl("b1", ["u", "v"], 300)   # J1: b1.u = b0.u  (case 2)
        b2 = tbl("b2", ["v"], 300)        # J2: b2.v = b1.v  (nested case 2)
        j0 = HashJoin(SeqScan(b0), SeqScan(c), "b0.x", "c.x")
        j1 = HashJoin(SeqScan(b1), j0, "b1.u", "b0.u")
        j2 = HashJoin(SeqScan(b2), j1, "b2.v", "b1.v")
        est = HashJoinChainEstimator([j0, j1, j2])
        ExecutionEngine(j2, collect_rows=False).run()
        assert est.levels[0].estimate() == j0.tuples_emitted
        assert est.levels[1].estimate() == j1.tuples_emitted
        assert est.levels[2].estimate() == j2.tuples_emitted

    def test_mixed_c_and_b_references(self):
        """J1 on a C column (case 1), J2 on a B0 column (case 2)."""
        import numpy as np

        rng = np.random.default_rng(6)
        from repro.storage.schema import Schema
        from repro.storage.table import Table

        def tbl(name, cols, n):
            data = rng.integers(1, 12, size=(n, len(cols)))
            return Table(name, Schema.of(*[f"{c}:int" for c in cols]),
                         [tuple(int(x) for x in row) for row in data])

        c = tbl("c", ["x", "y"], 400)
        b0 = tbl("b0", ["x", "w"], 250)
        b1 = tbl("b1", ["y"], 250)
        b2 = tbl("b2", ["w"], 250)
        j0 = HashJoin(SeqScan(b0), SeqScan(c), "b0.x", "c.x")
        j1 = HashJoin(SeqScan(b1), j0, "b1.y", "c.y")
        j2 = HashJoin(SeqScan(b2), j1, "b2.w", "b0.w")
        est = HashJoinChainEstimator([j0, j1, j2])
        ExecutionEngine(j2, collect_rows=False).run()
        for level, join in enumerate([j0, j1, j2]):
            assert est.levels[level].estimate() == join.tuples_emitted


def same_attr_output_size(upper, lower) -> int:
    """A same-attribute chain's true output size, Σ_k a(k)·b(k)·c(k) over
    the three tables' nationkey counts: at 6000 rows, 154 202 481 rows,
    minutes to drain."""
    a, b, c = (
        Counter(scan.table.column_values(f"{scan.table.name}.nationkey"))
        for scan in (upper.children()[0], *lower.children())
    )
    return sum(n * b[k] * c[k] for k, n in a.items())


class TestMidStreamAccuracy:
    def test_estimates_reasonable_mid_probe(self):
        """Read at every tick of a ``TickBus(500)``, as a monitored run
        would be, and stopped at the first read past half the probe pass."""
        upper, lower, est = make_chain(same_attr=True, rows=6000)
        bus = TickBus(500)
        reads: list = []
        bus.subscribe(lambda _count: reads.append((est.t, est.levels[1].estimate())))
        cursor = PlanCursor(upper, bus=bus)
        cursor.open()
        try:
            while not any(t >= 3000 for t, _ in reads):
                assert cursor.fetch(bus.interval)
        finally:
            cursor.close()
        mid = next(e for t, e in reads if t >= 3000)
        assert mid == pytest.approx(same_attr_output_size(upper, lower), rel=0.3)

    def test_confidence_interval_covers_truth(self):
        upper, lower, est = make_chain(same_attr=True, rows=6000)
        upper.open()
        while est.t < 2000:
            upper.next()
        lo, hi = est.levels[-1].confidence_interval(alpha=0.99)
        upper.close()
        truth = same_attr_output_size(upper, lower)
        assert lo <= truth <= hi


class TestValidation:
    def test_disconnected_chain_rejected(self, skewed_pair):
        left, right = skewed_pair
        j1 = HashJoin(SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey")
        j2 = HashJoin(
            SeqScan(left.aliased("l2")), SeqScan(right.aliased("r2")),
            "l2.nationkey", "r2.nationkey",
        )
        with pytest.raises(EstimationError, match="connected"):
            HashJoinChainEstimator([j1, j2])

    def test_multi_column_keys_rejected(self, skewed_pair):
        left, right = skewed_pair
        join = HashJoin(
            SeqScan(left), SeqScan(right),
            ["left.nationkey", "left.custkey"], ["right.nationkey", "right.custkey"],
        )
        with pytest.raises(EstimationError, match="single-column"):
            HashJoinChainEstimator([join])

    def test_empty_chain_rejected(self):
        with pytest.raises(EstimationError, match="empty"):
            HashJoinChainEstimator([])


class TestOutputListeners:
    def test_listener_receives_exact_output_distribution(self):
        upper, lower, est = make_chain(same_attr=True, rows=2000)
        stream: list = []
        est.add_output_listener(
            "c.nationkey",
            lambda values, contributions: stream.extend(
                (v, w) for v, w in zip(values, contributions) if w
            ),
        )
        result = ExecutionEngine(upper, collect_rows=False).run()
        observed: Counter = Counter()
        for v, w in stream:
            observed[v] += w
        # Reference: group the actual join output by c.nationkey.
        upper2, lower2, _ = make_chain(same_attr=True, rows=2000)
        res2 = ExecutionEngine(upper2, collect_rows=True).run()
        idx = upper2.output_schema.index_of("c.nationkey")
        expected = Counter(r[idx] for r in res2.rows)
        assert observed == expected

    def test_listener_receives_a_non_key_column(self):
        """A group column other than the probe key is read off the batch's
        rows: each ``c.custkey`` yields a(k)·b(k) rows for its nationkey k."""
        upper, lower, est = make_chain(same_attr=True, rows=500)
        observed: Counter = Counter()

        def listener(values, contributions):
            for v, w in zip(values, contributions):
                observed[v] += w

        est.add_output_listener("c.custkey", listener)
        ExecutionEngine(upper, collect_rows=False).run(batch_size=64)
        a_scan, (b_scan, c_scan) = upper.children()[0], lower.children()
        a, b = (
            Counter(scan.table.column_values(f"{scan.table.name}.nationkey"))
            for scan in (a_scan, b_scan)
        )
        expected = Counter()
        for custkey, _name, nationkey in c_scan.table.rows():
            expected[custkey] += a[nationkey] * b[nationkey]
        assert +observed == +expected and sum(observed.values()) == upper.tuples_emitted

    def test_unknown_column_rejected(self):
        upper, lower, est = make_chain(same_attr=True, rows=100)
        with pytest.raises(EstimationError, match="base probe stream"):
            est.add_output_listener("a.nationkey", lambda values, contributions: None)
