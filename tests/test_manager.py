"""Tests for the estimation manager's attachment rules."""

from repro.core.distinct import HybridGroupCountEstimator
from repro.core.join_estimators import OnceJoinEstimator
from repro.core.manager import EstimationManager
from repro.core.pipeline_estimators import HashJoinChainEstimator
from repro.executor.engine import ExecutionEngine
from repro.executor.expressions import col, lit
from repro.executor.operators import (
    AggregateSpec,
    HashAggregate,
    HashJoin,
    NestedLoopsJoin,
    SeqScan,
    Sort,
    SortMergeJoin,
)
from repro.datagen.skew import customer_variant
from repro.faults import parse_fault_spec
from repro.workloads import paper_pipeline_same_attr, tpch_q8_like


class TestAttachmentRules:
    def test_hash_join_chain_gets_one_estimator(self):
        setup = paper_pipeline_same_attr(z=0.0, domain_size=50, num_rows=500)
        manager = EstimationManager(setup.plan)
        ((chain, joins),) = manager.attached()
        assert chain.k == 2 and joins == setup.joins

    def test_multi_column_chain_gets_binary_estimator_per_join(self, skewed_pair):
        left, right = skewed_pair
        lower = HashJoin(
            SeqScan(left), SeqScan(right),
            ["left.nationkey", "left.custkey"], ["right.nationkey", "right.custkey"],
        )
        upper = HashJoin(SeqScan(left.aliased("l2")), lower, "l2.nationkey", "right.nationkey")
        attached = EstimationManager(upper).attached()
        assert [type(once) for once, _ in attached] == [OnceJoinEstimator] * 2
        assert sorted(id(join) for _, (join,) in attached) == sorted([id(lower), id(upper)])

    def test_merge_join_gets_binary_estimator(self, skewed_pair):
        left, right = skewed_pair
        join = SortMergeJoin(SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey")
        manager = EstimationManager(join)
        ((once, joins),) = manager.attached()
        assert isinstance(once, OnceJoinEstimator) and joins == [join]

    def test_presorted_merge_join_falls_back(self, skewed_pair):
        left, right = skewed_pair
        join = SortMergeJoin(
            SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey",
            left_presorted=True,
        )
        manager = EstimationManager(join)
        assert id(join) not in manager.registry
        assert manager.fallbacks

    def test_plain_nl_join_not_attached(self, skewed_pair):
        left, right = skewed_pair
        join = NestedLoopsJoin(SeqScan(left), SeqScan(right))
        manager = EstimationManager(join)
        assert id(join) not in manager.registry

    def test_aggregate_over_chain_pushed_down(self):
        b = customer_variant(1.0, 40, 1, 800, name="b")
        c = customer_variant(1.0, 40, 2, 800, name="c")
        join = HashJoin(SeqScan(b), SeqScan(c), "b.nationkey", "c.nationkey")
        agg = HashAggregate(join, ["c.nationkey"], [AggregateSpec("count")])
        manager = EstimationManager(agg)
        hybrid, chain = manager.registry[id(agg)].fed_by
        assert isinstance(chain, HashJoinChainEstimator)
        assert manager.registry[id(agg)].source is hybrid

    def test_aggregate_on_build_column_attaches_directly(self):
        b = customer_variant(1.0, 40, 1, 800, name="b")
        c = customer_variant(1.0, 40, 2, 800, name="c")
        join = HashJoin(SeqScan(b), SeqScan(c), "b.nationkey", "c.nationkey")
        agg = HashAggregate(join, ["b.custkey"], [AggregateSpec("count")])
        manager = EstimationManager(agg)
        (hybrid,) = manager.registry[id(agg)].fed_by
        assert isinstance(hybrid, HybridGroupCountEstimator)

    def test_global_aggregate_skipped(self, skewed_pair):
        left, _ = skewed_pair
        agg = HashAggregate(SeqScan(left), [], [AggregateSpec("count")])
        manager = EstimationManager(agg)
        assert id(agg) not in manager.registry


class TestEstimates:
    def test_estimates_exact_after_run(self):
        setup = paper_pipeline_same_attr(z=1.0, domain_size=100, num_rows=1500)
        manager = EstimationManager(setup.plan)
        ExecutionEngine(setup.plan, collect_rows=False).run()
        for join in setup.joins:
            assert manager.registry[id(join)].source.exact
            assert manager.registry[id(join)].source.estimate() == join.tuples_emitted

    def test_has_started_transitions(self, skewed_pair):
        left, right = skewed_pair
        join = HashJoin(SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey")
        manager = EstimationManager(join)
        assert not manager.registry[id(join)].source.started
        ExecutionEngine(join, collect_rows=False).run()
        assert manager.registry[id(join)].source.started

    def test_max_multiplicities_populated(self, skewed_pair):
        left, right = skewed_pair
        join = HashJoin(SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey")
        manager = EstimationManager(join)
        level = manager.registry[id(join)].source
        assert level.max_multiplicity is None  # nothing built yet
        ExecutionEngine(join, collect_rows=False).run()
        from collections import Counter

        true_max = max(Counter(left.column_values("nationkey")).values())
        assert level.max_multiplicity == true_max

    def test_describe_mentions_attachments(self):
        setup = paper_pipeline_same_attr(z=0.0, domain_size=50, num_rows=400)
        manager = EstimationManager(setup.plan)
        assert "HashJoinChainEstimator[2]" in manager.describe()


class TestDescribeFallbacks:
    """``describe()`` says "dne fallback" only for an operator nothing
    answers for; a skipped rung of the ladder (chain -> binary ONCE,
    push-down -> direct) keeps its reason under its own label."""

    @staticmethod
    def _lines(root, prefix):
        lines = EstimationManager(root).describe().splitlines()
        return [line for line in lines if line.startswith(prefix)]

    def test_outer_hash_join_skips_the_chain_rung(self, skewed_pair):
        left, right = skewed_pair
        join = HashJoin(
            SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey",
            join_type="outer",
        )
        assert self._lines(join, "OnceJoinEstimator[1]")
        assert not self._lines(join, "dne fallback")
        assert "is outer" in self._lines(join, "rung skipped: hash_join")[0]

    def test_two_column_key_chain_skips_the_chain_rung(self, skewed_pair):
        left, right = skewed_pair
        lower = HashJoin(
            SeqScan(left), SeqScan(right),
            ["left.nationkey", "left.custkey"], ["right.nationkey", "right.custkey"],
        )
        upper = HashJoin(SeqScan(left.aliased("l2")), lower, "l2.nationkey", "right.nationkey")
        assert len(self._lines(upper, "OnceJoinEstimator[1]")) == 2
        assert not self._lines(upper, "dne fallback")
        assert len(self._lines(upper, "rung skipped: hash_join")) == 1

    def test_refused_push_down_attaches_directly(self):
        b = customer_variant(1.0, 40, 1, 800, name="b")
        c = customer_variant(1.0, 40, 2, 800, name="c")
        join = HashJoin(SeqScan(b), SeqScan(c), "b.nationkey", "c.nationkey")
        agg = HashAggregate(join, ["b.custkey"], [AggregateSpec("count")])
        assert self._lines(agg, "HybridGroupCountEstimator[1]")
        assert not self._lines(agg, "dne fallback")
        assert "(push-down: " in self._lines(agg, "rung skipped")[0]

    def test_presorted_merge_join_is_one_dne_fallback(self, skewed_pair):
        left, right = skewed_pair
        join = SortMergeJoin(
            SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey",
            left_presorted=True,
        )
        (line,) = self._lines(join, "dne fallback")
        assert "presorted" in line
        assert not self._lines(join, "rung skipped")


class TestDescribePinned:
    """``describe()`` line for line, on one plan with every kind of line: a
    two-join chain, an aggregate pushed down into it, a skipped rung (an
    outer join leaves the chain rung for binary ONCE), an attach-time dne
    fallback (a presorted merge join) and a runtime demotion (a merge join
    whose probe-pass hook raises)."""

    EXPECTED = [
        "HashJoinChainEstimator[2]: hash_join[hybrid](b.nationkey = c.nationkey)"
        " -> hash_join[hybrid](a.nationkey = c.nationkey)",
        "OnceJoinEstimator[1]: hash_join[hybrid] outer(d.nationkey = e.nationkey)",
        "HybridGroupCountEstimator (fed by HashJoinChainEstimator)[1]:"
        " hash_aggregate(by c.nationkey; count_star)",
        "rung skipped: hash_join[hybrid] outer(d.nationkey = e.nationkey)"
        " (chain: chain estimation is defined for inner joins;"
        " hash_join[hybrid] outer(d.nationkey = e.nationkey) is outer"
        " — use the binary ONCE estimator)",
        "dne fallback: merge_join(h.nationkey = i.nationkey)"
        " (presorted merge-join inputs have no preprocessing pass;"
        " use the driver-node estimator instead)",
        "dne fallback: merge_join(f.nationkey = g.nationkey)"
        " (estimator hook failed at merge_join(f.nationkey = g.nationkey):"
        " RuntimeError: injected)",
    ]

    @staticmethod
    def _plan():
        def scan(name, variant):
            return SeqScan(customer_variant(1.0, 6, variant, 24, name=name))

        chain = HashJoin(scan("b", 1), scan("c", 2), "b.nationkey", "c.nationkey")
        chain = HashJoin(scan("a", 0), chain, "a.nationkey", "c.nationkey")
        pushed = HashAggregate(chain, ["c.nationkey"], [AggregateSpec("count")])
        outer = HashJoin(
            scan("d", 3), scan("e", 4), "d.nationkey", "e.nationkey", join_type="outer"
        )
        merge = SortMergeJoin(scan("f", 5), scan("g", 6), "f.nationkey", "g.nationkey")
        presorted = SortMergeJoin(
            Sort(scan("h", 7), ["h.nationkey"]), scan("i", 8),
            "h.nationkey", "i.nationkey", left_presorted=True,
        )
        never = lit(0) > lit(1)
        root = NestedLoopsJoin(
            NestedLoopsJoin(pushed, outer, never),
            NestedLoopsJoin(merge, presorted, never),
        )
        return root, merge

    def test_every_kind_of_line(self):
        root, merge = self._plan()

        def broken(keys, rows):
            raise RuntimeError("injected")

        merge.input_hooks[1].append(broken)
        manager = EstimationManager(root)
        manager.harden()
        ExecutionEngine(root).run()
        assert manager.describe().splitlines() == self.EXPECTED


class TestQ8Coverage:
    def test_whole_q8_chain_estimated_exactly(self):
        setup = tpch_q8_like(sf=0.002, skew_z=1.0, sample_fraction=0.0)
        manager = EstimationManager(setup.plan)
        chain, joins = manager.attached()[0]
        assert chain.k == 7 and joins == setup.joins
        ExecutionEngine(setup.plan, collect_rows=False).run()
        for join in setup.joins:
            assert manager.registry[id(join)].source.estimate() == join.tuples_emitted


class TestHardenedDemotion:
    """Every hook list has the ``(keys, rows)`` signature, so the guard
    covers the joins outside the hash-join family too: a raising hook
    demotes to dne and the query still returns its rows."""

    FAULTS = "estimator.hook:error:every=1"

    def _run_hardened(self, make_join, attach=None):
        reference = ExecutionEngine(make_join()).run()
        join = make_join()
        if attach is not None:
            attach(join)
        manager = EstimationManager(join)
        manager.harden(faults=parse_fault_spec(self.FAULTS))
        result = ExecutionEngine(join).run()
        assert result.rows == reference.rows
        assert manager.degraded
        assert id(join) not in manager.registry
        return manager

    def test_unattributed_hook_failure_demotes(self, skewed_pair):
        """A bare closure on an operator with no registry entry has no
        owner to demote: the guard degrades everything."""
        left, right = skewed_pair
        pred = col("left.nationkey") > col("right.nationkey")
        self._run_hardened(
            lambda: NestedLoopsJoin(SeqScan(left), SeqScan(right), pred),
            attach=lambda join: join.input_hooks[0].append(lambda keys, rows: None),
        )

    def test_sort_merge_join_hook_failure_demotes(self, skewed_pair):
        left, right = skewed_pair
        manager = self._run_hardened(
            lambda: SortMergeJoin(
                SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey"
            )
        )
        assert not manager.registry

    def test_raising_end_of_input_callback_demotes(self, skewed_pair):
        """The end-of-input channel is guarded like the data hooks: an
        estimator whose finalisation raises is demoted, nothing unwinds."""
        left, right = skewed_pair

        def make():
            return HashJoin(
                SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey"
            )

        reference = ExecutionEngine(make()).run()
        join = make()
        manager = EstimationManager(join)
        ((chain, _joins),) = manager.attached()
        fired = []

        def broken_finalize():
            fired.append(chain.t)
            raise RuntimeError("finalize failed")

        join.input_end_hooks[1][:] = [broken_finalize]
        manager.harden()
        result = ExecutionEngine(join).run()
        assert result.rows == reference.rows
        assert fired == [len(right)]  # once, after the whole probe input
        assert manager.degraded and "finalize failed" in manager.demotions[0][1]
        assert id(join) not in manager.registry

    def test_demoted_chain_takes_its_pushed_down_aggregate_with_it(self):
        """The fault skips the chain's one build batch, so the chain runs on
        an empty histogram, feeds the hybrid nothing and would finalise it
        at zero groups: an entry is only as sound as everything it is fed
        by, so demoting the chain removes the aggregate's entry too."""

        def make():
            b = customer_variant(1.0, 40, 1, 800, name="b")
            c = customer_variant(1.0, 40, 2, 800, name="c")
            join = HashJoin(SeqScan(b), SeqScan(c), "b.nationkey", "c.nationkey")
            return join, HashAggregate(join, ["c.nationkey"], [AggregateSpec("count")])

        reference = ExecutionEngine(make()[1]).run()
        join, agg = make()
        manager = EstimationManager(agg)
        assert len(manager.registry[id(agg)].fed_by) == 2  # pushed down
        manager.harden(faults=parse_fault_spec(self.FAULTS))
        result = ExecutionEngine(agg).run()
        assert result.rows == reference.rows and result.row_count == 40
        assert manager.degraded
        assert id(join) not in manager.registry
        assert id(agg) not in manager.registry
