"""Tests for the plan semantic analyzer (analysis Pass 1, P/J/A/I/C codes)."""

import pytest

from repro.analysis.plancheck import analyze_plan
from repro.common.errors import AnalysisError, PlanError
from repro.executor.operators import (
    AggregateSpec,
    Filter,
    HashAggregate,
    HashJoin,
    IndexScan,
    SeqScan,
)
from repro.executor.plan import check_plan, validate_plan, walk
from repro.executor.expressions import Comparison, col, lit
from repro.storage.schema import Schema
from repro.storage.table import Table


def int_table(name, rows=((1, 10), (2, 20))):
    return Table(name, Schema.of("k:int", "v:int"), rows)


def str_key_table(name):
    return Table(name, Schema.of("k:str", "v:int"), [("1", 10), ("2", 20)])


class TestCleanPlans:
    def test_simple_join_is_clean(self):
        join = HashJoin(
            SeqScan(int_table("b")), SeqScan(int_table("p")), "b.k", "p.k"
        )
        report = analyze_plan(join)
        assert not report.has_errors
        assert not report.warnings

    def test_all_workloads_analyze_clean(self):
        from repro.workloads import (
            paper_binary_join,
            paper_pipeline_diff_attr,
            paper_pipeline_same_attr,
            paper_pkfk_join_with_selection,
        )

        setups = [
            paper_binary_join(z=1.0, domain_size=20, num_rows=100, seed=1),
            paper_pkfk_join_with_selection(
                domain_size=50, num_rows=100, selection_cutoff=25, seed=1
            ),
            paper_pipeline_same_attr(z=1.0, domain_size=20, num_rows=100, seed=1),
            paper_pipeline_diff_attr(
                case=1, lower_z=1.0, upper_z=1.0, domain_size=20, num_rows=100, seed=1
            ),
            paper_pipeline_diff_attr(
                case=2, lower_z=1.0, upper_z=1.0, domain_size=20, num_rows=100, seed=1
            ),
        ]
        for setup in setups:
            report = analyze_plan(setup.plan)
            assert not report.has_errors, report.render()


class TestJoinKeys:
    def test_j002_mistyped_join_without_execution(self):
        """Acceptance: int-vs-string key join is a named diagnostic, statically."""
        build = SeqScan(int_table("b"))
        probe = SeqScan(str_key_table("p"))
        join = HashJoin(build, probe, "b.k", "p.k")
        report = analyze_plan(join)
        assert "J002" in report.codes()
        assert report.has_errors
        # Purely static: no operator ever produced a tuple.
        assert all(op.tuples_emitted == 0 for op in walk(join))

    def test_j002_raises_in_strict_mode(self):
        join = HashJoin(
            SeqScan(int_table("b")), SeqScan(str_key_table("p")), "b.k", "p.k"
        )
        with pytest.raises(AnalysisError) as exc:
            check_plan(join, mode="strict")
        assert "J002" in str(exc.value)
        assert exc.value.report is not None
        # AnalysisError stays catchable as PlanError for existing callers.
        assert isinstance(exc.value, PlanError)

    def test_j003_int_float_width_warning(self):
        floaty = Table("f", Schema.of("k:float", "v:int"), [(1.0, 10)])
        join = HashJoin(SeqScan(int_table("b")), SeqScan(floaty), "b.k", "f.k")
        report = analyze_plan(join)
        assert "J003" in report.codes()
        assert not report.has_errors  # warning only

    def test_j001_unresolvable_key(self):
        join = HashJoin(
            SeqScan(int_table("b")), SeqScan(int_table("p")), "b.zzz", "p.k"
        )
        report = analyze_plan(join)
        assert "J001" in report.codes()


class TestStructure:
    def test_p001_shared_subplan(self):
        join = HashJoin(SeqScan(int_table("b")), SeqScan(int_table("p")), "b.k", "p.k")
        join.probe_child = join.build_child  # alias one scan into both edges
        report = analyze_plan(join)
        assert "P001" in report.codes()

    def test_p002_blocking_index_out_of_range(self):
        class _Rogue(Filter):
            blocking_child_indexes = (5,)

        op = _Rogue(SeqScan(int_table("t")), Comparison(">", col("t.v"), lit(0)))
        report = analyze_plan(op)
        assert "P002" in report.codes()

    def test_p003_driver_index_out_of_range(self):
        class _Rogue(Filter):
            driver_child_index = 7

        op = _Rogue(SeqScan(int_table("t")), Comparison(">", col("t.v"), lit(0)))
        report = analyze_plan(op)
        assert "P003" in report.codes()

    def test_p004_exhausted_plan_not_runnable(self):
        scan = SeqScan(int_table("t"))
        scan.open()
        while scan.next() is not None:
            pass
        report = analyze_plan(scan)
        assert "P004" in report.codes()

    def test_p005_and_i001_bad_driver_declaration(self):
        """Acceptance: a mis-declared driver_child_index is caught statically."""

        class _BadDriverJoin(HashJoin):
            driver_child_index = 0  # drives the blocking build side

        join = _BadDriverJoin(
            SeqScan(int_table("b")), SeqScan(int_table("p")), "b.k", "p.k"
        )
        report = analyze_plan(join)
        assert {"P005", "I001"} <= report.codes()
        assert report.has_errors
        assert all(op.tuples_emitted == 0 for op in walk(join))

    def test_i002_unclassified_child_edge(self):
        class _Unclassified(HashJoin):
            blocking_child_indexes = ()
            driver_child_index = None

        join = _Unclassified(
            SeqScan(int_table("b")), SeqScan(int_table("p")), "b.k", "p.k"
        )
        report = analyze_plan(join)
        assert "I002" in report.codes()
        assert "I001" in report.codes()


class TestAggregates:
    def make_agg(self, group_by=(), specs=()):
        return HashAggregate(SeqScan(int_table("t")), tuple(group_by), tuple(specs))

    def test_a003_unknown_group_column(self):
        # The constructor validates eagerly, so emulate a plan rewrite that
        # stales the group list after the schema was derived.
        agg = self.make_agg(group_by=("t.k",))
        agg.group_by = ("t.nope",)
        report = analyze_plan(agg)
        assert "A003" in report.codes()

    def test_a001_unknown_aggregate_input(self):
        report = analyze_plan(
            self.make_agg(specs=(AggregateSpec("sum", "t.nope", "s"),))
        )
        assert "A001" in report.codes()

    def test_a002_sum_over_string(self):
        agg = HashAggregate(
            SeqScan(str_key_table("t")),
            (),
            (AggregateSpec("sum", "t.k", "s"),),
        )
        report = analyze_plan(agg)
        assert "A002" in report.codes()

    def test_count_star_is_clean(self):
        report = analyze_plan(
            self.make_agg(group_by=("t.k",), specs=(AggregateSpec("count", None, "n"),))
        )
        assert not report.has_errors


class TestChainClassification:
    def test_same_attr_chain_is_c001(self):
        from repro.workloads import paper_pipeline_same_attr

        setup = paper_pipeline_same_attr(z=1.0, domain_size=20, num_rows=100, seed=1)
        codes = analyze_plan(setup.plan).codes()
        assert "C001" in codes
        assert "C003" not in codes

    def test_diff_attr_case1_is_c002(self):
        from repro.workloads import paper_pipeline_diff_attr

        setup = paper_pipeline_diff_attr(
            case=1, lower_z=1.0, upper_z=1.0, domain_size=20, num_rows=100, seed=1
        )
        codes = analyze_plan(setup.plan).codes()
        assert "C002" in codes
        assert "C003" not in codes

    def test_diff_attr_case2_is_c003(self):
        from repro.workloads import paper_pipeline_diff_attr

        setup = paper_pipeline_diff_attr(
            case=2, lower_z=1.0, upper_z=1.0, domain_size=20, num_rows=100, seed=1
        )
        codes = analyze_plan(setup.plan).codes()
        assert "C003" in codes

    def test_codes_follow_the_estimators_provenance(self):
        """One classifier: each upper join's C-code is the one the chain
        estimator's own provenance implies."""
        from repro.core.pipeline_estimators import (
            HashJoinChainEstimator,
            find_hash_join_chains,
        )
        from repro.datagen import generate_tpch
        from repro.sql import compile_select
        from repro.workloads import (
            paper_pipeline_diff_attr,
            paper_pipeline_same_attr,
            tpch_q8_like,
        )

        j3_agg = (
            "SELECT c.mktsegment, COUNT(*) AS n, SUM(l.extendedprice) AS s "
            "FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey "
            "JOIN customer c ON o.custkey = c.custkey GROUP BY c.mktsegment"
        )
        plans = [
            paper_pipeline_same_attr(z=1.0, domain_size=20, num_rows=100, seed=1).plan,
            *(
                paper_pipeline_diff_attr(
                    case=case, lower_z=1.0, upper_z=1.0, domain_size=20, num_rows=100, seed=1
                ).plan
                for case in (1, 2)
            ),
            tpch_q8_like(sf=0.001, seed=1).plan,
            compile_select(generate_tpch(sf=0.001, seed=1), j3_agg).plan,
        ]
        for plan in plans:
            got = [
                (d.location, d.code)
                for d in analyze_plan(plan)
                if d.code in ("C001", "C002", "C003")
            ]
            want = []
            for chain in find_hash_join_chains(plan):
                prov = HashJoinChainEstimator(chain).provenance
                want += [
                    (
                        f"node {join.describe()}",
                        "C003" if p.kind == "B" else "C001" if p.index == prov[0].index else "C002",
                    )
                    for join, p in zip(chain[1:], prov[1:])
                ]
            assert want and got == want

    def test_c101_multi_column_chain_gets_binary_once(self):
        lower = HashJoin(
            SeqScan(int_table("b")), SeqScan(int_table("p")), ["b.k", "b.v"], ["p.k", "p.v"]
        )
        upper = HashJoin(SeqScan(int_table("u")), lower, "u.k", "p.k")
        (c101,) = [d for d in analyze_plan(upper) if d.code == "C101"]
        assert "binary ONCE" in c101.message

    def test_c102_index_fed_chain_base(self):
        base = int_table("p", rows=[(i % 5, i) for i in range(20)])
        join = HashJoin(
            SeqScan(int_table("b")), IndexScan(base, "p.k"), "b.k", "p.k"
        )
        report = analyze_plan(join)
        assert "C102" in report.codes()
        assert not report.has_errors


class TestCheckPlanApi:
    def test_advisory_returns_report(self):
        join = HashJoin(
            SeqScan(int_table("b")), SeqScan(str_key_table("p")), "b.k", "p.k"
        )
        report = check_plan(join, mode="advisory")
        assert report.has_errors

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            check_plan(SeqScan(int_table("t")), mode="loose")


class _RogueBlocking(Filter):
    blocking_child_indexes = (5,)


class _RogueDriver(Filter):
    driver_child_index = 7


class _DriverAlsoBlocking(HashJoin):
    driver_child_index = 0  # drives the blocking build side


def _join(cls=HashJoin):
    return cls(SeqScan(int_table("b")), SeqScan(int_table("p")), "b.k", "p.k")


def _shared():
    join = _join()
    join.probe_child = join.build_child  # alias one scan into both edges
    return join


def _rogue(cls):
    return cls(SeqScan(int_table("t")), Comparison(">", col("t.v"), lit(0)))


def _exhausted():
    scan = SeqScan(int_table("t"))
    scan.open()
    while scan.next() is not None:
        pass
    return scan


class TestOneStructuralGate:
    """The executor's gate and the analyzer run one set of structural rules:
    a plan runs exactly when the analyzer reports no P error."""

    @pytest.mark.parametrize(
        "make, code",
        [
            (_join, None),
            (_shared, "P001"),
            (lambda: _rogue(_RogueBlocking), "P002"),
            (lambda: _rogue(_RogueDriver), "P003"),
            (_exhausted, "P004"),
            (lambda: _join(_DriverAlsoBlocking), "P005"),
        ],
        ids=["clean", "P001", "P002", "P003", "P004", "P005"],
    )
    def test_validate_plan_agrees_with_the_analyzer(self, make, code):
        plan = make()
        p_errors = [d.code for d in analyze_plan(plan).errors if d.code.startswith("P")]
        assert p_errors[:1] == ([code] if code else [])
        if code is None:
            validate_plan(plan)
        else:
            with pytest.raises(PlanError, match=f"^{code} "):
                validate_plan(plan)
