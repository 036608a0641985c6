"""Property tests for canonical plan fingerprints.

Stability half: the same query — under fresh operator instantiation,
different table aliases, different whitespace/formatting, permuted
SELECT-list order, commuted equality operands — must hash identically.
Sensitivity half: changing a join key, a predicate constant, or a
comparison direction must change the hash. The stability properties run
over the differential-batch harness's seeded random plan generator, so
they cover the same plan space the row-vs-batch oracle does.
"""

from __future__ import annotations

import pytest

from repro.datagen.skew import customer_variant
from repro.executor.expressions import (
    Between,
    BinaryOp,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
    col,
    lit,
)
from repro.executor.operators import Filter, HashJoin, Project, SeqScan
from repro.executor.plan import validate_plan, walk
from repro.robust import canonical_expression, fingerprint_plan
from repro.sql import compile_select
from repro.storage.catalog import Catalog

from tests.test_differential_batch import NUM_PLANS, build_plan

#: Trials for the property sweep — the full generator space.
TRIALS = range(NUM_PLANS)


@pytest.fixture(scope="module")
def db():
    catalog = Catalog()
    catalog.register(
        customer_variant(z=0.5, domain_size=25, variant=0, num_rows=300, name="customer")
    )
    catalog.register(
        customer_variant(z=1.0, domain_size=25, variant=1, num_rows=200, name="cust2")
    )
    return catalog


def digest_of_sql(db, sql: str) -> str:
    return fingerprint_plan(compile_select(db, sql).plan).digest


class TestGeneratorStability:
    """Same trial → same digest, across fresh operator instantiations."""

    @pytest.mark.parametrize("trial", TRIALS)
    def test_rebuilt_plan_hashes_equal(self, trial):
        first = fingerprint_plan(build_plan(trial))
        second = fingerprint_plan(build_plan(trial))
        assert first.digest == second.digest
        assert first.signature == second.signature

    def test_subtree_digests_stable_and_cover_every_node(self):
        for trial in range(0, NUM_PLANS, 7):
            a, b = build_plan(trial), build_plan(trial)
            validate_plan(a)  # assigns node ids
            validate_plan(b)
            fa, fb = fingerprint_plan(a), fingerprint_plan(b)
            assert fa.nodes == fb.nodes
            assert set(fa.nodes) == {op.node_id for op in walk(a)}

    def test_distinct_trials_mostly_hash_distinct(self):
        """Sanity: the digest actually discriminates across the generator's
        plan space (collisions only where the generator repeats shapes)."""
        signatures = {}
        for trial in TRIALS:
            fp = fingerprint_plan(build_plan(trial))
            signatures.setdefault(fp.digest, fp.signature)
            # A digest collision across *different* signatures is a bug.
            assert signatures[fp.digest] == fp.signature
        assert len(signatures) > NUM_PLANS // 2


class TestAliasInvariance:
    def test_aliased_tables_hash_equal(self):
        for trial in range(0, NUM_PLANS, 5):
            plain = fingerprint_plan(build_plan(trial))
            aliased = build_plan(trial)
            for op in walk(aliased):
                table = getattr(op, "table", None)
                if table is not None:
                    op.table = table.aliased(table.name + "_alias")
            assert fingerprint_plan(aliased).digest == plain.digest

    def test_sql_alias_choice_is_invisible(self, db):
        a = digest_of_sql(
            db, "SELECT c.custkey FROM customer c WHERE c.nationkey > 5"
        )
        b = digest_of_sql(
            db, "SELECT zz.custkey FROM customer zz WHERE zz.nationkey > 5"
        )
        assert a == b

    def test_self_join_variants_canonicalize_to_one_base(self, db):
        a = digest_of_sql(
            db,
            "SELECT c1.custkey, c2.custkey FROM customer c1"
            " JOIN customer c2 ON c1.nationkey = c2.nationkey",
        )
        b = digest_of_sql(
            db,
            "SELECT x.custkey, y.custkey FROM customer x"
            " JOIN customer y ON x.nationkey = y.nationkey",
        )
        assert a == b


class TestFormattingInvariance:
    def test_whitespace_and_case_noise_is_invisible(self, db):
        a = digest_of_sql(
            db, "SELECT c.custkey FROM customer c WHERE c.nationkey > 5"
        )
        b = digest_of_sql(
            db,
            "select   c.custkey\n  from customer c\n"
            " WHERE\n\tc.nationkey > 5",
        )
        assert a == b

    def test_select_list_order_is_invisible(self, db):
        a = digest_of_sql(db, "SELECT c.custkey, c.name FROM customer c")
        b = digest_of_sql(db, "SELECT c.name, c.custkey FROM customer c")
        assert a == b

    def test_commuted_equality_operands_hash_equal(self, db):
        a = digest_of_sql(
            db,
            "SELECT c.custkey FROM customer c JOIN cust2 d"
            " ON c.nationkey = d.nationkey",
        )
        b = digest_of_sql(
            db,
            "SELECT c.custkey FROM customer c JOIN cust2 d"
            " ON d.nationkey = c.nationkey",
        )
        assert a == b

    def test_commuted_and_terms_hash_equal(self):
        pred_ab = (col("c.nationkey") > lit(3)) & (col("c.custkey") < lit(9))
        pred_ba = (col("c.custkey") < lit(9)) & (col("c.nationkey") > lit(3))
        assert canonical_expression(pred_ab) == canonical_expression(pred_ba)


class TestSensitivity:
    """The other half of the contract: semantic changes must change the hash."""

    def base_table(self):
        return customer_variant(
            z=0.5, domain_size=25, variant=0, num_rows=300, name="customer"
        )

    def test_changed_predicate_constant_changes_digest(self):
        t = self.base_table()
        a = Filter(SeqScan(t), col("customer.nationkey") > lit(5))
        b = Filter(SeqScan(t), col("customer.nationkey") > lit(6))
        assert fingerprint_plan(a).digest != fingerprint_plan(b).digest

    def test_changed_comparison_direction_changes_digest(self):
        t = self.base_table()
        a = Filter(SeqScan(t), col("customer.nationkey") > lit(5))
        b = Filter(SeqScan(t), col("customer.nationkey") < lit(5))
        assert fingerprint_plan(a).digest != fingerprint_plan(b).digest

    def test_changed_join_key_changes_digest(self):
        t = self.base_table()
        a = HashJoin(
            SeqScan(t), SeqScan(t.aliased("c2")),
            "customer.nationkey", "c2.nationkey",
        )
        b = HashJoin(
            SeqScan(t), SeqScan(t.aliased("c2")),
            "customer.custkey", "c2.custkey",
        )
        assert fingerprint_plan(a).digest != fingerprint_plan(b).digest

    def test_changed_join_type_changes_digest(self):
        t = self.base_table()
        args = (SeqScan(t), SeqScan(t.aliased("c2")),
                "customer.nationkey", "c2.nationkey")
        a = HashJoin(*args, join_type="inner")
        b = HashJoin(*args, join_type="semi")
        assert fingerprint_plan(a).digest != fingerprint_plan(b).digest

    def test_changed_projection_changes_digest(self):
        t = self.base_table()
        a = Project(SeqScan(t), ["customer.custkey"])
        b = Project(SeqScan(t), ["customer.name"])
        assert fingerprint_plan(a).digest != fingerprint_plan(b).digest

    def test_different_base_table_changes_digest(self):
        a = SeqScan(self.base_table())
        b = SeqScan(
            customer_variant(
                z=0.5, domain_size=25, variant=0, num_rows=300, name="other"
            )
        )
        assert fingerprint_plan(a).digest != fingerprint_plan(b).digest

    def test_execution_knobs_do_not_change_digest(self):
        """The converse guard: partitioning knobs are not semantics."""
        t = self.base_table()
        a = HashJoin(
            SeqScan(t), SeqScan(t.aliased("c2")),
            "customer.nationkey", "c2.nationkey", num_partitions=1,
        )
        b = HashJoin(
            SeqScan(t), SeqScan(t.aliased("c2")),
            "customer.nationkey", "c2.nationkey",
            num_partitions=8, memory_partitions=2,
        )
        assert fingerprint_plan(a).digest == fingerprint_plan(b).digest


class TestPinnedText:
    """Literal fingerprint text, so history stores written by earlier
    versions keep matching whatever renders the expressions."""

    def test_canonical_expression_of_every_node_kind(self):
        pred = (
            Or(
                Comparison("=", lit(5), col("c.nationkey")),
                Not(IsNull(col("c.name"))),
            )
            & InList(col("c.name"), ("x", None, "b"))
            & Between(BinaryOp("*", lit(2.5), col("c.custkey")), lit(1), lit(10.0))
            & IsNull(col("d.name"), negated=True)
            & Comparison("!=", col("c.name"), lit(None))
        )
        assert canonical_expression(pred) == (
            "(((2.5 * custkey) BETWEEN 1 AND 10.0)"
            " AND ((5 = nationkey) OR (NOT (name IS NULL)))"
            " AND (NULL != name)"
            " AND (name IN ('b', 'x', NULL))"
            " AND (name IS NOT NULL))"
        )

    def test_digest_of_a_compiled_join_query(self, db):
        fp = fingerprint_plan(
            compile_select(
                db,
                "SELECT c.nationkey, COUNT(*) AS n FROM customer c JOIN cust2 d"
                " ON c.nationkey = d.nationkey"
                " WHERE c.custkey > 10 AND d.name != 'x' GROUP BY c.nationkey",
            ).plan
        )
        assert fp.signature == (
            "(project [n nationkey] (hashaggregate [nationkey] [count(*)]"
            " (hashjoin inner [nationkey] [nationkey]"
            " (filter ('x' != name) (seqscan cust2))"
            " (filter (custkey > 10) (seqscan customer)))))"
        )
        assert fp.digest == "d53dd916f587292c"
