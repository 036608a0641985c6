"""Tests for the expression language."""

from decimal import Decimal

import pytest

from repro.executor.engine import ExecutionEngine
from repro.executor.expressions import (
    And,
    Between,
    BinaryOp,
    Comparison,
    Const,
    InList,
    IsNull,
    Not,
    Or,
    col,
    lit,
)
from repro.executor.operators import Filter, Project, SeqScan
from repro.storage.schema import Schema
from repro.storage.table import Table

SCHEMA = Schema.of("a:int", "b:int", "name:str", qualifier="t")
ROW = (3, 7, "x")


def evaluate(expr):
    return expr.bind(SCHEMA)(ROW)


class TestAtoms:
    def test_col_lookup(self):
        assert evaluate(col("a")) == 3
        assert evaluate(col("t.b")) == 7

    def test_const(self):
        assert evaluate(lit(42)) == 42

    def test_referenced_columns(self):
        expr = (col("a") > lit(1)) & (col("b") < col("a"))
        assert expr.referenced_columns() == {"a", "b"}


class TestComparisons:
    @pytest.mark.parametrize(
        "op,expected",
        [("=", False), ("!=", True), ("<", True), ("<=", True), (">", False), (">=", False)],
    )
    def test_all_operators(self, op, expected):
        assert evaluate(Comparison(op, col("a"), col("b"))) is expected

    def test_eq_sugar_builds_comparison(self):
        expr = col("a") == lit(3)
        assert isinstance(expr, Comparison)
        assert evaluate(expr) is True

    def test_null_operand(self):
        assert evaluate(Comparison("=", col("name"), lit(None))) is False
        assert evaluate(Comparison("!=", col("name"), lit(None))) is True

    @pytest.mark.parametrize(
        "expr,expected",
        [
            (InList(col("a"), (1, 3, 5)), True),
            (InList(col("name"), ("y", None)), False),
            (Between(col("a"), lit(3), col("b")), True),
            (Between(col("b"), lit(0), col("a")), False),
            (IsNull(col("a")), False),
            (IsNull(col("a"), negated=True), True),
            (IsNull(lit(None)), True),
        ],
        ids=repr,
    )
    def test_membership_range_and_null_tests(self, expr, expected):
        assert evaluate(expr) is expected

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison("~", col("a"), col("b"))

    def test_plain_value_coerced_to_const(self):
        expr = col("a") < 5
        assert isinstance(expr.right, Const)
        assert evaluate(expr) is True


class TestBoolean:
    def test_and_or_not(self):
        assert evaluate(And(col("a") < 5, col("b") > 5)) is True
        assert evaluate(Or(col("a") > 5, col("b") > 5)) is True
        assert evaluate(Not(col("a") == 3)) is False

    def test_operator_sugar(self):
        assert evaluate((col("a") > 0) & (col("b") > 0)) is True
        assert evaluate((col("a") > 5) | (col("b") > 5)) is True
        assert evaluate(~(col("a") > 5)) is True


class TestArithmetic:
    def test_operations(self):
        assert evaluate(col("a") + col("b")) == 10
        assert evaluate(col("b") - col("a")) == 4
        assert evaluate(col("a") * lit(2)) == 6
        assert evaluate(col("b") / lit(2)) == 3.5

    def test_nested(self):
        expr = (col("a") + col("b")) * lit(10) > lit(99)
        assert evaluate(expr) is True

    def test_unknown_arith_rejected(self):
        with pytest.raises(ValueError):
            BinaryOp("%", col("a"), col("b"))


class TestBinding:
    def test_unknown_column_fails_at_bind_time(self):
        from repro.common.errors import SchemaError

        with pytest.raises(SchemaError):
            col("zzz").bind(SCHEMA)

    def test_repr_is_readable(self):
        expr = (col("a") > 1) & (col("name") == lit("x"))
        assert repr(expr) == "((a > 1) AND (name = 'x'))"

    def test_repr_spells_null_as_sql(self):
        assert repr(lit(None)) == "NULL"
        assert repr(InList(col("a"), ("x", None))) == "(a IN ('x', NULL))"


#: Constants whose Python ``repr`` is not a literal: compiled code reaches
#: them through the kernel's globals.
UNSPELLABLE = [float("inf"), float("-inf"), float("nan"), Decimal("2.5")]


class TestUnspellableConstants:
    ROWS = [(3, 7, "x"), (-1, 0, "y"), (2, 2, "z")]

    def run(self, make_op):
        return ExecutionEngine(make_op(SeqScan(Table("t", SCHEMA, self.ROWS)))).run().rows

    @staticmethod
    def spelled(values):
        # nan != nan, so compare spellings.
        return list(map(repr, values))

    @pytest.mark.parametrize("value", UNSPELLABLE, ids=repr)
    def test_constant_goes_through_ctx(self, value):
        ctx: dict[str, object] = {}
        name = lit(value).source(SCHEMA, ctx)
        assert list(ctx) == [name]
        assert ctx[name] is value

    @pytest.mark.parametrize("value", UNSPELLABLE, ids=repr)
    def test_bind_filter_project_agree_with_python(self, value):
        pred = col("a") < lit(value)
        expr = col("a") * lit(value)
        kept = [row for row in self.ROWS if row[0] < value]
        products = [row[0] * value for row in self.ROWS]

        assert [pred.bind(SCHEMA)(row) for row in self.ROWS] == [
            row[0] < value for row in self.ROWS
        ]
        assert self.spelled(map(expr.bind(SCHEMA), self.ROWS)) == self.spelled(products)
        assert self.run(lambda scan: Filter(scan, pred)) == kept
        projected = self.run(lambda scan: Project(scan, [("v", expr)]))
        assert self.spelled(projected) == self.spelled((p,) for p in products)
