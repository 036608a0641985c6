"""Scalar expressions over rows.

Expressions form small immutable trees (:class:`Col`, :class:`Const`,
comparisons, boolean connectives, arithmetic). Each node has exactly two
spellings:

* :meth:`Expression.source` renders it as a Python source fragment over a
  ``row`` variable, with column names already resolved to tuple positions
  (``=`` → ``==``, ``/`` → true division, ``AND`` → short-circuit on
  truthiness, ``IN`` → frozenset membership, ``BETWEEN`` → one chained
  comparison evaluating the operand once). This is the only evaluator:
  :meth:`Expression.bind` compiles ``lambda row: <source>`` for row-at-a-time
  callers, and :func:`compile_predicate_kernel` /
  :func:`compile_projection_kernel` splice the fragments into one
  list-comprehension lambda that evaluates a whole batch with zero per-row
  Python calls.
* ``repr`` is the SQL text (``NULL``, ``'text'``), which EXPLAIN, the
  analyzer and :func:`repro.sql.render.render_expression` print.

Expression trees can arrive from served SQL text, so the operator checks in
``__post_init__`` and ``_value_source``'s ``ctx`` route for values whose
Python ``repr`` is not a literal are input validation for the ``eval``
below, which also runs without builtins.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.storage.schema import Schema

__all__ = [
    "And",
    "Between",
    "BinaryOp",
    "Col",
    "Comparison",
    "Const",
    "Expression",
    "InList",
    "IsNull",
    "Not",
    "Or",
    "col",
    "compile_predicate_kernel",
    "compile_projection_kernel",
    "lit",
]

#: SQL spelling -> Python source spelling of the comparison operators.
_COMPARISON_SOURCE: dict[str, str] = {
    "=": "==",
    "==": "==",
    "!=": "!=",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}

#: Arithmetic operators, spelled alike in SQL and Python.
_ARITHMETIC_OPS = ("+", "-", "*", "/")


class Expression(ABC):
    """Base class for scalar expressions."""

    @abstractmethod
    def referenced_columns(self) -> frozenset[str]:
        """Names of all columns this expression reads."""

    @abstractmethod
    def source(self, schema: Schema, ctx: dict[str, object]) -> str:
        """Render this node as a Python source fragment over ``row``.

        Values that cannot be spelled as literals are registered in ``ctx``
        (name -> value) and referenced by name; ``ctx`` becomes the globals
        of the compiled function.
        """

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        """Compile to a ``row -> value`` function against ``schema``."""
        ctx: dict[str, object] = {}
        return _compile(f"lambda row: {self.source(schema, ctx)}", ctx)

    # Operator sugar so predicates read naturally:
    # col("a") == lit(3), (col("a") > 1) & (col("b") < 2)
    def __eq__(self, other):  # type: ignore[override]
        return Comparison("=", self, _as_expr(other))

    def __ne__(self, other):  # type: ignore[override]
        return Comparison("!=", self, _as_expr(other))

    def __lt__(self, other):
        return Comparison("<", self, _as_expr(other))

    def __le__(self, other):
        return Comparison("<=", self, _as_expr(other))

    def __gt__(self, other):
        return Comparison(">", self, _as_expr(other))

    def __ge__(self, other):
        return Comparison(">=", self, _as_expr(other))

    def __and__(self, other):
        return And(self, _as_expr(other))

    def __or__(self, other):
        return Or(self, _as_expr(other))

    def __invert__(self):
        return Not(self)

    def __add__(self, other):
        return BinaryOp("+", self, _as_expr(other))

    def __sub__(self, other):
        return BinaryOp("-", self, _as_expr(other))

    def __mul__(self, other):
        return BinaryOp("*", self, _as_expr(other))

    def __truediv__(self, other):
        return BinaryOp("/", self, _as_expr(other))

    def __hash__(self):
        return hash(repr(self))


def _as_expr(value: object) -> Expression:
    return value if isinstance(value, Expression) else Const(value)


def _value_source(value: object, ctx: dict[str, object]) -> str:
    """Spell ``value`` as a source fragment, via ``ctx`` when repr() does
    not round-trip (inf/nan floats, arbitrary objects)."""
    if value is None or value is True or value is False:
        return repr(value)
    if isinstance(value, (int, str, bytes)):
        return repr(value)
    if isinstance(value, float) and value == value and value not in (
        float("inf"),
        float("-inf"),
    ):
        return repr(value)
    name = f"_c{len(ctx)}"
    ctx[name] = value
    return name


@dataclass(frozen=True, eq=False)
class Col(Expression):
    """Reference to a column by (optionally qualified) name."""

    name: str

    def source(self, schema: Schema, ctx: dict[str, object]) -> str:
        return f"row[{schema.index_of(self.name)}]"

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Const(Expression):
    """A literal value."""

    value: object

    def source(self, schema: Schema, ctx: dict[str, object]) -> str:
        return _value_source(self.value, ctx)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)


@dataclass(frozen=True, eq=False)
class Comparison(Expression):
    """Binary comparison (=, !=, <, <=, >, >=)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self):
        if self.op not in _COMPARISON_SOURCE:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def source(self, schema: Schema, ctx: dict[str, object]) -> str:
        lhs = self.left.source(schema, ctx)
        rhs = self.right.source(schema, ctx)
        return f"({lhs} {_COMPARISON_SOURCE[self.op]} {rhs})"

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True, eq=False)
class BinaryOp(Expression):
    """Arithmetic expression (+, -, *, /)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self):
        if self.op not in _ARITHMETIC_OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def source(self, schema: Schema, ctx: dict[str, object]) -> str:
        lhs = self.left.source(schema, ctx)
        rhs = self.right.source(schema, ctx)
        return f"({lhs} {self.op} {rhs})"

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True, eq=False)
class And(Expression):
    left: Expression
    right: Expression

    def source(self, schema: Schema, ctx: dict[str, object]) -> str:
        lhs = self.left.source(schema, ctx)
        rhs = self.right.source(schema, ctx)
        return f"(bool({lhs}) and bool({rhs}))"

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


@dataclass(frozen=True, eq=False)
class Or(Expression):
    left: Expression
    right: Expression

    def source(self, schema: Schema, ctx: dict[str, object]) -> str:
        lhs = self.left.source(schema, ctx)
        rhs = self.right.source(schema, ctx)
        return f"(bool({lhs}) or bool({rhs}))"

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


@dataclass(frozen=True, eq=False)
class Not(Expression):
    child: Expression

    def source(self, schema: Schema, ctx: dict[str, object]) -> str:
        return f"(not {self.child.source(schema, ctx)})"

    def referenced_columns(self) -> frozenset[str]:
        return self.child.referenced_columns()

    def __repr__(self) -> str:
        return f"(NOT {self.child!r})"


@dataclass(frozen=True, eq=False)
class InList(Expression):
    """``expr IN (v1, v2, ...)`` over literal values."""

    child: Expression
    values: tuple

    def source(self, schema: Schema, ctx: dict[str, object]) -> str:
        name = f"_c{len(ctx)}"
        ctx[name] = frozenset(self.values)
        return f"({self.child.source(schema, ctx)} in {name})"

    def referenced_columns(self) -> frozenset[str]:
        return self.child.referenced_columns()

    def __repr__(self) -> str:
        rendered = ", ".join(repr(Const(v)) for v in self.values)
        return f"({self.child!r} IN ({rendered}))"


@dataclass(frozen=True, eq=False)
class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive, SQL semantics)."""

    child: Expression
    low: Expression
    high: Expression

    def source(self, schema: Schema, ctx: dict[str, object]) -> str:
        # A chained comparison evaluates the middle operand exactly once.
        inner = self.child.source(schema, ctx)
        low = self.low.source(schema, ctx)
        high = self.high.source(schema, ctx)
        return f"({low} <= {inner} <= {high})"

    def referenced_columns(self) -> frozenset[str]:
        return (
            self.child.referenced_columns()
            | self.low.referenced_columns()
            | self.high.referenced_columns()
        )

    def __repr__(self) -> str:
        return f"({self.child!r} BETWEEN {self.low!r} AND {self.high!r})"


@dataclass(frozen=True, eq=False)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    child: Expression
    negated: bool = False

    def source(self, schema: Schema, ctx: dict[str, object]) -> str:
        middle = "is not" if self.negated else "is"
        return f"({self.child.source(schema, ctx)} {middle} None)"

    def referenced_columns(self) -> frozenset[str]:
        return self.child.referenced_columns()

    def __repr__(self) -> str:
        middle = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.child!r} {middle})"


def _compile(text: str, ctx: dict[str, object]) -> Callable:
    """Evaluate generated lambda ``text`` with ``ctx`` as its globals."""
    namespace = {"__builtins__": {}, "bool": bool, **ctx}
    return eval(text, namespace)  # noqa: S307 - source is generated, not user input


def compile_predicate_kernel(
    predicate: Expression, schema: Schema
) -> Callable[[list[tuple]], list[tuple]]:
    """Compile a predicate into a ``batch -> surviving rows`` kernel: one
    list comprehension over the rendered source fragment, so a whole batch
    is filtered with zero per-row Python calls."""
    ctx: dict[str, object] = {}
    src = predicate.source(schema, ctx)
    return _compile(f"lambda batch: [row for row in batch if {src}]", ctx)


def compile_projection_kernel(
    expressions: Sequence[Expression], schema: Schema
) -> Callable[[list[tuple]], list[tuple]]:
    """Compile projection expressions into a ``batch -> projected rows``
    kernel building one output tuple per row in a single comprehension."""
    ctx: dict[str, object] = {}
    parts = [expr.source(schema, ctx) for expr in expressions]
    # A parenthesized one-element "tuple display" needs the trailing comma.
    tuple_src = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    return _compile(f"lambda batch: [{tuple_src} for row in batch]", ctx)


def col(name: str) -> Col:
    """Shorthand constructor for a column reference."""
    return Col(name)


def lit(value: object) -> Const:
    """Shorthand constructor for a literal."""
    return Const(value)
