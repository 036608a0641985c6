"""Canonical plan fingerprints and run-history records.

The robust-estimation subsystem (König et al., *A Statistical Approach
Towards Robust Progress Estimation*) keys everything it remembers about a
query by a **plan fingerprint**: a structural hash of the physical plan
tree. Two submissions of the same query — under different table aliases,
whitespace, SELECT-list order or join-input partitioning knobs — must hash
identically, while changing a join key or a predicate constant must hash
differently. The fingerprint is what lets a cold server recognise "I have
run this plan before" and seed the optimizer's cardinalities from those
runs.

Canonical form
--------------
Each operator renders to an S-expression over:

* its *kind* (the physical operator class, lower-cased);
* its base relation (``Table.base_name``, which survives ``aliased()``
  views — the paper's ``C``/``C¹``/``C²`` self-join variants all
  canonicalize to the one underlying ``customer``);
* join keys / sort keys / grouping columns with qualifiers stripped
  (``c1.k`` → ``k``);
* predicates rendered via :mod:`repro.sql.render` after qualifier
  stripping, with commutative operands (``AND``/``OR``, ``=``/``!=``,
  ``IN`` lists, ``+``/``*``) sorted so operand order cannot leak into the
  hash;
* unordered column lists (SELECT items, GROUP BY) sorted.

Execution knobs that do not change *what* the plan computes — hash-join
``num_partitions``/``memory_partitions``, block sizes — are excluded.

Besides the whole-plan digest, the same walk emits a digest per *subtree*
(keyed by pre-order position, the ``node_id`` the plan's operators get
when it opens): subtree digests are stable across runs of
equivalent plans, which is what the statistics-feedback loop keys observed
cardinalities by (node ids are only stable within one plan shape).

Records
-------
:class:`RunRecord` is the JSONL payload the store appends per finished
run: the progress curve, final per-subtree cardinalities, base-table row
counts at observation time (for the staleness bound) and wall time.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from repro.executor.expressions import (
    And,
    Between,
    BinaryOp,
    Col,
    Comparison,
    Const,
    Expression,
    InList,
    IsNull,
    Not,
    Or,
)
from repro.executor.operators.base import Operator
from repro.executor.plan import walk
from repro.sql.render import render_expression

__all__ = [
    "PlanFingerprint",
    "RunRecord",
    "base_table_rows",
    "canonical_expression",
    "fingerprint_plan",
]

#: Digest length (hex chars) — 64 bits of sha256 is plenty for a plan cache.
_DIGEST_LEN = 16

#: Comparison operators whose operand order is semantically irrelevant.
_SYMMETRIC_OPS = ("=", "==", "!=", "<>")

#: Arithmetic operators that commute (operand order sorted in the hash).
_COMMUTATIVE_BINOPS = ("+", "*")


def _bare(name: str) -> str:
    """Strip the relation qualifier off a column name (``c1.k`` → ``k``)."""
    return name.rsplit(".", 1)[-1]


def _flatten(expr: Expression, kind: type) -> list[Expression]:
    """Flatten nested same-type And/Or chains into one operand list."""
    if isinstance(expr, kind):
        return _flatten(expr.left, kind) + _flatten(expr.right, kind)
    return [expr]


def canonical_expression(expr: Expression) -> str:
    """Alias- and order-insensitive text form of a predicate tree.

    Mirrors :func:`repro.sql.render.render_expression` (which remains the
    renderer of record for constants and any node kind this walk does not
    special-case) with column qualifiers stripped and commutative operand
    lists sorted.
    """
    if isinstance(expr, Col):
        return _bare(expr.name)
    if isinstance(expr, Const):
        return render_expression(expr)
    if isinstance(expr, Comparison):
        left = canonical_expression(expr.left)
        right = canonical_expression(expr.right)
        if expr.op in _SYMMETRIC_OPS:
            left, right = sorted((left, right))
        return f"({left} {expr.op} {right})"
    if isinstance(expr, (And, Or)):
        word = "AND" if isinstance(expr, And) else "OR"
        terms = sorted(canonical_expression(t) for t in _flatten(expr, type(expr)))
        return "(" + f" {word} ".join(terms) + ")"
    if isinstance(expr, Not):
        return f"(NOT {canonical_expression(expr.child)})"
    if isinstance(expr, InList):
        values = sorted(render_expression(Const(v)) for v in expr.values)
        return f"({canonical_expression(expr.child)} IN ({', '.join(values)}))"
    if isinstance(expr, Between):
        return (
            f"({canonical_expression(expr.child)} BETWEEN "
            f"{canonical_expression(expr.low)} AND {canonical_expression(expr.high)})"
        )
    if isinstance(expr, IsNull):
        middle = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({canonical_expression(expr.child)} {middle})"
    if isinstance(expr, BinaryOp):
        left = canonical_expression(expr.left)
        right = canonical_expression(expr.right)
        if expr.op in _COMMUTATIVE_BINOPS:
            left, right = sorted((left, right))
        return f"({left} {expr.op} {right})"
    # Unknown node kinds fall back to the SQL renderer verbatim: stable,
    # just not alias-normalized — better than refusing to fingerprint.
    return render_expression(expr)


def _column_list(names) -> str:
    return "[" + " ".join(sorted(_bare(str(n)) for n in names)) + "]"


def _node_signature(op: Operator, child_sigs: list[str]) -> str:
    """Canonical S-expression for one operator given its children's forms."""
    kind = type(op).__name__.lower()
    head: list[str] = [kind]
    if kind == "seqscan":
        head.append(op.table.base_name)
    elif kind == "indexscan":
        head.append(op.table.base_name)
        head.append(_bare(op.key))
        head.append(repr(op.low))
        head.append(repr(op.high))
    elif kind == "samplescan":
        head.append(op.table.base_name)
        head.append(repr(op.fraction))
        head.append(repr(op.seed))
    elif kind == "filter":
        head.append(canonical_expression(op.predicate))
    elif kind == "project":
        items = []
        for column in op.columns:
            if isinstance(column, tuple):
                _alias, expr = column
                items.append(canonical_expression(expr))
            else:
                items.append(_bare(str(column)))
        head.append("[" + " ".join(sorted(items)) + "]")
    elif kind == "sort":
        # Sort-key *order* is semantics; only qualifiers are stripped.
        head.append("[" + " ".join(_bare(k) for k in op.keys) + "]")
        head.append(f"desc={op.descending}")
    elif kind == "limit":
        head.append(repr(op.n))
    elif kind == "hashjoin":
        head.append(op.join_type)
        head.append(_column_list(op.build_keys))
        head.append(_column_list(op.probe_keys))
    elif kind == "sortmergejoin":
        head.append(_bare(op.left_key))
        head.append(_bare(op.right_key))
    elif kind == "indexnestedloopsjoin":
        head.append(_bare(op.outer_key))
        head.append(_bare(op.inner_key))
    elif kind == "nestedloopsjoin":
        if op.predicate is not None:
            head.append(canonical_expression(op.predicate))
    elif kind in ("hashaggregate", "sortaggregate"):
        head.append(_column_list(op.group_by))
        specs = sorted(
            f"{spec.func}({_bare(spec.column) if spec.column else '*'})"
            for spec in op.aggregates
        )
        head.append("[" + " ".join(specs) + "]")
    # distinct / materialize and any future structural no-arg operator:
    # the kind plus children is the whole signature.
    return "(" + " ".join(head + child_sigs) + ")"


def _digest(signature: str) -> str:
    return hashlib.sha256(signature.encode()).hexdigest()[:_DIGEST_LEN]


@dataclass(frozen=True)
class PlanFingerprint:
    """The canonical identity of a physical plan.

    ``digest`` keys the history store; ``signature`` is the human-readable
    canonical form (``repro history show`` prints it); ``nodes`` maps each
    ``node_id`` of *this* plan instance to its subtree digest — the
    cross-run-stable key for per-node observed cardinalities.

    A node's id is its pre-order position, the id
    :func:`~repro.executor.plan.validate_plan` assigns when the plan opens;
    ``nodes`` is numbered the same way, so a fingerprint taken before or
    after the plan opens maps every node.
    """

    digest: str
    signature: str
    nodes: dict[int, str] = field(default_factory=dict)


def fingerprint_plan(root: Operator) -> PlanFingerprint:
    """Fingerprint a plan tree (see the module docstring for the grammar)."""
    nodes: dict[int, str] = {}
    preorder = itertools.count()

    def visit(op: Operator) -> str:
        node_id = next(preorder)
        child_sigs = [visit(child) for child in op.children()]
        signature = _node_signature(op, child_sigs)
        nodes[node_id] = _digest(signature)
        return signature

    signature = visit(root)
    return PlanFingerprint(digest=_digest(signature), signature=signature, nodes=nodes)


def base_table_rows(root: Operator) -> dict[str, int]:
    """Current row count of every base table under ``root``, by base name:
    what a stored cardinality is checked against for staleness."""
    return {
        op.table.base_name: int(op.table.num_rows)
        for op in walk(root)
        if getattr(op, "table", None) is not None
    }


# -- run records ---------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    """One finished run of a fingerprinted plan, as stored in the JSONL log.

    ``node_cards`` maps subtree digests to the operator's final
    ``tuples_emitted``; ``table_rows`` records each base table's row count
    at observation time so feedback consumers can bound staleness. Keys a
    record does not know (older stores wrote per-estimator error fields)
    are ignored on load.
    """

    fingerprint: str
    signature: str
    mode: str
    wall_time_s: float
    true_total: float
    row_count: int
    curve: list[list[float]] = field(default_factory=list)
    node_cards: dict[str, float] = field(default_factory=dict)
    table_rows: dict[str, int] = field(default_factory=dict)
    seq: int = 0

    def to_wire(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "signature": self.signature,
            "mode": self.mode,
            "wall_time_s": self.wall_time_s,
            "true_total": self.true_total,
            "row_count": self.row_count,
            "curve": [list(point) for point in self.curve],
            "node_cards": dict(self.node_cards),
            "table_rows": dict(self.table_rows),
            "seq": self.seq,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "RunRecord":
        return cls(
            fingerprint=str(data["fingerprint"]),
            signature=str(data.get("signature", "")),
            mode=str(data.get("mode", "once")),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            true_total=float(data.get("true_total", 0.0)),
            row_count=int(data.get("row_count", 0)),
            curve=[list(map(float, p)) for p in data.get("curve", [])],
            node_cards={
                str(k): float(v) for k, v in data.get("node_cards", {}).items()
            },
            table_rows={
                str(k): int(v) for k, v in data.get("table_rows", {}).items()
            },
            seq=int(data.get("seq", 0)),
        )

