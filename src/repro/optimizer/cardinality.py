"""Textbook (System-R style) cardinality estimation over physical plans.

Formulas implemented (the standard ones, with the standard failure modes):

* scan:            ``|T|``
* filter:          ``|child| * sel(pred)`` — equality via MCVs + uniform
                   remainder, ranges via equi-width histograms, unknown
                   predicates via the 1/3 default.
* equijoin:        ``|L| * |R| / max(d_L, d_R)`` with distinct counts pulled
                   from base-table statistics (containment assumption) —
                   this is the formula that underestimates skewed joins by
                   large factors.
* group by:        ``min(d_group, |child|)``.
* nested loops:    cross product times per-conjunct default selectivity.

Distinct counts for derived columns are resolved by walking down to the
base scan that contributed the column; when a column's provenance cannot be
traced (computed columns), ``sqrt(|child|)`` is used, as real systems do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.executor.expressions import (
    And,
    Between,
    Col,
    Comparison,
    Const,
    Expression,
    InList,
    IsNull,
    Not,
    Or,
)
from repro.executor.operators.aggregate import _AggregateBase
from repro.executor.operators.base import Operator
from repro.executor.operators.distinct import Distinct
from repro.executor.operators.filter import Filter
from repro.executor.operators.hash_join import HashJoin
from repro.executor.operators.limit import Limit
from repro.executor.operators.materialize import Materialize
from repro.executor.operators.merge_join import SortMergeJoin
from repro.executor.operators.nested_loops import IndexNestedLoopsJoin, NestedLoopsJoin
from repro.executor.operators.project import Project
from repro.executor.operators.scan import IndexScan, SampleScan, SeqScan
from repro.executor.operators.sort import Sort
from repro.storage.catalog import Catalog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.statistics import ObservedCardinalities

__all__ = ["CardinalityModel", "annotate_plan"]

_DEFAULT_SELECTIVITY = 1.0 / 3.0
_EQ_DEFAULT_SELECTIVITY = 0.005


class CardinalityModel:
    """Estimates output cardinalities for every node of a physical plan.

    ``use_histograms=True`` upgrades equijoin estimation from the
    containment formula to a histogram-overlap computation (both columns'
    equi-width histograms re-bucketed onto a common grid, per-cell
    ``mass_l·mass_r / max(d_cell)``). Better — but still a *static*
    approximation that cannot see which particular values coincide, which
    is exactly the gap the online framework closes
    (``bench_accuracy.py::test_ablation_optimizer_statistics``).
    """

    def __init__(
        self,
        catalog: Catalog,
        use_histograms: bool = False,
        observed: "ObservedCardinalities | None" = None,
    ):
        self.catalog = catalog
        self.use_histograms = use_histograms
        #: Observed-cardinality overlay from the robust feedback loop
        #: (:mod:`repro.robust.feedback`): for plan subtrees the system has
        #: executed before, the *observed* output count beats the model —
        #: subject to the overlay's staleness bound.
        self.observed = observed
        self._cache: dict[int, float] = {}

    # -- public API -------------------------------------------------------------

    def estimate(self, op: Operator) -> float:
        """Estimated output cardinality of ``op`` (recursive, memoised)."""
        cached = self._cache.get(id(op))
        if cached is None:
            hit = self._observed_estimate(op)
            cached = self._cache[id(op)] = (
                hit if hit is not None else self._estimate(op)
            )
        return cached

    def _observed_estimate(self, op: Operator) -> float | None:
        """The feedback overlay's count for this subtree, if fresh."""
        if self.observed is None:
            return None
        from repro.robust.history import base_table_rows, fingerprint_plan

        return self.observed.lookup(fingerprint_plan(op).digest, base_table_rows(op))

    def _estimate(self, op: Operator) -> float:
        if isinstance(op, (SeqScan, SampleScan)):
            return float(op.table.num_rows)
        if isinstance(op, IndexScan):
            return float(op.total_rows)
        if isinstance(op, Filter):
            child = self.estimate(op.child)
            return child * self._selectivity(op.predicate, op.child)
        if isinstance(op, (Project, Sort, Materialize)):
            return self.estimate(op.children()[0])
        if isinstance(op, Limit):
            return min(float(op.n), self.estimate(op.child))
        if isinstance(op, HashJoin):
            return self._equijoin(
                op.build_child, op.probe_child, op.build_keys, op.probe_keys
            )
        if isinstance(op, SortMergeJoin):
            return self._equijoin(
                op.left_child, op.right_child, (op.left_key,), (op.right_key,)
            )
        if isinstance(op, IndexNestedLoopsJoin):
            return self._equijoin(
                op.outer_child, op.inner_child, (op.outer_key,), (op.inner_key,)
            )
        if isinstance(op, NestedLoopsJoin):
            cross = self.estimate(op.outer_child) * self.estimate(op.inner_child)
            if op.predicate is None:
                return cross
            # The joined schema spans both children; approximate each
            # conjunct with the default selectivity.
            return cross * _DEFAULT_SELECTIVITY ** self._count_conjuncts(op.predicate)
        if isinstance(op, Distinct):
            child_est = self.estimate(op.child)
            d = 1.0
            for column in op.output_schema.names():
                d *= self._distinct_of(op.child, column)
            return min(d, child_est)
        if isinstance(op, _AggregateBase):
            child_est = self.estimate(op.child)
            d = 1.0
            for g in op.group_by:
                d *= self._distinct_of(op.child, g)
            return min(d, child_est) if op.group_by else 1.0
        raise TypeError(f"no cardinality rule for operator {type(op).__name__}")

    # -- joins -------------------------------------------------------------------

    def _equijoin(self, left: Operator, right: Operator, left_keys, right_keys) -> float:
        l_est = self.estimate(left)
        r_est = self.estimate(right)
        if self.use_histograms and len(left_keys) == 1:
            via_histograms = self._histogram_join_estimate(
                left, right, left_keys[0], right_keys[0], l_est, r_est
            )
            if via_histograms is not None:
                return via_histograms
        sel = 1.0
        for lk, rk in zip(left_keys, right_keys):
            d_l = self._distinct_of(left, lk)
            d_r = self._distinct_of(right, rk)
            sel *= 1.0 / max(d_l, d_r, 1.0)
        return l_est * r_est * sel

    _JOIN_GRID_CELLS = 64

    def _histogram_join_estimate(
        self,
        left: Operator,
        right: Operator,
        left_key: str,
        right_key: str,
        l_est: float,
        r_est: float,
    ) -> float | None:
        """Histogram-overlap equijoin estimate, or None if either side
        lacks a numeric equi-width histogram."""
        ls = self._column_stats(left, left_key)
        rs = self._column_stats(right, right_key)
        if (
            ls is None or rs is None
            or not ls.histogram or not rs.histogram
            or ls.min_value is None or rs.min_value is None
        ):
            return None
        lo = min(float(ls.min_value), float(rs.min_value))
        hi = max(float(ls.max_value), float(rs.max_value))
        if hi <= lo:
            # Single-point domains: everything collides (or nothing does).
            return l_est * r_est if ls.min_value == rs.min_value else 0.0
        cells = self._JOIN_GRID_CELLS
        width = (hi - lo) / cells

        def regrid(stats) -> list[float]:
            mass = [0.0] * cells
            b_lo = float(stats.min_value)
            b_hi = float(stats.max_value)
            n_buckets = len(stats.histogram)
            b_width = (b_hi - b_lo) / n_buckets if b_hi > b_lo else 0.0
            for b, count in enumerate(stats.histogram):
                if count == 0:
                    continue
                start = b_lo + b * b_width
                end = start + (b_width or 1e-12)
                first = int((start - lo) / width)
                last = min(int((end - lo) / width), cells - 1)
                span = max(last - first + 1, 1)
                for cell in range(max(first, 0), last + 1):
                    mass[cell] += count / span
            return mass

        mass_l = regrid(ls)
        mass_r = regrid(rs)
        # Distinct values spread uniformly across each column's value range.
        dl_cell = ls.n_distinct * width / max(float(ls.max_value) - float(ls.min_value), width)
        dr_cell = rs.n_distinct * width / max(float(rs.max_value) - float(rs.min_value), width)
        total = 0.0
        for ml, mr in zip(mass_l, mass_r):
            if ml and mr:
                total += ml * mr / max(dl_cell, dr_cell, 1.0)
        # Scale from base-table masses down to the (possibly filtered)
        # subtree cardinalities.
        l_scale = l_est / max(ls.row_count, 1)
        r_scale = r_est / max(rs.row_count, 1)
        return total * l_scale * r_scale

    def _distinct_of(self, op: Operator, column: str) -> float:
        """Distinct count of ``column`` in the output of ``op``.

        Traces provenance down to the base scan owning the column; scales
        down when the subtree's estimated cardinality is below the base
        table's distinct count (you cannot have more distinct values than
        rows).
        """
        base = self._find_base_stats(op, column)
        est_rows = max(self.estimate(op), 1.0)
        if base is None:
            return max(est_rows ** 0.5, 1.0)
        return float(max(min(float(base), est_rows), 1.0))

    def _find_base_stats(self, op: Operator, column: str) -> int | None:
        if isinstance(op, (SeqScan, SampleScan, IndexScan)):
            if op.table.schema.has_column(column):
                stats = self._column_stats(op, column)
                if stats is not None:
                    return stats.n_distinct
                # Table not registered: fall back to exact count (cheap for
                # the toy executor, mirrors an index-based estimate).
                return len(set(op.table.column_values(column)))
            return None
        for child in op.children():
            if child.output_schema.has_column(column):
                found = self._find_base_stats(child, column)
                if found is not None:
                    return found
        return None

    # -- selections -----------------------------------------------------------------

    def _selectivity(self, pred: Expression, child: Operator) -> float:
        if isinstance(pred, And):
            return self._selectivity(pred.left, child) * self._selectivity(pred.right, child)
        if isinstance(pred, Or):
            s1 = self._selectivity(pred.left, child)
            s2 = self._selectivity(pred.right, child)
            return min(s1 + s2 - s1 * s2, 1.0)
        if isinstance(pred, Not):
            return 1.0 - self._selectivity(pred.child, child)
        if isinstance(pred, Comparison):
            return self._comparison_selectivity(pred, child)
        if isinstance(pred, InList):
            if isinstance(pred.child, Col):
                stats = self._column_stats(child, pred.child.name)
                if stats is not None:
                    total = sum(stats.selectivity_eq(v) for v in pred.values)
                    return min(total, 1.0)
            return min(_EQ_DEFAULT_SELECTIVITY * len(pred.values), 1.0)
        if isinstance(pred, Between):
            if (
                isinstance(pred.child, Col)
                and isinstance(pred.low, Const)
                and isinstance(pred.high, Const)
                and isinstance(pred.low.value, (int, float))
                and isinstance(pred.high.value, (int, float))
            ):
                stats = self._column_stats(child, pred.child.name)
                if stats is not None:
                    return stats.selectivity_range(
                        float(pred.low.value), float(pred.high.value) + 1e-9
                    )
            return _DEFAULT_SELECTIVITY
        if isinstance(pred, IsNull):
            # The generators produce few NULLs; mirror the small default
            # null fraction real optimizers assume.
            return 0.99 if pred.negated else 0.01
        return _DEFAULT_SELECTIVITY

    def _comparison_selectivity(self, pred: Comparison, child: Operator) -> float:
        col_side, const_side = pred.left, pred.right
        op_str = pred.op
        if isinstance(col_side, Const) and isinstance(const_side, Col):
            col_side, const_side = const_side, col_side
            flips = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}
            op_str = flips.get(op_str, op_str)
        if not (isinstance(col_side, Col) and isinstance(const_side, Const)):
            return _DEFAULT_SELECTIVITY
        stats = self._column_stats(child, col_side.name)
        if stats is None:
            if op_str in ("=", "=="):
                return _EQ_DEFAULT_SELECTIVITY
            return _DEFAULT_SELECTIVITY
        value = const_side.value
        if op_str in ("=", "=="):
            return stats.selectivity_eq(value)
        if op_str in ("!=", "<>"):
            return 1.0 - stats.selectivity_eq(value)
        if not isinstance(value, (int, float)):
            return _DEFAULT_SELECTIVITY
        if op_str == "<":
            return stats.selectivity_range(None, value)
        if op_str == "<=":
            return stats.selectivity_range(None, value + 1e-9)
        if op_str == ">":
            return 1.0 - stats.selectivity_range(None, value + 1e-9)
        if op_str == ">=":
            return 1.0 - stats.selectivity_range(None, value)
        return _DEFAULT_SELECTIVITY

    def _column_stats(self, op: Operator, column: str):
        if isinstance(op, (SeqScan, SampleScan, IndexScan)):
            # Statistics are kept per base relation: an aliased scan
            # (``lineitem l``) reads them under ``base_name``.
            table_name = op.table.base_name
            if op.table.schema.has_column(column) and table_name in self.catalog:
                stats = self.catalog.statistics(table_name)
                bare = column.split(".")[-1]
                if stats.has_column(bare):
                    return stats.column(bare)
            return None
        for child in op.children():
            if child.output_schema.has_column(column):
                found = self._column_stats(child, column)
                if found is not None:
                    return found
        return None

    @staticmethod
    def _count_conjuncts(pred: Expression) -> int:
        if isinstance(pred, And):
            return CardinalityModel._count_conjuncts(pred.left) + CardinalityModel._count_conjuncts(
                pred.right
            )
        return 1


def annotate_plan(
    root: Operator,
    catalog: Catalog,
    observed: "ObservedCardinalities | None" = None,
) -> dict[Operator, float]:
    """Set ``estimated_cardinality`` on every node; return the estimates.

    ``observed`` threads the robust feedback overlay through: subtrees the
    system has executed before are annotated with their observed counts
    (fresh ones only — see ``ObservedCardinalities``)."""
    model = CardinalityModel(catalog, observed=observed)
    estimates: dict[Operator, float] = {}

    def visit(op: Operator) -> None:
        estimates[op] = model.estimate(op)
        op.estimated_cardinality = estimates[op]
        for child in op.children():
            visit(child)

    visit(root)
    return estimates
