"""Bound-based refinement of optimizer estimates for future pipelines.

For pipelines that have not begun, the paper follows Chaudhuri et al. [9]:
keep the optimizer estimate but clamp it between an upper and a lower bound
that tighten as upstream cardinalities become known. The bounds we maintain
are the standard worst-case ones for each operator given (possibly refined)
input cardinalities:

* equijoin of inputs ``l`` and ``r``: at least 0, at most ``l * r`` — and at
  most ``probe * maxmult_build`` once the build pass has ended and its
  histogram reveals the maximum key multiplicity.
* selection / projection / sort: at most the input cardinality.
* group-by: at most the input cardinality (and at least 1 once any input
  row exists).

A :class:`RefinableEstimate` carries ``(lo, est, hi)``; ``refine`` clamps the
current estimate into the bound interval, so wildly wrong optimizer numbers
get pulled toward feasibility as soon as inputs are pinned down.
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = ["CardinalityBounds", "RefinableEstimate"]


@dataclass
class RefinableEstimate:
    """A cardinality estimate with lower/upper bounds."""

    lo: float
    est: float
    hi: float

    def clamped(self) -> float:
        return min(max(self.est, self.lo), self.hi)

    def update_bounds(self, lo: float | None = None, hi: float | None = None) -> None:
        if lo is not None:
            self.lo = max(self.lo, lo)
        if hi is not None:
            self.hi = min(self.hi, hi)
        if self.hi < self.lo:  # bounds crossed: trust the newer (tighter) info
            self.lo = self.hi


class CardinalityBounds:
    """Maintains refinable estimates for every operator of a plan.

    ``known`` maps operators whose output cardinality is exactly known
    (finished pipelines, completed preprocessing passes) to that value;
    :meth:`refine` propagates the implied bounds bottom-up.
    """

    def __init__(self, root: Operator):
        self.root = root
        self.estimates: dict[int, RefinableEstimate] = {}
        self._ops: dict[int, Operator] = {}
        self._init(root)

    def _init(self, op: Operator) -> None:
        est = float(op.estimated_cardinality) if op.estimated_cardinality else 1.0
        self.estimates[id(op)] = RefinableEstimate(0.0, est, float("inf"))
        self._ops[id(op)] = op
        for child in op.children():
            self._init(child)

    def of(self, op: Operator) -> RefinableEstimate:
        return self.estimates[id(op)]

    def set_known(self, op: Operator, cardinality: float) -> None:
        """Pin an operator's output cardinality exactly."""
        entry = self.of(op)
        entry.lo = entry.hi = entry.est = float(cardinality)

    def set_estimate(self, op: Operator, estimate: float) -> None:
        """Replace an operator's point estimate (kept inside its bounds)."""
        entry = self.of(op)
        entry.est = float(estimate)

    def refine(self, max_multiplicity: dict[int, float] | None = None) -> None:
        """Propagate bounds bottom-up.

        ``max_multiplicity`` optionally maps a join operator's ``id`` to the
        maximum key multiplicity observed on its build side, enabling the
        tighter ``probe * maxmult`` upper bound.
        """
        max_multiplicity = max_multiplicity or {}
        self._refine(self.root, max_multiplicity)

    def _refine(self, op: Operator, maxmult: dict[int, float]) -> None:
        for child in op.children():
            self._refine(child, maxmult)
        entry = self.of(op)
        if isinstance(op, (SeqScan, SampleScan, IndexScan)):
            entry.update_bounds(lo=float(op.total_rows), hi=float(op.total_rows))
        elif isinstance(op, (Filter, Project, Sort, Materialize)):
            child_hi = self.of(op.children()[0]).hi
            entry.update_bounds(lo=0.0, hi=child_hi)
        elif isinstance(op, Limit):
            entry.update_bounds(hi=float(op.n))
        elif isinstance(op, (HashJoin, SortMergeJoin, IndexNestedLoopsJoin)):
            left, right = op.children()
            l_hi, r_hi = self.of(left).hi, self.of(right).hi
            hi = l_hi * r_hi
            mult = maxmult.get(id(op))
            if mult is not None:
                # The probe side's size times the *build* side's maximum;
                # the index NL join builds on its inner (right) input.
                probe_hi = l_hi if isinstance(op, IndexNestedLoopsJoin) else r_hi
                hi = min(hi, probe_hi * mult)
            entry.update_bounds(lo=0.0, hi=hi)
        elif isinstance(op, NestedLoopsJoin):
            left, right = op.children()
            entry.update_bounds(lo=0.0, hi=self.of(left).hi * self.of(right).hi)
        elif isinstance(op, _AggregateBase) and not op.group_by:
            entry.update_bounds(lo=1.0, hi=1.0)  # one row, with input or without
        elif isinstance(op, (_AggregateBase, Distinct)):
            child_hi = self.of(op.children()[0]).hi
            entry.update_bounds(lo=1.0 if child_hi > 0 else 0.0, hi=child_hi)
        entry.est = entry.clamped()

    def estimate_of(self, op: Operator) -> float:
        """Current (clamped) point estimate for ``op``."""
        return self.of(op).clamped()
