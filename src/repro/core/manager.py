"""Estimator attachment: one call wires the whole framework onto a plan.

:class:`EstimationManager` walks a physical plan and applies the paper's
per-operator rules (Section 4.4):

* hash joins — grouped into probe-connected chains, each handled by one
  :class:`~repro.core.pipeline_estimators.HashJoinChainEstimator`
  (Algorithm 1); a chain whose shape falls outside the framework degrades
  join-by-join to binary ONCE estimators, and finally to dne.
* sort-merge joins — binary ONCE estimator, unless an input is presorted
  (no preprocessing pass -> dne).
* index nested-loops joins — binary ONCE estimator over the index build.
* plain nested-loops joins, selections — no attachment; the progress layer
  uses the driver-node estimator for them.
* aggregations — hybrid GEE/MLE estimator; pushed down into the feeding
  hash-join chain when the group column comes from the chain's base stream.

Every attachment lands in one registry, ``operator id ->``
:class:`EstimatorEntry`: the estimator state that answers for the operator
(its ``source``), and which estimator objects feed that state. An operator
with no entry is answered by the driver-node estimator; everything that
reads an operator's refined estimate — the progress monitor first — reads
its entry's ``source``.

Graceful degradation
--------------------
:meth:`EstimationManager.harden` wraps every attached estimator hook in a
guard. A hook that raises no longer unwinds the executor pull (which would
fail the whole query for the sake of a *progress estimate*): the guard
demotes the owning estimator — removing every registry entry it feeds, so
the progress layer falls back to the driver-node estimator for those
operators — records the reason, and execution continues. The
demotion is exactly the paper's degradation ladder (chain → binary ONCE →
dne) taken to its last rung at runtime instead of attach time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import EstimationError
from repro.core.accumulator import OnceAccumulator
from repro.core.aggregate_estimators import (
    attach_group_estimator,
    attach_pushed_down_group_estimator,
)
from repro.core.distinct import HybridGroupCountEstimator
from repro.core.join_estimators import attach_once_estimator
from repro.core.pipeline_estimators import (
    HashJoinChainEstimator,
    find_hash_join_chains,
)
from repro.executor.operators.aggregate import _AggregateBase
from repro.executor.operators.base import Operator
from repro.executor.operators.distinct import Distinct
from repro.executor.operators.merge_join import SortMergeJoin
from repro.executor.operators.nested_loops import IndexNestedLoopsJoin
from repro.executor.operators.scan import SampleScan
from repro.executor.plan import walk
from repro.faults.plan import SITE_ESTIMATOR_HOOK, FaultPlan

__all__ = ["EstimationManager", "EstimatorEntry"]


@dataclass(frozen=True, slots=True)
class EstimatorEntry:
    """What answers for one operator, and what that answer is fed by.

    ``source`` — a join's :class:`OnceAccumulator` or an aggregate's
    :class:`HybridGroupCountEstimator` — is the estimator's own state, and
    what every reader reads: ``estimate()``, ``started`` (until it has begun
    observing its stream, e.g. while a hash join is still building, the
    estimate is vacuous), ``exact``, and for a join ``max_multiplicity``.
    ``fed_by`` names the estimator objects whose hooks feed it, owner
    first: the chain for each of its joins, the hybrid *and* the chain for
    a pushed-down aggregate. An entry is only as sound as every estimator
    it lists, which is what demotion goes by.
    """

    op: Operator
    source: OnceAccumulator | HybridGroupCountEstimator
    fed_by: tuple[object, ...]


class EstimationManager:
    """Attaches and indexes all estimators for one plan."""

    def __init__(self, root: Operator):
        self.root = root
        self.registry: dict[int, EstimatorEntry] = {}
        self.fallbacks: list[tuple[Operator, str]] = []
        # Runtime demotions performed by the hardening guards: (op, reason)
        # pairs, in firing order. Non-empty <=> progress is "degraded".
        self.demotions: list[tuple[Operator, str]] = []
        self._hardened = False
        self._demote_enabled = True
        self._faults: FaultPlan | None = None
        self._demoted_keys: set[int] = set()
        self._attach_aggregates(self._attach_joins())

    # -- attachment ---------------------------------------------------------------

    def _attach_joins(self) -> dict[int, HashJoinChainEstimator]:
        """Returns the chain estimators by their topmost join's id — the
        candidates for aggregation push-down."""
        chain_tops: dict[int, HashJoinChainEstimator] = {}
        for chain in find_hash_join_chains(self.root):
            try:
                estimator = HashJoinChainEstimator(chain)
            except EstimationError as exc:
                self.fallbacks.append((chain[-1], f"chain: {exc}"))
                for join in chain:
                    self._attach_once(join)
                continue
            chain_tops[id(chain[-1])] = estimator
            for join, level in zip(chain, estimator.levels):
                self.registry[id(join)] = EstimatorEntry(join, level, (estimator,))

        for op in walk(self.root):
            if isinstance(op, (SortMergeJoin, IndexNestedLoopsJoin)):
                self._attach_once(op)
        return chain_tops

    def _attach_once(self, join: Operator) -> None:
        try:
            once = attach_once_estimator(join)
        except EstimationError as exc:
            self.fallbacks.append((join, str(exc)))
            return
        self.registry[id(join)] = EstimatorEntry(join, once.acc, (once,))

    def _attach_aggregates(self, chain_tops: dict[int, HashJoinChainEstimator]) -> None:
        for op in walk(self.root):
            if isinstance(op, Distinct):
                chain = None
            elif isinstance(op, _AggregateBase) and op.group_by:
                chain = chain_tops.get(id(op.child))
            else:
                continue  # not grouping, or a single global group
            try:
                fed_by = self._attach_group(op, chain)
            except EstimationError as exc:
                self.fallbacks.append((op, str(exc)))
                continue
            self.registry[id(op)] = EstimatorEntry(op, fed_by[0], fed_by)

    def _attach_group(
        self, op: Operator, chain: HashJoinChainEstimator | None
    ) -> tuple[object, ...]:
        """``(hybrid, chain)`` — pushed down — when ``op`` sits right on top
        of a chain that can simulate its input's value distribution;
        ``(hybrid,)`` attached to ``op``'s own input pass otherwise."""
        if chain is not None:
            try:
                return (attach_pushed_down_group_estimator(op, chain), chain)
            except EstimationError as exc:
                self.fallbacks.append((op, f"push-down: {exc}"))
        return (attach_group_estimator(op),)

    # -- graceful degradation -----------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Has any estimator been demoted at runtime?"""
        return bool(self.demotions)

    def harden(self, faults: FaultPlan | None = None, demote: bool = True) -> None:
        """Wrap every attached estimator hook in a degradation guard.

        With ``demote=True`` (the default), a hook that raises detaches its
        owning estimator from the registry — the progress layer then falls
        back to dne for the operators it answered for — instead of
        unwinding the executor pull. With ``demote=False`` the exception
        propagates (used by the chaos harness's broken-degradation
        meta-test to prove the harness catches a missing fallback).

        ``faults`` arms the ``estimator.hook`` injection site inside the
        guards. Idempotent; hooks registered *after* hardening are not
        guarded.
        """
        if self._hardened:
            return
        self._hardened = True
        self._demote_enabled = demote
        self._faults = faults
        for op in walk(self.root):
            hook_lists = [*op.input_hooks, *op.input_end_hooks]
            if isinstance(op, SampleScan):
                hook_lists.append(op.sample_boundary_hooks)
            for hooks in hook_lists:
                # In place: a drain already in flight holds this very list.
                hooks[:] = [self._guard(hook, op) for hook in hooks]

    def _guard(self, hook: Callable, op: Operator) -> Callable:
        """Guard one hook of any channel: ``(keys, rows)`` input hooks,
        zero-argument end-of-input callbacks, ``(scan)`` punctuation."""

        def guarded(*args) -> None:
            try:
                if self._faults is not None:
                    self._faults.fire(SITE_ESTIMATOR_HOOK, detail=op.op_name)
                hook(*args)
            except Exception as exc:
                if not self._demote_enabled:
                    raise
                self._demote(op, hook, exc)

        return guarded

    def _demote(self, op: Operator, hook: Callable, exc: Exception) -> None:
        owner = getattr(hook, "__self__", None)
        key = id(owner) if owner is not None else id(op)
        if key in self._demoted_keys:
            return  # already demoted; keep swallowing this hook's failures
        self._demoted_keys.add(key)
        reason = (
            f"estimator hook failed at {op.describe()}: "
            f"{type(exc).__name__}: {exc}"
        )
        # Degrade what the failing hook feeds: its owning estimator and —
        # a bare closure has none — whatever answers for the operator it
        # sits on.
        entry = self.registry.get(id(op))
        poisoned = (owner, *(entry.fed_by if entry is not None else ()))
        survivors = {
            op_id: e
            for op_id, e in self.registry.items()
            if not any(fed is bad for fed in e.fed_by for bad in poisoned)
        }
        if len(survivors) == len(self.registry):
            # Unattributable hook (a bare closure on an operator with no
            # registered estimator): degrade everything rather than risk a
            # poisoned estimate surviving.
            survivors = {}
        self.registry = survivors
        self.demotions.append((op, reason))
        self.fallbacks.append((op, reason))

    # -- queries ----------------------------------------------------------------------

    def attached(self) -> list[tuple[object, list[Operator]]]:
        """Every live estimator with the operators it owns the answer for
        (a chain's joins bottom-up), in attachment order."""
        owned: dict[int, tuple[object, list[Operator]]] = {}
        for entry in self.registry.values():
            owner = entry.fed_by[0]
            owned.setdefault(id(owner), (owner, []))[1].append(entry.op)
        return list(owned.values())

    def describe(self) -> str:
        """Human-readable attachment report."""
        lines = []
        for estimator, ops in self.attached():
            fed_by = self.registry[id(ops[0])].fed_by
            label = type(estimator).__name__
            if len(fed_by) > 1:
                label += f" (fed by {type(fed_by[1]).__name__})"
            names = " -> ".join(op.describe() for op in ops)
            lines.append(f"{label}[{len(ops)}]: {names}")
        for op, reason in self.fallbacks:
            # A skipped rung (chain -> binary ONCE, push-down -> direct)
            # leaves the operator a live estimator: only no entry means dne.
            rung = "rung skipped" if id(op) in self.registry else "dne fallback"
            lines.append(f"{rung}: {op.describe()} ({reason})")
        return "\n".join(lines)
