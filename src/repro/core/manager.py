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

``estimate_for(op)`` then answers with the best current refined estimate
(or None when the operator has no attached estimator), and ``is_exact(op)``
says whether that estimate has converged to the true cardinality.

Graceful degradation
--------------------
:meth:`EstimationManager.harden` wraps every attached estimator hook in a
guard. A hook that raises no longer unwinds the executor pull (which would
fail the whole query for the sake of a *progress estimate*): the guard
demotes the owning estimator — detaching it from the manager's registries,
so ``estimate_for`` returns None and the progress layer falls back to the
driver-node estimator — records the reason, and execution continues. The
demotion is exactly the paper's degradation ladder (chain → binary ONCE →
dne) taken to its last rung at runtime instead of attach time.
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import EstimationError
from repro.core.aggregate_estimators import (
    GroupCountEstimate,
    attach_group_estimator,
    attach_pushed_down_group_estimator,
)
from repro.core.join_estimators import OnceJoinEstimator, attach_once_estimator
from repro.core.pipeline_estimators import (
    HashJoinChainEstimator,
    find_hash_join_chains,
)
from repro.executor.operators.aggregate import _AggregateBase
from repro.executor.operators.base import Operator
from repro.executor.operators.distinct import Distinct
from repro.executor.operators.hash_join import HashJoin
from repro.executor.operators.merge_join import SortMergeJoin
from repro.executor.operators.nested_loops import IndexNestedLoopsJoin
from repro.executor.operators.scan import SampleScan
from repro.executor.plan import walk
from repro.faults.plan import SITE_ESTIMATOR_HOOK, FaultPlan

__all__ = ["EstimationManager"]


class EstimationManager:
    """Attaches and indexes all estimators for one plan."""

    def __init__(
        self,
        root: Operator,
        record_every: int = 0,
        stop_after_sample: bool = False,
    ):
        self.root = root
        self.record_every = record_every
        self.stop_after_sample = stop_after_sample
        self.chain_estimators: list[HashJoinChainEstimator] = []
        self.join_estimators: dict[int, OnceJoinEstimator] = {}
        self.chain_of_join: dict[int, HashJoinChainEstimator] = {}
        self.group_estimators: dict[int, GroupCountEstimate] = {}
        self.fallbacks: list[tuple[Operator, str]] = []
        # Runtime demotions performed by the hardening guards: (op, reason)
        # pairs, in firing order. Non-empty <=> progress is "degraded".
        self.demotions: list[tuple[Operator, str]] = []
        self._hardened = False
        self._demote_enabled = True
        self._faults: FaultPlan | None = None
        self._demoted_keys: set[int] = set()
        self._attach_joins()
        self._attach_aggregates()

    # -- attachment ---------------------------------------------------------------

    def _attach_joins(self) -> None:
        for chain in find_hash_join_chains(self.root):
            try:
                estimator = self._make_chain_estimator(chain)
            except EstimationError as exc:
                self.fallbacks.append((chain[-1], f"chain: {exc}"))
                self._attach_chain_joins_individually(chain)
                continue
            self.chain_estimators.append(estimator)
            for join in chain:
                self.chain_of_join[id(join)] = estimator

        for op in walk(self.root):
            if isinstance(op, (SortMergeJoin, IndexNestedLoopsJoin)):
                try:
                    self.join_estimators[id(op)] = attach_once_estimator(
                        op, record_every=self.record_every
                    )
                except EstimationError as exc:
                    self.fallbacks.append((op, str(exc)))

    def _make_chain_estimator(self, chain: list[HashJoin]) -> HashJoinChainEstimator:
        if self.stop_after_sample:
            try:
                return HashJoinChainEstimator(
                    chain,
                    record_every=self.record_every,
                    stop_after_sample=True,
                )
            except EstimationError:
                # No SampleScan beneath this chain: fall back to refining
                # through the whole probe pass.
                pass
        return HashJoinChainEstimator(chain, record_every=self.record_every)

    def _attach_chain_joins_individually(self, chain: list[HashJoin]) -> None:
        for join in chain:
            try:
                self.join_estimators[id(join)] = attach_once_estimator(
                    join, record_every=self.record_every
                )
            except EstimationError as exc:  # pragma: no cover - defensive
                self.fallbacks.append((join, str(exc)))

    def _attach_aggregates(self) -> None:
        for op in walk(self.root):
            if isinstance(op, Distinct):
                estimate = None
            elif isinstance(op, _AggregateBase) and op.group_by:
                estimate = self._try_push_down(op)
            else:
                continue  # not grouping, or a single global group
            if estimate is None:
                try:
                    estimate = attach_group_estimator(
                        op, record_every=self.record_every
                    )
                except EstimationError as exc:
                    self.fallbacks.append((op, str(exc)))
                    continue
            self.group_estimators[id(op)] = estimate

    def _try_push_down(self, op: _AggregateBase) -> GroupCountEstimate | None:
        child = op.child
        chain = self.chain_of_join.get(id(child))
        if chain is None or chain.chain[-1] is not child:
            return None
        try:
            return attach_pushed_down_group_estimator(
                op, chain, record_every=self.record_every
            )
        except EstimationError as exc:
            self.fallbacks.append((op, f"push-down: {exc}"))
            return None

    # -- graceful degradation -----------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Has any estimator been demoted at runtime?"""
        return bool(self.demotions)

    def harden(self, faults: FaultPlan | None = None, demote: bool = True) -> None:
        """Wrap every attached estimator hook in a degradation guard.

        With ``demote=True`` (the default), a hook that raises detaches its
        owning estimator from the registries — ``estimate_for`` then
        returns None and the progress layer falls back to dne — instead of
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
                self._fire_hook_fault(op)
                hook(*args)
            except Exception as exc:
                self._hook_failed(op, hook, exc)

        return guarded

    def _fire_hook_fault(self, op: Operator) -> None:
        if self._faults is not None:
            self._faults.fire(SITE_ESTIMATOR_HOOK, detail=op.op_name)

    def _hook_failed(self, op: Operator, hook: Callable, exc: Exception) -> None:
        if not self._demote_enabled:
            raise exc
        self._demote(op, hook, exc)

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
        if not (
            (owner is not None and self._detach_estimator(owner))
            or self._detach_for_op(op)
        ):
            # Unattributable hook (a bare closure on an operator with no
            # registered estimator): degrade everything rather than risk a
            # poisoned estimate surviving.
            self._detach_all()
        self.demotions.append((op, reason))
        self.fallbacks.append((op, reason))

    def _detach_estimator(self, owner: object) -> bool:
        removed = False
        if owner in self.chain_estimators:
            self.chain_estimators.remove(owner)
            for join_id in [
                j for j, chain in self.chain_of_join.items() if chain is owner
            ]:
                del self.chain_of_join[join_id]
            removed = True
        for op_id, est in list(self.join_estimators.items()):
            if est is owner:
                del self.join_estimators[op_id]
                removed = True
        for op_id, est in list(self.group_estimators.items()):
            if est is owner or est.hybrid is owner:
                del self.group_estimators[op_id]
                removed = True
        return removed

    def _detach_for_op(self, op: Operator) -> bool:
        chain = self.chain_of_join.get(id(op))
        if chain is not None:
            return self._detach_estimator(chain)
        removed = self.join_estimators.pop(id(op), None) is not None
        removed = (self.group_estimators.pop(id(op), None) is not None) or removed
        return removed

    def _detach_all(self) -> None:
        self.chain_estimators.clear()
        self.chain_of_join.clear()
        self.join_estimators.clear()
        self.group_estimators.clear()

    # -- queries ----------------------------------------------------------------------

    def estimate_for(self, op: Operator) -> float | None:
        """Best current refined cardinality estimate, or None if the
        operator has no attached estimator."""
        chain = self.chain_of_join.get(id(op))
        if chain is not None:
            return chain.current_estimate(op)  # type: ignore[arg-type]
        join_est = self.join_estimators.get(id(op))
        if join_est is not None:
            return join_est.current_estimate()
        group_est = self.group_estimators.get(id(op))
        if group_est is not None:
            return group_est.current_estimate()
        return None

    def has_started(self, op: Operator) -> bool:
        """Has the operator's estimator begun observing its stream?

        Until then (e.g. a hash join still in its build phase) the refined
        estimate is vacuous and callers should fall back to dne/optimizer.
        """
        chain = self.chain_of_join.get(id(op))
        if chain is not None:
            return chain.exact or chain.t > 0
        join_est = self.join_estimators.get(id(op))
        if join_est is not None:
            return join_est.exact or join_est.t > 0
        group_est = self.group_estimators.get(id(op))
        if group_est is not None:
            return group_est.exact or group_est.hybrid.state.t > 0
        return False

    def is_exact(self, op: Operator) -> bool:
        chain = self.chain_of_join.get(id(op))
        if chain is not None:
            return chain.exact
        join_est = self.join_estimators.get(id(op))
        if join_est is not None:
            return join_est.exact
        group_est = self.group_estimators.get(id(op))
        if group_est is not None:
            return group_est.exact
        return False

    def max_multiplicities(self) -> dict[int, float]:
        """Build-side maximum multiplicities per join whose build pass has
        ended, for upper-bound refinement of future-pipeline estimates."""
        result: dict[int, float] = {}
        for chain in self.chain_estimators:
            result.update(chain.max_build_multiplicity)
        for op_id, est in self.join_estimators.items():
            if est.max_build_multiplicity is not None:
                result[op_id] = est.max_build_multiplicity
        return result

    def describe(self) -> str:
        """Human-readable attachment report."""
        lines = []
        for chain in self.chain_estimators:
            names = " -> ".join(j.describe() for j in chain.chain)
            lines.append(f"chain[{chain.k}]: {names}")
        for op_id, est in self.join_estimators.items():
            lines.append(f"binary once: join@{op_id}")
        for op_id, est in self.group_estimators.items():
            mode = "pushed-down" if est.pushed_down else "direct"
            lines.append(f"group-count ({mode}): aggregate@{op_id}")
        for op, reason in self.fallbacks:
            lines.append(f"dne fallback: {op.describe()} ({reason})")
        return "\n".join(lines)
