"""Group-count estimation attached to aggregation operators.

Two attachment modes (Section 4.2):

* **Direct** (:func:`attach_group_estimator`) — the aggregate's (or
  DISTINCT's) preprocessing pass (hash partitioning / sort input read) feeds
  the hybrid GEE/MLE estimator one group key per input tuple. When that pass
  completes, the group count is exact, before any output row is emitted.
* **Pushed down** (:func:`attach_pushed_down_group_estimator`) — when the
  aggregate's input is a hash-join (chain) on the same stream and the group
  column belongs to the chain's base probe stream, the input to the
  aggregate cannot be treated as randomly ordered (it is clustered by the
  join's partitions). The paper pushes estimation into the join: "In
  addition to computing the estimate of the cardinality of the output of
  the join, we also build a histogram storing the frequency distribution of
  the output." Here the chain estimator hands over each probe batch's
  group values with the number of output rows each probe tuple yields,
  which the same hybrid estimator's state folds in one weighted batch; the
  |T| it scales to is the chain's own (converging) output-cardinality
  estimate.
"""

from __future__ import annotations

from repro.common.errors import EstimationError
from repro.core.distinct import DEFAULT_TAU, HybridGroupCountEstimator
from repro.core.join_estimators import resolve_stream_total
from repro.core.pipeline_estimators import HashJoinChainEstimator
from repro.executor.operators.aggregate import _AggregateBase
from repro.executor.operators.distinct import Distinct

__all__ = ["attach_group_estimator", "attach_pushed_down_group_estimator"]


def attach_group_estimator(
    aggregate: _AggregateBase | Distinct, tau: float = DEFAULT_TAU
) -> HybridGroupCountEstimator:
    """Attach a hybrid GEE/MLE estimator to an aggregate's or a DISTINCT's
    input pass; |T| is resolved from the input stream
    (:func:`~repro.core.join_estimators.resolve_stream_total`) and ``tau``
    is the γ² chooser's threshold.

    Duplicate elimination is the distinct-value problem with the whole row
    as the grouping key, so on a :class:`Distinct` the estimator predicts
    the output cardinality (number of distinct rows) the same way.
    """
    if isinstance(aggregate, _AggregateBase) and not aggregate.group_by:
        raise EstimationError("global aggregates have exactly one group")
    hybrid = HybridGroupCountEstimator(resolve_stream_total(aggregate.child), tau=tau)
    aggregate.input_hooks[0].append(hybrid.observe_hook)
    aggregate.input_end_hooks[0].append(hybrid.finalize)
    return hybrid


def attach_pushed_down_group_estimator(
    aggregate: _AggregateBase, chain: HashJoinChainEstimator
) -> HybridGroupCountEstimator:
    """Push the aggregate's group-count estimation into a feeding join chain.

    Requires a single group-by column that belongs to the chain's base
    probe stream; raises :class:`EstimationError` otherwise so the caller
    can fall back to :func:`attach_group_estimator`. |T| is the chain's
    top-level output estimate, and the γ² threshold is the paper's.
    """
    if len(aggregate.group_by) != 1:
        raise EstimationError(
            "push-down supports exactly one group column; "
            f"got {list(aggregate.group_by)}"
        )
    group_column = aggregate.group_by[0]
    hybrid = HybridGroupCountEstimator(
        total=lambda: max(chain.levels[-1].estimate(), 1.0)
    )
    chain.add_output_listener(group_column, hybrid.state.observe_weighted)

    def on_probe_end() -> None:
        # Once the chain's probe pass completes, the simulated output
        # histogram covers the entire join output: group count exact.
        # Registered after the chain's own callback, so ``chain.exact`` is
        # already set — unless the chain froze at its sample boundary.
        if chain.exact:
            hybrid.finalize()

    chain.chain[0].input_end_hooks[1].append(on_probe_end)
    return hybrid
