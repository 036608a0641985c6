"""The paper's contribution: the lightweight online estimation framework.

Layout mirrors Section 4 of the paper:

* :mod:`repro.core.histogram` — exact frequency histograms with the memory
  accounting of Table 2.
* :mod:`repro.core.confidence` — the binomial/normal confidence machinery
  of Section 4.1.
* :mod:`repro.core.accumulator` — the ONCE recurrence ``|S| × mean_t(c)``
  itself, written once; every join estimator below owns one per join and
  adds only its contribution ``c``. An accumulator (for an aggregate, its
  :class:`HybridGroupCountEstimator`) is the one state every reader of
  that operator's estimate reads, the progress monitor included.
* :mod:`repro.core.join_estimators` — ONCE estimators for binary hash,
  sort-merge, and index nested-loops joins (Sections 4.1.1-4.1.3).
* :mod:`repro.core.pipeline_estimators` — Algorithm 1: push-down estimation
  for chains of hash joins, same-attribute and different-attribute
  (Cases 1 and 2) alike (Section 4.1.4).
* :mod:`repro.core.distinct` — GEE (Algorithm 2), the MLE estimator with
  its adaptive recomputation interval (Algorithm 3), and the γ²-based
  online chooser (Section 4.2).
* :mod:`repro.core.aggregate_estimators` — group-count estimation for
  aggregates, including push-down into a feeding join.
* :mod:`repro.core.dne` — the driver-node (Chaudhuri et al.) and
  byte-model (Luo et al.) baselines, one estimator with a method each.
* :mod:`repro.core.progress` — the getnext-model progress monitor over
  pipelines (Section 4.4).
* :mod:`repro.core.manager` — walks a physical plan, attaches the right
  estimator to every operator per the paper's rules, and registers the
  state that answers for each; dne answers for an operator with none.
"""

from repro.core.accumulator import OnceAccumulator
from repro.core.confidence import binomial_beta
from repro.core.distinct import (
    GEEEstimator,
    GroupFrequencyState,
    HybridGroupCountEstimator,
    MLEEstimator,
    RecomputeScheduler,
)
from repro.core.dne import DriverNodeEstimator
from repro.core.histogram import BucketizedHistogram, FrequencyHistogram
from repro.core.join_estimators import OnceJoinEstimator, attach_once_estimator
from repro.core.manager import EstimationManager
from repro.core.pipeline_estimators import HashJoinChainEstimator, find_hash_join_chains
from repro.core.progress import ProgressMonitor, ProgressSnapshot

__all__ = [
    "BucketizedHistogram",
    "DriverNodeEstimator",
    "EstimationManager",
    "FrequencyHistogram",
    "GEEEstimator",
    "GroupFrequencyState",
    "HashJoinChainEstimator",
    "HybridGroupCountEstimator",
    "MLEEstimator",
    "OnceAccumulator",
    "OnceJoinEstimator",
    "ProgressMonitor",
    "ProgressSnapshot",
    "RecomputeScheduler",
    "attach_once_estimator",
    "binomial_beta",
    "find_hash_join_chains",
]
