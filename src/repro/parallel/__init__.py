"""``repro.parallel`` — plan fragmentation and the progress merge algebra,
as an in-process library.

The package splits a serial physical plan into per-partition fragments
(:mod:`~repro.parallel.fragments`), runs each with the unchanged serial
executor + progress stack (:mod:`~repro.parallel.worker`), turns every
fragment's estimator state into mergeable progress deltas
(:mod:`~repro.parallel.delta`) and folds them into one monotone global
progress view (:mod:`~repro.parallel.monitor`) whose merged ONCE state is
bit-identical to the serial run's. :mod:`~repro.parallel.coordinator`
drives the fragments one after another in the calling process; nothing
here starts a process or a thread, and nothing here is faster than the
serial engine. docs/PARALLEL.md has the verdict that retired the
multi-process backend.
"""

from repro.parallel.coordinator import (
    Coordinator,
    ParallelExecutionError,
    ParallelResult,
)
from repro.parallel.delta import (
    EstimatorDelta,
    MergedEstimator,
    ProgressDelta,
    merge_estimator_deltas,
)
from repro.parallel.fragments import (
    FragmentationError,
    FragmentPlan,
    compile_fragments,
    try_compile,
)
from repro.parallel.monitor import PartitionedProgressMonitor
from repro.parallel.worker import WorkerTask, run_fragment

__all__ = [
    "Coordinator",
    "EstimatorDelta",
    "FragmentPlan",
    "FragmentationError",
    "MergedEstimator",
    "ParallelExecutionError",
    "ParallelResult",
    "PartitionedProgressMonitor",
    "ProgressDelta",
    "WorkerTask",
    "compile_fragments",
    "merge_estimator_deltas",
    "run_fragment",
    "try_compile",
]
