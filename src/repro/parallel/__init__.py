"""``repro.parallel`` — plan fragmentation and an unmonitored coordinator,
as an in-process library.

The package splits a serial physical plan into per-partition fragments
(:mod:`~repro.parallel.fragments`) and :mod:`~repro.parallel.coordinator`
drains them one after another in the calling process, merging their rows
and summing their per-operator counts. No progress is reported for a
partitioned run; nothing here starts a process or a thread, and nothing
here is faster than the serial engine. docs/PARALLEL.md has the verdict
that retired the multi-process backend and the progress merge.
"""

from repro.parallel.coordinator import (
    Coordinator,
    ParallelExecutionError,
    ParallelResult,
)
from repro.parallel.fragments import (
    FragmentationError,
    FragmentPlan,
    compile_fragments,
    try_compile,
)

__all__ = [
    "Coordinator",
    "FragmentPlan",
    "FragmentationError",
    "ParallelExecutionError",
    "ParallelResult",
    "compile_fragments",
    "try_compile",
]
