"""Physical operators.

Every operator implements the Volcano iterator contract, batched
(``open`` / ``next_batch`` / ``close``), and counts emitted tuples; blocking
operators additionally expose ``(keys, rows)`` hooks at their preprocessing
phases, which is where the paper's estimators attach.
"""

from repro.executor.operators.aggregate import AggregateSpec, HashAggregate, SortAggregate
from repro.executor.operators.base import Operator, OperatorState
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

__all__ = [
    "AggregateSpec",
    "Distinct",
    "Filter",
    "HashAggregate",
    "HashJoin",
    "IndexNestedLoopsJoin",
    "IndexScan",
    "Limit",
    "Materialize",
    "NestedLoopsJoin",
    "Operator",
    "OperatorState",
    "Project",
    "SampleScan",
    "SeqScan",
    "Sort",
    "SortAggregate",
    "SortMergeJoin",
]
