"""repro — a lightweight online framework for query progress indicators.

Reproduction of Mishra & Koudas, *A Lightweight Online Framework For Query
Progress Indicators*, ICDE 2007, as a self-contained Python library: a
Volcano-style relational executor with instrumented preprocessing phases,
the paper's ONCE join estimators with pipeline push-down (Algorithm 1), the
GEE/MLE group-count estimators with the adaptive recomputation interval
(Algorithms 2-3) and γ² chooser, the dne and byte baselines, and a
getnext-model progress monitor.

Quickstart::

    from repro import (
        Catalog, ExecutionEngine, HashJoin, ProgressMonitor, SeqScan, TickBus,
        generate_tpch,
    )

    catalog = generate_tpch(sf=0.01, skew_z=1.0)
    join = HashJoin(
        SeqScan(catalog.table("orders")),
        SeqScan(catalog.table("lineitem")),
        "orders.orderkey", "lineitem.orderkey",
    )
    bus = TickBus(interval=1000)
    monitor = ProgressMonitor(join, mode="once", catalog=catalog, bus=bus)
    ExecutionEngine(join, bus=bus, collect_rows=False).run()
    print(monitor.snapshots[-1].progress)
"""

from repro.core import (
    DriverNodeEstimator,
    EstimationManager,
    FrequencyHistogram,
    GEEEstimator,
    GroupFrequencyState,
    HashJoinChainEstimator,
    HybridGroupCountEstimator,
    MLEEstimator,
    OnceJoinEstimator,
    ProgressMonitor,
    ProgressSnapshot,
    attach_once_estimator,
    find_hash_join_chains,
)
from repro.datagen import customer_variant, generate_tpch
from repro.executor import ExecutionEngine, TickBus, col, decompose_pipelines, explain, lit
from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    TransientFault,
    parse_fault_spec,
)
from repro.executor.operators import (
    AggregateSpec,
    Filter,
    HashAggregate,
    HashJoin,
    IndexNestedLoopsJoin,
    IndexScan,
    Limit,
    Materialize,
    NestedLoopsJoin,
    Project,
    SampleScan,
    SeqScan,
    Sort,
    SortAggregate,
    SortMergeJoin,
)
from repro.optimizer import CardinalityModel, annotate_plan
from repro.sql import compile_select, run_query
from repro.storage import Catalog, Column, ColumnType, Schema, Table

__version__ = "1.0.0"

__all__ = [
    "AggregateSpec",
    "CardinalityModel",
    "Catalog",
    "Column",
    "ColumnType",
    "DriverNodeEstimator",
    "EstimationManager",
    "ExecutionEngine",
    "FaultPlan",
    "FaultSpec",
    "Filter",
    "FrequencyHistogram",
    "GEEEstimator",
    "GroupFrequencyState",
    "HashAggregate",
    "HashJoin",
    "HashJoinChainEstimator",
    "HybridGroupCountEstimator",
    "IndexNestedLoopsJoin",
    "IndexScan",
    "InjectedFault",
    "Limit",
    "MLEEstimator",
    "Materialize",
    "NestedLoopsJoin",
    "OnceJoinEstimator",
    "ProgressMonitor",
    "ProgressSnapshot",
    "Project",
    "SampleScan",
    "Schema",
    "SeqScan",
    "Sort",
    "SortAggregate",
    "SortMergeJoin",
    "Table",
    "TickBus",
    "TransientFault",
    "annotate_plan",
    "attach_once_estimator",
    "col",
    "compile_select",
    "customer_variant",
    "decompose_pipelines",
    "explain",
    "find_hash_join_chains",
    "generate_tpch",
    "lit",
    "parse_fault_spec",
    "run_query",
]
