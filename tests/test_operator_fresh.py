"""Copy isolation for ``Operator.fresh()``.

A compiled plan can serve many executions only if each runs on its own
copy: a copy shares the template's read-only parts (tables, keys,
expressions, schemas, compiled kernels, estimates) and owns everything a
run or a monitor mutates. For every operator class, two copies run
interleaved must leave the template untouched, each give exactly what a
freshly built plan gives, share no mutable container, and never see each
other's hooks.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ExecutorError
from repro.executor.expressions import Comparison, col, lit
from repro.executor.operators import (
    AggregateSpec,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    IndexNestedLoopsJoin,
    IndexScan,
    Limit,
    Materialize,
    NestedLoopsJoin,
    OperatorState,
    Project,
    SampleScan,
    SeqScan,
    Sort,
    SortAggregate,
    SortMergeJoin,
)
from repro.executor.plan import walk
from repro.storage.schema import Schema
from repro.storage.table import Table

#: Slots two copies may share although they hold a container: each is
#: read-only after construction.
SHARED_READ_ONLY = {
    ("Project", "columns"),
    ("IndexScan", "_sorted_rows"),
    ("SampleScan", "sample"),
}

BUILD_ROWS = [(i % 9, i) for i in range(30)]
PROBE_ROWS = [((i * 7) % 13, i) for i in range(50)]
BUILD = Table("b", Schema.of("k:int", "v:int"), BUILD_ROWS, block_size=4)
PROBE = Table("p", Schema.of("k:int", "w:int"), PROBE_ROWS, block_size=4)
# NULL join keys, for the operators that hash rather than sort them.
BUILD_NULLS = Table("b", Schema.of("k:int", "v:int"), BUILD_ROWS + [(None, 99)], block_size=4)
PROBE_NULLS = Table("p", Schema.of("k:int", "w:int"), PROBE_ROWS + [(None, 98)], block_size=4)

ALL_AGGREGATES = (
    AggregateSpec("count", alias="n"),
    AggregateSpec("count", "p.w", alias="nw"),
    AggregateSpec("sum", "p.w", alias="s"),
    AggregateSpec("min", "p.w", alias="lo"),
    AggregateSpec("max", "p.w", alias="hi"),
    AggregateSpec("avg", "p.w", alias="mean"),
    AggregateSpec("count_distinct", "p.w", alias="nd"),
)


def hash_join(kind):
    return lambda: HashJoin(
        SeqScan(BUILD_NULLS), SeqScan(PROBE_NULLS), "b.k", "p.k",
        num_partitions=4, memory_partitions=1, join_type=kind,
    )  # fmt: skip


PLANS = {
    "seq_scan": lambda: SeqScan(PROBE),
    "index_scan": lambda: IndexScan(PROBE, "p.k", low=2, high=10),
    "sample_scan": lambda: SampleScan(PROBE, 0.3, seed=5),
    "filter": lambda: Filter(SeqScan(PROBE), Comparison(">", col("p.w"), lit(12))),
    "project": lambda: Project(
        SeqScan(PROBE), ["p.k", ("double", Comparison(">", col("p.w"), lit(3)))]
    ),
    "hash_join_inner": hash_join("inner"),
    "hash_join_outer": hash_join("outer"),
    "hash_join_semi": hash_join("semi"),
    "hash_join_anti": hash_join("anti"),
    "merge_join": lambda: SortMergeJoin(SeqScan(BUILD), SeqScan(PROBE), "b.k", "p.k"),
    "merge_join_presorted": lambda: SortMergeJoin(
        IndexScan(BUILD, "b.k"), IndexScan(PROBE, "p.k"), "b.k", "p.k",
        left_presorted=True, right_presorted=True,
    ),  # fmt: skip
    "nl_join": lambda: NestedLoopsJoin(
        SeqScan(PROBE), SeqScan(BUILD), Comparison("<", col("p.w"), col("b.v"))
    ),
    "index_nl_join": lambda: IndexNestedLoopsJoin(
        SeqScan(PROBE_NULLS), SeqScan(BUILD_NULLS), "p.k", "b.k"
    ),
    "hash_aggregate": lambda: HashAggregate(SeqScan(PROBE), ["p.k"], ALL_AGGREGATES),
    "hash_aggregate_global": lambda: HashAggregate(SeqScan(PROBE), [], ALL_AGGREGATES),
    "sort_aggregate": lambda: SortAggregate(SeqScan(PROBE), ["p.k"], ALL_AGGREGATES),
    "sort_aggregate_two_keys": lambda: SortAggregate(
        SeqScan(PROBE), ["p.k", "p.w"], ALL_AGGREGATES[:2]
    ),
    "distinct": lambda: Distinct(Project(SeqScan(PROBE), ["p.k"])),
    "sort": lambda: Sort(SeqScan(PROBE), ["p.k", "p.w"], descending=True),
    "limit": lambda: Limit(Sort(SeqScan(PROBE), ["p.w"]), 17),
    "materialize": lambda: Materialize(SeqScan(PROBE)),
    "pipeline": lambda: Limit(
        Sort(
            HashAggregate(
                Filter(hash_join("inner")(), Comparison(">", col("b.v"), lit(4))),
                ["p.k"],
                ALL_AGGREGATES,
            ),
            ["n"],
        ),
        5,
    ),
}


def slot_names(op) -> list[str]:
    return [
        name
        for klass in type(op).__mro__
        for name in klass.__dict__.get("__slots__", ())
    ]


def contents(value):
    """A shallow copy of a container slot (and of the containers inside a
    tuple slot), so a later in-place mutation shows up as inequality."""
    if isinstance(value, (list, dict, set)):
        return type(value)(value)
    if isinstance(value, tuple):
        return tuple(contents(item) for item in value)
    return value


def slot_values(root) -> list[dict[str, tuple[object, object]]]:
    """Every slot of every node: ``name -> (value, contents)``."""
    return [
        {name: (getattr(op, name), contents(getattr(op, name))) for name in slot_names(op)}
        for op in walk(root)
    ]


def assert_unchanged(root, before) -> None:
    for op, values in zip(walk(root), before, strict=True):
        for name, (value, copied) in values.items():
            now = getattr(op, name)
            assert now is value, f"{op.op_name}.{name} replaced"
            assert contents(now) == copied, f"{op.op_name}.{name} mutated"


def containers(value):
    if isinstance(value, (list, dict, set)):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            if isinstance(item, (list, dict, set)):
                yield item


def assert_no_shared_containers(a, b) -> None:
    for op_a, op_b in zip(walk(a), walk(b), strict=True):
        for name in slot_names(op_a):
            if (type(op_a).__name__, name) in SHARED_READ_ONLY:
                continue
            mine = {id(c) for c in containers(getattr(op_a, name))}
            theirs = {id(c) for c in containers(getattr(op_b, name))}
            assert not mine & theirs, f"{op_a.op_name}.{name} is shared"


def run_interleaved(a, b, batch: int = 3) -> tuple[list, list]:
    """Open both copies and pull them alternately until both are dry."""
    a.open()
    b.open()
    rows = ([], [])
    live = [True, True]
    while any(live):
        for i, op in enumerate((a, b)):
            if live[i]:
                got = op.next_batch(batch)
                rows[i].extend(got)
                live[i] = bool(got)
    a.close()
    b.close()
    return rows


def run_alone(plan, batch: int = 3) -> list:
    plan.open()
    rows = []
    while got := plan.next_batch(batch):
        rows.extend(got)
    plan.close()
    return rows


def emitted(root) -> list[int]:
    return [op.tuples_emitted for op in walk(root)]


@pytest.fixture(params=sorted(PLANS), ids=str)
def build(request):
    return PLANS[request.param]


class TestFresh:
    def test_interleaved_copies_match_a_new_plan_and_leave_the_template(self, build):
        template = build()
        before = slot_values(template)
        a, b = template.fresh(), template.fresh()
        rows_a, rows_b = run_interleaved(a, b)

        reference = build()
        expected = run_alone(reference)
        assert rows_a == expected
        assert rows_b == expected
        assert emitted(a) == emitted(b) == emitted(reference)
        assert all(op.state is OperatorState.CREATED for op in walk(template))
        assert_unchanged(template, before)

    def test_copies_share_no_mutable_container(self, build):
        template = build()
        a, b = template.fresh(), template.fresh()
        assert_no_shared_containers(a, b)
        assert_no_shared_containers(a, template)
        a.open()
        b.open()
        assert_no_shared_containers(a, b)

    def test_copies_share_the_read_only_plan(self, build):
        template = build()
        copy = template.fresh()
        for op, twin in zip(walk(template), walk(copy), strict=True):
            assert twin is not op
            assert type(twin) is type(op)
            assert twin.output_schema.names() == op.output_schema.names()
            assert twin.describe() == op.describe()
            for name in slot_names(op):
                value = getattr(op, name)
                if name in ("_batch_kernel", "predicate", "table", "_schema"):
                    assert getattr(twin, name) is value

    def test_hooks_on_one_copy_never_fire_on_the_other(self, build):
        template = build()
        a, b = template.fresh(), template.fresh()
        fired = []
        for op in walk(a):
            op.phase_hooks.append(lambda _op, phase: fired.append(phase))
            for hooks in op.input_hooks:
                hooks.append(lambda keys, rows: fired.append(len(rows)))
            for callbacks in op.input_end_hooks:
                callbacks.append(lambda: fired.append("end"))
            if isinstance(op, SampleScan):
                op.sample_boundary_hooks.append(lambda _scan: fired.append("boundary"))
        run_alone(b)
        assert fired == []
        run_alone(a)
        assert fired

    def test_fresh_of_an_opened_operator_raises(self, build):
        template = build()
        copy = template.fresh()
        copy.open()
        with pytest.raises(ExecutorError, match="fresh"):
            copy.fresh()
        copy.close()
        with pytest.raises(ExecutorError, match="fresh"):
            copy.fresh()
        # The template itself stays copyable.
        assert template.fresh().state is OperatorState.CREATED


class TestInstrumentationIsNew:
    def test_estimate_kept_run_state_reset(self):
        template = PLANS["pipeline"]()
        for i, op in enumerate(walk(template)):
            op.estimated_cardinality = float(i + 1)
            op.node_id = i
        copy = template.fresh()
        for i, op in enumerate(walk(copy)):
            assert op.estimated_cardinality == float(i + 1)
            assert op.node_id is None
            assert op.bus is None and op.faults is None
            assert op.fetch_size == 0
            assert op.tuples_emitted == 0
            assert op.rows_consumed == [0] * len(op.input_hooks)

    def test_aliased_children_stay_aliased(self):
        join = HashJoin(SeqScan(BUILD), SeqScan(PROBE), "b.k", "p.k")
        join.probe_child = join.build_child
        copy = join.fresh()
        assert copy.probe_child is copy.build_child
        assert copy.build_child is not join.build_child
