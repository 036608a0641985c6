"""Plan fragmentation: one serial plan → P per-partition fragments + merge.

The compiler splits a validated serial plan into two regions:

* a **partitioned region** — the largest subtree that can run unchanged
  over table shards: scans, filters, projections, materialize/sort chains,
  and hash joins. Each join is executed either *partition-wise* (both
  inputs co-hash-partitioned on the single join key, traced through the
  chain down to a base-table column) or with a *broadcast build* (the
  probe side stays partitioned however it already is; every worker gets
  the full build subtree). A fragment for partition ``p`` is a structural
  clone of the region with every leaf scan re-pointed at shard ``p``
  (or at the full table, for leaves under a broadcast build).
* a **coordinator merge** peeled off the root: final aggregation over the
  fragments' partial aggregates (count/sum/min/max/avg decompose;
  ``count_distinct`` does not), global duplicate elimination above local
  ``Distinct``, and re-sorting — applied innermost-first to the union of
  fragment outputs by plain coordinator code, not operators.

Anything the split cannot prove exact raises :class:`FragmentationError`
and the caller falls back to serial execution: ``LIMIT`` (serial
truncation order is not reproducible from shards), ``count_distinct``
(not decomposable), aggregates/``Distinct`` below the root region (their
local output is partition-dependent), multi-key or non-hash joins inside
the region (no single key to co-partition on; broadcast of the *build*
side still covers the common cases).

Exactness argument: under co-partitioning every build row matching a
probe row lives in the probe row's partition, and under broadcast every
build row lives in all of them — either way each probe tuple sees exactly
the global match set, so ``⋃_p fragment_p ≡ serial`` as multisets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.executor.operators.aggregate import (
    AggregateSpec,
    HashAggregate,
    SortAggregate,
    _AggregateBase,
)
from repro.executor.expressions import compile_projection_kernel
from repro.executor.operators.base import Operator
from repro.executor.operators.distinct import Distinct
from repro.executor.operators.filter import Filter
from repro.executor.operators.hash_join import HashJoin
from repro.executor.operators.limit import Limit
from repro.executor.operators.materialize import Materialize
from repro.executor.operators.project import Project
from repro.executor.operators.scan import IndexScan, SampleScan, SeqScan
from repro.executor.operators.sort import Sort
from repro.executor.plan import validate_plan, walk
from repro.storage.partition import Partitioner
from repro.storage.table import Table

__all__ = [
    "AggregateStep",
    "DistinctStep",
    "FragmentPlan",
    "FragmentationError",
    "ProjectStep",
    "SortStep",
    "compile_fragments",
    "try_compile",
]

_LEAF_TYPES = (SeqScan, IndexScan, SampleScan)
_CHAIN_TYPES = (Filter, Materialize, Sort)


class FragmentationError(ValueError):
    """The plan cannot be split into exact per-partition fragments."""


# -- coordinator merge steps -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SortStep:
    """Re-sort the merged rows (the peeled serial ``Sort``)."""

    key_idxs: tuple[int, ...]
    descending: bool

    def apply(self, rows: list[tuple]) -> list[tuple]:
        idxs = self.key_idxs
        if len(idxs) == 1:
            idx = idxs[0]
            return sorted(rows, key=lambda r: r[idx], reverse=self.descending)
        return sorted(
            rows,
            key=lambda r: tuple(r[i] for i in idxs),
            reverse=self.descending,
        )


class ProjectStep:
    """Row-wise projection applied to merged rows (a serial ``Project``
    peeled from above the merge root — e.g. above a final aggregate)."""

    __slots__ = ("_kernel",)

    def __init__(self, kernel):
        self._kernel = kernel

    @classmethod
    def from_operator(cls, project: Project) -> "ProjectStep":
        in_schema = project.child.output_schema
        return cls(compile_projection_kernel(project.expressions(), in_schema))

    def apply(self, rows: list[tuple]) -> list[tuple]:
        return self._kernel(rows)


@dataclass(frozen=True, slots=True)
class DistinctStep:
    """Global first-seen dedupe over the locally-deduped fragment outputs."""

    def apply(self, rows: list[tuple]) -> list[tuple]:
        seen: set = set()
        out = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return out


@dataclass(frozen=True, slots=True)
class AggregateStep:
    """Final aggregation over the fragments' partial-aggregate rows.

    ``finals`` holds one ``(kind, partial_idxs)`` per serial aggregate
    spec, where the indexes address the partial columns *after* the group
    columns. Kinds: ``count`` re-sums partial counts; ``sum``/``min``/
    ``max`` fold None-skipping exactly like the serial update loop (a
    shard whose inputs were all NULL contributes ``None``); ``avg``
    divides re-summed (Σ, n) partials. Integer inputs merge bit-identical
    to serial; float sums can differ in the last ulp because addition
    order changes (documented in docs/PARALLEL.md).
    """

    group_arity: int
    finals: tuple[tuple[str, tuple[int, ...]], ...]

    def apply(self, rows: list[tuple]) -> list[tuple]:
        arity = self.group_arity
        finals = self.finals
        groups: dict[tuple, list] = {}
        order: list[tuple] = []
        for row in rows:
            key = tuple(row[:arity])
            acc = groups.get(key)
            if acc is None:
                acc = [[None, 0] if kind == "avg" else None for kind, _ in finals]
                groups[key] = acc
                order.append(key)
            for pos, (kind, idxs) in enumerate(finals):
                value = row[arity + idxs[0]]
                if kind == "count":
                    acc[pos] = value if acc[pos] is None else acc[pos] + value
                elif kind == "avg":
                    count = row[arity + idxs[1]]
                    if count:
                        slot = acc[pos]
                        slot[0] = value if slot[0] is None else slot[0] + value
                        slot[1] += count
                elif value is not None:
                    cur = acc[pos]
                    if cur is None:
                        acc[pos] = value
                    elif kind == "sum":
                        acc[pos] = cur + value
                    elif kind == "min":
                        acc[pos] = min(cur, value)
                    else:  # max
                        acc[pos] = max(cur, value)
        out = []
        for key in order:
            acc = groups[key]
            values = []
            for pos, (kind, _idxs) in enumerate(finals):
                if kind == "avg":
                    total, count = acc[pos]
                    values.append(total / count if count else None)
                elif kind == "count":
                    values.append(acc[pos] or 0)
                else:
                    values.append(acc[pos])
            out.append(key + tuple(values))
        return out


def _decompose_aggregates(
    specs: tuple[AggregateSpec, ...],
) -> tuple[tuple[AggregateSpec, ...], tuple[tuple[str, tuple[int, ...]], ...]]:
    """Split serial aggregate specs into partial specs + final fold specs."""
    partials: list[AggregateSpec] = []
    finals: list[tuple[str, tuple[int, ...]]] = []
    for spec in specs:
        func = spec.func
        j = len(partials)
        if func == "count_distinct":
            raise FragmentationError(
                "count_distinct does not decompose into mergeable partials"
            )
        if func == "avg":
            partials.append(AggregateSpec("sum", spec.column, f"__p{j}_sum"))
            partials.append(AggregateSpec("count", spec.column, f"__p{j}_cnt"))
            finals.append(("avg", (j, j + 1)))
        elif func == "count":
            partials.append(AggregateSpec("count", spec.column, f"__p{j}_cnt"))
            finals.append(("count", (j,)))
        elif func in ("sum", "min", "max"):
            partials.append(AggregateSpec(func, spec.column, f"__p{j}_{func}"))
            finals.append((func, (j,)))
        else:  # pragma: no cover - no other funcs exist today
            raise FragmentationError(f"cannot decompose aggregate {func!r}")
    return tuple(partials), tuple(finals)


# -- region planning ---------------------------------------------------------------


def _canon(schema, name: str) -> str | None:
    """Resolve ``name`` in ``schema`` to its canonical qualified name."""
    try:
        return schema.column(name).qualified_name
    except Exception:
        return None


class _RegionPlanner:
    """Single pass over the partitioned region choosing per-leaf shard
    specs and per-join partition-wise vs broadcast execution."""

    def __init__(self, region: Operator):
        self.region = region
        # id(leaf op) -> ("hash", canonical column) | ("rows",) | ("broadcast",)
        self.leaf_specs: dict[int, tuple] = {}
        self.broadcast_builds: set[int] = set()  # id(join) with replicated build
        self.replicated: set[int] = set()  # id(op) inside a replicated subtree

    def plan(self) -> None:
        self._plan(self.region)
        for op in walk(self.region):
            if isinstance(op, _LEAF_TYPES) and id(op) not in self.leaf_specs:
                self.leaf_specs[id(op)] = ("rows",)

    def _plan(self, op: Operator) -> set[str]:
        """Returns the canonical columns ``op``'s output is co-partitioned on."""
        if isinstance(op, _LEAF_TYPES):
            spec = self.leaf_specs.get(id(op))
            return {spec[1]} if spec and spec[0] == "hash" else set()
        if isinstance(op, _CHAIN_TYPES):
            return self._plan(op.children()[0])
        if isinstance(op, Project):
            keys = self._plan(op.child)
            return {k for k in keys if self._project_passes(op, k)}
        if isinstance(op, HashJoin):
            return self._plan_join(op)
        raise FragmentationError(
            f"{op.op_name} is not supported inside a partitioned region"
        )

    def _plan_join(self, join: HashJoin) -> set[str]:
        probe_keys = self._plan(join.probe_child)
        partition_wise = False
        probe_canon = build_canon = None
        if len(join.probe_keys) == 1:
            probe_canon = _canon(join.probe_child.output_schema, join.probe_keys[0])
            build_canon = _canon(join.build_child.output_schema, join.build_keys[0])
        if probe_canon is not None and build_canon is not None:
            probe_ok = probe_canon in probe_keys or self._try_key_partition(
                join.probe_child, probe_canon
            )
            if probe_ok and self._try_key_partition(join.build_child, build_canon):
                partition_wise = True
        if not partition_wise:
            self.broadcast_builds.add(id(join))
            for op in walk(join.build_child):
                self.replicated.add(id(op))
                if isinstance(op, _LEAF_TYPES):
                    self.leaf_specs[id(op)] = ("broadcast",)
                if isinstance(op, HashJoin):
                    self.broadcast_builds.add(id(op))
            # Output rows follow the probe side's existing partitioning.
            out_schema = join.output_schema
            return {k for k in probe_keys if _canon(out_schema, k) == k}
        out_keys = set()
        out_schema = join.output_schema
        candidates = [probe_canon]
        # An outer join NULL-pads unmatched build columns, which breaks the
        # build key's co-partition property downstream; semi/anti outputs
        # carry no build columns at all.
        if join.join_type == "inner":
            candidates.append(build_canon)
        for key in candidates:
            if _canon(out_schema, key) == key:
                out_keys.add(key)
        return out_keys

    @staticmethod
    def _project_passes(project: Project, key: str) -> bool:
        for spec in project.columns:
            if isinstance(spec, str):
                col = _canon(project.child.output_schema, spec)
                if col == key:
                    return True
        return False

    def _try_key_partition(self, op: Operator, key: str) -> bool:
        """Trace ``key`` through a scan chain and hash-assign its leaf."""
        cur = op
        while True:
            if isinstance(cur, _LEAF_TYPES):
                if _canon(cur.output_schema, key) != key:
                    return False
                existing = self.leaf_specs.get(id(cur))
                if existing is not None and existing != ("hash", key):
                    return False
                self.leaf_specs[id(cur)] = ("hash", key)
                return True
            if isinstance(cur, _CHAIN_TYPES):
                cur = cur.children()[0]
                continue
            if isinstance(cur, Project):
                if not self._project_passes(cur, key):
                    return False
                cur = cur.child
                continue
            return False


# -- fragment plan -----------------------------------------------------------------


class FragmentPlan:
    """The compiled split: per-partition fragment factory + merge recipe.

    Fragments are built fresh on every :meth:`build_fragment` call (an
    operator tree is single-use), while table shards are computed once and
    cached. ``node_map`` translates a fragment's pre-order node ids to the
    serial plan's; it is identical across partitions because every
    fragment is the same structural clone.
    """

    def __init__(
        self,
        serial_root: Operator,
        num_partitions: int,
        region: Operator,
        steps: tuple,
        wrap: tuple | None,
        planner: _RegionPlanner,
    ):
        self.serial_root = serial_root
        self.num_partitions = num_partitions
        self._region = region
        self.steps = steps
        self._wrap = wrap
        self._planner = planner
        self._shards: dict[int, list[Table]] = {}
        # Re-keyed onto serial node ids.
        self.broadcast_builds = frozenset(
            op.node_id for op in walk(region) if id(op) in planner.broadcast_builds
        )
        self.replicated_nodes = frozenset(
            op.node_id for op in walk(region) if id(op) in planner.replicated
        )
        fragment, pairs = self._clone_with_pairs(0)
        validate_plan(fragment)
        self.node_map: dict[int, int] = {
            clone.node_id: serial.node_id for serial, clone in pairs
        }

    # -- shards -----------------------------------------------------------------

    def _shard(self, leaf: Operator, p: int) -> Table:
        spec = self._planner.leaf_specs[id(leaf)]
        if spec[0] == "broadcast":
            return leaf.table
        shards = self._shards.get(id(leaf))
        if shards is None:
            if spec[0] == "hash":
                shards = Partitioner(self.num_partitions, "hash").partition(
                    leaf.table, spec[1]
                )
            else:
                shards = Partitioner(self.num_partitions, "rows").partition(leaf.table)
            self._shards[id(leaf)] = shards
        return shards[p]

    # -- cloning ----------------------------------------------------------------

    def build_fragment(self, p: int) -> Operator:
        """A fresh executable fragment for partition ``p``."""
        fragment, _pairs = self._clone_with_pairs(p)
        return fragment

    def _clone_with_pairs(
        self, p: int
    ) -> tuple[Operator, list[tuple[Operator, Operator]]]:
        pairs: list[tuple[Operator, Operator]] = []

        def clone(op: Operator) -> Operator:
            if isinstance(op, SeqScan):
                new: Operator = SeqScan(self._shard(op, p))
            elif isinstance(op, IndexScan):
                new = IndexScan(self._shard(op, p), op.key, op.low, op.high)
            elif isinstance(op, SampleScan):
                new = SampleScan(self._shard(op, p), op.fraction, op.seed)
            elif isinstance(op, Filter):
                new = Filter(clone(op.child), op.predicate)
            elif isinstance(op, Project):
                new = Project(clone(op.child), op.columns)
            elif isinstance(op, Sort):
                new = Sort(clone(op.child), op.keys, op.descending)
            elif isinstance(op, Materialize):
                new = Materialize(clone(op.child))
            elif isinstance(op, HashJoin):
                build = clone(op.build_child)
                probe = clone(op.probe_child)
                new = HashJoin(
                    build,
                    probe,
                    op.build_keys,
                    op.probe_keys,
                    num_partitions=op.num_partitions,
                    memory_partitions=op.memory_partitions,
                    join_type=op.join_type,
                )
            else:  # pragma: no cover - planner already rejected these
                raise FragmentationError(f"cannot clone {op.op_name}")
            pairs.append((op, new))
            return new

        root = clone(self._region)
        if self._wrap is not None:
            serial_op = self._wrap[1]
            if self._wrap[0] == "distinct":
                root = Distinct(root)
            else:
                cls = type(serial_op)
                root = cls(root, serial_op.group_by, self._wrap[2])
            pairs.append((serial_op, root))
        return root, pairs

    # -- merge ------------------------------------------------------------------

    def merge_rows(self, rows: list[tuple]) -> list[tuple]:
        """Apply the peeled coordinator steps, innermost first."""
        for step in reversed(self.steps):
            rows = step.apply(rows)
        return rows

    def describe(self) -> str:
        kinds = [type(s).__name__ for s in self.steps]
        return (
            f"fragments(P={self.num_partitions}, "
            f"broadcast_joins={len(self.broadcast_builds)}, "
            f"merge=[{', '.join(kinds) or 'union'}])"
        )


# -- compiler ----------------------------------------------------------------------


def compile_fragments(root: Operator, num_partitions: int) -> FragmentPlan:
    """Split ``root`` into ``num_partitions`` fragments + a merge recipe.

    The serial plan is validated (node ids assigned) but never executed or
    mutated; fragments clone it. Raises :class:`FragmentationError` when an
    exact split does not exist — callers are expected to fall back to
    serial execution.
    """
    if num_partitions < 1:
        raise FragmentationError(f"num_partitions must be >= 1, got {num_partitions}")
    validate_plan(root)
    steps: list = []
    wrap: tuple | None = None
    cur = root
    while True:
        if isinstance(cur, Limit):
            raise FragmentationError(
                "LIMIT truncates in serial emit order, which shards cannot "
                "reproduce"
            )
        if isinstance(cur, Sort):
            schema = cur.output_schema
            steps.append(
                SortStep(
                    tuple(schema.index_of(k) for k in cur.keys), cur.descending
                )
            )
            cur = cur.child
            continue
        if isinstance(cur, Materialize):
            cur = cur.child
            continue
        if isinstance(cur, Project) and any(
            isinstance(op, (Distinct, _AggregateBase)) for op in walk(cur.child)
        ):
            # A projection above a blocking merge root runs coordinator-side
            # on the merged rows; one below stays in the partitioned region.
            steps.append(ProjectStep.from_operator(cur))
            cur = cur.child
            continue
        if isinstance(cur, Distinct):
            steps.append(DistinctStep())
            wrap = ("distinct", cur)
            cur = cur.child
            break
        if isinstance(cur, _AggregateBase):
            partials, finals = _decompose_aggregates(cur.aggregates)
            steps.append(AggregateStep(len(cur.group_by), finals))
            wrap = (type(cur).op_name, cur, partials)
            cur = cur.child
            break
        break
    region = cur
    for op in walk(region):
        if isinstance(op, (Distinct, _AggregateBase, Limit)):
            raise FragmentationError(
                f"{op.op_name} below the merge root is partition-dependent"
            )
    planner = _RegionPlanner(region)
    planner.plan()
    return FragmentPlan(root, num_partitions, region, tuple(steps), wrap, planner)


def try_compile(root: Operator, num_partitions: int) -> FragmentPlan | None:
    """``compile_fragments`` that answers None instead of raising."""
    try:
        return compile_fragments(root, num_partitions)
    except FragmentationError:
        return None
