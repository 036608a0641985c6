"""Tests for the hybrid hash join."""

import pytest

from repro.common.errors import PlanError
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import HashJoin, SeqScan
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.conftest import brute_force_join_size


def small_tables():
    left = Table("l", Schema.of("k:int", "lv:str"), [(1, "a"), (2, "b"), (2, "c"), (4, "d")])
    right = Table("r", Schema.of("k:int", "rv:str"), [(2, "x"), (2, "y"), (3, "z"), (4, "w")])
    return left, right


class TestCorrectness:
    @pytest.mark.parametrize("num_partitions,memory", [(1, 1), (4, 0), (4, 1), (4, 4)])
    def test_matches_reference(self, num_partitions, memory):
        left, right = small_tables()
        join = HashJoin(
            SeqScan(left), SeqScan(right), "l.k", "r.k",
            num_partitions=num_partitions, memory_partitions=memory,
        )
        result = ExecutionEngine(join).run()
        expected = {
            (2, "b", 2, "x"), (2, "b", 2, "y"),
            (2, "c", 2, "x"), (2, "c", 2, "y"),
            (4, "d", 4, "w"),
        }
        assert set(result.rows) == expected
        assert result.row_count == 5

    def test_skewed_join_size(self, skewed_pair):
        left, right = skewed_pair
        join = HashJoin(SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey")
        result = ExecutionEngine(join, collect_rows=False).run()
        assert result.row_count == brute_force_join_size(
            left, right, "nationkey", "nationkey"
        )

    def test_multi_column_keys(self):
        schema_a = Schema.of("x:int", "y:int")
        schema_b = Schema.of("x:int", "y:int")
        a = Table("a", schema_a, [(1, 1), (1, 2), (2, 1)])
        b = Table("b", schema_b, [(1, 1), (1, 1), (2, 2)])
        join = HashJoin(SeqScan(a), SeqScan(b), ["a.x", "a.y"], ["b.x", "b.y"])
        result = ExecutionEngine(join).run()
        assert result.row_count == 2  # (1,1) matches twice

    def test_none_keys_do_not_join(self):
        a = Table("a", Schema.of("k:int"), [(None,), (1,)])
        b = Table("b", Schema.of("k:int"), [(None,), (1,)])
        join = HashJoin(SeqScan(a), SeqScan(b), "a.k", "b.k")
        assert ExecutionEngine(join).run().row_count == 1

    def test_empty_build_side(self):
        a = Table("a", Schema.of("k:int"), [])
        b = Table("b", Schema.of("k:int"), [(1,), (2,)])
        join = HashJoin(SeqScan(a), SeqScan(b), "a.k", "b.k")
        assert ExecutionEngine(join).run().row_count == 0

    def test_output_schema_is_build_then_probe(self):
        left, right = small_tables()
        join = HashJoin(SeqScan(left), SeqScan(right), "l.k", "r.k")
        assert join.output_schema.names() == ["l.k", "l.lv", "r.k", "r.rv"]


class TestValidation:
    def test_key_arity_mismatch(self):
        left, right = small_tables()
        with pytest.raises(PlanError):
            HashJoin(SeqScan(left), SeqScan(right), ["l.k"], ["r.k", "r.rv"])

    def test_bad_partition_counts(self):
        left, right = small_tables()
        with pytest.raises(PlanError):
            HashJoin(SeqScan(left), SeqScan(right), "l.k", "r.k", num_partitions=0)
        with pytest.raises(PlanError):
            HashJoin(
                SeqScan(left), SeqScan(right), "l.k", "r.k",
                num_partitions=4, memory_partitions=5,
            )


class TestHooksAndPhases:
    def test_build_pass_hooks_see_every_build_tuple(self):
        left, right = small_tables()
        join = HashJoin(SeqScan(left), SeqScan(right), "l.k", "r.k")
        keys = []
        join.input_hooks[0].append(lambda ks, rows: keys.extend(ks))
        ExecutionEngine(join, collect_rows=False).run()
        assert keys == [1, 2, 2, 4]

    def test_probe_pass_hooks_in_input_order_before_join(self):
        """Probe hooks must observe the stream before partition reordering —
        the property ONCE estimation depends on (Section 4.1.1)."""
        left, right = small_tables()
        join = HashJoin(
            SeqScan(left), SeqScan(right), "l.k", "r.k",
            num_partitions=4, memory_partitions=0,  # pure grace
        )
        events = []
        join.input_hooks[1].append(
            lambda keys, rows: events.extend(("probe", k) for k in keys)
        )
        join.phase_hooks.append(lambda op, p: events.append(("phase", p)))
        ExecutionEngine(join, collect_rows=False).run()
        probe_keys = [k for kind, k in events if kind == "probe"]
        assert probe_keys == [2, 2, 3, 4]  # input order
        # All probe hooks fire before the join phase starts.
        join_phase_at = events.index(("phase", "join"))
        last_probe_at = max(i for i, e in enumerate(events) if e[0] == "probe")
        assert last_probe_at < join_phase_at

    def test_hybrid_emits_during_probe_pass(self):
        """With memory partitions, some output appears before the join
        phase — the hybrid trickle that feeds the dne estimator early."""
        left, right = skewed = small_tables()
        join = HashJoin(
            SeqScan(left), SeqScan(right), "l.k", "r.k",
            num_partitions=2, memory_partitions=1,
        )
        join.open()
        emitted_during_probe = 0
        while True:
            row = join.next()
            if row is None:
                break
            if join.phase in ("probe", "partition_probe"):
                emitted_during_probe += 1
        assert emitted_during_probe > 0

    def test_grace_emits_nothing_until_join_phase(self):
        left, right = small_tables()
        join = HashJoin(
            SeqScan(left), SeqScan(right), "l.k", "r.k",
            num_partitions=2, memory_partitions=0,
        )
        join.open()
        first = join.next()
        assert first is not None
        assert join.phase == "join"

    def test_counters(self, skewed_pair):
        left, right = skewed_pair
        join = HashJoin(SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey")
        ExecutionEngine(join, collect_rows=False).run()
        assert join.rows_consumed == [len(left), len(right)]


class TestPartitionClustering:
    def test_grace_output_clustered_by_partition(self, skewed_pair):
        """Partition-wise probing reorders output: consecutive output rows
        come from the same hash partition (the Figure 4 reordering)."""
        left, right = skewed_pair
        n_parts = 8
        join = HashJoin(
            SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey",
            num_partitions=n_parts, memory_partitions=0,
        )
        result = ExecutionEngine(join).run()
        key_idx = join.output_schema.index_of("left.nationkey")
        partitions = [hash(r[key_idx]) % n_parts for r in result.rows]
        # Once a partition is left, it never reappears.
        seen, current = set(), None
        for p in partitions:
            if p != current:
                assert p not in seen
                seen.add(p)
                current = p
