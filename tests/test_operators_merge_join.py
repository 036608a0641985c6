"""Tests for the sort-merge join."""

from repro.executor.engine import ExecutionEngine
from repro.executor.operators import SeqScan, Sort, SortMergeJoin
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.conftest import brute_force_join_size


def tables():
    left = Table("l", Schema.of("k:int", "lv:str"), [(3, "c"), (1, "a"), (2, "b"), (2, "b2")])
    right = Table("r", Schema.of("k:int", "rv:str"), [(2, "x"), (4, "w"), (2, "y"), (1, "z")])
    return left, right


class TestCorrectness:
    def test_matches_reference(self):
        left, right = tables()
        join = SortMergeJoin(SeqScan(left), SeqScan(right), "l.k", "r.k")
        result = ExecutionEngine(join).run()
        expected = {
            (1, "a", 1, "z"),
            (2, "b", 2, "x"), (2, "b", 2, "y"),
            (2, "b2", 2, "x"), (2, "b2", 2, "y"),
        }
        assert set(result.rows) == expected

    def test_duplicate_groups_cross_product(self):
        left = Table("l", Schema.of("k:int"), [(1,)] * 3)
        right = Table("r", Schema.of("k:int"), [(1,)] * 4)
        join = SortMergeJoin(SeqScan(left), SeqScan(right), "l.k", "r.k")
        assert ExecutionEngine(join).run().row_count == 12

    def test_skewed_matches_hash_join(self, skewed_pair):
        left, right = skewed_pair
        join = SortMergeJoin(SeqScan(left), SeqScan(right), "left.nationkey", "right.nationkey")
        result = ExecutionEngine(join, collect_rows=False).run()
        assert result.row_count == brute_force_join_size(
            left, right, "nationkey", "nationkey"
        )

    def test_presorted_inputs(self):
        left, right = tables()
        sorted_left = Sort(SeqScan(left), ["k"])
        join = SortMergeJoin(
            sorted_left, SeqScan(right), "l.k", "r.k", left_presorted=True
        )
        # Right is sorted internally; left comes from an explicit sort.
        assert ExecutionEngine(join, collect_rows=False).run().row_count == 5

    def test_empty_side(self):
        left = Table("l", Schema.of("k:int"), [])
        right = Table("r", Schema.of("k:int"), [(1,)])
        join = SortMergeJoin(SeqScan(left), SeqScan(right), "l.k", "r.k")
        assert ExecutionEngine(join).run().row_count == 0


class TestHooksAndStructure:
    def test_left_hooks_complete_before_right_starts(self):
        left, right = tables()
        join = SortMergeJoin(SeqScan(left), SeqScan(right), "l.k", "r.k")
        order = []
        join.input_hooks[0].append(lambda ks, rs: order.extend(("L", k) for k in ks))
        join.input_hooks[1].append(lambda ks, rs: order.extend(("R", k) for k in ks))
        ExecutionEngine(join, collect_rows=False).run()
        sides = [s for s, _ in order]
        assert sides == ["L"] * 4 + ["R"] * 4

    def test_hooks_see_input_order_not_sorted(self):
        left, right = tables()
        join = SortMergeJoin(SeqScan(left), SeqScan(right), "l.k", "r.k")
        keys = []
        join.input_hooks[0].append(lambda ks, rs: keys.extend(ks))
        ExecutionEngine(join, collect_rows=False).run()
        assert keys == [3, 1, 2, 2]

    def test_blocking_structure_depends_on_presortedness(self):
        left, right = tables()
        both = SortMergeJoin(SeqScan(left), SeqScan(right), "l.k", "r.k")
        assert both.blocking_child_indexes == (0, 1)
        one = SortMergeJoin(
            SeqScan(left), SeqScan(right), "l.k", "r.k", right_presorted=True
        )
        assert one.blocking_child_indexes == (0,)
        assert one.driver_child_index == 1

    def test_counters(self):
        left, right = tables()
        join = SortMergeJoin(SeqScan(left), SeqScan(right), "l.k", "r.k")
        ExecutionEngine(join, collect_rows=False).run()
        assert join.rows_consumed == [4, 4]

    def test_phases(self):
        left, right = tables()
        join = SortMergeJoin(SeqScan(left), SeqScan(right), "l.k", "r.k")
        phases = []
        join.phase_hooks.append(lambda op, p: phases.append(p))
        ExecutionEngine(join, collect_rows=False).run()
        # The constructor starts in "init", so the first *transition* is
        # into the left sort pass.
        assert phases == ["sort_left", "sort_right", "merge", "done"]
