"""Tests for the blocking sort operator."""

import pytest

from repro.executor.operators import SeqScan, Sort
from repro.storage.schema import Schema
from repro.storage.table import Table


@pytest.fixture
def unsorted_table() -> Table:
    rows = [(3, "c"), (1, "a"), (2, "b"), (1, "z"), (5, "e")]
    return Table("u", Schema.of("k:int", "v:str"), rows)


class TestSort:
    def test_sorts_ascending(self, unsorted_table):
        op = Sort(SeqScan(unsorted_table), ["k"])
        op.open()
        assert [r[0] for r in op] == [1, 1, 2, 3, 5]

    def test_sorts_descending(self, unsorted_table):
        op = Sort(SeqScan(unsorted_table), ["k"], descending=True)
        op.open()
        assert [r[0] for r in op] == [5, 3, 2, 1, 1]

    def test_multi_key(self, unsorted_table):
        op = Sort(SeqScan(unsorted_table), ["k", "v"])
        op.open()
        assert list(op)[:2] == [(1, "a"), (1, "z")]

    def test_stable_counts(self, unsorted_table):
        op = Sort(SeqScan(unsorted_table), ["k"])
        op.open()
        list(op)
        assert op.rows_consumed == [5]
        assert op.tuples_emitted == 5

    def test_input_hooks_fire_before_output(self, unsorted_table):
        """The sort input pass sees every tuple before any output: the
        preprocessing window the ONCE estimator relies on (Section 4.1.2)."""
        op = Sort(SeqScan(unsorted_table), ["k"])
        seen: list[int] = []
        op.input_hooks[0].append(lambda keys, rows: seen.extend(keys))
        op.open()
        first = op.next()
        assert len(seen) == 5  # all input seen before the first output row
        assert first == (1, "a")

    def test_input_hooks_preserve_input_order(self, unsorted_table):
        op = Sort(SeqScan(unsorted_table), ["k"])
        seen: list[int] = []
        op.input_hooks[0].append(lambda keys, rows: seen.extend(keys))
        op.open()
        list(op)
        assert seen == [3, 1, 2, 1, 5]  # original (random) order, not sorted

    def test_requires_keys(self, unsorted_table):
        with pytest.raises(ValueError):
            Sort(SeqScan(unsorted_table), [])

    def test_phases(self, unsorted_table):
        op = Sort(SeqScan(unsorted_table), ["k"])
        phases = []
        op.phase_hooks.append(lambda _op, p: phases.append(p))
        op.open()
        list(op)
        assert phases == ["read_input", "sort", "emit", "done"]
