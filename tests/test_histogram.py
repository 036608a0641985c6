"""Tests for the exact frequency histogram."""

from collections import Counter

import pytest

from repro.core.distinct import LOW, GroupFrequencyState
from repro.core.histogram import FrequencyHistogram


class TestBasics:
    def test_counts(self):
        h = FrequencyHistogram()
        h.add_many([1, 2, 2, 3, 3, 3])
        assert h.count(1) == 1
        assert h[2] == 2
        assert h[3] == 3
        assert h.count(99) == 0
        assert h.total == 6
        assert h.num_distinct == 3
        assert len(h) == 3

    def test_add_returns_old_count(self):
        h = FrequencyHistogram()
        assert h.add("x") == 0
        assert h.add("x") == 1
        assert h.add("x", weight=5) == 2

    def test_weighted_add(self):
        h = FrequencyHistogram()
        h.add("v", weight=10)
        assert h["v"] == 10
        assert h.total == 10

    def test_zero_weight_is_noop(self):
        h = FrequencyHistogram()
        h.add("v")
        assert h.add("v", weight=0) == 1
        assert h["v"] == 1

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            FrequencyHistogram().add("v", weight=-1)

    def test_contains_and_iter(self):
        h = FrequencyHistogram()
        h.add_many("ab")
        assert "a" in h
        assert set(h) == {"a", "b"}

    def test_max_multiplicity(self):
        h = FrequencyHistogram()
        assert h.max_multiplicity() == 0
        h.add_many([1, 1, 1, 2])
        assert h.max_multiplicity() == 3


class TestFrequencyOfFrequencies:
    """The group-count state keeps f_i = |{v : c_v = i}| for 0 < i < LOW,
    what GEE and the MLE read."""

    @staticmethod
    def _fof(state: GroupFrequencyState) -> dict[int, int]:
        return {i: f for i, f in enumerate(state.fof) if f}

    def test_tracked_incrementally(self):
        state = GroupFrequencyState()
        for v in [1, 2, 2, 3, 3, 3]:
            state.observe(v)
        assert self._fof(state) == {1: 1, 2: 1, 3: 1}

    def test_matches_on_demand_computation(self):
        state = GroupFrequencyState()
        data = [1, 1, 2, 5, 5, 5, 5, 9, 9, 1]
        for v in data:
            state.observe(v)
        assert self._fof(state) == dict(Counter(Counter(data).values()))

    def test_weighted_transitions(self):
        state = GroupFrequencyState()
        state.observe("a", weight=3)
        assert self._fof(state) == {3: 1}
        state.observe("a", weight=2)
        assert self._fof(state) == {5: 1}
        # Past the kept horizon the group leaves the index but not counts.
        state.observe("a", weight=LOW)
        assert self._fof(state) == {}
        assert state.counts == {"a": LOW + 5}

    def test_old_buckets_cleaned_up(self):
        state = GroupFrequencyState()
        state.observe("a")
        state.observe("a")
        assert state.fof[1] == 0
        assert len(state.fof) == LOW and state.fof[0] == 0


class TestDot:
    def test_exact_join_size(self):
        a = FrequencyHistogram()
        b = FrequencyHistogram()
        a.add_many([1, 1, 2, 3])
        b.add_many([1, 2, 2, 4])
        # 2*1 + 1*2 = 4
        assert a.dot(b) == 4
        assert b.dot(a) == 4

    def test_disjoint(self):
        a = FrequencyHistogram()
        b = FrequencyHistogram()
        a.add_many([1, 2])
        b.add_many([3, 4])
        assert a.dot(b) == 0


class TestMemoryAccounting:
    def test_model_bytes_linear_in_entries(self):
        h = FrequencyHistogram()
        for i in range(1000):
            h.add(i)
        assert h.memory_model_bytes() == 1000 * 20
        assert h.memory_payload_bytes() == 1000 * 8

    def test_actual_bytes_positive_and_growing(self):
        h = FrequencyHistogram()
        empty = h.memory_actual_bytes()
        for i in range(10_000):
            h.add(i)
        assert h.memory_actual_bytes() > empty
