"""Exact frequency histograms.

The paper's estimators all rest on one data structure: an exact
value -> count histogram built during an operator's preprocessing pass
("we build a histogram that maintains a count N_i^R for each value i in R").
This module provides it, together with the memory accounting of Table 2 —
both the paper's PostgreSQL hash-table cost model (8 payload bytes/entry
plus pointer overhead) and an actual measurement of the Python structure.
(The group-count estimators keep their own, smaller state:
:class:`repro.core.distinct.GroupFrequencyState`.)

Weighted increments (``add(value, weight)``, ``add_weighted``) support
derived histograms: Case 2 of Section 4.1.4.2 increments "the count of the
bucket corresponding to x1 by N_{y1}^A". The aggregation push-down's
histogram of the *join output's* frequency distribution is weighted the
same way, a probe batch at a time, in
:meth:`repro.core.distinct.GroupFrequencyState.observe_weighted`.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Iterable, Iterator, Sequence

__all__ = ["BucketizedHistogram", "FrequencyHistogram"]

# Table 2 cost model: 8 payload bytes per entry (4 value + 4 count) plus
# ~12 bytes of hash-table pointer overhead, matching the ~20 B/entry the
# paper measured for PostgreSQL's generic dynahash.
_PAYLOAD_BYTES_PER_ENTRY = 8
_POSTGRES_OVERHEAD_BYTES_PER_ENTRY = 12


class FrequencyHistogram:
    """Exact value -> count map (a :class:`~collections.Counter`, so a
    build batch is counted in C) plus the total of all counts."""

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.total: int = 0

    # -- updates ---------------------------------------------------------------

    def add(self, value: object, weight: int = 1) -> int:
        """Increment ``value`` by ``weight``; returns the previous count."""
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        if weight == 0:
            return self.counts.get(value, 0)
        old = self.counts.get(value, 0)
        new = old + weight
        self.counts[value] = new
        self.total += weight
        return old

    def add_many(self, values: Iterable[object]) -> None:
        for v in values:
            self.add(v)

    def add_batch(self, values: Sequence[object]) -> None:
        """Bulk increment: one unit per non-None value, counted in C
        (``Counter.update``) — the state of one :meth:`add` per non-None
        value. None values are skipped (popped after counting; no build
        path stores a None key), matching the build-hook convention that
        NULL keys never join; feed key lists straight from a batch drain.
        """
        counts = self.counts
        counts.update(values)
        self.total += len(values) - counts.pop(None, 0)

    def add_weighted(self, values: Iterable[object], weights: Iterable[int]) -> None:
        """Bulk ``add(value, weight)`` over paired iterables — a derived
        histogram's build batch, one Python step per row. None values and
        zero weights are skipped."""
        counts = self.counts
        get = counts.get
        added = 0
        for value, weight in zip(values, weights):
            if weight and value is not None:
                counts[value] = get(value, 0) + weight
                added += weight
        self.total += added

    # -- queries ------------------------------------------------------------------

    def count(self, value: object) -> int:
        return self.counts.get(value, 0)

    def __getitem__(self, value: object) -> int:
        return self.counts.get(value, 0)

    def __contains__(self, value: object) -> bool:
        return value in self.counts

    def __len__(self) -> int:
        """Number of distinct values."""
        return len(self.counts)

    def __iter__(self) -> Iterator[object]:
        return iter(self.counts)

    def items(self):
        return self.counts.items()

    @property
    def num_distinct(self) -> int:
        return len(self.counts)

    def max_multiplicity(self) -> int:
        """Largest count of any single value (0 when empty)."""
        return max(self.counts.values(), default=0)

    def dot(self, other: "FrequencyHistogram") -> int:
        """Σ_v self[v] * other[v] — the exact equijoin size of the two
        underlying multisets. Iterates the smaller histogram."""
        small, large = (
            (self, other) if len(self.counts) <= len(other.counts) else (other, self)
        )
        large_get = large.counts.get
        return sum(c * large_get(v, 0) for v, c in small.counts.items())

    # -- memory accounting (Table 2) ----------------------------------------------

    def memory_model_bytes(self) -> int:
        """Size under the paper's PostgreSQL hash-table cost model."""
        return len(self.counts) * (
            _PAYLOAD_BYTES_PER_ENTRY + _POSTGRES_OVERHEAD_BYTES_PER_ENTRY
        )

    def memory_payload_bytes(self) -> int:
        """Just the 8 payload bytes per entry the paper says it stores."""
        return len(self.counts) * _PAYLOAD_BYTES_PER_ENTRY

    def memory_actual_bytes(self) -> int:
        """Measured size of the Python dict (keys/values assumed interned
        ints of machine-word size, as in our executor)."""
        size = sys.getsizeof(self.counts)
        if self.counts:
            # Sample one key/value as representative; our histograms hold
            # homogeneous small ints or short tuples.
            key = next(iter(self.counts))
            size += len(self.counts) * (
                sys.getsizeof(key) + sys.getsizeof(self.counts[key])
            )
        return size


class BucketizedHistogram:
    """Approximate frequency histogram with a fixed bucket budget.

    The paper's future-work direction ("deploying approximations of the
    histograms we construct ... the classic accuracy performance trade-off
    can be explored via approximation"): values hash into ``num_buckets``
    counters, so memory is O(num_buckets) regardless of the number of
    distinct keys, at the price of collision-induced *over*-counts — a
    ``count`` query returns the bucket total, an upper bound on the true
    frequency. Drop-in compatible with the subset of the
    :class:`FrequencyHistogram` interface the ONCE estimators use.
    """

    __slots__ = ("buckets", "num_buckets", "total")

    def __init__(self, num_buckets: int = 1024):
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.num_buckets = num_buckets
        self.buckets = [0] * num_buckets
        self.total = 0

    def add(self, value: object, weight: int = 1) -> int:
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        idx = hash(value) % self.num_buckets
        old = self.buckets[idx]
        self.buckets[idx] = old + weight
        self.total += weight
        return old

    def add_batch(self, values: Iterable[object]) -> None:
        """Bulk increment, one bucket update per distinct non-None value
        (same skip-None convention as :meth:`FrequencyHistogram.add_batch`)."""
        buckets = self.buckets
        num_buckets = self.num_buckets
        added = 0
        for value, weight in Counter(values).items():
            if value is None:
                continue
            buckets[hash(value) % num_buckets] += weight
            added += weight
        self.total += added

    def count(self, value: object) -> int:
        """Upper bound on the frequency of ``value``."""
        return self.buckets[hash(value) % self.num_buckets]

    def max_multiplicity(self) -> int:
        return max(self.buckets, default=0)

    @property
    def num_distinct(self) -> int:
        """Occupied buckets — a lower bound on the true distinct count."""
        return sum(1 for b in self.buckets if b)

    def memory_model_bytes(self) -> int:
        """Fixed cost: one 4-byte counter per bucket."""
        return 4 * self.num_buckets

    def memory_actual_bytes(self) -> int:
        return sys.getsizeof(self.buckets) + 28 * self.num_buckets
