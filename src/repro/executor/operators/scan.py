"""Table scans.

:class:`SeqScan` reads a table in storage order. :class:`SampleScan` is the
paper's modified table scan (Section 5, "Implementation"): it first emits a
block-level random sample of the table, then the remaining blocks, excluding
sampled ones — so consumers see a statistically random prefix of the
relation, which is what gives the estimators their confidence guarantees.
``sample_boundary_hooks`` fire once, when the sample portion is exhausted;
this is the inter-operator punctuation the paper uses "to notify the
operator when the random sample is over".
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator

from repro.executor.operators.base import Operator
from repro.faults.plan import SHORT_READ, SITE_SCAN_READ
from repro.storage.sampling import BlockSample, plan_block_sample
from repro.storage.schema import Schema
from repro.storage.table import Table

__all__ = ["IndexScan", "SampleScan", "SeqScan"]


class SeqScan(Operator):
    """Sequential scan over a registered table."""

    op_name = "seq_scan"
    __slots__ = ("table", "_iter")

    def __init__(self, table: Table):
        super().__init__()
        self.table = table
        self._iter: Iterator[tuple] | None = None

    def children(self) -> tuple[Operator, ...]:
        return ()

    @property
    def output_schema(self) -> Schema:
        return self.table.schema

    @property
    def total_rows(self) -> int:
        """Exact cardinality, known from the catalog."""
        return self.table.num_rows

    def describe(self) -> str:
        return f"seq_scan({self.table.name})"

    def _open(self) -> None:
        self._iter = iter(self.table.rows())
        self._set_phase("scan")

    def _next_batch(self, max_rows: int) -> list[tuple]:
        assert self._iter is not None, "next_batch() before open()"
        if self.faults is not None:
            # Probe *before* touching the iterator: an injected error leaves
            # the scan position untouched, and a short read only shrinks the
            # budget (a short non-empty batch never implies exhaustion).
            spec = self.faults.fire(SITE_SCAN_READ, detail=self.table.name)
            if spec is not None and spec.kind == SHORT_READ:
                max_rows = self.faults.short_read(max_rows)
        return list(islice(self._iter, max_rows))

    def _close(self) -> None:
        self._iter = None


class IndexScan(Operator):
    """Scan that emits rows in key order, as an index scan would.

    Used to feed presorted inputs into merge joins (the shaded pipeline of
    the paper's Figure 1: "a merge join and the index scans feeding it").
    The emitted stream is *sorted, hence clustered, hence not random* — the
    case where the paper's estimators cannot push estimation into a
    preprocessing pass and the framework "defaults to the usual dne
    estimate" (Section 4.1.2). The (simulated) index is built eagerly at
    construction, mirroring a preexisting on-disk index.

    Optional ``low``/``high`` bounds restrict the scan to
    ``low <= key <= high`` (an index range scan).
    """

    op_name = "index_scan"
    __slots__ = ("table", "key", "low", "high", "_sorted_rows", "_iter")

    def __init__(
        self,
        table: Table,
        key: str,
        low: object | None = None,
        high: object | None = None,
    ):
        super().__init__()
        self.table = table
        self.key = key
        self.low = low
        self.high = high
        key_idx = table.schema.index_of(key)
        rows = sorted(table.rows(), key=lambda r: r[key_idx])
        if low is not None:
            rows = [r for r in rows if r[key_idx] >= low]
        if high is not None:
            rows = [r for r in rows if r[key_idx] <= high]
        self._sorted_rows: list[tuple] = rows
        self._iter: Iterator[tuple] | None = None

    def children(self) -> tuple[Operator, ...]:
        return ()

    @property
    def output_schema(self) -> Schema:
        return self.table.schema

    @property
    def total_rows(self) -> int:
        """Exact cardinality of the (range-restricted) scan."""
        return len(self._sorted_rows)

    def describe(self) -> str:
        bounds = ""
        if self.low is not None or self.high is not None:
            bounds = f", [{self.low!r}..{self.high!r}]"
        return f"index_scan({self.table.name}.{self.key.split('.')[-1]}{bounds})"

    def _open(self) -> None:
        self._iter = iter(self._sorted_rows)
        self._set_phase("scan")

    def _next_batch(self, max_rows: int) -> list[tuple]:
        assert self._iter is not None, "next_batch() before open()"
        if self.faults is not None:
            spec = self.faults.fire(SITE_SCAN_READ, detail=self.table.name)
            if spec is not None and spec.kind == SHORT_READ:
                max_rows = self.faults.short_read(max_rows)
        return list(islice(self._iter, max_rows))

    def _close(self) -> None:
        self._iter = None


class SampleScan(Operator):
    """Scan that emits a block-level random sample first, then the remainder.

    Parameters
    ----------
    fraction:
        Target sample fraction of rows (block granularity, so the actual
        fraction can slightly exceed the target).
    seed:
        Sampling seed; the same (table, seed) pair always samples the same
        blocks, modelling a precomputed on-disk sample.
    """

    op_name = "sample_scan"
    __slots__ = (
        "table",
        "fraction",
        "seed",
        "sample",
        "sample_boundary_hooks",
        "in_sample_portion",
        "_sample_iter",
        "_remainder_iter",
    )

    def __init__(self, table: Table, fraction: float, seed: int = 0):
        super().__init__()
        self.table = table
        self.fraction = fraction
        self.seed = seed
        self.sample: BlockSample = plan_block_sample(table, fraction, seed)
        self.sample_boundary_hooks: list[Callable[["SampleScan"], None]] = []
        self.in_sample_portion: bool = True
        self._sample_iter: Iterator[tuple] | None = None
        self._remainder_iter: Iterator[tuple] | None = None

    def children(self) -> tuple[Operator, ...]:
        return ()

    @property
    def output_schema(self) -> Schema:
        return self.table.schema

    @property
    def total_rows(self) -> int:
        return self.table.num_rows

    @property
    def sample_rows(self) -> int:
        return self.sample.sample_row_count

    def describe(self) -> str:
        return f"sample_scan({self.table.name}, {self.fraction:.0%})"

    def _fresh_state(self) -> None:
        self.sample_boundary_hooks = []

    def _open(self) -> None:
        self._sample_iter = self.sample.iter_sample()
        self._remainder_iter = self.sample.iter_remainder()
        self.in_sample_portion = True
        self._set_phase("sample")

    def _next_batch(self, max_rows: int) -> list[tuple]:
        if self.faults is not None:
            spec = self.faults.fire(SITE_SCAN_READ, detail=self.table.name)
            if spec is not None and spec.kind == SHORT_READ:
                max_rows = self.faults.short_read(max_rows)
        if self.in_sample_portion:
            assert self._sample_iter is not None
            batch = list(islice(self._sample_iter, max_rows))
            if batch:
                # A batch never straddles the sample/remainder boundary:
                # consumers dispatch estimator updates only *after* the pull,
                # so firing the boundary punctuation (which may freeze an
                # estimator) mid-batch would retroactively drop the sample
                # rows in front of it. Return the short sample-only batch;
                # the punctuation fires on the next pull, before the first
                # remainder row.
                return batch
            self.in_sample_portion = False
            self._set_phase("remainder")
            for hook in self.sample_boundary_hooks:
                hook(self)
        assert self._remainder_iter is not None
        return list(islice(self._remainder_iter, max_rows))

    def _close(self) -> None:
        self._sample_iter = None
        self._remainder_iter = None
