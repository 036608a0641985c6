"""Base-table statistics, as a query optimizer would keep in its catalog.

The paper assumes "knowledge of the size of base tables, which is usually
available in the system catalogs" and optionally "histograms of the attribute
value distribution of single base table attributes". These statistics feed
the optimizer cardinality model (:mod:`repro.optimizer.cardinality`), whose
*textbook* estimates (uniformity + independence + containment) are exactly
what the paper's online estimators correct at run time — e.g. the 13x
misestimate of Figure 4(a) arises from the standard
``|R|·|S| / max(d_A, d_B)`` equijoin formula applied to skewed data.

Statistics can be built exactly or from a row-level sample (``sample_rows``),
mimicking ANALYZE-style collection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.common.locks import acquires
from repro.common.rng import make_rng
from repro.storage.schema import ColumnType
from repro.storage.table import Table

__all__ = [
    "ColumnStatistics",
    "ObservedCardinalities",
    "TableStatistics",
    "build_statistics",
]

_HISTOGRAM_BUCKETS = 32
_NUM_MCVS = 8


@dataclass
class ColumnStatistics:
    """Optimizer-visible statistics for one column.

    ``histogram`` is equi-width over ``[min_value, max_value]`` (numeric
    columns only) and stores per-bucket row counts; ``mcvs`` are the most
    common values with their frequencies, as PostgreSQL keeps.
    """

    column: str
    n_distinct: int
    min_value: object | None = None
    max_value: object | None = None
    histogram: tuple[int, ...] = ()
    mcvs: tuple[tuple[object, int], ...] = ()
    sampled: bool = False
    row_count: int = 0

    def selectivity_eq(self, value: object) -> float:
        """Estimated selectivity of ``column = value``."""
        if self.row_count == 0:
            return 0.0
        for mcv, count in self.mcvs:
            if mcv == value:
                return count / self.row_count
        if self.n_distinct <= 0:
            return 0.0
        # Rows not covered by MCVs, spread uniformly over remaining values.
        mcv_rows = sum(c for _, c in self.mcvs)
        rest_distinct = max(self.n_distinct - len(self.mcvs), 1)
        return max(self.row_count - mcv_rows, 0) / rest_distinct / self.row_count

    def selectivity_range(self, low: float | None, high: float | None) -> float:
        """Estimated selectivity of ``low <= column < high`` via the
        equi-width histogram (numeric columns); falls back to 1/3 heuristics
        when no histogram exists, as real optimizers do for default
        selectivity."""
        if not self.histogram or self.min_value is None or self.max_value is None:
            return 1.0 / 3.0
        lo_bound = float(self.min_value)
        hi_bound = float(self.max_value)
        if hi_bound <= lo_bound:
            return 1.0
        low = lo_bound if low is None else max(float(low), lo_bound)
        high = hi_bound + 1e-12 if high is None else min(float(high), hi_bound + 1e-12)
        if high <= low:
            return 0.0
        total = sum(self.histogram) or 1
        width = (hi_bound - lo_bound) / len(self.histogram)
        covered = 0.0
        for b, count in enumerate(self.histogram):
            b_lo = lo_bound + b * width
            b_hi = b_lo + width
            overlap = max(0.0, min(high, b_hi) - max(low, b_lo))
            if overlap > 0.0 and width > 0.0:
                covered += count * (overlap / width)
        return min(covered / total, 1.0)


@dataclass
class TableStatistics:
    """Statistics for a whole table."""

    table_name: str
    row_count: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics:
        bare = name.split(".")[-1]
        try:
            return self.columns[bare]
        except KeyError:
            raise KeyError(
                f"no statistics for column {name!r} of {self.table_name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name.split(".")[-1] in self.columns


@dataclass(frozen=True)
class _Observation:
    """One remembered subtree cardinality plus its staleness anchors."""

    rows: float
    table_rows: dict[str, int]
    seq: int


class ObservedCardinalities:
    """Observed-over-modeled cardinality overlay for the optimizer.

    The robust subsystem's feedback loop (:mod:`repro.robust.feedback`)
    records, per finished run, the *actual* output cardinality of every
    plan subtree, keyed by the subtree's canonical fingerprint digest.
    :class:`~repro.optimizer.cardinality.CardinalityModel` consults this
    overlay before its textbook model: for a subtree the system has
    executed before, the observed count wins.

    Staleness bound (both must hold for a hit):

    * **drift** — every base table under the subtree is within
      ``max_drift`` (relative row-count change) of where it stood when
      the observation was taken;
    * **age** — no more than ``max_age_runs`` runs have been absorbed
      since the observation (an old count on a hot store is suspect even
      if the table sizes happen to match).

    Thread-safe: the service absorbs finished runs from session listener
    threads while compile threads look subtrees up.
    """

    _guarded_by_ = {"_cards": "_lock", "_latest_seq": "_lock", "_absorbed": "_lock"}

    def __init__(self, max_drift: float = 0.1, max_age_runs: int = 32):
        if max_drift < 0:
            raise ValueError(f"max_drift must be >= 0, got {max_drift}")
        if max_age_runs < 1:
            raise ValueError(f"max_age_runs must be >= 1, got {max_age_runs}")
        self.max_drift = float(max_drift)
        self.max_age_runs = int(max_age_runs)
        self._lock = threading.Lock()
        self._cards: dict[str, _Observation] = {}
        self._latest_seq = 0
        self._absorbed = 0

    @acquires("_lock")
    def absorb(
        self, node_cards: dict[str, float], table_rows: dict[str, int], seq: int
    ) -> None:
        """Fold one run's per-subtree cardinalities in (newest wins)."""
        with self._lock:
            self._absorbed += 1
            self._latest_seq = max(self._latest_seq, int(seq))
            for digest, rows in node_cards.items():
                self._cards[digest] = _Observation(
                    rows=float(rows),
                    table_rows=dict(table_rows),
                    seq=int(seq),
                )

    @acquires("_lock")
    def lookup(
        self, digest: str, live_table_rows: dict[str, int] | None = None
    ) -> float | None:
        """The observed cardinality for a subtree digest, or None when the
        subtree was never observed or the observation is stale."""
        with self._lock:
            obs = self._cards.get(digest)
            if obs is None:
                return None
            if self._latest_seq - obs.seq > self.max_age_runs:
                return None
            for name, live in (live_table_rows or {}).items():
                then = obs.table_rows.get(name)
                if then is None:
                    return None  # new base table: observation predates it
                drift = abs(int(live) - then) / max(then, 1)
                if drift > self.max_drift:
                    return None
            return obs.rows

    @property
    def version(self) -> int:
        """Runs absorbed so far; no lookup answer changes until it moves.
        (``_latest_seq`` need not: a replayed older run leaves it put.)"""
        with self._lock:
            return self._absorbed

    def __len__(self) -> int:
        with self._lock:
            return len(self._cards)


def build_statistics(
    table: Table,
    columns: Iterable[str] | None = None,
    sample_rows: int | None = None,
    seed: int = 0,
) -> TableStatistics:
    """Collect statistics for ``table``.

    Parameters
    ----------
    columns:
        Columns to analyse (default: all).
    sample_rows:
        If given, statistics are computed from a row-level random sample of
        this size and scaled up, which introduces realistic estimation noise.
        Distinct counts are scaled with the first-order jackknife-style
        ``d * n / sample`` cap, matching how sampled ANALYZE misjudges
        distinct counts.
    """
    names = list(columns) if columns is not None else table.schema.names(qualified=False)
    row_count = table.num_rows
    if sample_rows is not None and 0 < sample_rows < row_count:
        rng = make_rng(seed, "stats-sample", table.name)
        idx = rng.choice(row_count, size=sample_rows, replace=False)
        rows = [table.rows()[i] for i in idx]
        scale = row_count / sample_rows
        sampled = True
    else:
        rows = list(table.rows())
        scale = 1.0
        sampled = False

    stats = TableStatistics(table.name, row_count)
    for name in names:
        col_idx = table.schema.index_of(name)
        ctype = table.schema.columns[col_idx].ctype
        counts: dict[object, int] = {}
        for r in rows:
            v = r[col_idx]
            counts[v] = counts.get(v, 0) + 1
        n_distinct = len(counts)
        if sampled:
            # Scale singleton-heavy distinct counts up, capped by row count.
            n_distinct = min(int(n_distinct * scale ** 0.5) or n_distinct, row_count)
        mcvs = tuple(
            (v, int(c * scale))
            for v, c in sorted(counts.items(), key=lambda kv: -kv[1])[:_NUM_MCVS]
        )
        histogram: tuple[int, ...] = ()
        min_v = max_v = None
        if counts and ctype in (ColumnType.INT, ColumnType.FLOAT):
            min_v = min(counts)
            max_v = max(counts)
            if max_v > min_v:
                buckets = [0] * _HISTOGRAM_BUCKETS
                span = float(max_v) - float(min_v)
                for v, c in counts.items():
                    b = min(
                        int((float(v) - float(min_v)) / span * _HISTOGRAM_BUCKETS),
                        _HISTOGRAM_BUCKETS - 1,
                    )
                    buckets[b] += c
                histogram = tuple(int(b * scale) for b in buckets)
        elif counts:
            min_v = min(counts, key=str)
            max_v = max(counts, key=str)
        stats.columns[name] = ColumnStatistics(
            column=name,
            n_distinct=n_distinct,
            min_value=min_v,
            max_value=max_v,
            histogram=histogram,
            mcvs=mcvs,
            sampled=sampled,
            row_count=row_count,
        )
    return stats
