"""Batch-aggregated estimator updates: exact equivalence with per-tuple.

The batch hooks (``on_build_batch`` / ``on_probe_batch`` / ``observe_batch``
and the chain estimator's batch twins) claim *bit-identical* state, not
state-within-tolerance: every quantity they maintain is an integer-valued
sum below 2**53, so folding a batch at once changes the number of arithmetic
operations but not one bit of the result. This suite holds them to that
claim — Monte-Carlo across join types and random batch splits for the ONCE
estimator, engine-driven row-vs-batch runs for the chain estimator
(including a Case-2 derived-histogram chain and the aggregation push-down
listener path), scheduler fidelity for the hybrid group-count estimator at
equal read points, and the empty-batch / NULL-key edge cases.
"""

from __future__ import annotations

import operator
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.rng import make_rng
from repro.core import pipeline_estimators
from repro.core.distinct import (
    LOW,
    GroupFrequencyState,
    HybridGroupCountEstimator,
    MLEEstimator,
    RecomputeScheduler,
)
from repro.core.histogram import BucketizedHistogram, FrequencyHistogram
from repro.core.join_estimators import OnceJoinEstimator
from repro.core.pipeline_estimators import (
    HashJoinChainEstimator,
    find_hash_join_chains,
)
from repro.datagen.skew import customer_variant
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import HashJoin, SeqScan
from repro.storage.schema import Schema
from repro.storage.table import Table

JOIN_TYPES = ("inner", "semi", "anti", "outer")

SEED = 0xBA7C


def _random_keys(rng, n: int, domain: int, null_rate: float = 0.0) -> list:
    return [
        None if null_rate and rng.random() < null_rate else int(rng.integers(0, domain))
        for _ in range(n)
    ]


def _random_chunks(rng, items: list) -> list[list]:
    """Split ``items`` into random-size chunks (sizes 1..1500)."""
    chunks = []
    i = 0
    while i < len(items):
        size = int(rng.integers(1, 1500))
        chunks.append(items[i : i + size])
        i += size
    return chunks


def _sums(acc):
    """An accumulator's sufficient statistics ``(t, Σc, Σc²)``."""
    return (acc.t, acc.sum_c, acc.sum_c_sq)


# -- ONCE (binary join) estimator ----------------------------------------------


class TestOnceBatch:
    @pytest.mark.parametrize("join_type", JOIN_TYPES)
    @pytest.mark.parametrize("trial", range(5))
    def test_monte_carlo_state_and_ci_equality(self, join_type, trial):
        rng = make_rng(SEED, "once", join_type, trial)
        build = _random_keys(rng, 2_000, domain=40, null_rate=0.05)
        probe = _random_keys(rng, 6_000, domain=50, null_rate=0.08)

        row = OnceJoinEstimator(probe_total=6_000.0, join_type=join_type)
        batch = OnceJoinEstimator(probe_total=6_000.0, join_type=join_type)
        for key in build:
            row.on_build(key)
        for chunk in _random_chunks(rng, build):
            batch.on_build_batch(chunk)
        assert row.histogram.counts == batch.histogram.counts

        # Read after every chunk: each read sees the per-tuple prefix state.
        row_reads, batch_reads = [], []
        for chunk in _random_chunks(rng, probe):
            for key in chunk:
                row.on_probe(key)
            batch.on_probe_batch(chunk)
            row_reads.append((row.acc.t, row.acc.estimate()))
            batch_reads.append((batch.acc.t, batch.acc.estimate()))

        assert _sums(row.acc) == _sums(batch.acc)
        # Not approx: endpoints must match to the last bit.
        assert row.acc.confidence_interval() == batch.acc.confidence_interval()
        assert row.acc.estimate() == batch.acc.estimate()
        assert row_reads == batch_reads

    def test_empty_batch_is_a_noop(self):
        estimator = OnceJoinEstimator(probe_total=10.0)
        estimator.on_build_batch([])
        estimator.on_probe_batch([])
        assert _sums(estimator.acc) == (0, 0, 0)
        assert estimator.histogram.num_distinct == 0

    @pytest.mark.parametrize("join_type", JOIN_TYPES)
    def test_all_none_probe_batch(self, join_type):
        row = OnceJoinEstimator(probe_total=8.0, join_type=join_type)
        batch = OnceJoinEstimator(probe_total=8.0, join_type=join_type)
        for estimator in (row, batch):
            estimator.on_build(5)
        keys = [None] * 8
        for key in keys:
            row.on_probe(key)
        batch.on_probe_batch(keys)
        assert _sums(row.acc) == _sums(batch.acc)
        # NULL never matches: contributes 0 except under anti/outer (1 each).
        expected = 8 if join_type in ("anti", "outer") else 0
        assert batch.acc.sum_c == expected

    def test_build_batch_skips_none_keys(self):
        estimator = OnceJoinEstimator()
        estimator.on_build_batch([None, 1, None, 1, 2])
        assert estimator.histogram.counts == {1: 2, 2: 1}


# -- histogram bulk updates ----------------------------------------------------


class TestHistogramBatch:
    def test_add_batch_matches_unit_adds(self):
        rng = make_rng(SEED, "fof")
        values = _random_keys(rng, 4_000, domain=60, null_rate=0.03)
        row = FrequencyHistogram()
        batch = FrequencyHistogram()
        for value in values:
            if value is not None:
                row.add(value)
        for chunk in _random_chunks(rng, values):
            batch.add_batch(chunk)
        assert row.counts == batch.counts
        assert None not in batch.counts
        assert row.total == batch.total

    def test_bucketized_add_batch(self):
        rng = make_rng(SEED, "bucket")
        values = _random_keys(rng, 3_000, domain=500, null_rate=0.05)
        row = BucketizedHistogram(num_buckets=64)
        batch = BucketizedHistogram(num_buckets=64)
        for value in values:
            if value is not None:
                row.add(value)
        for chunk in _random_chunks(rng, values):
            batch.add_batch(chunk)
        assert row.buckets == batch.buckets
        assert row.total == batch.total


# -- hybrid GEE/MLE group-count estimator --------------------------------------


def _hybrid_state(hybrid) -> tuple:
    state = hybrid.state
    return (
        dict(state.counts),
        (state.t, list(state.fof), state.sum_sq),
        hybrid.exact,
        (hybrid._cached_mle, hybrid._mle_t),
        (hybrid.scheduler.interval, hybrid.scheduler.recompute_count),
    )


@st.composite
def _stream_with_reads(draw):
    """A key stream, the ``t`` values it is read at, and extra cut points."""
    values = draw(st.lists(st.integers(0, 60), min_size=1, max_size=600))
    t = st.integers(1, len(values))
    reads = set(draw(st.lists(t, max_size=40)))
    cuts = set(draw(st.lists(t, max_size=60)))
    return values, reads, cuts


def _algorithm_3_per_tuple(values: list, total: float) -> list[float] | None:
    """Algorithm 3 driven by the tuple stream: the MLE is recomputed at every
    ``t`` that is a multiple of the current interval, and a reader after each
    tuple is served the cached value, floored at the groups seen (before the
    first boundary, the first read evaluates it once). ``None`` when the
    chooser would pick GEE at some read."""
    bounds = HybridGroupCountEstimator(total=total)
    state = GroupFrequencyState()
    mle = MLEEstimator(state)
    schedule = RecomputeScheduler(bounds.scheduler.lower, bounds.scheduler.upper)
    cached = 0.0
    served = []
    for value in values:
        state.observe(value)
        if state.t % schedule.interval == 0:
            old, cached = cached, mle.estimate(total)
            schedule.after_recompute(old, cached)
        if state.gamma_squared >= bounds.tau:
            return None
        if cached <= 0.0:
            cached = mle.estimate(total)
        served.append(max(cached, float(state.distinct_seen)))
    return served


class TestHybridBatch:
    @pytest.mark.parametrize("trial", range(4))
    def test_monte_carlo_full_state_equality(self, trial):
        rng = make_rng(SEED, "hybrid", trial)
        # Small |T| keeps the recompute interval short, so batches straddle
        # many recompute boundaries.
        values = _random_keys(rng, 12_000, domain=300)
        row = HybridGroupCountEstimator(total=12_000.0)
        batch = HybridGroupCountEstimator(total=12_000.0)
        row_reads, batch_reads = [], []
        for chunk in _random_chunks(rng, values):
            for value in chunk:
                row.state.observe(value)
            batch.observe_batch(chunk)
            row_reads.append((row.state.t, row.estimate()))
            batch_reads.append((batch.state.t, batch.estimate()))

        row_s, batch_s = row.state, batch.state
        assert row_s.counts == batch_s.counts
        assert (row_s.t, row_s.fof, row_s.sum_sq) == (batch_s.t, batch_s.fof, batch_s.sum_sq)
        # Scheduler fidelity: both paths are read after every chunk, at the
        # same t, so the MLE was recomputed at the same t values and the
        # interval went through the same doubling/reset sequence.
        assert row_reads == batch_reads
        assert _hybrid_state(row) == _hybrid_state(batch)
        assert row.estimate() == batch.estimate()

    @settings(max_examples=60, deadline=None)
    @given(
        case=_stream_with_reads(),
        tau=st.sampled_from([0.0, 1.0, 10.0, float("inf")]),
    )
    def test_same_reads_any_chunking_same_state(self, case, tau):
        """Chunked at random between the same read points, the whole state
        is equal — the cached MLE, its ``t``, the interval and the recompute
        count included."""
        values, reads, cuts = case
        row = HybridGroupCountEstimator(total=2_000.0, tau=tau)
        batch = HybridGroupCountEstimator(total=2_000.0, tau=tau)
        row_reads = []
        for t, value in enumerate(values, start=1):
            row.state.observe(value)
            if t in reads:
                row_reads.append(row.estimate())
        batch_reads = []
        start = 0
        for end in sorted(reads | cuts | {len(values)}):
            batch.observe_batch(values[start:end])
            start = end
            if end in reads:
                batch_reads.append(batch.estimate())
        assert batch_reads == row_reads
        assert _hybrid_state(batch) == _hybrid_state(row)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 80), min_size=1, max_size=800))
    def test_reader_of_every_tuple_gets_algorithm_3(self, values):
        """Read after every tuple while the chooser picks the MLE, the
        read-driven schedule recomputes at exactly Algorithm 3's points."""
        expected = _algorithm_3_per_tuple(values, 2_000.0)
        assume(expected is not None)
        hybrid = HybridGroupCountEstimator(total=2_000.0)
        got = []
        for value in values:
            hybrid.state.observe(value)
            got.append(hybrid.estimate())
        assert got == expected

    def test_empty_batch_is_a_noop(self):
        estimator = HybridGroupCountEstimator(total=100.0)
        estimator.observe_batch([])
        assert estimator.state.t == 0
        assert estimator.state._pending == []  # the settle mode is untouched

    def test_none_is_a_legitimate_group(self):
        """Unlike join keys, NULL group values aggregate (into the NULL
        group), so observe_batch must count them."""
        row = HybridGroupCountEstimator(total=6.0)
        batch = HybridGroupCountEstimator(total=6.0)
        values = [None, 1, None, 2, 1, None]
        for value in values:
            row.state.observe(value)
        batch.observe_batch(values)
        assert row.state.counts == batch.state.counts
        assert batch.state.counts[None] == 3
        assert batch.state.distinct_seen == 3


class TestLazyGroupStatistics:
    """Batches only count; f_i and Σc² settle at the next read. At every
    read they, and everything derived from them, equal a state fed one
    eager ``observe`` per tuple — with reads, weighted observations and
    None keys interleaved, and ``(t, estimate())`` read after every batch."""

    _GROUP = st.one_of(st.none(), st.integers(0, 40))
    _STEPS = st.lists(
        st.one_of(
            st.tuples(st.just("batch"), st.lists(_GROUP, max_size=150)),
            st.tuples(st.just("observe"), _GROUP, st.integers(0, 6)),
            st.tuples(st.just("read")),
        ),
        max_size=30,
    )

    @staticmethod
    def _reads(hybrid, total: float) -> tuple:
        state = hybrid.state
        return (
            list(state.fof),
            state.sum_sq,
            state.t,
            state.distinct_seen,
            state.gamma_squared,
            hybrid.gee.estimate(total),
            hybrid.mle.estimate(total),
            hybrid.chosen,
            hybrid.estimate(),
        )

    @settings(max_examples=150, deadline=None)
    @given(
        steps=_STEPS,
        tau=st.sampled_from([0.0, 10.0, float("inf")]),
    )
    def test_every_read_equals_the_per_tuple_state(self, steps, tau):
        total = 3_000.0
        lazy = HybridGroupCountEstimator(total=total, tau=tau)
        eager = HybridGroupCountEstimator(total=total, tau=tau)
        truth: Counter = Counter()
        for step in steps:
            if step[0] == "batch":
                keys = step[1]
                lazy.observe_batch(keys)
                for key in keys:
                    eager.state.observe(key)
                truth.update(keys)
                assert (lazy.state.t, lazy.estimate()) == (eager.state.t, eager.estimate())
            elif step[0] == "observe":
                _, key, weight = step
                lazy.state.observe(key, weight)
                eager.state.observe(key, weight)
                if weight:
                    truth[key] += weight
            else:
                assert self._reads(lazy, total) == self._reads(eager, total)
        assert self._reads(lazy, total) == self._reads(eager, total)
        fof = Counter(truth.values())
        assert lazy.state.counts == truth
        assert lazy.state.fof == [0] + [fof[i] for i in range(1, LOW)]
        assert lazy.state.sum_sq == sum(c * c for c in truth.values())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.tuples(_GROUP, st.integers(0, 6)), max_size=40), max_size=8))
    def test_a_weighted_batch_equals_its_unit_keys(self, batches):
        """The push-down's fold: a batch of ``(value, weight)`` pairs, zero
        weights and repeated values included, reads after every batch as
        the same batch spelled out as unit keys, and ends at the
        definition's counts, f_i and Σc²."""
        total = 3_000.0
        weighted = HybridGroupCountEstimator(total=total)
        unit = HybridGroupCountEstimator(total=total)
        truth: Counter = Counter()
        for pairs in batches:
            weighted.state.observe_weighted([v for v, _ in pairs], [w for _, w in pairs])
            keys = [v for v, w in pairs for _ in range(w)]
            unit.observe_batch(keys)
            truth.update(keys)
            assert self._reads(weighted, total) == self._reads(unit, total)
        fof = Counter(truth.values())
        assert weighted.state.counts == truth
        assert weighted.state.fof == [0] + [fof[i] for i in range(1, LOW)]
        assert weighted.state.sum_sq == sum(c * c for c in truth.values())

    def test_settling_folds_few_keys_and_rebuilds_from_many(self):
        """Both settles agree with the definition: a read after a few keys
        over many groups folds those keys; one after many keys rebuilds."""
        state = GroupFrequencyState()
        state.observe_batch(list(range(1000)) * 2)  # rebuild: 1000 groups, 2000 keys
        assert (state.fof[2], state.sum_sq) == (1000, 4000)
        state.observe_batch([1, 1, 2, None])  # fold: 1001 groups, 4 keys
        assert (state.fof[1], state.fof[2], state.fof[3], state.fof[4]) == (1, 998, 1, 1)
        assert state.sum_sq == 4000 + (16 - 4) + (9 - 4) + 1


# -- hash-join chain estimator (engine-driven) ---------------------------------


def _tables():
    return (
        customer_variant(z=1.0, domain_size=20, variant=0, num_rows=220, name="c1"),
        customer_variant(z=1.5, domain_size=20, variant=1, num_rows=180, name="c2"),
        customer_variant(z=0.3, domain_size=30, variant=2, num_rows=150, name="c3"),
    )


def _c_keyed_chain():
    """k=2 chain, both probe keys on the base stream C (Case 1)."""
    c1, c2, c3 = _tables()
    j0 = HashJoin(SeqScan(c1), SeqScan(c3), "c1.nationkey", "c3.nationkey")
    j1 = HashJoin(SeqScan(c2), j0, "c2.nationkey", "c3.nationkey")
    return j1


def _derived_chain():
    """k=2 chain whose upper probe key is a column of the lower build
    relation (Case 2: derived-histogram path)."""
    c1, c2, c3 = _tables()
    j0 = HashJoin(SeqScan(c1), SeqScan(c3), "c1.nationkey", "c3.nationkey")
    j1 = HashJoin(SeqScan(c2), j0, "c2.custkey", "c1.custkey")
    return j1


def _nonzero_pairs(stream: list):
    """An output listener that appends each batch's nonzero
    ``(value, contribution)`` pairs to ``stream``, batch after batch."""

    def listener(values, contributions):
        assert len(values) == len(contributions)
        stream.extend((v, c) for v, c in zip(values, contributions) if c)

    return listener


def _run_chain(build_plan, batch_size, listener_column=None):
    plan = build_plan()
    (chain,) = find_hash_join_chains(plan)
    estimator = HashJoinChainEstimator(chain)
    observed = []
    if listener_column is not None:
        estimator.add_output_listener(listener_column, _nonzero_pairs(observed))
    ExecutionEngine(plan).run(batch_size=batch_size)
    return estimator, observed


def _chain_state(estimator):
    return (
        [_sums(level) for level in estimator.levels],
        estimator.exact,
        [dict(h.counts) for h in estimator.base_hists],
        {key: dict(h.counts) for key, h in estimator.derived.items()},
        [level.confidence_interval() for level in estimator.levels],
    )


class TestChainBatch:
    @pytest.mark.parametrize("build_plan", [_c_keyed_chain, _derived_chain])
    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    def test_engine_row_vs_batch(self, build_plan, batch_size):
        reference, _ = _run_chain(build_plan, batch_size=None)
        got, _ = _run_chain(build_plan, batch_size=batch_size)
        assert got.k == 2
        assert _chain_state(got) == _chain_state(reference)

    @pytest.mark.parametrize("batch_size", [7, 1024])
    def test_output_listener_forces_identical_per_row_stream(self, batch_size):
        """With a push-down listener attached, the chain still folds whole
        batches and hands the listener each batch's values and
        contributions: their concatenated nonzero (value, contribution)
        stream must match row mode's exactly, and so must the state."""
        reference, ref_seen = _run_chain(
            _c_keyed_chain, batch_size=None, listener_column="c3.nationkey"
        )
        got, batch_seen = _run_chain(
            _c_keyed_chain, batch_size=batch_size, listener_column="c3.nationkey"
        )
        assert batch_seen == ref_seen
        assert _chain_state(got) == _chain_state(reference)

    def test_single_join_chain_batch_twin(self):
        """k=1 is the binary ONCE case of the same kernel."""

        def build_plan():
            c1, _, c3 = _tables()
            return HashJoin(SeqScan(c1), SeqScan(c3), "c1.nationkey", "c3.nationkey")

        reference, _ = _run_chain(build_plan, batch_size=None)
        got, _ = _run_chain(build_plan, batch_size=1024)
        assert got.k == 1
        assert _chain_state(got) == _chain_state(reference)


class TestStopAfterSampleBatch:
    """The sample-boundary freeze lands on the same tuple in every mode.

    ``SampleScan._next_batch`` never lets a batch straddle the
    sample/remainder boundary (it returns a short sample-only batch and
    fires the punctuation on the next pull), so a frozen chain estimator
    observes exactly the sample-portion rows — the same ``t`` and sums as
    row mode — even when the whole sample fits inside one batch.
    """

    @staticmethod
    def _run(batch_size):
        from repro.executor.operators import SampleScan

        c1, _, c3 = _tables()
        plan = HashJoin(
            SeqScan(c1), SampleScan(c3, 0.3, seed=7), "c1.nationkey", "c3.nationkey"
        )
        est = HashJoinChainEstimator([plan], stop_after_sample=True)
        ExecutionEngine(plan, collect_rows=False).run(batch_size=batch_size)
        return est

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1024])
    def test_freeze_point_matches_row_mode(self, batch_size):
        reference = self._run(None)
        got = self._run(batch_size)
        assert reference.frozen and got.frozen
        assert got.t == reference.t > 0
        assert _chain_state(got) == _chain_state(reference)


# -- column-at-a-time kernels vs. the per-tuple definition (hypothesis) --------
# The probe and derived-build kernels fold a batch with C-level passes
# (itemgetter / dict.get / mul / sum). The reference below never touches a
# histogram: a probe tuple's level-i contribution is the number of chain[i]
# output rows it generates, counted by nested loops, and a derived
# histogram entry is the number of rows of its folded build-side join.

_KEY = st.one_of(st.none(), st.integers(0, 4))
_BATCH_SIZE = st.sampled_from([1, 2, 3, 7, 1024])


def _rows(width: int, max_size: int = 14):
    """Row lists: hypothesis shrinks toward empty and duplicate-heavy ones;
    the ``unique`` arm forces all-distinct batches."""
    row = st.tuples(*[_KEY] * width)
    return st.one_of(
        st.lists(row, max_size=max_size),
        st.lists(row, max_size=max_size, unique=True),
        st.lists(st.tuples(*[st.integers(100, 200)] * width), max_size=max_size, unique=True),
    )


def _pk_rows(width: int, max_size: int = 14):
    """Build rows whose first column (the join key) is unique, as a
    primary key's is."""
    return st.lists(
        st.tuples(*[st.integers(0, 6)] * width), max_size=max_size, unique_by=lambda r: r[0]
    )


def _scan(name: str, cols: list[str], rows: list[tuple]) -> SeqScan:
    table = Table(name, Schema.of(*[f"{c}:int" for c in cols]), rows, block_size=4)
    return SeqScan(table)


def _q8_chain(c, b0, b1, b2):
    """Nested references (Case 2 twice): J1 keyed on B0's column, J2 on B1's."""
    j0 = HashJoin(_scan("b0", ["x", "u"], b0), _scan("c", ["x"], c), "b0.x", "c.x")
    j1 = HashJoin(_scan("b1", ["u", "v"], b1), j0, "b1.u", "b0.u")
    return [j0, j1, HashJoin(_scan("b2", ["v"], b2), j1, "b2.v", "b1.v")]


def _same_attribute_chain(c, b0, b1):
    """Case 1: both joins keyed on the same column of the base stream."""
    j0 = HashJoin(_scan("b0", ["x"], b0), _scan("c", ["x", "y"], c), "b0.x", "c.x")
    return [j0, HashJoin(_scan("b1", ["x"], b1), j0, "b1.x", "c.x")]


def _per_tuple_reference(estimator, read_at):
    """(per-level (t, Σc, Σc²), per-level ``(t, estimate)`` at each t of
    ``read_at``, derived, listener stream) by definition, one probe tuple
    at a time."""
    chain = estimator.chain
    builds = [list(j.build_child.table) for j in chain]
    key_col = [j.build_child.output_schema.index_of(j.build_keys[0]) for j in chain]
    probe_rows = list(estimator.base_stream.table)
    total = float(len(probe_rows))
    prov = estimator.provenance

    def matches(m, value):
        return [b for b in builds[m] if value is not None and b[key_col[m]] == value]

    def weight(m, b, bp):
        """Rows ``b`` of B_m yields in its join with the builds folded at ``bp``."""
        out = 1
        for level in estimator.refs.get(m, []):
            if level <= bp:
                out *= sum(weight(level, b2, bp) for b2 in matches(level, b[prov[level].index]))
        return out

    derived = {}
    for m, bp in estimator.derived:
        hist = derived[m, bp] = {}
        for b in builds[m]:
            w = weight(m, b, bp)
            if w and b[key_col[m]] is not None:
                hist[b[key_col[m]]] = hist.get(b[key_col[m]], 0) + w

    k = len(chain)
    sums, squares = [0] * k, [0] * k
    reads = [[] for _ in range(k)]
    read_at = set(read_at)
    stream = []
    for t, row in enumerate(probe_rows, start=1):
        partial = [{-1: row}]  # chain level (-1: C) -> the row it contributed
        for i in range(k):
            partial = [
                {**p, i: b}
                for p in partial
                for b in matches(i, p[prov[i].level][prov[i].index])
            ]
            sums[i] += len(partial)
            squares[i] += len(partial) ** 2
            if t in read_at:
                reads[i].append((t, sums[i] / t * total))
        if partial:
            stream.append((row[0], len(partial)))
    levels = [(len(probe_rows), s, q) for s, q in zip(sums, squares)]
    return levels, reads, derived, stream


def _run_kernels(chain, batch_size, listener=False):
    """Run the chain, reading every level's ``(t, estimate)`` after each
    probe batch; returns the estimator, those reads per level and the
    listener stream."""
    estimator = HashJoinChainEstimator(chain)
    reads = [[] for _ in estimator.levels]
    stream = []
    if listener:
        first = estimator.base_stream.output_schema.names()[0]
        estimator.add_output_listener(first, _nonzero_pairs(stream))

    def read(_keys, _rows):
        for level_reads, level in zip(reads, estimator.levels):
            level_reads.append((level.t, level.estimate()))

    chain[0].input_hooks[1].append(read)  # after the estimator's own hook
    ExecutionEngine(chain[-1], collect_rows=False).run(batch_size=batch_size)
    return estimator, reads, stream


def _assert_matches_reference(make_chain, batch_size):
    estimator, reads, _ = _run_kernels(make_chain(), batch_size)
    levels, expected, derived, stream = _per_tuple_reference(
        estimator, [t for t, _ in reads[0]]
    )
    assert estimator.exact
    assert [_sums(level) for level in estimator.levels] == levels
    assert reads == expected
    assert {key: dict(h.counts) for key, h in estimator.derived.items()} == derived
    assert all(h.total == sum(h.counts.values()) for h in estimator.derived.values())
    # A listener gets the per-tuple stream, in row order, batch by batch; the
    # state it leaves is the same.
    listening, listening_reads, seen = _run_kernels(make_chain(), batch_size, listener=True)
    assert seen == stream
    assert [_sums(level) for level in listening.levels] == levels
    assert listening_reads == expected


class TestColumnKernels:
    @settings(max_examples=80, deadline=None)
    @given(_rows(1), _rows(1), _BATCH_SIZE)
    def test_single_join(self, c, b0, batch_size):
        def make_chain():
            return [HashJoin(_scan("b0", ["x"], b0), _scan("c", ["x"], c), "b0.x", "c.x")]

        _assert_matches_reference(make_chain, batch_size)
        # ... and to the public per-tuple ONCE methods, chunk by chunk.
        chain_est, _, _ = _run_kernels(make_chain(), batch_size)
        once = OnceJoinEstimator(probe_total=len(c))
        batched = OnceJoinEstimator(probe_total=len(c))
        for (key,) in b0:
            once.on_build(key)
        step = min(batch_size, 5)
        batched.on_build_batch([key for (key,) in b0])
        once_reads, batched_reads = [], []
        for start in range(0, len(c), step):
            chunk = [key for (key,) in c[start : start + step]]
            for key in chunk:
                once.on_probe(key)
            batched.on_probe_batch(chunk)
            once_reads.append((once.acc.t, once.acc.estimate()))
            batched_reads.append((batched.acc.t, batched.acc.estimate()))
        batched.on_probe_batch([])
        once.finalize_probe()
        batched.finalize_probe()
        _, (expected, *_), _, _ = _per_tuple_reference(chain_est, [t for t, _ in once_reads])
        assert once_reads == batched_reads == expected
        for est in (once, batched):
            assert _sums(est.acc) == _sums(chain_est.levels[0])
            assert est.histogram.counts == chain_est.base_hists[0].counts

    @settings(max_examples=80, deadline=None)
    @given(_rows(2), _rows(1), _rows(1), _BATCH_SIZE)
    def test_same_attribute_chain(self, c, b0, b1, batch_size):
        _assert_matches_reference(lambda: _same_attribute_chain(c, b0, b1), batch_size)

    @settings(max_examples=80, deadline=None)
    @given(_rows(1), _rows(2), _rows(2), _rows(1), _BATCH_SIZE)
    def test_q8_style_nested_reference_chain(self, c, b0, b1, b2, batch_size):
        _assert_matches_reference(lambda: _q8_chain(c, b0, b1, b2), batch_size)

    @settings(max_examples=80, deadline=None)
    @given(
        _rows(1),
        _pk_rows(2),
        _pk_rows(2),
        _pk_rows(1),
        st.sampled_from([None, 0, 1, 2]),
        _BATCH_SIZE,
    )
    def test_multiplicity_one_kernels(self, c, b0, b1, b2, duplicated, batch_size):
        """FK -> PK builds (every build key unique) hold only 0/1 counts:
        the probe skips its Σc² product pass and the derived builds count
        their 0/1 weights in C. Duplicating one build's first row turns
        that off wherever it reaches. Both match the per-tuple definition."""
        builds = [b0, b1, b2]
        if duplicated is not None and builds[duplicated]:
            builds[duplicated] = builds[duplicated] + builds[duplicated][:1]
        with (
            patch.object(pipeline_estimators, "mul", wraps=operator.mul) as mul,
            patch.object(
                FrequencyHistogram, "add_weighted", autospec=True,
                side_effect=FrequencyHistogram.add_weighted,
            ) as add_weighted,
        ):  # fmt: skip
            _assert_matches_reference(lambda: _q8_chain(c, *builds), batch_size)
            estimator, _, _ = _run_kernels(_q8_chain(c, *builds), batch_size)
        if duplicated is None:
            assert {level.max_multiplicity for level in estimator.levels} <= {0.0, 1.0}
            assert not mul.called and not add_weighted.called
        elif estimator.levels[duplicated].max_multiplicity > 1:
            assert mul.called or not c  # some level keeps its Σc² pass

    def test_empty_batch_is_a_noop(self):
        chain = _q8_chain([(1,)], [(1, 2)], [(2, 3)], [(3,)])
        estimator = HashJoinChainEstimator(chain)
        before = _chain_state(estimator)
        for join in chain:
            for hook in join.input_hooks[0]:
                hook([], [])
        for hook in chain[0].input_hooks[1]:
            hook([], [])
        assert _chain_state(estimator) == before
