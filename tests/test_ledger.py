"""The accuracy runner's reading rules and its chain-drive cache.

``benchmarks/ledger.py`` runs every seeded accuracy row of the benchmark
suite; these checks pin the parts that no table shows on its own, at toy
scale.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from types import SimpleNamespace

from benchmarks.ledger import Row, Trajectory, run, sample, settled_at
from repro.datagen import customer_variant
from repro.executor.expressions import col, lit
from repro.executor.operators import Filter, HashJoin, SampleScan, SeqScan
from repro.workloads import paper_binary_join

POINTS = [(10.0, 1.0), (20.0, 2.0), (30.0, 3.0)]


def _trajectory(estimates: list[float], truth: float = 100.0) -> Trajectory:
    points = [(10.0 * (i + 1), float(e)) for i, e in enumerate(estimates)]
    return Trajectory(points, truth, points[-1][0], None)


def test_sample_reads_the_first_estimate_whose_x_reaches_the_target():
    assert sample(POINTS, [0.0, 10.0, 10.5, 20.0, 30.0]) == [1.0, 1.0, 2.0, 2.0, 3.0]


def test_sample_past_the_last_x_reads_the_last_estimate():
    assert sample(POINTS, [30.5, 1e9]) == [3.0, 3.0]


def test_settled_at_is_none_when_the_last_estimate_is_outside_ten_percent():
    assert settled_at(_trajectory([100, 100, 100, 115])) is None
    assert settled_at(_trajectory([100, 80])) is None


def test_settled_at_is_the_x_after_the_last_excursion():
    # Out at x=10 and x=30, inside from x=40 on.
    assert settled_at(_trajectory([50, 95, 130, 105, 91])) == 40.0
    # Never out: settled from the first point.
    assert settled_at(_trajectory([101, 99, 100])) == 10.0


def test_a_frozen_row_and_a_full_row_over_one_make_do_not_share_a_drive():
    make = partial(
        paper_binary_join,
        z=1.0,
        domain_size=200,
        num_rows=2_000,
        sample_fraction=0.1,
        memory_partitions=0,
    )
    frozen = run(Row("chain", make, 100, stop_after_sample=True))
    full = run(Row("chain", make, 100))
    # The full drive refines through the whole probe input and ends exact.
    assert full.total == 2_000
    assert full.points[-1] == (2_000, full.truth)
    # The frozen one stopped at the sample punctuation, and its last point
    # is the frozen estimate, after the last recorded one.
    assert 0 < frozen.total < full.total
    assert frozen.points[-1][0] == frozen.total
    # In the other order too: a frozen row after a full one freezes again.
    assert run(Row("chain", make, 100, stop_after_sample=True)).points == frozen.points


def _filtered_probe_join():
    """A join whose probe input is a Filter over a sampled scan: the probe
    batches arrive ragged, so the runner has to cut them itself."""
    build = customer_variant(1.0, 50, 0, 1_500, name="b")
    probe = customer_variant(1.0, 50, 1, 2_000, name="p")
    probe_input = Filter(SampleScan(probe, 0.2, seed=3), col("p.nationkey") > lit(0))
    join = HashJoin(SeqScan(build), probe_input, "b.nationkey", "p.nationkey")
    return SimpleNamespace(plan=join, build=build, probe=probe)


def test_a_chain_row_reads_at_every_multiple_of_its_cadence_and_at_the_end():
    every = 64
    full = run(Row("chain", _filtered_probe_join, every))
    build = Counter(full.setup.build.column_values("nationkey"))
    kept = [k for k in full.setup.probe.column_values("nationkey") if k > 0]
    assert full.total == len(kept) and full.truth == sum(build[k] for k in kept)
    assert full.total % every  # the end point is not a cadence point
    assert [x for x, _ in full.points] == [*range(every, full.total + 1, every), full.total]
    assert full.points[-1] == (full.total, full.truth)
    # A frozen row's reads stop at the sample punctuation.
    frozen = run(Row("chain", _filtered_probe_join, every, stop_after_sample=True))
    assert 0 < frozen.total < full.total
    assert [x for x, _ in frozen.points] == [
        *range(every, frozen.total + 1, every),
        frozen.total,
    ]
