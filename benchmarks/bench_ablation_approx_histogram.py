"""Ablation: exact vs bucketized (approximate) build histograms.

The paper defers this to future work: "it is possible to conduct further
performance tuning and reduce the run time overheads even further by
deploying approximations of the histograms we construct. Thus the classic
accuracy performance trade-off can be explored via approximation."

We sweep the bucket budget of :class:`BucketizedHistogram` on the Figure 4
skewed join and report memory (fixed, 4 B/bucket) against the final ONCE
estimate's ratio error. Collisions only ever *add* phantom matches, so the
approximation overestimates; the error shrinks monotonically (statistically)
with the budget and the exact histogram is recovered in the limit.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import CUSTOMER_ROWS, run_once
from repro.core.histogram import BucketizedHistogram
from repro.core.join_estimators import attach_once_estimator
from repro.executor.operators import HashJoin, SeqScan
from repro.datagen.skew import customer_variant

BUCKET_BUDGETS = [64, 256, 1024, 8192, None]  # None = exact
DOMAIN = 2_000


def _measure():
    left = customer_variant(1.0, DOMAIN, 0, CUSTOMER_ROWS, name="hl")
    right = customer_variant(1.0, DOMAIN, 1, CUSTOMER_ROWS, name="hr")
    rows = []
    truth = None
    for budget in BUCKET_BUDGETS:
        join = HashJoin(
            SeqScan(left), SeqScan(right), "hl.nationkey", "hr.nationkey",
            num_partitions=4, memory_partitions=0,
        )
        estimator = attach_once_estimator(join)
        if budget is not None:
            estimator.histogram = BucketizedHistogram(budget)
        join.open()
        first = join.next_batch(1024)  # completes build + probe passes
        assert first or estimator.acc.exact
        join.close()
        estimate = estimator.acc.estimate()
        memory = estimator.histogram.memory_model_bytes()
        if budget is None:
            truth = estimate
        rows.append({"budget": budget, "estimate": estimate, "memory": memory})
    for r in rows:
        r["ratio"] = r["estimate"] / truth
    return rows


def test_ablation_approximate_histograms(benchmark, report):
    rows = run_once(benchmark, _measure)

    report.line("Ablation: bucketized build histograms (Fig-4 join, z=1)")
    report.line(f"rows={CUSTOMER_ROWS}, domain={DOMAIN}")
    report.table(
        ["buckets", "memory", "final estimate", "ratio vs exact"],
        [
            [
                "exact" if r["budget"] is None else f"{r['budget']:,}",
                f"{r['memory'] / 1024:.1f} KB",
                f"{r['estimate']:,.0f}",
                f"{r['ratio']:.3f}",
            ]
            for r in rows
        ],
        widths=[10, 11, 16, 16],
    )

    by_budget = {r["budget"]: r for r in rows}
    # Approximations only overestimate.
    for r in rows:
        assert r["ratio"] >= 1.0 - 1e-9
    # More buckets, less error (compare coarsest vs finest approximation).
    assert by_budget[8192]["ratio"] <= by_budget[64]["ratio"]
    # The finest approximation is within 10% of exact here.
    assert by_budget[8192]["ratio"] == pytest.approx(1.0, abs=0.1)
    # Memory is the budget, not the domain.
    assert by_budget[64]["memory"] == 64 * 4
