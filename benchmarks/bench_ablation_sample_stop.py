"""Ablation: freezing estimation at the sample boundary (Section 4.4).

"For each pipeline, we keep obtaining estimates until the random sample is
read ... After this point, we have an approximately correct estimate." This
ablation compares full refinement (exact at the end of the probe pass)
against freezing at the sample punctuation, across sample fractions:
accuracy of the frozen estimate, per-tuple work saved, and wall-clock.
"""

from __future__ import annotations

import time

from benchmarks.conftest import CUSTOMER_ROWS, run_once
from repro.core.pipeline_estimators import HashJoinChainEstimator
from repro.datagen.skew import customer_variant
from repro.executor.operators import HashJoin, SampleScan, SeqScan

FRACTIONS = [0.01, 0.05, 0.10]
DOMAIN = 2_000


def _run(fraction: float, stop: bool):
    build = customer_variant(1.0, DOMAIN, 0, CUSTOMER_ROWS, name="ab")
    probe = customer_variant(1.0, DOMAIN, 1, CUSTOMER_ROWS, name="ap")
    join = HashJoin(
        SeqScan(build),
        SampleScan(probe, fraction, seed=3),
        "ab.nationkey",
        "ap.nationkey",
        num_partitions=4,
        memory_partitions=0,
    )
    est = HashJoinChainEstimator([join], stop_after_sample=stop)
    started = time.perf_counter()
    join.open()
    # Drive through the probe pass only (abandon the join pass).
    while not (est.exact or (est.frozen and join.phase == "join")):
        if not join.next_batch(1024):
            break
    elapsed = time.perf_counter() - started
    truth = None
    if est.exact:
        truth = float(est.levels[0].sum_c)
    join.close()
    return est, elapsed, truth


def _measure():
    rows = []
    # Reference truth from one full-refinement run.
    _ref, _t, truth = _run(0.01, stop=False)
    for fraction in FRACTIONS:
        frozen_est, frozen_time, _ = _run(fraction, stop=True)
        full_est, full_time, _ = _run(fraction, stop=False)
        rows.append(
            {
                "fraction": fraction,
                "tuples_observed": frozen_est.t,
                "frozen_ratio": frozen_est.levels[0].estimate() / truth,
                "frozen_time": frozen_time,
                "full_time": full_time,
            }
        )
    return rows, truth


def test_ablation_stop_after_sample(benchmark, report):
    rows, truth = run_once(benchmark, _measure)

    report.line("Ablation: freeze estimation at the sample boundary")
    report.line(f"rows={CUSTOMER_ROWS}, domain={DOMAIN}, true |join|={truth:,.0f}")
    report.table(
        ["sample", "tuples observed", "frozen est / truth", "frozen (s)", "full (s)"],
        [
            [f"{r['fraction']:.0%}", f"{r['tuples_observed']:,}",
             f"{r['frozen_ratio']:.3f}", f"{r['frozen_time']:.3f}",
             f"{r['full_time']:.3f}"]
            for r in rows
        ],
        widths=[8, 17, 20, 12, 10],
    )

    for r in rows:
        # A 1-10% sample already lands within 15% of the truth...
        assert abs(r["frozen_ratio"] - 1.0) < 0.15, r
        # ...and larger samples (weakly) tighten the estimate.
    ordered = [abs(r["frozen_ratio"] - 1.0) for r in rows]
    assert ordered[-1] <= ordered[0] + 0.05
