"""Ablation: static statistics quality vs online estimation.

How much of the Figure-4 misestimate is the optimizer's fault, and how much
is fundamental to static statistics? We compare three estimators of the
same skewed join's size:

* **containment** — the textbook ``|L||R|/max(d)`` formula (what the
  progress benchmarks use by default);
* **histograms** — equi-width histogram overlap with per-cell distinct
  scaling (a materially better static optimizer);
* **ONCE @5%** — the online estimator after seeing 5% of the probe input.

The point the paper's framework rests on: better static statistics shrink
the error but remain distribution-blind (they cannot know *which* values
coincide across the two relations), while the online estimator is already
within a few percent after a small sample — and exact by the end of the
probe pass.
"""

from __future__ import annotations


from benchmarks.conftest import CUSTOMER_ROWS, run_once
from repro.core.pipeline_estimators import HashJoinChainEstimator
from repro.datagen.skew import customer_variant
from repro.executor.operators import HashJoin, SeqScan
from repro.optimizer.cardinality import CardinalityModel
from repro.storage.catalog import Catalog

DOMAIN = 2_000
SKEWS = [0.5, 1.0, 2.0]
SAMPLE_FRACTION = 0.05


def _measure():
    rows = []
    for z in SKEWS:
        catalog = Catalog()
        build = catalog.register(
            customer_variant(z, DOMAIN, 0, CUSTOMER_ROWS, name="ob")
        )
        probe = catalog.register(
            customer_variant(z, DOMAIN, 1, CUSTOMER_ROWS, name="op_")
        )

        join = HashJoin(
            SeqScan(build), SeqScan(probe), "ob.nationkey", "op_.nationkey",
            num_partitions=4, memory_partitions=0,
        )
        containment = CardinalityModel(catalog).estimate(join)
        with_hist = CardinalityModel(catalog, use_histograms=True).estimate(join)

        est = HashJoinChainEstimator([join], record_every=50)
        from benchmarks.harness import drive_until_exact

        drive_until_exact(join, est)
        truth = float(est.levels[0].sum_c)
        target = int(CUSTOMER_ROWS * SAMPLE_FRACTION)
        once_at_sample = next(e for t, e in est.levels[0].history if t >= target)

        rows.append(
            {
                "z": z,
                "truth": truth,
                "containment": containment / truth,
                "histograms": with_hist / truth,
                "once": once_at_sample / truth,
            }
        )
    return rows


def test_ablation_optimizer_statistics(benchmark, report):
    rows = run_once(benchmark, _measure)

    report.line("Ablation: static statistics vs online estimation (ratio to truth)")
    report.line(f"rows={CUSTOMER_ROWS}, domain={DOMAIN}, ONCE at {SAMPLE_FRACTION:.0%} probe")
    report.table(
        ["z", "true |join|", "containment", "histograms", "ONCE @5%"],
        [
            [f"{r['z']:g}", f"{r['truth']:,.0f}", f"{r['containment']:.3f}",
             f"{r['histograms']:.3f}", f"{r['once']:.3f}"]
            for r in rows
        ],
        widths=[6, 14, 13, 12, 11],
    )

    for r in rows:
        err = lambda key: abs(r[key] - 1.0)  # noqa: E731
        # ONCE at a 5% sample beats both static estimators...
        assert err("once") < err("containment"), r
        assert err("once") <= err("histograms") + 0.02, r
        # ...and is already within 15% of truth.
        assert err("once") < 0.15, r
    # Histograms help over containment on the most skewed case.
    worst = max(rows, key=lambda r: abs(r["containment"] - 1.0))
    assert abs(worst["histograms"] - 1.0) <= abs(worst["containment"] - 1.0)
