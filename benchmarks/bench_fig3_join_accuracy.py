"""Figure 3: ONCE ratio error vs fraction of probe input consumed.

Paper setup: ``C_{z,n} ⋈ C¹_{z,n}`` on nationkey, 150K-row customer tables,
z ∈ {0, 1, 2}; (a) small domain (5K values), (b) large domain (125K).
The claim to reproduce: the estimator "converges to an approximately
correct ratio error estimate while having seen only a fraction of the
probe input" — we assert within 15% of truth at 10% of the probe input,
and exactness at the end of the pass, for every configuration.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import CUSTOMER_ROWS, LARGE_DOMAIN, SMALL_DOMAIN, run_once
from benchmarks.harness import attach_chain, drive_until_exact, ratio_at_fractions
from repro.workloads import paper_binary_join

FRACTIONS = [0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 1.00]
SKEWS = [0.0, 1.0, 2.0]


def _measure(domain_size: int) -> list[tuple[float, list[float], float]]:
    """Per skew: (z, ratio errors at FRACTIONS, truth)."""
    results = []
    for z in SKEWS:
        setup = paper_binary_join(
            z=z, domain_size=domain_size, num_rows=CUSTOMER_ROWS,
            memory_partitions=0,  # pure grace: no output before the probe pass ends
        )
        estimator = attach_chain(setup.plan, record_every=max(CUSTOMER_ROWS // 200, 1))
        drive_until_exact(setup.plan, estimator)
        truth = float(estimator.levels[0].sum_c)
        ratios = ratio_at_fractions(
            estimator.levels[0].history, CUSTOMER_ROWS, truth, FRACTIONS
        )
        results.append((z, ratios, truth))
    return results


@pytest.mark.parametrize(
    "figure,domain",
    [("fig3a_small_domain", SMALL_DOMAIN), ("fig3b_large_domain", LARGE_DOMAIN)],
)
def test_fig3_once_ratio_error(benchmark, report, figure, domain):
    results = run_once(benchmark, lambda: _measure(domain))

    report.line(f"Figure 3 ({figure}): ratio error of ONCE vs % probe input")
    report.line(f"domain={domain}, rows={CUSTOMER_ROWS}")
    headers = ["z"] + [f"{f:.0%}" for f in FRACTIONS] + ["true |join|"]
    rows = [
        [f"{z:g}"] + [f"{r:.3f}" for r in ratios] + [f"{truth:,.0f}"]
        for z, ratios, truth in results
    ]
    report.table(headers, rows)

    for z, ratios, truth in results:
        assert truth > 0
        # Converged within 15% once a tenth of the probe input is seen.
        at_10pct = ratios[FRACTIONS.index(0.10)]
        assert abs(at_10pct - 1.0) < 0.15, (z, at_10pct)
        # Exact at the end of the probe pass.
        assert ratios[-1] == pytest.approx(1.0, abs=1e-9)
