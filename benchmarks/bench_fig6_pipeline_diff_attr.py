"""Figure 6: push-down estimation for pipelines of joins on different attributes.

Paper setup (Section 5.1.3): all relations get *both* nationkey and custkey
skewed over a 25K domain. The lower join is on nationkey; the upper join is
on custkey and references either

* case 1 — the lower join's *probe* relation (``A.ck = C.ck``), or
* case 2 — the lower join's *build* relation (``A.ck = B.ck``), exercising
  the derived-histogram simulation of Section 4.1.4.2.

Figure 6(a) fixes the lower skew at 2 and varies the upper skew in {0, 1}
(the paper omits z=2 because that join produces no tuples); 6(b) fixes the
lower skew at 1 and varies the upper skew in {0, 1, 2}. Both joins'
estimates must be exact by the end of the lower probe pass.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import CUSTOMER_ROWS, MID_DOMAIN, run_once
from benchmarks.harness import attach_chain, drive_until_exact, ratio_at_fractions
from repro.workloads import paper_pipeline_diff_attr

FRACTIONS = [0.02, 0.05, 0.10, 0.25, 0.50, 1.00]
CONFIGS = {
    "fig6a_case1": (1, 2.0, [0.0, 1.0]),
    "fig6b_case2": (2, 1.0, [0.0, 1.0, 2.0]),
}


def _measure(case: int, lower_z: float, upper_zs: list[float]):
    results = []
    for upper_z in upper_zs:
        setup = paper_pipeline_diff_attr(
            case,
            lower_z=lower_z,
            upper_z=upper_z,
            domain_size=MID_DOMAIN,
            num_rows=CUSTOMER_ROWS,
            memory_partitions=0,  # pure grace: no output before the probe pass ends
        )
        estimator = attach_chain(setup.plan, record_every=max(CUSTOMER_ROWS // 200, 1))
        drive_until_exact(setup.plan, estimator)
        truth = float(estimator.levels[1].sum_c)
        ratios = ratio_at_fractions(
            estimator.levels[1].history, CUSTOMER_ROWS, truth, FRACTIONS
        )
        results.append((upper_z, ratios, truth))
    return results


@pytest.mark.parametrize("which", list(CONFIGS))
def test_fig6_pipeline_different_attributes(benchmark, report, which):
    case, lower_z, upper_zs = CONFIGS[which]
    results = run_once(benchmark, lambda: _measure(case, lower_z, upper_zs))

    report.line(
        f"Figure 6 ({which}): upper-join ratio error vs % of lower probe "
        f"input (case {case}, lower z={lower_z:g}, domain={MID_DOMAIN})"
    )
    headers = ["upper z"] + [f"{f:.0%}" for f in FRACTIONS] + ["true |join|"]
    rows = [
        [f"{z:g}"] + [f"{r:.3f}" for r in ratios] + [f"{truth:,.0f}"]
        for z, ratios, truth in results
    ]
    report.table(headers, rows)

    for z, ratios, truth in results:
        assert truth > 0
        assert ratios[-1] == pytest.approx(1.0, abs=1e-9)
        at_25 = ratios[FRACTIONS.index(0.25)]
        assert abs(at_25 - 1.0) < 0.3, (which, z, at_25)
