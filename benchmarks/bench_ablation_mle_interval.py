"""Ablation: Algorithm 3's adaptive MLE recomputation interval.

The MLE estimator "cannot be incrementally maintained ... and so it must be
recomputed regularly. Setting a constant interval for recomputing the
estimate is not a good idea since we would like to refine our estimates
more often when they are changing frequently." (Section 4.2)

We compare three schedules on the same Zipf stream:
* fixed-small — recompute every ``lower`` tuples (max accuracy, max cost);
* fixed-large — recompute every ``upper`` tuples (min cost, stale early);
* adaptive   — Algorithm 3 (doubles when stable, resets when moving).

Metrics: number of recomputations (cost) and mean relative staleness of the
served estimate against a continuously recomputed reference (accuracy).
The adaptive schedule must recompute far less than fixed-small while
staying much fresher early than fixed-large.
"""

from __future__ import annotations

from benchmarks.conftest import CUSTOMER_ROWS, run_once
from repro.core.distinct import GroupFrequencyState, MLEEstimator, RecomputeScheduler
from repro.datagen.zipf import ZipfDistribution

DOMAIN = 2_000
LOWER = max(CUSTOMER_ROWS // 1000, 1)   # 0.1%
UPPER = max(CUSTOMER_ROWS * 32 // 1000, LOWER)  # 3.2%
EVAL_EVERY = LOWER


def _fixed(interval: int) -> RecomputeScheduler:
    """A schedule whose interval never adapts: lower = upper."""
    return RecomputeScheduler(interval, interval)


def _run(values, schedule):
    """Read after every tuple, recomputing when the schedule is due."""
    state = GroupFrequencyState()
    mle = MLEEstimator(state)
    reference_state = GroupFrequencyState()
    reference = MLEEstimator(reference_state)
    served = 0.0
    last = 0
    staleness = []
    for t, v in enumerate(values, start=1):
        state.observe(v)
        reference_state.observe(v)
        if schedule.due(last, t):
            old = served
            served = mle.estimate(len(values))
            last = t
            schedule.after_recompute(old, served)
        if t % EVAL_EVERY == 0 and served > 0:
            fresh = reference.estimate(len(values))
            staleness.append(abs(served - fresh) / max(fresh, 1.0))
    mean_staleness = sum(staleness) / len(staleness) if staleness else 0.0
    return schedule.recompute_count, mean_staleness


def _measure():
    values = [int(v) for v in ZipfDistribution(DOMAIN, 0.5, seed=23).sample(CUSTOMER_ROWS)]
    out = {}
    out["fixed-small"] = _run(values, _fixed(LOWER))
    out["fixed-large"] = _run(values, _fixed(UPPER))
    out["adaptive"] = _run(values, RecomputeScheduler(LOWER, UPPER, stability=0.01))
    return out


def test_ablation_mle_interval(benchmark, report):
    out = run_once(benchmark, _measure)

    report.line("Ablation: MLE recomputation schedules (Algorithm 3)")
    report.line(f"stream={CUSTOMER_ROWS} rows, lower={LOWER}, upper={UPPER}")
    report.table(
        ["schedule", "recomputes", "mean staleness"],
        [
            [name, f"{count:,}", f"{stale:.4f}"]
            for name, (count, stale) in out.items()
        ],
        widths=[14, 12, 16],
    )

    adaptive_count, adaptive_stale = out["adaptive"]
    small_count, small_stale = out["fixed-small"]
    large_count, large_stale = out["fixed-large"]
    # Adaptive costs much less than recomputing at the lower bound...
    assert adaptive_count < small_count / 2
    # ...and serves fresher estimates than the large fixed interval.
    assert adaptive_stale <= large_stale
    # Near-reference accuracy overall.
    assert adaptive_stale < 0.05
