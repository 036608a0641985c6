"""Monte-Carlo statistical checks for the ONCE join estimator (Section 4.1).

The paper's claim: with the probe stream in random order, the running
estimate ``D_t = (sum of contributions / t) * |S|`` is an *unbiased*
estimator of the true join size at every prefix length ``t``, its error
shrinks as the probe progresses, and the distribution-free binomial bound
yields conservative confidence intervals.

These tests drive :class:`OnceJoinEstimator` directly — no executor — so a
failure isolates the estimator arithmetic. Everything is seeded through
``repro.common.rng``; reruns are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.rng import make_rng
from repro.core.confidence import binomial_beta
from repro.core.join_estimators import OnceJoinEstimator

SEED = 0x0C0E
DOMAIN = 30
BUILD_ROWS = 600
PROBE_ROWS = 400
TRIALS = 250
CHECKPOINTS = (0.25, 0.5, 0.75)


def _zipfish_keys(rng, size: int, z: float, extra: int = 0) -> list[int]:
    """Skewed keys over [1 .. DOMAIN + extra]; ``extra`` > 0 adds values
    that can never match the build side."""
    domain = DOMAIN + extra
    weights = 1.0 / np.arange(1, domain + 1) ** z
    weights /= weights.sum()
    return [int(k) + 1 for k in rng.choice(domain, size=size, p=weights)]


def _build_keys() -> list[int]:
    return _zipfish_keys(make_rng(SEED, "build"), BUILD_ROWS, z=1.2)


def _probe_keys() -> list[int]:
    # ~17% of the domain lies outside the build histogram's support, so
    # zero-contribution probe tuples are part of the population.
    return _zipfish_keys(make_rng(SEED, "probe"), PROBE_ROWS, z=0.8, extra=6)


def _true_join_size(build: list[int], probe: list[int]) -> int:
    counts: dict[int, int] = {}
    for k in build:
        counts[k] = counts.get(k, 0) + 1
    return sum(counts.get(k, 0) for k in probe)


def _run_trial(build, probe, trial: int):
    """One shuffled probe pass; returns {fraction: (estimate, ci)}."""
    est = OnceJoinEstimator(probe_total=len(probe))
    for k in build:
        est.on_build(k)
    order = make_rng(SEED, "perm", trial).permutation(len(probe))
    checkpoints = {max(1, int(f * len(probe))): f for f in CHECKPOINTS}
    out = {}
    for i, idx in enumerate(order, 1):
        est.on_probe(probe[int(idx)])
        f = checkpoints.get(i)
        if f is not None:
            out[f] = (est.acc.estimate(), est.acc.confidence_interval(alpha=0.99))
    return est, out


def _monte_carlo():
    build, probe = _build_keys(), _probe_keys()
    truth = _true_join_size(build, probe)
    per_checkpoint: dict[float, list[tuple[float, tuple[float, float]]]] = {
        f: [] for f in CHECKPOINTS
    }
    for trial in range(TRIALS):
        _, observed = _run_trial(build, probe, trial)
        for f, sample in observed.items():
            per_checkpoint[f].append(sample)
    return truth, per_checkpoint


_TRUTH, _SAMPLES = None, None


def _samples():
    global _TRUTH, _SAMPLES
    if _SAMPLES is None:
        _TRUTH, _SAMPLES = _monte_carlo()
    return _TRUTH, _SAMPLES


class TestUnbiasedness:
    def test_mid_probe_estimate_is_unbiased(self):
        """E[D_t] = true join size, checked at every probe checkpoint: the
        Monte-Carlo mean must sit within ~4 standard errors of the truth."""
        truth, samples = _samples()
        for fraction in CHECKPOINTS:
            estimates = np.array([e for e, _ in samples[fraction]])
            std_error = estimates.std(ddof=1) / math.sqrt(TRIALS)
            tolerance = max(4.0 * std_error, 1e-9)
            assert abs(estimates.mean() - truth) <= tolerance, (
                f"t={fraction:.0%}: mean {estimates.mean():.2f} vs truth "
                f"{truth} (tolerance {tolerance:.2f})"
            )

    def test_error_spread_shrinks_as_probe_progresses(self):
        """Sampling without replacement: variance decays toward zero as t
        approaches |S| — the spread at 75% must beat the spread at 25%."""
        truth, samples = _samples()
        spread = {
            f: np.array([e for e, _ in samples[f]]).std(ddof=1) for f in CHECKPOINTS
        }
        assert spread[0.75] < spread[0.5] < spread[0.25]
        rmse = {
            f: math.sqrt(
                float(np.mean([(e - truth) ** 2 for e, _ in samples[f]]))
            )
            for f in CHECKPOINTS
        }
        assert rmse[0.75] < rmse[0.25]

    def test_exact_after_finalize(self):
        build, probe = _build_keys(), _probe_keys()
        truth = _true_join_size(build, probe)
        est, _ = _run_trial(build, probe, trial=0)
        est.finalize_probe()
        assert est.acc.exact
        assert est.acc.estimate() == float(truth)
        assert est.acc.confidence_interval() == (float(truth), float(truth))


class TestConfidenceBounds:
    def test_interval_coverage_at_alpha_99(self):
        """The 99% interval must cover the truth in the vast majority of
        trials (>= 90% leaves slack for the normal approximation at small t)."""
        truth, samples = _samples()
        for fraction in (0.5, 0.75):
            hits = sum(
                1 for _, (low, high) in samples[fraction] if low <= truth <= high
            )
            assert hits / TRIALS >= 0.9, f"coverage {hits / TRIALS:.2f} at t={fraction:.0%}"

    def test_interval_tightens_with_t(self):
        _, samples = _samples()
        width = {
            f: float(np.mean([high - low for _, (low, high) in samples[f]]))
            for f in CHECKPOINTS
        }
        assert width[0.75] < width[0.5] < width[0.25]

    def test_worst_case_beta_decays(self):
        build, probe = _build_keys(), _probe_keys()
        est = OnceJoinEstimator(probe_total=len(probe))
        for k in build:
            est.on_build(k)
        betas = []
        for i, key in enumerate(probe, 1):
            est.on_probe(key)
            if i in (20, 100, 400):
                betas.append(binomial_beta(est.acc.t, alpha=0.99))
        assert betas == sorted(betas, reverse=True)
        assert betas[-1] < betas[0]


class TestDeterminism:
    def test_trials_are_reproducible(self):
        build, probe = _build_keys(), _probe_keys()
        _, first = _run_trial(build, probe, trial=7)
        _, second = _run_trial(build, probe, trial=7)
        assert first == second

    def test_distinct_trials_differ(self):
        build, probe = _build_keys(), _probe_keys()
        _, a = _run_trial(build, probe, trial=1)
        _, b = _run_trial(build, probe, trial=2)
        assert a[0.25] != b[0.25]
