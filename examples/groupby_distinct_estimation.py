"""Group-count estimation: GEE vs MLE vs the γ² hybrid chooser.

Feeds Zipfian value streams of varying skew to the three estimators and
reports when each gets within 10% of the true number of groups — the
Table 1 experiment of the paper at example scale. High skew favours GEE,
low skew favours MLE; the hybrid picks by the squared coefficient of
variation of the observed frequencies (threshold τ = 10).

Run:  python examples/groupby_distinct_estimation.py
"""

from repro import GroupFrequencyState, HybridGroupCountEstimator
from repro.datagen import ZipfDistribution


def rows_to_within_10pct(values: list[int], true_count: int) -> dict[str, int | None]:
    """Per estimator, the first t at which its estimate is within 10% of
    truth. GEE and MLE are the hybrid's own two estimators, read raw."""
    total = len(values)
    hybrid = HybridGroupCountEstimator(total=total)
    reads = {
        "GEE": lambda: hybrid.gee.estimate(total),
        "MLE": lambda: hybrid.mle.estimate(total),
        "hybrid": hybrid.estimate,
    }
    hits: dict[str, int | None] = dict.fromkeys(reads)
    for start in range(0, total, 250):  # read after every batch of 250
        hybrid.observe_batch(values[start : start + 250])
        for name, read in reads.items():
            if hits[name] is None and abs(read() - true_count) <= 0.1 * true_count:
                hits[name] = hybrid.state.t
    return hits


def main() -> None:
    total = 50_000
    print(f"{'skew':>5} {'#values':>8} {'true':>7} {'γ²@10%':>8}"
          f" {'GEE':>8} {'MLE':>8} {'hybrid':>8}  (rows until within 10%)")
    for z, domain in [(0.0, 1_000), (0.0, 40_000), (1.0, 1_000),
                      (1.0, 40_000), (2.0, 1_000), (2.0, 40_000)]:
        dist = ZipfDistribution(domain, z, seed=11)
        values = [int(v) for v in dist.sample(total)]
        true_count = len(set(values))

        gamma_probe = GroupFrequencyState()
        for v in values[: total // 10]:
            gamma_probe.observe(v)

        results = {
            name: f"{hit:,}" if hit else ">all"
            for name, hit in rows_to_within_10pct(values, true_count).items()
        }

        print(
            f"{z:>5.1f} {domain:>8,} {true_count:>7,} {gamma_probe.gamma_squared:>8.2f}"
            f" {results['GEE']:>8} {results['MLE']:>8} {results['hybrid']:>8}"
        )
    print("\nGEE wins under high skew (γ² above τ=10); MLE wins under low"
          "\nskew with moderate group counts; the hybrid tracks the winner.")


if __name__ == "__main__":
    main()
