"""Online join-size estimation under skew: ONCE vs dne vs byte.

Reproduces the Figure 4(a) scenario at example scale: two customer tables
with Zipf(1) nationkey columns whose hot values disagree. The optimizer's
containment-assumption estimate is off by an order of magnitude; the ONCE
estimator converges to the exact join size during the probe partitioning
pass, while dne and byte keep chasing the clustered join output.

Run:  python examples/skewed_join_estimation.py
"""

from repro import DriverNodeEstimator, ExecutionEngine, ProgressMonitor, TickBus
from repro.workloads import paper_binary_join


def run_mode(mode: str, fractions: list[float]) -> list[float]:
    """Run the join under one estimator mode; return the join-size estimate
    at the given fractions of true progress."""
    setup = paper_binary_join(z=1.0, domain_size=20_000, num_rows=30_000)
    bus = TickBus(interval=500)
    monitor = ProgressMonitor(setup.plan, mode=mode, bus=bus)
    join = setup.join
    dne = DriverNodeEstimator(next(p for p in monitor.pipelines if join in p))

    estimates: list[tuple[float, float]] = []

    def sample(_count: int) -> None:
        if mode == "once":
            # The join's estimate is its estimator's own state; before the
            # probe pass starts, the optimizer's guess stands.
            assert monitor.manager is not None
            entry = monitor.manager.registry.get(id(join))
            if entry is not None and entry.source.started:
                est = entry.source.estimate()
            else:
                est = join.estimated_cardinality or 0.0
        elif mode == "byte":
            est = dne.byte_estimate_for(join)
        else:
            est = dne.estimate_for(join)
        estimates.append((join.rows_consumed[1], est))

    bus.subscribe(sample)
    ExecutionEngine(setup.plan, bus=bus, collect_rows=False).run()
    actual = join.tuples_emitted

    out = []
    for frac in fractions:
        target = frac * setup.catalog.row_count("cust_probe")
        est = next((e for t, e in estimates if t >= target), estimates[-1][1])
        out.append(est / actual)
    return out


def main() -> None:
    fractions = [0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]
    print("ratio error (estimate / true join size) vs fraction of probe input\n")
    header = "mode  " + "".join(f"{f:>8.0%}" for f in fractions)
    print(header)
    print("-" * len(header))
    for mode in ("once", "dne", "byte"):
        ratios = run_mode(mode, fractions)
        print(f"{mode:<6}" + "".join(f"{r:>8.2f}" for r in ratios))
    print(
        "\nonce converges to 1.00 within a few percent of the probe input;"
        "\ndne/byte stay biased until the join output has actually appeared."
    )


if __name__ == "__main__":
    main()
