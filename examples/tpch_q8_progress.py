"""TPC-H Q8-style progress indication: the Figure 8 experiment, live.

Runs an 8-table join pipeline (7 chained hash joins over a skewed TPC-H
database, topped by an aggregation) twice — once with this paper's online
framework, once with the driver-node baseline — and prints estimated vs
actual progress side by side. The optimizer badly underestimates the
filtered skewed joins, so dne reports wildly optimistic progress until the
join output materialises; ONCE corrects all seven join cardinalities during
lineitem's probe pass and tracks true progress from then on.

Run:  python examples/tpch_q8_progress.py
"""

from repro import ExecutionEngine, ProgressMonitor, TickBus
from repro.workloads import tpch_q8_like


def run(mode: str) -> ProgressMonitor:
    setup = tpch_q8_like(sf=0.005, skew_z=2.0, sample_fraction=0.1)
    bus = TickBus(interval=2000)
    monitor = ProgressMonitor(setup.plan, mode=mode, bus=bus)
    ExecutionEngine(setup.plan, bus=bus, collect_rows=False).run()
    return monitor


def main() -> None:
    print("running with ONCE (this paper)...")
    once = run("once").progress_curve()
    print("running with dne (Chaudhuri et al. baseline)...\n")
    dne = run("dne").progress_curve()

    # Both runs snapshot at the same units of work, so their points pair up.
    step = max(len(once) // 10, 1)
    print(f"{'actual':>8} {'once':>8} {'dne':>8}")
    print("-" * 27)
    for (actual, o), (_, d) in list(zip(once, dne))[::step]:
        print(f"{actual:>8.1%} {o:>8.1%} {d:>8.1%}")

    print(
        "\na perfect indicator reports estimated == actual;"
        "\ndne overestimates progress for most of the run (Figure 8)."
    )


if __name__ == "__main__":
    main()
