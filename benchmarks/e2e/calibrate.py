"""Noise calibration: how far do runs of the *same* code disagree?

    python -m benchmarks.e2e.calibrate --sets 2 --runs 5

Runs the benchmark ``sets x runs`` times per workload, each run a fresh
process on its own seed, the sets interleaved run by run and the workloads
in alternating order so drift on the host lands on every cell alike. For
every end-to-end metric it prints each set's median and quartile spread
(the interquartile distance as a share of the median, the figure the driver
holds against the bound) and the difference between the sets' medians, and
writes the table to ``results/calibration.md``. A bound in
``BENCHMARK.json`` should be at least twice the inter-set difference and
three times the spread. Each workload's ``host_slowdown`` row (the probe of
``hostspeed.py``, not a metric) shows how much the host itself moved
meanwhile: what the timings would have spread by without normalisation.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import stats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
HOST_SLOWDOWN = "host_slowdown"
_HOST_SLOWDOWN_LINE = re.compile(HOST_SLOWDOWN + r" .*?\s([\d.eE+-]+) ratio")


def one_run(workload: str, seed: int, seconds: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "__main__.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )  # fmt: skip
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed operations")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values[HOST_SLOWDOWN] = float(_HOST_SLOWDOWN_LINE.search(proc.stdout).group(1))
    return values


def calibrate(sets: int, runs: int, seconds: int, first_seed: int) -> list[str]:
    workloads = [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    values: dict[tuple[str, int], list[dict[str, float]]] = {}
    seed = first_seed
    for run in range(runs):
        order = workloads if stats.alternating(run) else workloads[::-1]
        for s in range(sets):
            for workload in order:
                values.setdefault((workload, s), []).append(one_run(workload, seed, seconds))
                seed += 1
                print(f"run {run + 1}/{runs} set {s + 1} {workload} done", file=sys.stderr)

    header = "| workload | metric | " + " | ".join(
        f"set {s + 1} median | set {s + 1} spread" for s in range(sets)
    ) + " | inter-set diff |"
    lines = [header, "|" + "---|" * (3 + 2 * sets)]
    floors = dict.fromkeys(bounds, 0.0)
    for workload in workloads:
        for metric in (*bounds, HOST_SLOWDOWN):
            medians, spreads = [], []
            for s in range(sets):
                series = [v[metric] for v in values[(workload, s)]]
                medians.append(statistics.median(series))
                spreads.append(stats.iqr_share(series))
            diff = (max(medians) - min(medians)) / abs(statistics.median(medians))
            if metric in bounds:
                floors[metric] = max(floors[metric], 2 * diff, 3 * max(spreads))
            cells = [f"{m:.6g} | {s:.2%}" for m, s in zip(medians, spreads)]
            lines.append(f"| {workload} | {metric} | " + " | ".join(cells) + f" | {diff:.2%} |")
    lines += [
        "",
        "Smallest defensible bound per metric (twice the worst inter-set diff, "
        "three times the worst spread) against the one in `BENCHMARK.json`:",
        "",
        "| metric | floor | bound |",
        "|---|---|---|",
        *(f"| {m} | {floors[m]:.2%} | {spec['bound']:.2%} |" for m, spec in bounds.items()),
    ]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--out", type=Path, default=HERE / "results" / "calibration.md")
    args = parser.parse_args(argv)
    lines = calibrate(args.sets, args.runs, args.seconds, args.first_seed)
    title = (
        f"# Noise calibration: {args.sets} sets x {args.runs} runs per workload, "
        f"{args.seconds} s, seeds from {args.first_seed}\n\n"
        "Spread is the interquartile distance as a share of the median; the "
        "inter-set diff is the distance between the sets' medians.\n"
    )
    text = "\n".join([title, *lines]) + "\n"
    print(text)
    args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
