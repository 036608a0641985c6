"""Entry point: ``python -m benchmarks.e2e`` or ``python3 benchmarks/e2e/__main__.py``.

    --workload W   one of embed_batch, embed_row, serve_watch, serve_short
                   (default: all four, one result line each)
    --seed S       every input derives from it: data, predicate constants,
                   per-round query order
    --seconds N    sizes the measured phase (a fixed op count, about N s here)
    --trace [0|1]  1: the staged per-layer run instead of the end-to-end one
    --smoke        tiny data, two rounds: a functional check, not a measurement

Prints every metric by name with its unit, then one JSON object as the last
line. Exits non-zero when any operation failed the correctness oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _bootstrap(argv: list[str]) -> None:
    """Make ``repro`` and ``benchmarks`` importable from a bare checkout, and
    pin string hashing: ``generate_tpch`` seeds its Zipf streams from
    ``hash(label)``, so without a fixed ``PYTHONHASHSEED`` the same ``--seed``
    would give different data in every process — and in the server."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(HERE / "__main__.py"), *argv])
    # Run as a script, sys.path[0] is this directory, whose module names
    # (trace, stats) would shadow the standard library's.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    _bootstrap(argv)
    from benchmarks.e2e.workloads import WORKLOADS, Config, run_workload

    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    cfg = Config(seed=args.seed, seconds=args.seconds, smoke=args.smoke)
    if args.trace:
        from benchmarks.e2e.trace import run_traced as run
    else:
        run = run_workload

    failed = 0
    for name in [args.workload] if args.workload else list(WORKLOADS):
        result = run(name, cfg)
        failed += result.failed
        for metric, (value, unit) in result.metrics.items():
            print(f"{name:12s} {metric:40s} {value:14.6g} {unit}")
        print(f"{name:12s} {'failed_share':40s} {result.failed / result.attempted:14.6g} ratio"
              f"  ({result.failed} of {result.attempted} operations)")
        if result.host_slowdown is not None:
            print(f"{name:12s} {'host_slowdown (timings are divided by it)':40s} "
                  f"{result.host_slowdown:14.6g} ratio")
        for failure in result.failures[:10]:
            print(f"{name:12s} FAILED {failure}", file=sys.stderr)
        print(json.dumps({
            "correct": result.failed == 0,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result.metrics.items()},
        }), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
