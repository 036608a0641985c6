"""Shared benchmark infrastructure.

Every test regenerates one table or figure of the paper (see DESIGN.md's
experiment index); the clock-free accuracy ones run their rows through
``benchmarks/ledger.py``. Two scales are supported:

* default — reduced row counts so the whole suite runs in minutes on a
  laptop; the paper's qualitative shapes (who wins, where curves converge,
  relative overheads) are asserted at this scale.
* ``REPRO_SCALE=paper`` — the paper's row counts (150K-row customer tables,
  TPC-H scale factors); slower, closest to the published setup.

Results are printed to the terminal (even under pytest's capture) and
written to ``benchmarks/results/<name>.txt``, overwriting the previous run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

PAPER_SCALE = os.environ.get("REPRO_SCALE", "").lower() == "paper"

# Row counts / domains for the accuracy experiments.
if PAPER_SCALE:
    CUSTOMER_ROWS = 150_000
    SMALL_DOMAIN = 5_000
    LARGE_DOMAIN = 125_000
    MID_DOMAIN = 25_000
    TPCH_SF = (0.05, 0.1, 0.2)
else:
    CUSTOMER_ROWS = 30_000
    SMALL_DOMAIN = 1_000
    LARGE_DOMAIN = 25_000
    MID_DOMAIN = 5_000
    TPCH_SF = (0.01, 0.02, 0.04)


class Reporter:
    """Collects lines, prints them past pytest capture, saves to a file."""

    def __init__(self, name: str, capsys):
        self.name = name
        self.capsys = capsys
        self.lines: list[str] = []

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def table(self, headers: list[str], rows: list[list[object]], widths=None) -> None:
        cells = [
            [f"{v:.3f}" if isinstance(v, float) else str(v) for v in row] for row in rows
        ]
        # A column is at least one space wider than its longest cell, so
        # adjacent cells never run together.
        widths = widths or [
            max(len(h) + 2, 10, *(len(row[i]) + 1 for row in cells if i < len(row)))
            for i, h in enumerate(headers)
        ]
        self.line("".join(h.rjust(w) for h, w in zip(headers, widths)))
        self.line("-" * sum(widths))
        for row in cells:
            self.line("".join(c.rjust(w) for c, w in zip(row, widths)))

    def flush(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = "\n".join([f"== {self.name} ==", *self.lines, ""])
        (RESULTS_DIR / f"{self.name}.txt").write_text(text)
        with self.capsys.disabled():
            print("\n" + text)


@pytest.fixture
def report(request, capsys):
    """Per-test reporter named after the test."""
    reporter = Reporter(request.node.name.replace("/", "_"), capsys)
    yield reporter
    reporter.flush()


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The accuracy experiments are about curves, not wall-clock, but running
    them under the benchmark fixture keeps everything in one
    ``pytest benchmarks/ --benchmark-only`` invocation.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
