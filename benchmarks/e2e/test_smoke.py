"""End-to-end smoke of the benchmark command (``--smoke``: sf=0.002, two
rounds, a few seconds per workload). Not collected by tier-1, whose
``testpaths`` is ``tests``: ``pytest benchmarks/e2e/test_smoke.py``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str) -> subprocess.CompletedProcess:
    # The command exactly as BENCHMARK.json gives it, from the repo root.
    return subprocess.run(
        [*SPEC["command"], *args, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )  # fmt: skip


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_reports_every_metric(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "5", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 10
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["embed_batch", "serve_short"])
def test_traced_run_reports_every_layer_metric_and_writes_spans(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "6", "--trace", "1"))
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    trace = json.loads((HERE / "results" / f"trace-{workload}.json").read_text())
    spans = {s["id"]: s for s in trace["spans"]}
    assert trace["workload"] == workload and spans
    for span in spans.values():
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_same_seed_same_inputs_and_no_leftovers():
    from benchmarks.e2e.queries import long_mix, short_mix

    assert long_mix(9) == long_mix(9) and short_mix(9) == short_mix(9)
    assert long_mix(9) != long_mix(10)
    run_bench("--workload", "serve_short", "--seed", "9")
    leftovers = [p.name for p in (HERE / "results").glob("tmp-*")]
    assert leftovers == []


CORRUPT_ONE_REFERENCE = """
import sys
sys.path[:0] = [{root!r}, {src!r}]
from benchmarks.e2e import workloads
from benchmarks.e2e.__main__ import main

real = workloads.compute_references

def corrupted(catalog, mix):
    refs = real(catalog, mix)
    ref = refs[mix[0].name]
    refs[mix[0].name] = workloads.Reference(ref.row_count, ref.checksum ^ 1)
    return refs

workloads.compute_references = corrupted
sys.exit(main(["--workload", "embed_batch", "--seed", "5", "--smoke"]))
"""


def test_corrupted_reference_fails_the_run():
    """The oracle has teeth: one wrong reference checksum exits non-zero."""
    code = CORRUPT_ONE_REFERENCE.format(root=str(ROOT), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={"PYTHONHASHSEED": "0"},
    )  # fmt: skip
    assert proc.returncode != 0
    assert "checksum differs" in proc.stderr


def test_benchmark_json_names_the_workloads_the_code_runs():
    pytest.importorskip("repro")  # needs PYTHONPATH=src, like tier-1
    from benchmarks.e2e.workloads import WORKLOADS as in_code

    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in in_code.values()
    }
