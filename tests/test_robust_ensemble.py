"""Unit tests for the online ensemble combiner (inverse-squared-error
weighting, warm/cold priors, hindsight scoring, post-run error scoring),
plus the end-to-end warm-vs-cold accuracy bound over real plans."""

from __future__ import annotations

from statistics import fmean

import pytest

from repro.core.progress import ProgressMonitor
from repro.datagen.skew import customer_variant
from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.expressions import col, lit
from repro.executor.operators import (
    AggregateSpec,
    Filter,
    HashAggregate,
    HashJoin,
    Project,
    SeqScan,
)
from repro.robust import COLD, WARM, EnsembleState, HistoryStore
from repro.robust.ensemble import MAX_PRIOR_COUNT
from repro.robust.feedback import record_run

CANDIDATES = ("once", "dne", "byte")


def drive(ens, steps, totals_of):
    """Feed ``steps`` checkpoints where candidate totals come from
    ``totals_of(done)``; returns the final (combined, weights)."""
    out = None
    for done in steps:
        out = ens.update(done, totals_of(done))
    return out


class TestColdStart:
    def test_uniform_weights_before_any_evidence(self):
        ens = EnsembleState(CANDIDATES)
        assert ens.prior_source == COLD
        combined, weights = ens.update(10.0, {c: 100.0 for c in CANDIDATES})
        assert weights == pytest.approx({c: 1 / 3 for c in CANDIDATES})
        assert combined == pytest.approx(0.1)

    def test_agreeing_candidates_keep_uniform_weights(self):
        ens = EnsembleState(CANDIDATES)
        _, weights = drive(
            ens, [10.0, 20.0, 30.0], lambda d: {c: 100.0 for c in CANDIDATES}
        )
        assert weights == pytest.approx({c: 1 / 3 for c in CANDIDATES})

    def test_consistently_wrong_candidate_loses_weight(self):
        # 'dne' claims the query is 10x shorter than the other two agree
        # it is: its hindsight error dominates and its weight collapses.
        def totals(done):
            return {"once": 1000.0, "dne": 100.0, "byte": 1000.0}

        ens = EnsembleState(CANDIDATES)
        _, weights = drive(ens, [float(d) for d in range(5, 100, 5)], totals)
        assert weights["dne"] < weights["once"]
        assert weights["dne"] < 0.2
        assert weights["once"] == pytest.approx(weights["byte"])

    def test_combined_progress_is_clamped_to_unit_interval(self):
        ens = EnsembleState(CANDIDATES)
        combined, _ = ens.update(500.0, {c: 100.0 for c in CANDIDATES})
        assert combined == 1.0
        combined, _ = ens.update(600.0, {c: 0.0 for c in CANDIDATES})
        assert combined == 0.0


class TestWarmStart:
    def test_priors_set_opening_weights(self):
        ens = EnsembleState(
            CANDIDATES,
            priors={"once": (0.0001, 20), "dne": (0.09, 20), "byte": (0.04, 20)},
        )
        assert ens.prior_source == WARM
        _, weights = ens.update(10.0, {c: 100.0 for c in CANDIDATES})
        # Historically accurate 'once' opens dominant, before any online
        # evidence exists.
        assert weights["once"] > 0.5
        assert weights["once"] > weights["byte"] > weights["dne"]

    def test_prior_count_is_capped(self):
        ens = EnsembleState(CANDIDATES, priors={"once": (0.01, 10_000)})
        assert ens.priors["once"][1] == MAX_PRIOR_COUNT

    def test_zero_count_prior_is_ignored(self):
        ens = EnsembleState(CANDIDATES, priors={"once": (0.01, 0)})
        assert ens.prior_source == COLD
        assert ens.priors == {}

    def test_live_evidence_overrides_a_stale_prior(self):
        # History says 'dne' is great — but this run it is 10x off while
        # the others agree. The online record must win eventually.
        ens = EnsembleState(CANDIDATES, priors={"dne": (0.0001, 32)})

        def totals(done):
            return {"once": 1000.0, "dne": 100.0, "byte": 1000.0}

        _, weights = drive(ens, [float(d) for d in range(5, 500, 5)], totals)
        assert weights["dne"] < weights["once"]


class TestFinalErrors:
    def test_scores_trajectory_against_true_total(self):
        ens = EnsembleState(CANDIDATES)
        # 'once' is exactly right about T(Q)=200; 'byte' claims 100.
        for done in (50.0, 100.0, 150.0):
            ens.update(done, {"once": 200.0, "dne": 400.0, "byte": 100.0})
        errors, count = ens.final_errors(200.0)
        assert count == 3
        assert errors["once"] == pytest.approx(0.0)
        assert errors["byte"] > errors["once"]
        assert errors["dne"] > errors["once"]

    def test_empty_trajectory_scores_nothing(self):
        ens = EnsembleState(CANDIDATES)
        assert ens.final_errors(100.0) == ({}, 0)

    def test_unknown_true_total_scores_nothing(self):
        ens = EnsembleState(CANDIDATES)
        ens.update(10.0, {c: 100.0 for c in CANDIDATES})
        assert ens.final_errors(0.0) == ({}, 0)

    def test_feedback_loop_closes(self):
        """The errors scored by run N, fed back as priors, open run N+1
        with the accurate candidate dominant — the warm-start contract."""
        run1 = EnsembleState(CANDIDATES)
        for done in (50.0, 100.0, 150.0):
            run1.update(done, {"once": 200.0, "dne": 500.0, "byte": 120.0})
        errors, count = run1.final_errors(200.0)
        run2 = EnsembleState(
            CANDIDATES, priors={name: (mse, count) for name, mse in errors.items()}
        )
        assert run2.prior_source == WARM
        _, weights = run2.update(10.0, {c: 200.0 for c in CANDIDATES})
        assert weights["once"] > weights["byte"] > weights["dne"]


def _skewed_plans():
    """Four query shapes over Zipf tables: a fan-out join (ONCE shines,
    dne/byte lag), a streaming filter, a join under a selective filter,
    and a blocking aggregate over a skewed group column."""
    c1 = customer_variant(z=1.2, domain_size=20, variant=0, num_rows=900, name="c1")
    c2 = customer_variant(z=0.8, domain_size=20, variant=1, num_rows=700, name="c2")
    c3 = customer_variant(z=0.3, domain_size=30, variant=2, num_rows=800, name="c3")
    return [
        HashJoin(SeqScan(c1), SeqScan(c2), "c1.nationkey", "c2.nationkey"),
        Project(
            Filter(SeqScan(c3), col("c3.nationkey") < lit(12)),
            ["c3.custkey", "c3.name"],
        ),
        HashJoin(
            Filter(SeqScan(c1), col("c1.nationkey") < lit(8)),
            SeqScan(c2),
            "c1.nationkey",
            "c2.nationkey",
        ),
        HashAggregate(
            SeqScan(c1),
            ["c1.nationkey"],
            [AggregateSpec("count", alias="n"), AggregateSpec("sum", "c1.custkey", alias="s")],
        ),
    ]


def _scored_run(plan, store):
    """One history-enabled run of ``plan``; returns ``(prior_source,
    ensemble MAE, {candidate: MAE})`` against hindsight truth — ``d`` over
    the now-known true total at every recorded checkpoint."""
    bus = TickBus(interval=16)
    monitor = ProgressMonitor(plan, mode="once", bus=bus, record_every=16, history=store)
    result = ExecutionEngine(plan, bus=bus, collect_rows=False).run()
    true_total = monitor.true_total()
    ens = monitor.ensemble
    # The ensemble trajectory is 1:1 with recorded snapshots.
    assert [s.work_done for s in monitor.snapshots] == [d for d, _ in ens.trajectory]
    ens_err = 0.0
    cand_err = dict.fromkeys(ens.candidates, 0.0)
    for snap, (done, totals) in zip(monitor.snapshots, ens.trajectory):
        actual = min(done / true_total, 1.0)
        ens_err += abs(snap.ensemble - actual)
        for name in ens.candidates:
            total = totals.get(name, 0.0)
            claimed = min(done / total, 1.0) if total > 0 else 0.0
            cand_err[name] += abs(claimed - actual)
    record_run(monitor, store, 0.0, result.row_count)
    n = len(ens.trajectory)
    return ens.prior_source, ens_err / n, {k: v / n for k, v in cand_err.items()}


def test_warm_ensemble_matches_best_single_and_cold_stays_close(tmp_path):
    """Tick-driven and seeded: the first run of each shape learns the
    candidates' accuracy online, the second opens on the first's recorded
    errors. Workload MAE: warm <= best single estimator, cold <= 1.1x."""
    store = HistoryStore(tmp_path / "history.jsonl")
    best, cold, warm = [], [], []
    for cold_plan, warm_plan in zip(_skewed_plans(), _skewed_plans()):
        source, mae, singles = _scored_run(cold_plan, store)
        assert source == COLD
        best.append(min(singles.values()))
        cold.append(mae)
        source, mae, _ = _scored_run(warm_plan, store)
        assert source == WARM
        warm.append(mae)
    assert fmean(warm) <= fmean(best) + 1e-6
    assert fmean(cold) <= 1.1 * fmean(best)
