"""Unit tests for the run-history store: round-trips, crash tolerance
(torn trailing record), and the clear/degrade paths."""

from __future__ import annotations

import json

import pytest

from repro.datagen.skew import customer_variant
from repro.executor.engine import ExecutionEngine, TickBus
from repro.executor.operators import SeqScan
from repro.faults import ERROR, SHORT_READ, FaultPlan, FaultSpec
from repro.faults.plan import SITE_HISTORY_READ, SITE_HISTORY_WRITE
from repro.robust import (
    HistoryStore,
    HistoryWriteError,
    RunRecord,
    fingerprint_plan,
    observed_view,
)


def make_record(fp="aabbccdd00112233", seq=0, **overrides) -> RunRecord:
    base = dict(
        fingerprint=fp,
        signature="(seqscan customer)",
        mode="once",
        wall_time_s=1.25,
        true_total=1000.0,
        row_count=42,
        curve=[[0.0, 0.0], [0.5, 0.45], [1.0, 1.0]],
        node_cards={"deadbeef01234567": 500.0},
        table_rows={"customer": 1500},
        seq=seq,
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRoundTrip:
    def test_append_then_reload_preserves_records(self, tmp_path):
        path = tmp_path / "history.jsonl"
        store = HistoryStore(path)
        assert len(store) == 0
        assert store.append_run(make_record())
        assert store.append_run(make_record(fp="ffeeddcc99887766"))
        # A fresh store over the same file sees both records verbatim.
        reloaded = HistoryStore(path)
        records = reloaded.records()
        assert len(records) == 2
        assert records[0] == make_record(seq=1)
        assert records[1].fingerprint == "ffeeddcc99887766"
        assert reloaded.skipped() == 0
        assert reloaded.degraded_reason is None

    def test_missing_file_is_empty_history(self, tmp_path):
        store = HistoryStore(tmp_path / "never-written.jsonl")
        assert store.records() == []
        assert store.degraded_reason is None

    def test_seq_assignment_is_monotonic_across_reload(self, tmp_path):
        path = tmp_path / "history.jsonl"
        store = HistoryStore(path)
        store.append_run(make_record())
        store.append_run(make_record())
        reloaded = HistoryStore(path)
        reloaded.append_run(make_record())
        seqs = [r.seq for r in reloaded.records()]
        assert seqs == [1, 2, 3]

    def test_wire_round_trip_is_lossless(self):
        record = make_record(seq=7)
        assert RunRecord.from_wire(json.loads(json.dumps(record.to_wire()))) == record

    def test_clear_truncates_file_and_index(self, tmp_path):
        path = tmp_path / "history.jsonl"
        store = HistoryStore(path)
        store.append_run(make_record())
        store.append_run(make_record())
        assert store.clear() == 2
        assert len(store) == 0
        assert path.read_text() == ""
        assert len(HistoryStore(path)) == 0


class TestTornTail:
    """Satellite: a crash mid-append tears the final line; the loader must
    skip exactly that record and keep everything before it."""

    def test_truncated_final_record_is_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        store = HistoryStore(path)
        store.append_run(make_record())
        store.append_run(make_record(fp="ffeeddcc99887766"))
        # Tear the file mid-way through the final record, no newline —
        # exactly what a crash between write() and flush-complete leaves.
        text = path.read_text()
        lines = text.rstrip("\n").split("\n")
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        path.write_text(torn)

        reloaded = HistoryStore(path)
        records = reloaded.records()
        assert len(records) == 1
        assert records[0].fingerprint == "aabbccdd00112233"
        assert reloaded.skipped() == 1
        assert reloaded.degraded_reason is None  # torn tail is not degradation

    @pytest.mark.parametrize("cut", [1, 5, 20, 80])
    def test_any_truncation_point_keeps_earlier_records(self, tmp_path, cut):
        path = tmp_path / "history.jsonl"
        store = HistoryStore(path)
        store.append_run(make_record())
        store.append_run(make_record(fp="ffeeddcc99887766"))
        text = path.read_text()
        lines = text.rstrip("\n").split("\n")
        prefix = "\n".join(lines[:-1]) + "\n"
        path.write_text(prefix + lines[-1][: min(cut, len(lines[-1]) - 1)])
        reloaded = HistoryStore(path)
        assert [r.fingerprint for r in reloaded.records()] == ["aabbccdd00112233"]
        assert reloaded.skipped() == 1

    def test_append_after_torn_tail_recovers(self, tmp_path):
        """A new record lands on its own line; the torn fragment stays
        skipped but never contaminates the fresh append."""
        path = tmp_path / "history.jsonl"
        store = HistoryStore(path)
        store.append_run(make_record())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # no trailing newline
        damaged = HistoryStore(path)
        assert damaged.records() == []
        assert damaged.append_run(make_record(fp="ffeeddcc99887766"))
        # The fresh record survives a reload; the torn fragment merged with
        # nothing (append starts on the damaged line, which stays skipped).
        reloaded = HistoryStore(path)
        assert reloaded.skipped() == 1
        assert [r.fingerprint for r in reloaded.records()] == ["ffeeddcc99887766"]


class TestFaultSites:
    def test_read_fault_degrades_to_cold_start(self, tmp_path):
        path = tmp_path / "h.jsonl"
        HistoryStore(path).append_run(make_record())
        plan = FaultPlan(seed=1, specs=[FaultSpec(SITE_HISTORY_READ, kind=ERROR, every=1)])
        store = HistoryStore(path, faults=plan)
        # The fault eats the load: no records, reason surfaced.
        assert store.records() == []
        assert store.degraded_reason is not None
        assert "history read fault" in store.degraded_reason

    def test_short_read_fault_degrades_not_half_trusts(self, tmp_path):
        path = tmp_path / "h.jsonl"
        HistoryStore(path).append_run(make_record())
        plan = FaultPlan(
            seed=1, specs=[FaultSpec(SITE_HISTORY_READ, kind=SHORT_READ, every=1)]
        )
        store = HistoryStore(path, faults=plan)
        assert store.records() == []
        assert store.degraded_reason == "history read fault: short read"

    def test_write_fault_drops_record_and_reports(self, tmp_path):
        path = tmp_path / "h.jsonl"
        plan = FaultPlan(seed=1, specs=[FaultSpec(SITE_HISTORY_WRITE, kind=ERROR, every=1)])
        store = HistoryStore(path, faults=plan)
        with pytest.raises(HistoryWriteError, match="history write fault"):
            store.append_run(make_record())
        assert store.degraded_reason is None  # the drop is the run's, not the store's
        assert len(store) == 0
        assert not path.exists()  # faulted write never touched the file

    def test_short_write_fault_tears_the_tail_for_real(self, tmp_path):
        """The SHORT_READ kind at history.write deliberately writes half a
        record: the next loader must exercise the torn-tail skip."""
        path = tmp_path / "h.jsonl"
        plan = FaultPlan(
            seed=1, specs=[FaultSpec(SITE_HISTORY_WRITE, kind=SHORT_READ, every=1, count=1)]
        )
        store = HistoryStore(path, faults=plan)
        with pytest.raises(HistoryWriteError, match="^history write fault: short write$"):
            store.append_run(make_record())
        assert store.degraded_reason is None
        # Second append succeeds (fault budget spent) on a fresh line.
        assert store.append_run(make_record(fp="ffeeddcc99887766"))
        reloaded = HistoryStore(path)
        assert reloaded.skipped() == 1
        assert [r.fingerprint for r in reloaded.records()] == ["ffeeddcc99887766"]


class TestFeedbackAging:
    def test_observation_ages_out_under_max_age_runs(self, tmp_path):
        """Each run is absorbed under the seq the store gave it, so an
        observation no run renews ages out after ``max_age_runs`` runs."""
        store = HistoryStore(tmp_path / "history.jsonl")
        t, u = (customer_variant(z=0.0, domain_size=10, variant=v, num_rows=40 + v,
                                 name=name) for v, name in enumerate("tu"))  # fmt: skip

        def run(table):
            plan = SeqScan(table)
            ExecutionEngine(plan, bus=TickBus(interval=16), collect_rows=False,
                            history=store).run()  # fmt: skip
            return observed_view(store, max_age_runs=1)

        digest = fingerprint_plan(SeqScan(t)).digest
        run(t)
        assert run(u).lookup(digest) == 40.0
        assert run(u).lookup(digest) is None
