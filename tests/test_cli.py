"""Tests for the command-line interface."""

import pytest

from repro.cli import build_arg_parser, main


class TestArgParsing:
    def test_query_defaults(self):
        args = build_arg_parser().parse_args(["query", "SELECT * FROM nation"])
        assert args.command == "query"
        assert args.mode == "once"
        assert args.sf == 0.01

    def test_global_options(self):
        args = build_arg_parser().parse_args(
            ["--sf", "0.5", "--skew", "2", "demo"]
        )
        assert args.sf == 0.5
        assert args.skew == 2.0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args([])

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["query", "SELECT 1", "--mode", "magic"])

    def test_run_alias_and_batch_size(self):
        args = build_arg_parser().parse_args(
            ["run", "SELECT * FROM nation", "--batch-size", "1024"]
        )
        assert args.batch_size == 1024
        assert args.func.__name__ == "cmd_query"

    def test_batch_size_defaults_to_row_mode(self):
        args = build_arg_parser().parse_args(["query", "SELECT * FROM nation"])
        assert args.batch_size is None


class TestCommands:
    def test_query_end_to_end(self, capsys):
        code = main(
            [
                "--sf", "0.001", "--tick", "200",
                "query",
                "SELECT regionkey, COUNT(*) AS n FROM nation GROUP BY regionkey",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "regionkey" in out.splitlines()[0]
        assert len(out.splitlines()) >= 2

    def test_query_max_rows_truncation(self, capsys):
        code = main(
            [
                "--sf", "0.001",
                "query", "SELECT orderkey FROM orders", "--max-rows", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "more rows" in out

    def test_batched_query_matches_row_mode(self, capsys):
        argv = [
            "--sf", "0.001", "--tick", "200",
            "run",
            "SELECT regionkey, COUNT(*) AS n FROM nation GROUP BY regionkey",
        ]
        assert main(argv) == 0
        row_out = capsys.readouterr().out
        assert main(argv + ["--batch-size", "64"]) == 0
        batch_out = capsys.readouterr().out
        assert batch_out == row_out

    def test_demo_runs(self, capsys):
        code = main(["--sf", "0.001", "--tick", "500", "demo"])
        assert code == 0
        out = capsys.readouterr().out
        assert "once" in out and "dne" in out


class TestAnalyzeCommand:
    def test_analyze_parse_defaults(self):
        args = build_arg_parser().parse_args(["analyze", "SELECT * FROM nation"])
        assert args.command == "analyze"
        assert args.min_severity == "info"
        assert args.workloads is False

    def test_analyze_requires_sql_or_workloads(self, capsys):
        assert main(["analyze"]) == 2
        assert "provide a SELECT" in capsys.readouterr().err

    def test_analyze_workloads_all_clean(self, capsys):
        """Acceptance: every workload query analyzes with zero errors."""
        code = main(["analyze", "--workloads"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tpch_q8_like" in out
        assert "0 error(s)" in out

    def test_analyze_sql_statement(self, capsys):
        code = main(
            [
                "--sf", "0.001",
                "analyze",
                "SELECT orderkey FROM orders",
                "--min-severity", "warning",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "error(s)" in out

    def test_analyze_bad_min_severity_rejected(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(
                ["analyze", "SELECT 1", "--min-severity", "loud"]
            )


#: A run record as stores written before the per-estimator error fields
#: were dropped kept it: ``estimator_errors``/``estimator_checkpoints``
#: must still load (and be ignored).
OLD_RECORD_LINE = (
    '{"fingerprint":"aabbccdd00112233","signature":"(seqscan customer)",'
    '"mode":"once","wall_time_s":1.25,"true_total":1000.0,"row_count":42,'
    '"curve":[[0.0,0.0],[0.5,0.45],[1.0,1.0]],'
    '"estimator_errors":{"once":0.01,"dne":0.09,"byte":0.04},'
    '"estimator_checkpoints":12,"node_cards":{"deadbeef01234567":500.0},'
    '"table_rows":{"customer":1500},"seq":1}\n'
)


class TestHistoryCommand:
    @pytest.fixture
    def mixed_store(self, tmp_path):
        """A store holding an old-format line, then a run recorded now."""
        from repro.datagen.skew import customer_variant
        from repro.executor.engine import ExecutionEngine
        from repro.executor.operators import SeqScan
        from repro.robust import HistoryStore, fingerprint_plan

        path = tmp_path / "history.jsonl"
        path.write_text(OLD_RECORD_LINE)
        table = customer_variant(z=0.0, domain_size=10, variant=0, num_rows=40, name="t")
        ExecutionEngine(SeqScan(table), history=HistoryStore(path)).run()
        return path, fingerprint_plan(SeqScan(table))

    def test_old_and_new_records_both_load_and_feed_back(self, mixed_store):
        from repro.robust import HistoryStore, observed_view

        path, new_fp = mixed_store
        store = HistoryStore(path)
        old, new = store.records()
        assert store.skipped() == 0 and store.degraded_reason is None
        assert (old.fingerprint, old.seq, old.row_count) == ("aabbccdd00112233", 1, 42)
        assert (new.fingerprint, new.seq, new.row_count) == (new_fp.digest, 2, 40)
        observed = observed_view(store)
        assert observed.lookup("deadbeef01234567") == 500.0
        assert observed.lookup(new_fp.nodes[0]) == 40.0

    def test_list_shows_both_runs(self, mixed_store, capsys):
        path, new_fp = mixed_store
        assert main(["history", "list", "--path", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["seq", "fingerprint"]
        assert [line.split()[:2] for line in lines[1:]] == [
            ["1", "aabbccdd00112233"],
            ["2", new_fp.digest],
        ]

    def test_show_prints_each_run(self, mixed_store, capsys):
        path, new_fp = mixed_store
        for digest, seq, rows in (("aabbccdd00112233", 1, 42), (new_fp.digest, 2, 40)):
            assert main(["history", "show", digest, "--path", str(path)]) == 0
            out = capsys.readouterr().out
            assert f"fingerprint {digest} — 1 run(s)" in out
            assert f"seq {seq}: mode=once rows={rows} " in out
        assert main(["history", "show", "0000000000000000", "--path", str(path)]) == 1
        assert "no runs for fingerprint" in capsys.readouterr().out

    def test_clear_empties_the_store(self, mixed_store, capsys):
        path, _ = mixed_store
        assert main(["history", "clear", "--path", str(path)]) == 0
        assert capsys.readouterr().out.strip() == f"cleared 2 run(s) from {path}"
        assert main(["history", "list", "--path", str(path)]) == 0
        assert capsys.readouterr().out.strip() == f"no runs recorded in {path}"
