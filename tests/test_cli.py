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
