"""Tests for the lock-discipline rules (X001-X006) of the source checker.

Mirrors the :mod:`tests.test_analysis_lint` layout: seeded-race fixtures
under ``tests/fixtures/concurrency/`` provide one positive per diagnostic
code, ``good_discipline.py`` is the per-code negative twin, and the repo's
own ``src/`` tree must check clean.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.diagnostics import Violation
from repro.analysis.lint import lint_paths, main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "concurrency"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def codes_of(findings: list[Violation]) -> set[str]:
    return {f.code for f in findings}


class TestRepoIsClean:
    """Acceptance: the annotated codebase has no findings."""

    def test_src_tree_clean_without_baseline(self) -> None:
        findings = lint_paths([str(REPO / "src")])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_main_exit_zero_on_src(self, capsys) -> None:
        assert main([str(REPO / "src")]) == 0
        assert capsys.readouterr().out == ""


class TestX001UnguardedField:
    def test_flags_unguarded_read_and_write(self) -> None:
        findings = lint_paths([fixture("bad_unguarded_field.py")])
        assert codes_of(findings) == {"X001"}
        messages = [f.message for f in findings]
        assert any("write" in m for m in messages)
        assert any("read" in m for m in messages)
        assert all("Counter.count" in m for m in messages)

    def test_locked_access_is_clean(self) -> None:
        findings = lint_paths([fixture("good_discipline.py")])
        assert "X001" not in codes_of(findings)


class TestX002UnlockedCall:
    def test_flags_guarded_callee_without_lock(self) -> None:
        findings = lint_paths([fixture("bad_unlocked_call.py")])
        assert codes_of(findings) == {"X002"}
        (finding,) = findings
        assert finding.symbol == "Store.add_racy"
        assert "Store._append_locked" in finding.message

    def test_locked_and_holds_lock_callers_are_clean(self) -> None:
        findings = lint_paths([fixture("good_discipline.py")])
        assert "X002" not in codes_of(findings)


class TestX003AcquireLeak:
    def test_flags_acquire_without_try_finally(self) -> None:
        findings = lint_paths([fixture("bad_acquire_leak.py")])
        assert codes_of(findings) == {"X003"}
        (finding,) = findings
        assert finding.symbol == "Leaky.update_leaky"

    def test_try_finally_release_is_clean(self) -> None:
        findings = lint_paths([fixture("good_discipline.py")])
        assert "X003" not in codes_of(findings)


class TestX003RetryLoopLeak:
    """The session stepper's retry-loop shape: acquire per attempt with the
    release only on the success path leaks on every raising attempt; the
    lock-spans-the-loop twin with try/finally is clean."""

    def test_flags_per_attempt_acquire_released_on_success_only(self) -> None:
        findings = lint_paths([fixture("bad_retry_leak.py")])
        assert codes_of(findings) == {"X003"}
        (finding,) = findings
        assert finding.symbol == "RetryingReader.read_leaky"

    def test_lock_spanning_retry_loop_is_clean(self) -> None:
        findings = lint_paths([fixture("bad_retry_leak.py")])
        assert all(f.symbol != "RetryingReader.read_safe" for f in findings)


class TestX004LockOrder:
    def test_flags_inverted_acquisition_order(self) -> None:
        findings = lint_paths([fixture("bad_lock_order.py")])
        assert codes_of(findings) == {"X004"}
        (finding,) = findings
        # Both edges of the cycle are named so either site can be fixed.
        assert "Transfer.move_ab" in finding.message
        assert "Transfer.move_ba" in finding.message

    def test_consistent_order_is_clean(self) -> None:
        findings = lint_paths([fixture("good_discipline.py")])
        assert "X004" not in codes_of(findings)


class TestX005BlockingUnderCriticalLock:
    def test_flags_sleep_while_holding_sampling_lock(self) -> None:
        findings = lint_paths([fixture("bad_blocking_hold.py")])
        assert codes_of(findings) == {"X005"}
        (finding,) = findings
        assert "time.sleep" in finding.message
        assert "Sampler.lock" in finding.message

    def test_blocking_outside_the_lock_is_clean(self) -> None:
        findings = lint_paths([fixture("good_discipline.py")])
        assert "X005" not in codes_of(findings)


class TestX006Escape:
    def test_flags_bare_return_and_thread_handoff(self) -> None:
        findings = lint_paths([fixture("bad_escape.py")])
        escapes = [f for f in findings if f.code == "X006"]
        assert len(escapes) == 2
        assert any("returned bare" in f.message for f in escapes)
        assert any("Thread" in f.message for f in escapes)

    def test_copies_and_immutable_values_are_clean(self) -> None:
        findings = lint_paths([fixture("good_discipline.py")])
        assert "X006" not in codes_of(findings)


class TestSuppression:
    def test_noqa_comment_silences_finding(self) -> None:
        assert lint_paths([fixture("suppressed_noqa.py")]) == []

    def test_same_code_without_noqa_fires(self, tmp_path: Path) -> None:
        source = Path(fixture("suppressed_noqa.py")).read_text()
        stripped = source.replace("  # noqa: X001", "")
        target = tmp_path / "unsuppressed.py"
        target.write_text(stripped)
        findings = lint_paths([str(target)])
        assert codes_of(findings) == {"X001"}


class TestMain:
    def test_exit_one_with_rendered_findings(self, capsys) -> None:
        assert main([fixture("bad_unguarded_field.py")]) == 1
        out = capsys.readouterr().out
        assert "X001" in out
        assert "Counter.bump_racy" in out

    def test_json_report_written(self, tmp_path: Path, capsys) -> None:
        report = tmp_path / "report.json"
        code = main(["--json", str(report), fixture("bad_blocking_hold.py")])
        assert code == 1
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert data["count"] == 1
        (entry,) = data["findings"]
        assert entry["code"] == "X005"
        assert entry["symbol"] == "Sampler.record_slow"


class TestFindingApi:
    def test_render_and_key_shape(self) -> None:
        (first, *_rest) = lint_paths([fixture("bad_unguarded_field.py")])
        rendered = first.render()
        assert rendered.startswith(first.path)
        assert f":{first.line}: {first.code}" in rendered
        code, path, symbol = first.code, first.path, first.symbol
        assert code == "X001"
        assert path.endswith("bad_unguarded_field.py")
        assert symbol == "Counter.bump_racy"

    def test_severity_registered_in_diagnostics(self) -> None:
        from repro.analysis.diagnostics import CODES, Severity

        for code in ("X001", "X002", "X003", "X004", "X005"):
            assert CODES[code][0] is Severity.ERROR
        assert CODES["X006"][0] is Severity.WARNING


class TestTypedLocalResolution:
    """Lock expressions resolve through typed locals, so module-level
    functions — the parallel worker loop is the motivating case — are held
    to the same protocol as methods."""

    def test_racy_free_function_flagged_locked_one_clean(self) -> None:
        findings = lint_paths([fixture("typed_local_worker.py")])
        assert codes_of(findings) == {"X001"}
        assert all(f.symbol == "worker_loop_racy" for f in findings)
        assert all("Bus.count" in f.message for f in findings)

    def test_shipped_parallel_package_clean(self) -> None:
        parallel_pkg = REPO / "src" / "repro" / "parallel"
        findings = lint_paths([str(parallel_pkg)])
        assert findings == [], "\n".join(f.render() for f in findings)
