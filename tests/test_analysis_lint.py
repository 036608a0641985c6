"""Tests for the codebase invariant lint (analysis Pass 2, R-codes)."""

from pathlib import Path

import pytest

from repro.analysis.lint import RULES, lint_paths, main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "lint"


def fixture(name):
    return str(FIXTURES / name)


def rules_of(violations):
    return {v.code for v in violations}


class TestRepoIsClean:
    def test_src_passes_all_rules(self):
        """Acceptance: the lint exits clean on the repo's own source tree."""
        violations = lint_paths([str(REPO / "src")])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_main_exit_zero_on_src(self):
        assert main([str(REPO / "src")]) == 0


class TestRules:
    def test_r001_counter_write_in_subclass(self):
        violations = lint_paths([fixture("bad_tuples_emitted.py")])
        assert rules_of(violations) >= {"R001"}
        # _next_batch, reset_counter, and the subclass's own next_batch:
        # counter writes are legal only in Operator.next_batch itself.
        assert len([v for v in violations if v.code == "R001"]) == 3
        assert "tuples_emitted" in violations[0].message

    def test_r002_raw_rng_use(self):
        violations = lint_paths([fixture("bad_random.py")], rules={"R002"})
        # import random, from numpy import random, np.random attribute use.
        assert len(violations) == 3
        assert rules_of(violations) == {"R002"}

    def test_r002_exempts_the_rng_module(self):
        rng_module = REPO / "src" / "repro" / "common" / "rng.py"
        assert lint_paths([str(rng_module)], rules={"R002"}) == []

    def test_r003_bare_except(self):
        violations = lint_paths([fixture("bad_bare_except.py")], rules={"R003"})
        assert len(violations) == 1
        assert violations[0].code == "R003"

    def test_r004_missing_declarations(self):
        violations = lint_paths([fixture("bad_missing_members.py")], rules={"R004"})
        assert len(violations) == 1
        message = violations[0].message
        for member in ("op_name", "children", "output_schema"):
            assert member in message

    def test_good_operator_fixture_is_clean(self):
        assert lint_paths([fixture("good_operator.py")]) == []


class TestEngine:
    def test_rule_subset_selection(self):
        violations = lint_paths([fixture("bad_tuples_emitted.py")], rules={"R003"})
        assert violations == []

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            lint_paths([fixture("good_operator.py")], rules={"R999"})

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        violations = lint_paths([str(broken)])
        assert len(violations) == 1
        assert "syntax error" in violations[0].message

    def test_violation_render_format(self):
        violations = lint_paths([fixture("bad_bare_except.py")], rules={"R003"})
        rendered = violations[0].render()
        assert rendered.startswith(fixture("bad_bare_except.py"))
        assert ": R003 " in rendered

    def test_rules_registry_documents_every_rule(self):
        assert set(RULES) == {
            "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008",
        }


class TestOneChecker:
    """R and X rules share one parse, one finding type and one noqa filter."""

    def test_r_and_x_findings_share_one_noqa_filter(self):
        path = fixture("mixed_noqa.py")
        lines = Path(path).read_text().splitlines()

        def line_of(marker):
            return next(i for i, text in enumerate(lines, 1) if marker in text)

        violations = lint_paths([path])
        assert [(v.code, v.line) for v in violations] == [
            ("X001", line_of("X001: written")),
            ("R003", line_of("the R003 under test")),
        ]
        assert violations[0].symbol == "Tally.add_racy"


class TestR006BareLocks:
    """Private locks are forbidden in executor/ and core/ (R006)."""

    SOURCE = (
        "import threading\n"
        "class Estimator:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._rlock = threading.RLock()\n"
    )

    def _write(self, tmp_path, *parts, source=None):
        target = tmp_path.joinpath(*parts)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source or self.SOURCE)
        return str(target)

    def test_bare_locks_flagged_in_executor_package(self, tmp_path):
        path = self._write(tmp_path, "repro", "executor", "bad_locks.py")
        violations = lint_paths([path], rules={"R006"})
        assert len(violations) == 2
        assert rules_of(violations) == {"R006"}
        assert "sampling lock" in violations[0].message

    def test_bare_locks_flagged_in_core_package(self, tmp_path):
        path = self._write(tmp_path, "repro", "core", "bad_locks.py")
        assert len(lint_paths([path], rules={"R006"})) == 2

    def test_same_code_outside_scoped_packages_is_clean(self, tmp_path):
        path = self._write(tmp_path, "repro", "server", "fine_locks.py")
        assert lint_paths([path], rules={"R006"}) == []

    def test_tickbus_is_exempt(self, tmp_path):
        source = (
            "import threading\n"
            "class TickBus:\n"
            "    def __init__(self, interval=1000):\n"
            "        self.lock = threading.RLock()\n"
        )
        path = self._write(tmp_path, "repro", "executor", "bus.py", source=source)
        assert lint_paths([path], rules={"R006"}) == []

    def test_noqa_suppresses_justified_lock(self, tmp_path):
        source = (
            "import threading\n"
            "class Turns:\n"
            "    def __init__(self):\n"
            "        self.turn_lock = threading.Lock()  # noqa: R006\n"
        )
        path = self._write(tmp_path, "repro", "core", "turns.py", source=source)
        assert lint_paths([path], rules={"R006"}) == []

    def test_shipped_executor_and_core_are_clean(self):
        paths = [
            str(REPO / "src" / "repro" / "executor"),
            str(REPO / "src" / "repro" / "core"),
        ]
        assert lint_paths(paths, rules={"R006"}) == []


class TestMain:
    def test_nonzero_exit_on_violating_fixture(self, capsys):
        """Acceptance: non-zero exit on a fixture mutating tuples_emitted."""
        code = main([fixture("bad_tuples_emitted.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "R001" in out

    def test_unknown_rule_exit_two(self, capsys):
        assert main(["--rules", "R999", fixture("good_operator.py")]) == 2


class TestR001ServerExtension:
    """Server modules may not drive the tick bus or write its counters."""

    SOURCE = (
        "class Watcher:\n"
        "    def poke(self, bus):\n"
        "        bus.tick()\n"
        "        bus.tick_n(10)\n"
        "        bus.count = 0\n"
    )

    def _write(self, tmp_path, *parts):
        target = tmp_path.joinpath(*parts)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.SOURCE)
        return str(target)

    def test_tick_and_counter_writes_flagged_in_server_package(self, tmp_path):
        path = self._write(tmp_path, "repro", "server", "bad_driver.py")
        violations = lint_paths([path], rules={"R001"})
        assert len(violations) == 3
        assert rules_of(violations) == {"R001"}
        messages = " ".join(v.message for v in violations)
        assert "tick" in messages and "count" in messages

    def test_same_code_outside_server_package_is_clean(self, tmp_path):
        path = self._write(tmp_path, "repro", "core", "fine_driver.py")
        assert lint_paths([path], rules={"R001"}) == []

    def test_shipped_server_package_is_clean(self):
        server_pkg = REPO / "src" / "repro" / "server"
        assert lint_paths([str(server_pkg)], rules={"R001"}) == []

class TestR007SerializeOnce:
    """No serialization calls inside loops of ``repro.server`` modules."""

    FIXTURE = FIXTURES / "repro" / "server" / "bad_encode_loop.py"

    def test_fixture_loops_flagged(self):
        violations = lint_paths([str(self.FIXTURE)], rules={"R007"})
        assert rules_of(violations) == {"R007"}
        # broadcast (write_message), broadcast_bytes (dumps + .encode()),
        # stream (encode), nested_helper (write_message in a def inside the
        # loop). write_frame and the noqa'd reconnect send stay clean.
        assert len(violations) == 5
        flagged = {v.message.split("(")[0] for v in violations}
        assert flagged == {"write_message", "dumps", "encode"}

    def test_same_code_outside_server_package_is_clean(self, tmp_path):
        target = tmp_path / "repro" / "core" / "fine_encode.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import json\n"
            "def broadcast(watchers, snap):\n"
            "    for w in watchers:\n"
            "        w.write(json.dumps(snap))\n"
        )
        assert lint_paths([str(target)], rules={"R007"}) == []

    def test_protocol_and_wire_modules_are_exempt(self, tmp_path):
        source = (
            "import json\n"
            "def pump(messages, out):\n"
            "    for m in messages:\n"
            "        out.write(json.dumps(m))\n"
        )
        for exempt in ("protocol.py", "wire.py"):
            target = tmp_path / "repro" / "server" / exempt
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
            assert lint_paths([str(target)], rules={"R007"}) == []

    def test_encode_outside_any_loop_is_clean(self, tmp_path):
        target = tmp_path / "repro" / "server" / "oneshot.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "from repro.server.protocol import encode\n"
            "def reply(wfile, message):\n"
            "    wfile.write(encode(message))\n"
        )
        assert lint_paths([str(target)], rules={"R007"}) == []

    def test_noqa_suppresses_accepted_site(self, tmp_path):
        target = tmp_path / "repro" / "server" / "resend.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "from repro.server.protocol import encode\n"
            "def resend(conn, request):\n"
            "    while True:\n"
            "        conn.sendall(encode(request))  # noqa: R007\n"
            "        break\n"
        )
        assert lint_paths([str(target)], rules={"R007"}) == []

    def test_shipped_server_package_is_clean(self):
        server_pkg = REPO / "src" / "repro" / "server"
        violations = lint_paths([str(server_pkg)], rules={"R007"})
        assert violations == [], "\n".join(v.render() for v in violations)


class TestR008HistoryFileAccess:
    """Raw file I/O in ``repro/robust/`` is legal only in ``store.py``."""

    SOURCE = (
        "from pathlib import Path\n"
        "def peek(path):\n"
        "    with open(path) as fh:\n"
        "        return fh.read()\n"
        "def slurp(path):\n"
        "    return Path(path).read_text()\n"
        "def stomp(path, text):\n"
        "    Path(path).write_text(text)\n"
    )

    def _write(self, tmp_path, *parts, source=None):
        target = tmp_path.joinpath(*parts)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source or self.SOURCE)
        return str(target)

    def test_raw_io_flagged_in_robust_package(self, tmp_path):
        path = self._write(tmp_path, "repro", "robust", "bad_io.py")
        violations = lint_paths([path], rules={"R008"})
        # open, read_text, write_text.
        assert len(violations) == 3
        assert rules_of(violations) == {"R008"}
        assert "HistoryStore" in violations[0].message

    def test_store_module_is_exempt(self, tmp_path):
        path = self._write(tmp_path, "repro", "robust", "store.py")
        assert lint_paths([path], rules={"R008"}) == []

    def test_same_code_outside_robust_package_is_clean(self, tmp_path):
        path = self._write(tmp_path, "repro", "server", "fine_io.py")
        assert lint_paths([path], rules={"R008"}) == []

    def test_shipped_robust_package_is_clean(self):
        robust_pkg = REPO / "src" / "repro" / "robust"
        violations = lint_paths([str(robust_pkg)], rules={"R008"})
        assert violations == [], "\n".join(v.render() for v in violations)


class TestCoordinatorPackageExtension:
    """The stricter R001/R005 forms extend to ``repro/parallel/``: the
    coordinator stack merges progress, it never drives or replays it."""

    TICK_SOURCE = (
        "class Merger:\n"
        "    def poke(self, bus):\n"
        "        bus.tick()\n"
        "        bus.tick_n(4)\n"
        "        bus.count = 0\n"
    )
    MERGE_SOURCE = (
        "class MergedState:\n"
        "    def fold(self, delta):\n"
        "        for key, count in delta.items():\n"
        "            self.estimator.on_probe(key, count)\n"
        "\n"
        "    def apply(self, rows):\n"
        "        for row in rows:\n"
        "            self.estimator.observe(row)\n"
    )

    def _write(self, tmp_path, source, *parts):
        target = tmp_path.joinpath(*parts)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return str(target)

    def test_r001_tick_flagged_in_parallel_package(self, tmp_path):
        path = self._write(
            tmp_path, self.TICK_SOURCE, "repro", "parallel", "bad_merge.py"
        )
        violations = lint_paths([path], rules={"R001"})
        assert len(violations) == 3
        assert rules_of(violations) == {"R001"}

    def test_r005_per_row_hooks_flagged_in_coordinator_merge_loops(
        self, tmp_path
    ):
        path = self._write(
            tmp_path, self.MERGE_SOURCE, "repro", "parallel", "bad_fold.py"
        )
        violations = lint_paths([path], rules={"R005"})
        # on_probe inside fold(), observe inside apply().
        assert len(violations) == 2
        assert rules_of(violations) == {"R005"}
        assert all("merge" in v.message for v in violations)

    def test_r005_merge_loop_scan_only_applies_to_coordinator_packages(
        self, tmp_path
    ):
        path = self._write(
            tmp_path, self.MERGE_SOURCE, "repro", "executor", "fine_fold.py"
        )
        assert lint_paths([path], rules={"R005"}) == []

    def test_shipped_parallel_package_is_clean(self):
        parallel_pkg = REPO / "src" / "repro" / "parallel"
        violations = lint_paths([str(parallel_pkg)])
        assert violations == [], "\n".join(v.render() for v in violations)
