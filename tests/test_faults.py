"""Unit tests for the deterministic fault-injection subsystem itself:
spec validation, the fault-spec grammar, scheduling semantics
(every/rate/after/count), per-site seeded determinism, the firing log,
retryable defaults, and the engine-level integration (including that an
uninstalled plan is a true no-op)."""

from __future__ import annotations

import pytest

from repro.executor.engine import ExecutionEngine
from repro.faults import (
    ALL_SITES,
    ERROR,
    SHORT_READ,
    SITE_CURSOR_FETCH,
    SITE_OPERATOR_PULL,
    SITE_SCAN_READ,
    SITE_SERVER_READ,
    STALL,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    TransientFault,
    parse_fault_spec,
)
from repro.sql import compile_select

SQL = "SELECT c.custkey, c.name FROM customer c WHERE c.custkey > 0"


class TestFaultSpecValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultSpec("disk.write", every=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            FaultSpec(SITE_SCAN_READ, kind="explode", every=1)

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate must be in"):
            FaultSpec(SITE_SCAN_READ, rate=1.5)

    def test_never_firing_spec_rejected(self):
        with pytest.raises(ValueError, match="can never fire"):
            FaultSpec(SITE_SCAN_READ)

    def test_bad_every_count_after(self):
        with pytest.raises(ValueError):
            FaultSpec(SITE_SCAN_READ, every=0)
        with pytest.raises(ValueError):
            FaultSpec(SITE_SCAN_READ, every=1, count=0)
        with pytest.raises(ValueError):
            FaultSpec(SITE_SCAN_READ, every=1, after=-1)

    def test_retryable_defaults(self):
        assert FaultSpec(SITE_CURSOR_FETCH, every=1).is_retryable
        assert not FaultSpec(SITE_SCAN_READ, every=1).is_retryable
        assert FaultSpec(SITE_SCAN_READ, every=1, retryable=True).is_retryable
        assert not FaultSpec(SITE_CURSOR_FETCH, every=1, retryable=False).is_retryable


class TestScheduling:
    def test_every_cadence_with_after(self):
        plan = FaultPlan(specs=[FaultSpec(SITE_SCAN_READ, STALL, every=3, after=2, count=None)])
        hits = [plan.check(SITE_SCAN_READ) is not None for _ in range(12)]
        # Opportunities 1..12, armed after 2: fires at 5, 8, 11.
        assert [i + 1 for i, hit in enumerate(hits) if hit] == [5, 8, 11]

    def test_count_budget_exhausts(self):
        plan = FaultPlan(specs=[FaultSpec(SITE_SCAN_READ, STALL, every=1, count=2)])
        fired = sum(plan.check(SITE_SCAN_READ) is not None for _ in range(10))
        assert fired == 2

    def test_rate_is_seed_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan(
                seed=seed,
                specs=[FaultSpec(SITE_SCAN_READ, STALL, rate=0.3, count=None)],
            )
            return [plan.check(SITE_SCAN_READ) is not None for _ in range(100)]

        assert firing_pattern(11) == firing_pattern(11)
        assert firing_pattern(11) != firing_pattern(12)

    def test_sites_draw_independent_streams(self):
        specs = [
            FaultSpec(SITE_SCAN_READ, STALL, rate=0.5, count=None),
            FaultSpec(SITE_OPERATOR_PULL, STALL, rate=0.5, count=None),
        ]
        plan = FaultPlan(seed=5, specs=specs)
        a = [plan.check(SITE_SCAN_READ) is not None for _ in range(64)]
        b = [plan.check(SITE_OPERATOR_PULL) is not None for _ in range(64)]
        assert a != b  # decorrelated per-site streams

    def test_firing_log_records_site_kind_opportunity(self):
        plan = FaultPlan(specs=[FaultSpec(SITE_SCAN_READ, STALL, every=2, count=2)])
        for _ in range(6):
            plan.check(SITE_SCAN_READ, detail="orders")
        records = plan.records()
        assert [r["opportunity"] for r in records] == [2, 4]
        assert all(r["site"] == SITE_SCAN_READ for r in records)
        assert all(r["kind"] == STALL for r in records)
        assert all(r["detail"] == "orders" for r in records)

    def test_to_wire_replayable(self):
        import json

        plan = FaultPlan(seed=9, specs=[FaultSpec(SITE_SCAN_READ, STALL, every=1, count=1)])
        plan.check(SITE_SCAN_READ)
        wire = plan.to_wire()
        json.dumps(wire)  # must be JSON-clean
        assert wire["seed"] == 9
        assert len(wire["fired"]) == 1
        rebuilt = FaultPlan(
            seed=wire["seed"], specs=[FaultSpec(**spec) for spec in wire["specs"]]
        )
        assert rebuilt.specs == plan.specs


class TestFire:
    def test_error_raises_injected(self):
        plan = FaultPlan(specs=[FaultSpec(SITE_SCAN_READ, ERROR, every=1)])
        with pytest.raises(InjectedFault) as excinfo:
            plan.fire(SITE_SCAN_READ, detail="orders")
        assert not isinstance(excinfo.value, TransientFault)
        assert excinfo.value.site == SITE_SCAN_READ
        assert "orders" in str(excinfo.value)

    def test_cursor_error_raises_transient(self):
        plan = FaultPlan(specs=[FaultSpec(SITE_CURSOR_FETCH, ERROR, every=1)])
        with pytest.raises(TransientFault):
            plan.fire(SITE_CURSOR_FETCH)

    def test_stall_sleeps_and_returns_spec(self):
        import time

        plan = FaultPlan(specs=[FaultSpec(SITE_SCAN_READ, STALL, every=1, delay_s=0.01)])
        started = time.perf_counter()
        spec = plan.fire(SITE_SCAN_READ)
        assert spec is not None and spec.kind == STALL
        assert time.perf_counter() - started >= 0.01

    def test_short_read_halves_but_never_zero(self):
        assert FaultPlan.short_read(100) == 50
        assert FaultPlan.short_read(2) == 1
        assert FaultPlan.short_read(1) == 1

    def test_quiet_sites_fire_nothing(self):
        plan = FaultPlan(specs=[FaultSpec(SITE_SCAN_READ, STALL, every=1)])
        assert plan.fire(SITE_SERVER_READ) is None
        assert not plan.has_site(SITE_SERVER_READ)
        assert plan.has_site(SITE_SCAN_READ, SITE_SERVER_READ)


class TestSpecGrammar:
    def test_blank_gives_none(self):
        assert parse_fault_spec("") is None
        assert parse_fault_spec("  ;  ") is None
        assert parse_fault_spec(None) is None

    def test_full_clause(self):
        plan = parse_fault_spec(
            "seed=42; scan.read:error:rate=0.01:count=2:after=5;"
            " server.write:short_read:every=7"
        )
        assert plan.seed == 42
        by_site = {spec.site: spec for spec in plan.specs}
        scan = by_site["scan.read"]
        assert (scan.kind, scan.rate, scan.count, scan.after) == (ERROR, 0.01, 2, 5)
        assert by_site["server.write"].every == 7

    def test_non_error_kinds_default_every_1(self):
        (spec,) = parse_fault_spec("operator.pull:stall:delay_s=0.5").specs
        assert spec.every == 1 and spec.count == 1 and spec.delay_s == 0.5

    def test_error_without_schedule_rejected(self):
        with pytest.raises(ValueError, match="can never fire"):
            parse_fault_spec("scan.read:error")

    def test_count_inf(self):
        (spec,) = parse_fault_spec("scan.read:stall:count=inf").specs
        assert spec.count is None

    def test_retryable_flag(self):
        (spec,) = parse_fault_spec("scan.read:error:every=1:retryable=true").specs
        assert spec.is_retryable

    def test_malformed_clauses_fail_loudly(self):
        for bad in (
            "scan.read",
            "scan.read:error:bogus=1:every=1",
            "scan.read:error:rate",
            "nope.site:error:every=1",
            "scan.read:error:retryable=maybe:every=1",
        ):
            with pytest.raises(ValueError):
                parse_fault_spec(bad)

    def test_all_sites_parse(self):
        for site in sorted(ALL_SITES):
            plan = parse_fault_spec(f"{site}:stall")
            assert plan.specs[0].site == site


class TestEngineIntegration:
    def test_injected_scan_fault_fails_run(self, small_catalog):
        plan = compile_select(small_catalog, SQL).plan
        faults = FaultPlan(specs=[FaultSpec(SITE_SCAN_READ, ERROR, every=1, after=1)])
        engine = ExecutionEngine(plan, faults=faults)
        with pytest.raises(InjectedFault):
            engine.run(batch_size=32)

    def test_short_read_changes_batching_not_rows(self, small_catalog):
        clean = ExecutionEngine(compile_select(small_catalog, SQL).plan).run()
        faults = FaultPlan(
            specs=[FaultSpec(SITE_SCAN_READ, SHORT_READ, every=2, count=None)]
        )
        shaken = ExecutionEngine(
            compile_select(small_catalog, SQL).plan, faults=faults
        ).run(batch_size=32)
        assert shaken.rows == clean.rows
        assert faults.records(), "short_read never fired"

    def test_no_plan_is_a_noop(self, small_catalog):
        # faults=None must not perturb execution in any observable way.
        clean = ExecutionEngine(compile_select(small_catalog, SQL).plan).run()
        assert clean.rows is not None and len(clean.rows) > 0

    @pytest.mark.parametrize("batch_size", [None, 1, 1024])
    def test_run_pulls_through_cursor_fetch_at_every_size(
        self, small_catalog, batch_size, monkeypatch
    ):
        """Regression: an un-sized ``run()`` used to drain the root itself,
        leaving the ``cursor.fetch`` site inert and ``rows_pulled`` at 0."""
        from repro.executor import engine as engine_module

        faults = parse_fault_spec("cursor.fetch:error:every=1")
        plan = compile_select(small_catalog, SQL).plan
        with pytest.raises(TransientFault):
            ExecutionEngine(plan, faults=faults).run(batch_size=batch_size)

        cursors = []

        class RecordingCursor(engine_module.PlanCursor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                cursors.append(self)

        monkeypatch.setattr(engine_module, "PlanCursor", RecordingCursor)
        plan = compile_select(small_catalog, SQL).plan
        result = ExecutionEngine(plan).run(batch_size=batch_size)
        (cursor,) = cursors
        assert cursor.rows_pulled == result.row_count > 0
