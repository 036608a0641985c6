"""The service's statement cache: keyed, bounded, invalidated, and exact.

``ProgressService.submit_sql`` compiles a SQL text once per (text,
catalog version, observed-overlay version) and hands every session a
``fresh()`` copy of that never-run plan. A copy must run exactly like a
plan compiled for it alone, and anything that can change what the
compiler would produce must force a recompile.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.sql
from benchmarks.e2e.queries import long_mix, short_mix
from repro.common.errors import AnalysisError
from repro.datagen import generate_tpch
from repro.executor.engine import ExecutionEngine
from repro.executor.plan import walk
from repro.server.service import STATEMENT_CACHE_SIZE, ProgressService
from repro.server.session import QuerySession
from repro.storage import Catalog, Schema, Table

SQL = "SELECT t.k, t.v FROM t WHERE t.v > 3"


def small_catalog() -> Catalog:
    catalog = Catalog()
    catalog.register(Table("t", Schema.of("k:int", "v:int", "name:str"),
                           [(i % 5, i, f"n{i}") for i in range(40)]))  # fmt: skip
    catalog.register(Table("u", Schema.of("k:int", "w:int"), [(i, i * 2) for i in range(5)]))
    return catalog


@pytest.fixture()
def compiles(monkeypatch):
    """Counts calls of the one compile path."""
    calls = []
    real = repro.sql.compile_select

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.sql, "compile_select", counting)
    return calls


@pytest.fixture()
def service():
    svc = ProgressService(small_catalog(), workers=1, max_pending=2048)
    try:
        yield svc
    finally:
        svc.shutdown()


def run(svc: ProgressService, sql: str):
    session = svc.submit_sql(sql)
    assert svc.scheduler.join(timeout=60.0)
    return session


class TestCompileOnce:
    def test_hundred_submits_compile_once(self, service, compiles):
        sessions = [service.submit_sql(SQL) for _ in range(100)]
        assert service.scheduler.join(timeout=60.0)
        assert compiles == [SQL]
        plans = {id(s.plan) for s in sessions}
        assert len(plans) == 100
        expected = sessions[0].results()
        assert all(s.results() == expected for s in sessions)
        assert all(s.state.value == "finished" for s in sessions)

    def test_session_never_gets_the_template(self, service):
        first, second = run(service, SQL), run(service, SQL)
        (template,) = service._statements.values()
        assert template.state.value == "created"
        assert first.plan is not template and second.plan is not template

    def test_failing_statement_raises_every_time_and_is_not_cached(
        self, service, compiles
    ):
        mistyped = "SELECT * FROM t JOIN u ON t.name = u.k"  # str = int: J002
        for _ in range(3):
            with pytest.raises(AnalysisError, match="J002"):
                service.submit_sql(mistyped)
        assert compiles == [mistyped] * 3
        assert len(service._statements) == 0


class TestInvalidation:
    def test_analyze_recompiles(self, service, compiles):
        run(service, SQL)
        service.catalog.analyze("t")
        run(service, SQL)
        run(service, SQL)
        assert compiles == [SQL, SQL]

    def test_register_recompiles(self, service, compiles):
        run(service, SQL)
        service.catalog.register(Table("x", Schema.of("a:int"), [(1,)]))
        run(service, SQL)
        assert compiles == [SQL, SQL]

    def test_drop_recompiles(self, service, compiles):
        run(service, SQL)
        service.catalog.drop("u")
        run(service, SQL)
        assert compiles == [SQL, SQL]

    def test_lazy_statistics_do_not_move_the_version(self):
        catalog = Catalog()
        catalog.register(Table("t", Schema.of("k:int"), [(1,)]), analyze=False)
        version = catalog.version
        catalog.statistics("t")
        assert catalog.version == version

    def test_absorbed_run_changes_the_key(self, tmp_path, compiles):
        svc = ProgressService(small_catalog(), workers=1, history_path=tmp_path / "h.jsonl")
        try:
            before = svc.observed.version
            run(svc, SQL)
            assert svc.observed.version > before
            run(svc, SQL)
            assert compiles == [SQL, SQL]
        finally:
            svc.shutdown()

    def test_served_join_feeds_its_cardinalities_back(self, tmp_path):
        """A served run records every node's cardinality, and the next
        compile estimates each subtree at what that run produced."""
        join = "SELECT t.v, u.w FROM t JOIN u ON t.k = u.k WHERE t.v > 3"
        svc = ProgressService(small_catalog(), workers=1, history_path=tmp_path / "h.jsonl")
        try:
            first = run(svc, join)
            (record,) = svc.history.records()
            assert len(record.node_cards) == len(list(walk(first.plan)))
            again = run(svc, join)
            for done, planned in zip(walk(first.plan), walk(again.plan)):
                assert planned.estimated_cardinality == done.tuples_emitted
        finally:
            svc.shutdown()


class TestBound:
    def test_thousand_texts_keep_at_most_the_bound(self, service, compiles):
        texts = [f"SELECT t.k FROM t WHERE t.v > {i}" for i in range(1000)]
        for sql in texts:
            service.submit_sql(sql)
        assert service.scheduler.join(timeout=120.0)
        assert len(service._statements) == STATEMENT_CACHE_SIZE
        # Least recently used goes first: the newest texts still hit.
        run(service, texts[-1])
        assert len(compiles) == 1000
        run(service, texts[0])
        assert len(compiles) == 1001


class TestConcurrentSubmits:
    def test_threads_share_the_cache_without_lost_updates(self, service):
        """Eight threads on two cores, switching every microsecond, submit
        more distinct texts than the bound: no submit fails, the cache stays
        within its bound, and every session returns its own text's rows."""
        texts = [f"SELECT t.k, t.v FROM t WHERE t.v > {i % 40}" for i in range(300)]
        sessions: list[tuple[str, QuerySession]] = []
        errors: list[BaseException] = []

        def submit(offset: int) -> None:
            try:
                for i in range(offset, offset + 120):
                    sql = texts[(i * 7) % len(texts)]
                    sessions.append((sql, service.submit_sql(sql)))
            except BaseException as exc:  # noqa: BLE001 - reported by the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit, args=(40 * n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert service.scheduler.join(timeout=120.0)
        assert len(sessions) == 960
        assert len(service._statements) <= STATEMENT_CACHE_SIZE
        expected = {}
        for sql, session in sessions:
            if sql not in expected:
                reference = repro.sql.compile_select(service.catalog, sql).plan
                expected[sql] = sorted(ExecutionEngine(reference).run().rows)
            assert session.state.value == "finished"
            assert sorted(session.results()[1]) == expected[sql]


# -- cache-hit differential ---------------------------------------------------------


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(sf=0.001, seed=7)


def outcome(session: QuerySession) -> tuple:
    """Everything a client or watcher can observe of a finished session,
    minus wall-clock times."""
    stream = [
        (s.work_done, s.work_total_estimate, s.progress, s.pipeline_states)
        for s in session.monitor.snapshots
    ]
    final = session.snapshot()
    return (
        session.state.value,
        session.results(),
        stream,
        (final.work_done, final.work_total_estimate, final.progress),
    )


@pytest.mark.parametrize("quantum", [1, 7, 512])
def test_cache_hit_equals_cache_miss_on_both_benchmark_mixes(tpch, quantum):
    statements = [q.sql for q in (*long_mix(7), *short_mix(7))]
    svc = ProgressService(
        tpch, workers=1, quantum_rows=quantum, tick_interval=50, row_cap=1_000_000
    )
    try:
        for sql in statements:
            miss = run(svc, sql)
            hit = run(svc, sql)
            reference = QuerySession(
                repro.sql.compile_select(tpch, sql).plan,
                tick_interval=50,
                quantum_rows=quantum,
                row_cap=1_000_000,
            )
            while reference.step():
                pass
            assert outcome(miss) == outcome(reference), sql
            assert outcome(hit) == outcome(miss), sql
        assert len(svc._statements) == len(statements)
    finally:
        svc.shutdown()
