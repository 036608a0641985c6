"""Query answers checked against an independent engine: ``sqlite3``.

Every other result check in the suite compares this engine with itself
(batch sizes, history on and off, the aggregate kernel against a per-row
reference), so a wrong answer that every path shares passes them all.
Here the same SQL text runs over the same TPC-H tables loaded into an
in-memory sqlite database, unmonitored and monitored in each mode.

The queries are global aggregates over empty input, where SQL returns one
row: COUNT and COUNT(DISTINCT) give 0, every other function NULL.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.datagen import generate_tpch
from repro.executor.engine import ExecutionEngine
from repro.executor.operators import AggregateSpec, HashAggregate, SeqScan
from repro.optimizer.bounds import CardinalityBounds
from repro.sql.compiler import run_query
from repro.storage.schema import Schema
from repro.storage.table import Table

EMPTY_GLOBAL_AGGREGATES = {
    "count_sum": "SELECT COUNT(*) AS n, SUM(n.regionkey) AS s FROM nation n "
    "WHERE n.regionkey > 100",
    "min_max": "SELECT MIN(o.totalprice) AS m, MAX(o.orderdate) AS d FROM orders o "
    "WHERE o.totalprice < 0",
    "avg_count_distinct": "SELECT AVG(c.acctbal) AS a, COUNT(DISTINCT c.nationkey) AS k "
    "FROM customer c WHERE c.acctbal > 100000000",
    "left_join_is_null": "SELECT COUNT(*) AS n FROM customer c "
    "LEFT JOIN orders o ON c.custkey = o.custkey WHERE o.orderkey IS NULL",
}


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(sf=0.001, seed=1, skew_z=0.0)


@pytest.fixture(scope="module")
def oracle(catalog):
    """The catalog's tables in sqlite, under unqualified column names."""
    con = sqlite3.connect(":memory:")
    for name in catalog.table_names():
        table = catalog.table(name)
        columns = table.schema.names(qualified=False)
        con.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        con.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})", table.rows()
        )
    yield con
    con.close()


@pytest.mark.parametrize("progress", [None, "once", "dne", "byte"])
@pytest.mark.parametrize("name", EMPTY_GLOBAL_AGGREGATES)
def test_empty_global_aggregate_agrees_with_sqlite(name, progress, catalog, oracle):
    sql = EMPTY_GLOBAL_AGGREGATES[name]
    expected = oracle.execute(sql).fetchall()
    assert len(expected) == 1  # SQL's one row
    assert run_query(catalog, sql, progress=progress, tick_interval=50).rows == expected


def test_a_global_aggregate_is_bounded_at_one_row():
    """With no input at all its one row is still within its bounds."""
    empty = Table("e", Schema.of("x:int"), [], block_size=4)
    plan = HashAggregate(SeqScan(empty), (), [AggregateSpec("sum", "e.x", "s")])
    bounds = CardinalityBounds(plan)
    bounds.refine()
    assert (bounds.of(plan).lo, bounds.of(plan).hi) == (1.0, 1.0)
    assert ExecutionEngine(plan).run().rows == [(None,)]
