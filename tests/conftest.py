"""Shared fixtures: small deterministic tables and catalogs."""

from __future__ import annotations

from collections import Counter
from typing import Callable

import pytest

from repro.datagen import customer_variant, generate_tpch
from repro.executor.engine import ExecutionEngine, TickBus
from repro.storage import Catalog, Schema, Table


@pytest.fixture
def tiny_table() -> Table:
    """Five rows, three columns, two blocks."""
    schema = Schema.of("id:int", "name:str", "score:float")
    rows = [
        (1, "a", 1.5),
        (2, "b", 2.5),
        (3, "c", 3.5),
        (4, "d", 4.5),
        (5, "e", 5.5),
    ]
    return Table("tiny", schema, rows, block_size=3)


@pytest.fixture
def skewed_pair() -> tuple[Table, Table]:
    """Two 2000-row customer variants, Zipf(1) over 50 values."""
    left = customer_variant(1.0, 50, variant=0, num_rows=2000, name="left")
    right = customer_variant(1.0, 50, variant=1, num_rows=2000, name="right")
    return left, right


@pytest.fixture
def small_catalog() -> Catalog:
    """TPC-H at sf=0.001 (1500 orders, 6000 lineitems)."""
    return generate_tpch(sf=0.001, seed=3)


def brute_force_join_size(left: Table, right: Table, left_col: str, right_col: str) -> int:
    """Reference equijoin cardinality."""
    lc = Counter(left.column_values(left_col))
    rc = Counter(right.column_values(right_col))
    return sum(c * rc.get(v, 0) for v, c in lc.items())


def read_at_ticks(plan, read: Callable[[], object], interval: int, **run) -> list:
    """Run ``plan`` to the end and return ``read()`` taken at every tick of
    a ``TickBus(interval)``: an estimate read mid-pass, from outside."""
    bus = TickBus(interval)
    reads: list = []
    bus.subscribe(lambda _count: reads.append(read()))
    ExecutionEngine(plan, bus=bus, collect_rows=False).run(**run)
    return reads
