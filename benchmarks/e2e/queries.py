"""The two query mixes, generated from the benchmark seed.

``Q-long`` is six TPC-H-shaped statements that between them reach every
estimator family the paper defines: ONCE on a single join (``j2_filter``),
chain push-down over a two-join pipeline (``j3_agg``, ``j3_agg_top``),
GEE/MLE group counting (``distinct_fk``, ``groupby_fk``) and the dne
fallback for a plain filtered scan (``scan_filter``). ``Q-short`` is five
sub-millisecond statements over the three tiny tables, where the executor
does a small share of the work and parse / plan / analyze / attach /
session set-up / protocol round-trips dominate.

The seed moves predicate constants inside narrow bands (the data already
differs per seed), so two seeds run different inputs of the same cost
class — which is what lets the driver compare runs on different seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["Query", "long_mix", "round_order", "short_mix"]


@dataclass(frozen=True)
class Query:
    name: str
    sql: str


def long_mix(seed: int) -> tuple[Query, ...]:
    rng = random.Random(f"e2e-long-{seed}")
    top_price = round(rng.uniform(95_000, 105_000), 2)
    j2_price = round(rng.uniform(240_000, 260_000), 2)
    quantity = rng.choice((9, 10, 11))
    discount = round(rng.uniform(0.019, 0.021), 4)
    return (
        Query(
            "j3_agg_top",
            "SELECT n.name, COUNT(*) AS orders, SUM(o.totalprice) AS revenue "
            "FROM orders o JOIN customer c ON o.custkey = c.custkey "
            "JOIN nation n ON c.nationkey = n.nationkey "
            f"WHERE o.totalprice > {top_price} "
            "GROUP BY n.name ORDER BY revenue DESC LIMIT 10",
        ),
        Query(
            "j2_filter",
            "SELECT l.orderkey, l.extendedprice, o.orderdate "
            "FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey "
            f"WHERE l.quantity > 45 AND o.totalprice > {j2_price}",
        ),
        Query(
            "j3_agg",
            "SELECT c.mktsegment, COUNT(*) AS n, SUM(l.extendedprice) AS s "
            "FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey "
            "JOIN customer c ON o.custkey = c.custkey GROUP BY c.mktsegment",
        ),
        Query(
            "distinct_fk",
            f"SELECT DISTINCT l.partkey FROM lineitem l WHERE l.quantity > {quantity}",
        ),
        Query(
            "groupby_fk",
            "SELECT l.suppkey, COUNT(*) AS n, SUM(l.quantity) AS q "
            "FROM lineitem l GROUP BY l.suppkey",
        ),
        Query(
            "scan_filter",
            "SELECT l.orderkey, l.linenumber, l.extendedprice "
            f"FROM lineitem l WHERE l.discount < {discount}",
        ),
    )


def short_mix(seed: int) -> tuple[Query, ...]:
    rng = random.Random(f"e2e-short-{seed}")
    region = rng.randint(1, 5)
    balance = round(rng.uniform(4_000, 5_000), 2)
    return (
        Query(
            "scan_nation",
            f"SELECT n.nationkey, n.name FROM nation n WHERE n.regionkey = {region}",
        ),
        Query(
            "join_nation_region",
            "SELECT n.name, r.name FROM nation n "
            "JOIN region r ON n.regionkey = r.regionkey",
        ),
        Query(
            "agg_supplier",
            "SELECT s.nationkey, COUNT(*) AS n, SUM(s.acctbal) AS bal "
            "FROM supplier s GROUP BY s.nationkey",
        ),
        Query(
            "join_supplier_nation",
            "SELECT s.name, n.name FROM supplier s "
            "JOIN nation n ON s.nationkey = n.nationkey "
            f"WHERE s.acctbal > {balance}",
        ),
        Query("distinct_supplier", "SELECT DISTINCT s.nationkey FROM supplier s"),
    )


def round_order(mix: tuple[Query, ...], rng: random.Random) -> list[Query]:
    """The mix in this round's (seeded) order."""
    order = list(mix)
    rng.shuffle(order)
    return order
