"""Query/data setups mirroring Section 5 of the paper.

Each builder returns a :class:`QuerySetup` (or :class:`PipelineSetup` for
join chains): the physical plan, the catalog holding the generated tables,
and handles to the operators of interest. Row counts default to the paper's
(150K-row customer tables, TPC-H scale factors) but every builder takes a
``num_rows``/``sf`` knob so tests can run the same shapes at toy scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datagen.skew import (
    PAPER_CUSTOMER_ROWS,
    customer_variant,
    customer_variant_with_custkey,
)
from repro.datagen.tpch import generate_tpch
from repro.executor.expressions import col, lit
from repro.executor.operators import (
    AggregateSpec,
    Filter,
    HashAggregate,
    HashJoin,
    SampleScan,
    SeqScan,
)
from repro.executor.operators.base import Operator
from repro.executor.operators.hash_join import HashJoin as _HashJoin
from repro.optimizer.cardinality import annotate_plan
from repro.storage.catalog import Catalog
from repro.storage.table import Table

__all__ = [
    "PipelineSetup",
    "QuerySetup",
    "paper_binary_join",
    "paper_pipeline_diff_attr",
    "paper_pipeline_same_attr",
    "paper_pkfk_join_with_selection",
    "tpch_q8_like",
]


@dataclass
class QuerySetup:
    """A ready-to-run query plan plus its context."""

    plan: Operator
    catalog: Catalog
    description: str
    joins: list[_HashJoin] = field(default_factory=list)

    @property
    def join(self) -> _HashJoin:
        return self.joins[-1]


@dataclass
class PipelineSetup(QuerySetup):
    """A hash-join chain setup; ``joins`` is bottom-up."""

    @property
    def lower_join(self) -> _HashJoin:
        return self.joins[0]

    @property
    def upper_join(self) -> _HashJoin:
        return self.joins[-1]


def _scan(table: Table, sample_fraction: float, seed: int) -> Operator:
    if sample_fraction > 0:
        return SampleScan(table, sample_fraction, seed)
    return SeqScan(table)


def paper_binary_join(
    z: float,
    domain_size: int,
    num_rows: int = PAPER_CUSTOMER_ROWS,
    sample_fraction: float = 0.0,
    seed: int = 42,
    num_partitions: int = 8,
    memory_partitions: int = 1,
) -> QuerySetup:
    """Figures 3/4(a): ``C_{z,n} ⋈ C¹_{z,n}`` on nationkey.

    Two customer tables with identical skew but independently permuted
    frequency assignments — the worst case where "the values with a high
    frequency in one table may have a low frequency in another".
    The first variant is the build input, the second the probe input.
    """
    catalog = Catalog()
    build_table = catalog.register(
        customer_variant(z, domain_size, 0, num_rows, seed, name="cust_build")
    )
    probe_table = catalog.register(
        customer_variant(z, domain_size, 1, num_rows, seed, name="cust_probe")
    )
    join = HashJoin(
        _scan(build_table, sample_fraction, seed),
        _scan(probe_table, sample_fraction, seed + 1),
        "cust_build.nationkey",
        "cust_probe.nationkey",
        num_partitions=num_partitions,
        memory_partitions=memory_partitions,
    )
    annotate_plan(join, catalog)
    return QuerySetup(
        plan=join,
        catalog=catalog,
        description=f"C_{{{z},{domain_size}}} join C1_{{{z},{domain_size}}}",
        joins=[join],
    )


def paper_pkfk_join_with_selection(
    z: float = 1.0,
    domain_size: int = 125_000,
    num_rows: int = PAPER_CUSTOMER_ROWS,
    selection_cutoff: int = 50_000,
    sample_fraction: float = 0.0,
    seed: int = 42,
    num_partitions: int = 8,
    memory_partitions: int = 1,
) -> QuerySetup:
    """Figure 4(b): primary-key/foreign-key join between a skewed customer
    table and its nation table, with the selection ``nationkey < cutoff``.

    The "nation" side here is the PK relation: one row per domain value
    (the paper widened nationkey's domain, so its nation table has one row
    per key in [1..domain]).
    """
    catalog = Catalog()
    customer = catalog.register(
        customer_variant(z, domain_size, 0, num_rows, seed, name="customer_sk")
    )
    nation_rows = ((k, f"NATION#{k}") for k in range(1, domain_size + 1))
    from repro.storage.schema import Schema

    nation = catalog.register(
        Table("nation_wide", Schema.of("nationkey:int", "name:str"), nation_rows)
    )
    probe = Filter(
        _scan(customer, sample_fraction, seed),
        col("customer_sk.nationkey") < lit(selection_cutoff),
    )
    join = HashJoin(
        _scan(nation, sample_fraction, seed + 1),
        probe,
        "nation_wide.nationkey",
        "customer_sk.nationkey",
        num_partitions=num_partitions,
        memory_partitions=memory_partitions,
    )
    annotate_plan(join, catalog)
    return QuerySetup(
        plan=join,
        catalog=catalog,
        description=(
            f"nation ⋈ σ(nationkey<{selection_cutoff}) C_{{{z},{domain_size}}}"
        ),
        joins=[join],
    )


def paper_pipeline_same_attr(
    z: float,
    domain_size: int = 5_000,
    num_rows: int = PAPER_CUSTOMER_ROWS,
    sample_fraction: float = 0.0,
    seed: int = 42,
    num_partitions: int = 8,
    memory_partitions: int = 1,
) -> PipelineSetup:
    """Figure 5: ``C_{z,n} ⋈ C¹_{z,n} ⋈ C²_{z,n}``, all on nationkey.

    Plan shape: upper(build=C, probe=lower(build=C¹, probe=C²)) — a
    two-join pipeline whose joins share the join attribute.
    """
    catalog = Catalog()
    c0 = catalog.register(customer_variant(z, domain_size, 0, num_rows, seed, name="c0"))
    c1 = catalog.register(customer_variant(z, domain_size, 1, num_rows, seed, name="c1"))
    c2 = catalog.register(customer_variant(z, domain_size, 2, num_rows, seed, name="c2"))
    lower = HashJoin(
        _scan(c1, sample_fraction, seed + 1),
        _scan(c2, sample_fraction, seed + 2),
        "c1.nationkey",
        "c2.nationkey",
        num_partitions=num_partitions,
        memory_partitions=memory_partitions,
    )
    upper = HashJoin(
        _scan(c0, sample_fraction, seed),
        lower,
        "c0.nationkey",
        "c1.nationkey",
        num_partitions=num_partitions,
        memory_partitions=memory_partitions,
    )
    annotate_plan(upper, catalog)
    return PipelineSetup(
        plan=upper,
        catalog=catalog,
        description=f"same-attribute pipeline, z={z}, domain={domain_size}",
        joins=[lower, upper],
    )


def paper_pipeline_diff_attr(
    case: int,
    lower_z: float,
    upper_z: float,
    domain_size: int = 25_000,
    num_rows: int = PAPER_CUSTOMER_ROWS,
    sample_fraction: float = 0.0,
    seed: int = 42,
    num_partitions: int = 8,
    memory_partitions: int = 1,
) -> PipelineSetup:
    """Figure 6: two-join pipeline on *different* attributes.

    All three relations have both custkey and nationkey skewed over the
    same ``domain_size`` (the paper replaces the custkey primary key with a
    skewed column). The lower join is on nationkey with skew ``lower_z``;
    the upper join is on custkey with skew ``upper_z`` and joins the upper
    build input A with:

    * case 1 — the *probe* relation C of the lower join (``A.ck = C.ck``);
    * case 2 — the *build* relation B of the lower join (``A.ck = B.ck``),
      which requires the derived-histogram simulation of Section 4.1.4.2.
    """
    if case not in (1, 2):
        raise ValueError(f"case must be 1 or 2, got {case}")
    catalog = Catalog()
    a = catalog.register(
        customer_variant_with_custkey(
            lower_z, upper_z, domain_size, 0, num_rows, seed, name="rel_a"
        )
    )
    b = catalog.register(
        customer_variant_with_custkey(
            lower_z, upper_z, domain_size, 1, num_rows, seed, name="rel_b"
        )
    )
    c = catalog.register(
        customer_variant_with_custkey(
            lower_z, upper_z, domain_size, 2, num_rows, seed, name="rel_c"
        )
    )
    lower = HashJoin(
        _scan(b, sample_fraction, seed + 1),
        _scan(c, sample_fraction, seed + 2),
        "rel_b.nationkey",
        "rel_c.nationkey",
        num_partitions=num_partitions,
        memory_partitions=memory_partitions,
    )
    probe_key = "rel_c.custkey" if case == 1 else "rel_b.custkey"
    upper = HashJoin(
        _scan(a, sample_fraction, seed),
        lower,
        "rel_a.custkey",
        probe_key,
        num_partitions=num_partitions,
        memory_partitions=memory_partitions,
    )
    annotate_plan(upper, catalog)
    return PipelineSetup(
        plan=upper,
        catalog=catalog,
        description=(
            f"diff-attribute pipeline case {case}, lower z={lower_z}, "
            f"upper z={upper_z}, domain={domain_size}"
        ),
        joins=[lower, upper],
    )


def tpch_q8_like(
    sf: float = 0.01,
    skew_z: float = 2.0,
    sample_fraction: float = 0.1,
    seed: int = 42,
    num_partitions: int = 8,
    memory_partitions: int = 1,
    catalog: Catalog | None = None,
) -> QuerySetup:
    """Figure 8: an 8-table join in the spirit of TPC-H Q8, plus aggregation.

    lineitem is the probe stream of a single pipeline of 7 hash joins
    (part, supplier, orders, customer, nation n1, region, nation n2),
    topped by a GROUP BY on the supplier nation. Under Q8's dimension
    predicates (a part-type filter, a region filter, an order-date range)
    the optimizer's independence/uniformity assumptions misestimate the
    filtered joins badly on Zipf-skewed foreign keys —
    skewed partkeys concentrate lineitems on few parts, so "part of type X"
    retains a very non-proportional share of the join. The online framework
    corrects every join during lineitem's probe pass.
    """
    if catalog is None:
        catalog = generate_tpch(sf=sf, seed=seed, skew_z=skew_z)
    nation = catalog.table("nation")
    catalog.register(nation.aliased("n1"))
    catalog.register(nation.aliased("n2"))

    def scan(name: str) -> Operator:
        return _scan(catalog.table(name), sample_fraction, seed)

    # The part filter keeps ~2% of parts by key range; with unpermuted
    # Zipf foreign keys those are exactly the hot parts, so the true
    # join cardinality vastly exceeds the optimizer's uniform estimate.
    part_cutoff = max(catalog.row_count("part") // 50, 1)
    # Q8 restricts to one region; pick the region of the most popular
    # customer nation so the query is non-empty on any seed/skew.
    from collections import Counter

    hot_nation = Counter(
        catalog.table("customer").column_values("nationkey")
    ).most_common(1)[0][0]
    nation_region = {
        r[0]: r[2] for r in catalog.table("nation").rows()
    }  # nationkey -> regionkey
    filters = {
        "part": col("part.partkey") <= lit(part_cutoff),
        "region": col("region.regionkey") == lit(nation_region[hot_nation]),
        "orders": col("orders.orderdate") < lit(19960101),
    }

    def filtered_scan(name: str) -> Operator:
        base = scan(name)
        predicate = filters.get(name)
        return Filter(base, predicate) if predicate is not None else base

    plan: Operator = scan("lineitem")
    joins: list[_HashJoin] = []

    def add_join(table: str, probe_key: str, build_key: str) -> None:
        nonlocal plan
        join = HashJoin(
            filtered_scan(table),
            plan,
            build_key,
            probe_key,
            num_partitions=num_partitions,
            memory_partitions=memory_partitions,
        )
        joins.append(join)
        plan = join

    add_join("part", "lineitem.partkey", "part.partkey")
    add_join("supplier", "lineitem.suppkey", "supplier.suppkey")
    add_join("orders", "lineitem.orderkey", "orders.orderkey")
    add_join("customer", "orders.custkey", "customer.custkey")
    add_join("n1", "customer.nationkey", "n1.nationkey")
    add_join("region", "n1.regionkey", "region.regionkey")
    add_join("n2", "supplier.nationkey", "n2.nationkey")

    plan = HashAggregate(
        plan,
        ["n2.name"],
        [
            AggregateSpec("count", alias="order_count"),
            AggregateSpec("sum", "lineitem.extendedprice", alias="volume"),
        ],
    )
    annotate_plan(plan, catalog)
    return QuerySetup(
        plan=plan,
        catalog=catalog,
        description=f"TPC-H Q8-like 8-table join, sf={sf}, z={skew_z}",
        joins=joins,
    )
