"""Customer-table presets matching the paper's accuracy experiments.

Section 5.1.1: experiments run on tables "complying with the customer and
nation schemas of the TPC-H specification", restricted to the ``nationkey``
attribute, with the generating function of ``nationkey`` modified so the
column follows a Zipfian distribution with skew ``z`` over a domain
``[1..n]``. ``C_{z,n}`` in the paper denotes such a table;
superscripts (``C¹``, ``C²``) denote variants with the same skew but an
independently permuted assignment of frequencies to values.

:func:`customer_variant` builds exactly these tables (150K rows by default,
the SF-1 customer row count). :func:`customer_variant_with_custkey`
additionally replaces the ``custkey`` primary key with a second skewed
column, as the Figure 6 pipeline experiments require ("we replace the
primary key column custkey for the customer relation with a skewed
distribution on a domain with 25K elements").
"""

from __future__ import annotations

from repro.datagen.zipf import ZipfDistribution
from repro.storage.schema import Schema
from repro.storage.table import DEFAULT_BLOCK_SIZE, Table

__all__ = ["customer_variant", "customer_variant_with_custkey"]

PAPER_CUSTOMER_ROWS = 150_000

#: Rank rotation between consecutive variants (see :func:`customer_variant`).
PEAK_STRIDE = 3


def customer_variant(
    z: float,
    domain_size: int,
    variant: int = 0,
    num_rows: int = PAPER_CUSTOMER_ROWS,
    seed: int = 42,
    name: str | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Table:
    """Build ``C^variant_{z,domain_size}``: a customer table whose
    ``nationkey`` column is Zipf(z) over ``[1..domain_size]``.

    Variants use *rank-shifted* alignment: variant k's rank-to-value map is
    rotated by ``k * PEAK_STRIDE``, so each variant's hot values differ (the
    paper's "peak value frequency corresponds to different values") while
    tails overlap enough that joins between variants stay non-degenerate at
    any skew. The table keeps the sequential ``custkey`` primary key and a
    short name payload. Tuples are in i.i.d. (hence random) order, matching
    the paper's randomly-ordered-stream assumption for base-table scans.
    """
    dist = ZipfDistribution(
        domain_size, z, variant=variant, seed=seed, shift=variant * PEAK_STRIDE
    )
    nationkeys = dist.sample(num_rows)
    rows = (
        (k + 1, f"Customer#{k + 1:09d}", int(nationkeys[k]))
        for k in range(num_rows)
    )
    table_name = name or _default_name("customer", {"z": z, "n": domain_size, "v": variant})
    schema = Schema.of("custkey:int", "name:str", "nationkey:int")
    return Table(table_name, schema, rows, block_size)


def _default_name(prefix: str, params: dict[str, object]) -> str:
    """Parameter-encoding table name; dots would collide with qualified
    column syntax, so fractional values use 'p' (z=1.5 -> z1p5)."""
    parts = [f"{k}{str(v).replace('.', 'p')}" for k, v in params.items()]
    return "_".join([prefix] + parts)


def customer_variant_with_custkey(
    nation_z: float,
    custkey_z: float,
    domain_size: int = 25_000,
    variant: int = 0,
    num_rows: int = PAPER_CUSTOMER_ROWS,
    seed: int = 42,
    name: str | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Table:
    """Figure-6 style customer table: *both* ``custkey`` and ``nationkey``
    are independently skewed over ``[1..domain_size]``.

    Both columns use rank-shifted variant alignment (see
    :func:`customer_variant`); the custkey map is additionally offset so
    the two columns' hot values differ, and their sample streams are
    decorrelated — the two columns are independent, matching the paper's
    column-independence assumption.
    """
    nation_dist = ZipfDistribution(
        domain_size, nation_z, variant=variant, seed=seed,
        shift=variant * PEAK_STRIDE,
    )
    cust_dist = ZipfDistribution(
        domain_size, custkey_z, variant=variant + 1000, seed=seed,
        shift=variant * PEAK_STRIDE + PEAK_STRIDE * 2 + 1,
    )
    nationkeys = nation_dist.sample(num_rows)
    custkeys = cust_dist.sample(num_rows, stream=7)
    rows = (
        (int(custkeys[k]), f"Customer#{k + 1:09d}", int(nationkeys[k]))
        for k in range(num_rows)
    )
    table_name = name or _default_name(
        "customer",
        {"ck": custkey_z, "nk": nation_z, "n": domain_size, "v": variant},
    )
    schema = Schema.of("custkey:int", "name:str", "nationkey:int")
    return Table(table_name, schema, rows, block_size)
