"""A workload dashboard: progress over several concurrent queries.

Runs three queries interleaved (round-robin on one scheduler worker, as a
multi-backend DBMS would time-slice them); a session listener redraws
per-query and aggregate progress — the multi-query extension of the
single-query indicator (cf. Luo et al.'s follow-up work cited in §2).

Run:  python examples/multi_query_dashboard.py
"""

import time

from repro.datagen import generate_tpch
from repro.server import QuerySession, Scheduler, SessionRegistry
from repro.sql import compile_select

QUERIES = {
    "revenue-by-nation": """
        SELECT n.name, SUM(o.totalprice) AS revenue
        FROM orders o
        JOIN customer c ON o.custkey = c.custkey
        JOIN nation n ON c.nationkey = n.nationkey
        GROUP BY n.name
    """,
    "big-orders": """
        SELECT o.orderkey, o.totalprice
        FROM lineitem l
        JOIN orders o ON l.orderkey = o.orderkey
        WHERE o.totalprice > 400000
    """,
    "parts-per-supplier": """
        SELECT s.name, COUNT(*) AS parts
        FROM partsupp ps
        JOIN supplier s ON ps.suppkey = s.suppkey
        GROUP BY s.name
    """,
}


def main() -> None:
    catalog = generate_tpch(sf=0.01, seed=3, skew_z=1.0)
    registry = SessionRegistry()
    last = [0.0]

    def dashboard(_session, _snapshot) -> None:
        now = time.perf_counter()
        if now - last[0] < 0.2:
            return
        last[0] = now
        view = registry.workload()
        parts = [f"{name}: {p:6.1%}" for name, p in view.per_session.items()]
        print("\r" + " | ".join(parts) + f"  ||  workload: {view.progress:6.1%}   ",
              end="", flush=True)

    for name, sql in QUERIES.items():
        session = QuerySession(compile_select(catalog, sql).plan, session_id=name,
                               tick_interval=500, quantum_rows=200, row_cap=0)
        registry.add(session).add_listener(dashboard)

    started = time.perf_counter()
    with Scheduler(workers=1, policy="fair") as scheduler:
        for session in registry.sessions():
            scheduler.submit(session)
        scheduler.run_until_complete()
    elapsed = time.perf_counter() - started

    print("\n\nfinished:")
    for session in registry.sessions():
        print(f"  {session.name:<22} {session.row_count:>8,} rows")
    print(f"workload progress: {registry.workload().progress:.1%} in {elapsed:.2f}s "
          f"({scheduler.steps_taken} scheduler turns)")


if __name__ == "__main__":
    main()
