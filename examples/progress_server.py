"""The TCP progress service, end to end — and a smoke test for CI.

Starts ``python -m repro serve`` as a subprocess on a free port, then
drives it through the client library: submits three queries, watches
each from two concurrent subscribers (asserting every stream is monotone
non-decreasing), cancels one mid-flight, fetches the finished results,
submits one more statement twice (the second submit is served from the
statement cache and must return the same rows and final work, and its
float sums must equal an in-process run of the same SQL value for value),
and shuts the server down cleanly.

Exit code 0 means every assertion held; CI runs this script as the
server smoke job.

Run:  PYTHONPATH=src python examples/progress_server.py
"""

import os
import socket
import subprocess
import sys
import threading
import time

from repro import ExecutionEngine, compile_select, generate_tpch
from repro.server import ProgressClient, ServiceError

QUERIES = {
    "join-customers": (
        "SELECT c.name, o.totalprice FROM customer c"
        " JOIN orders o ON c.custkey = o.custkey"
    ),
    "group-orders": "SELECT o.custkey, COUNT(*) AS n FROM orders o GROUP BY o.custkey",
    # Self-join fan-out: enough work to still be running when we cancel it.
    "victim": (
        "SELECT a.orderkey, b.orderkey FROM orders a"
        " JOIN orders b ON a.custkey = b.custkey"
    ),
}

#: The flags the server is started with (seed, skew and sample are the
#: CLI defaults), which the in-process reference run repeats.
SF, SEED, SKEW, SAMPLE = 0.002, 42, 1.0, 0.1

#: Submitted twice: once compiled, once served from the statement cache.
#: Its SUM column is float-valued, so it also checks the fetch codec.
REPEATED = (
    "SELECT n.name, COUNT(*) AS n, SUM(c.acctbal) AS bal FROM nation n"
    " JOIN customer c ON n.nationkey = c.nationkey GROUP BY n.name"
)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def wait_for_server(client: ProgressClient, deadline_s: float = 60.0) -> None:
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            if client.ping():
                return
        except (OSError, ServiceError):
            pass
        if time.monotonic() >= deadline:
            raise RuntimeError("server did not come up in time")
        time.sleep(0.2)


def watch_session(client: ProgressClient, session_id: str, failures: list) -> None:
    last = -1.0
    events = 0
    for event in client.watch(session_id):
        if event["event"] != "snapshot":
            continue
        events += 1
        progress = event["session"]["progress"]
        if progress < last:
            failures.append(
                f"{session_id}: progress regressed {last:.4f} -> {progress:.4f}"
            )
        last = progress
    if events == 0:
        failures.append(f"{session_id}: watcher saw no snapshots")


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # generate_tpch draws skewed keys by str hash, so the server's data
        # equals this process's only under one hash seed: rerun pinned.
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        argv = [sys.executable, *(f"-W{opt}" for opt in sys.warnoptions), *sys.argv]
        return subprocess.run(argv, env=env).returncode
    port = free_port()
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "--sf", str(SF), "--seed", str(SEED),
            "--skew", str(SKEW), "--sample", str(SAMPLE), "serve",
            "--port", str(port), "--workers", "2", "--policy", "serw",
            "--quantum", "64",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    failures: list[str] = []
    try:
        with ProgressClient("127.0.0.1", port, timeout=30.0) as client:
            wait_for_server(client)
            print(f"server up on port {port}")

            sessions = {
                name: client.submit(sql, name=name, quantum_rows=32)["session_id"]
                for name, sql in QUERIES.items()
            }
            print(f"submitted {len(sessions)} queries: {sorted(sessions)}")

            watchers = []
            for sid in sessions.values():
                for _ in range(2):
                    t = threading.Thread(
                        target=watch_session, args=(client, sid, failures), daemon=True
                    )
                    t.start()
                    watchers.append(t)

            client.cancel(sessions["victim"], reason="demo cancel")
            finals = {
                name: client.wait(sid, timeout=120.0) for name, sid in sessions.items()
            }
            for t in watchers:
                t.join(timeout=30.0)
                if t.is_alive():
                    failures.append("a watcher thread never terminated")

            for name in ("join-customers", "group-orders"):
                snap = finals[name]
                print(f"  {name:16s} {snap['state']:9s} progress={snap['progress']:.3f} "
                      f"rows={snap['row_count']}")
                if snap["state"] != "finished" or snap["progress"] != 1.0:
                    failures.append(f"{name}: expected finished/1.0, got {snap}")
                fetched = client.fetch(sessions[name])
                if fetched["row_count"] != snap["row_count"]:
                    failures.append(f"{name}: fetch row_count mismatch")
            victim = finals["victim"]
            print(f"  {'victim':16s} {victim['state']:9s} ({victim['error']})")
            if victim["state"] != "cancelled":
                failures.append(f"victim: expected cancelled, got {victim['state']}")

            workload = client.list_sessions()["workload"]
            print(
                f"workload: progress={workload['progress']:.3f} "
                f"states={workload['states']}"
            )
            if workload["states"].get("cancelled") != 1:
                failures.append("workload view does not show the cancelled session")

            # The statement cache: the first submit compiles, the second
            # runs a fresh copy of that compiled plan and must agree with it.
            repeats = [client.submit(REPEATED, name=f"repeat-{i}")["session_id"]
                       for i in range(2)]
            ends = [client.wait(sid, timeout=120.0) for sid in repeats]
            rows = [client.fetch(sid)["rows"] for sid in repeats]
            print(f"  repeated twice   rows={len(rows[0])} "
                  f"work_done={ends[0]['work_done']:g} / {ends[1]['work_done']:g}")
            if rows[0] != rows[1] or not rows[0]:
                failures.append("repeated statement: rows differ between submits")
            if ends[0]["work_done"] != ends[1]["work_done"]:
                failures.append("repeated statement: final work_done differs")
            # A lossy result codec fails here: every served value, float
            # sums included, must print exactly as an in-process run's.
            catalog = generate_tpch(sf=SF, seed=SEED, skew_z=SKEW)
            local = ExecutionEngine(
                compile_select(catalog, REPEATED, sample_fraction=SAMPLE).plan
            ).run()
            if [repr(tuple(row)) for row in rows[0]] != [repr(row) for row in local.rows]:
                failures.append("repeated statement: served rows differ from in-process")

            client.shutdown_server()
            server.wait(timeout=30.0)
            if server.returncode != 0:
                failures.append(f"server exited with {server.returncode}")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()

    if failures:
        print("FAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "OK: monotone streams, clean cancel, cached repeat agrees,"
        " float results exact, clean shutdown"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
