"""Command-line interface.

Local subcommands, all runnable offline against generated data::

    python -m repro demo                      # the Figure-8 style showcase
    python -m repro query "SELECT ..."        # run SQL with a progress bar
    python -m repro analyze "SELECT ..."      # static plan diagnostics, no execution

``query`` generates (and caches per-process) a skewed TPC-H database, runs
the statement through :mod:`repro.sql` with the paper's estimators attached,
and redraws a progress bar from inside the executor's tick bus — the
end-user experience the paper is about.

Service subcommands (the :mod:`repro.server` subsystem)::

    python -m repro serve                     # progress service over TCP
    python -m repro submit "SELECT ..."       # run a query on the service
    python -m repro watch [SESSION_ID]        # live progress bars for sessions
    python -m repro cancel SESSION_ID         # cooperative cancellation

``serve`` owns the generated catalog and time-slices every submitted query
over a worker pool; ``watch`` streams progress snapshots for one session or
the whole workload. See ``docs/SERVER.md``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.datagen import generate_tpch
from repro.storage.catalog import Catalog

__all__ = ["main"]


def _build_catalog(args: argparse.Namespace) -> Catalog:
    print(
        f"generating TPC-H data (sf={args.sf}, skew z={args.skew}, seed={args.seed})...",
        file=sys.stderr,
    )
    return generate_tpch(sf=args.sf, seed=args.seed, skew_z=args.skew)


def _progress_bar(progress: float, total_estimate: float, width: int = 40) -> str:
    filled = int(min(max(progress, 0.0), 1.0) * width)
    bar = "#" * filled + "-" * (width - filled)
    return f"[{bar}] {progress:6.1%}  T̂={total_estimate:,.0f}"


def cmd_query(args: argparse.Namespace) -> int:
    catalog = _build_catalog(args)
    last_draw = [0.0]

    def draw(snapshots) -> None:
        if not snapshots:
            return
        now = time.perf_counter()
        if now - last_draw[0] < 0.05:
            return
        last_draw[0] = now
        snap = snapshots[-1]
        sys.stderr.write("\r" + _progress_bar(snap.progress, snap.work_total_estimate))
        sys.stderr.flush()

    from repro.core.progress import ProgressMonitor
    from repro.executor.engine import ExecutionEngine, TickBus
    from repro.sql import compile_select

    compiled = compile_select(
        catalog, args.sql, sample_fraction=args.sample
    )
    bus = TickBus(interval=args.tick)
    monitor = ProgressMonitor(compiled.plan, mode=args.mode, bus=bus)
    bus.subscribe(lambda _c: draw(monitor.snapshots))
    result = ExecutionEngine(compiled.plan, bus=bus, collect_rows=True).run(
        batch_size=args.batch_size
    )
    sys.stderr.write("\r" + _progress_bar(1.0, monitor.snapshot().work_total_estimate))
    sys.stderr.write("\n")

    _print_rows(compiled.plan, result.rows or [], args.max_rows)
    print(
        f"-- {result.row_count:,} rows in {result.wall_time_s:.2f}s "
        f"({args.mode} progress estimation)",
        file=sys.stderr,
    )
    return 0


def _print_rows(plan, rows: list, max_rows: int) -> None:
    columns = plan.output_schema.names()
    print("\t".join(columns))
    for row in rows[:max_rows]:
        print("\t".join(str(v) for v in row))
    if len(rows) > max_rows:
        print(f"... ({len(rows) - max_rows} more rows)")


def _workload_setups(args: argparse.Namespace):
    """Every builder in :mod:`repro.workloads`, instantiated at toy scale.

    Plans are built but never executed — exactly what ``analyze`` needs.
    """
    from repro.workloads import (
        paper_binary_join,
        paper_pipeline_diff_attr,
        paper_pipeline_same_attr,
        paper_pkfk_join_with_selection,
        tpch_q8_like,
    )

    yield "paper_binary_join", paper_binary_join(
        z=1.0, domain_size=50, num_rows=200, seed=args.seed
    )
    yield "paper_pkfk_join_with_selection", paper_pkfk_join_with_selection(
        domain_size=200, num_rows=200, selection_cutoff=100, seed=args.seed
    )
    yield "paper_pipeline_same_attr", paper_pipeline_same_attr(
        z=1.0, domain_size=50, num_rows=200, seed=args.seed
    )
    yield "paper_pipeline_diff_attr[case=1]", paper_pipeline_diff_attr(
        case=1, lower_z=1.0, upper_z=1.0, domain_size=50, num_rows=200, seed=args.seed
    )
    yield "paper_pipeline_diff_attr[case=2]", paper_pipeline_diff_attr(
        case=2, lower_z=1.0, upper_z=1.0, domain_size=50, num_rows=200, seed=args.seed
    )
    yield "tpch_q8_like", tpch_q8_like(
        sf=0.002, skew_z=args.skew, sample_fraction=0.0, seed=args.seed
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import Severity
    from repro.executor.plan import check_plan, explain

    min_severity = Severity[args.min_severity.upper()]
    had_errors = False

    def show(name: str, plan) -> None:
        nonlocal had_errors
        report = check_plan(plan, mode="advisory")
        print(f"== {name}")
        print(explain(plan))
        rendered = report.render(min_severity=min_severity)
        print(rendered if rendered else "  no diagnostics")
        summary = (
            f"  {len(report.errors)} error(s), {len(report.warnings)} warning(s), "
            f"{len(report.diagnostics)} total"
        )
        print(summary)
        had_errors = had_errors or report.has_errors

    if args.workloads:
        for name, setup in _workload_setups(args):
            show(name, setup.plan)
    else:
        if not args.sql:
            print("analyze: provide a SELECT statement or --workloads", file=sys.stderr)
            return 2
        from repro.sql import compile_select

        catalog = _build_catalog(args)
        compiled = compile_select(
            catalog, args.sql, sample_fraction=args.sample, analyze="off"
        )
        show(args.sql, compiled.plan)
    return 1 if had_errors else 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.progress import ProgressMonitor
    from repro.executor.engine import ExecutionEngine, TickBus
    from repro.workloads import tpch_q8_like

    print("TPC-H Q8-style 8-table join under skew: once vs dne progress\n")
    curves = {}
    for mode in ("once", "dne"):
        setup = tpch_q8_like(sf=args.sf, skew_z=args.skew, sample_fraction=args.sample)
        bus = TickBus(interval=args.tick)
        monitor = ProgressMonitor(setup.plan, mode=mode, bus=bus)
        print(f"running with {mode}...", file=sys.stderr)
        ExecutionEngine(setup.plan, bus=bus, collect_rows=False).run()
        curves[mode] = monitor.progress_curve()

    targets = [i / 10 for i in range(1, 11)]
    print(f"{'actual':>8} {'once':>8} {'dne':>8}")
    for target in targets:
        row = [f"{target:8.0%}"]
        for mode in ("once", "dne"):
            est = next((e for a, e in curves[mode] if a >= target), 1.0)
            row.append(f"{est:8.1%}")
        print(" ".join(row))
    print("\na perfect indicator reports estimated == actual;")
    print("dne overestimates progress while the optimizer's join estimates are wrong.")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.faults import parse_fault_spec
    from repro.server.service import ProgressService

    try:
        faults = parse_fault_spec(args.faults) if args.faults else None
    except ValueError as exc:
        print(f"bad --faults spec: {exc}", file=sys.stderr)
        return 2
    catalog = _build_catalog(args)
    service = ProgressService(
        catalog,
        host=args.host,
        port=args.port,
        workers=args.workers,
        policy=args.policy,
        quantum_rows=args.quantum,
        tick_interval=args.tick,
        row_cap=args.row_cap,
        max_pending=args.max_pending,
        sample_fraction=args.sample,
        default_timeout_s=args.timeout,
        faults=faults,
        history_path=args.history,
    )
    host, port = service.start()
    print(
        f"repro progress service listening on {host}:{port} "
        f"({args.workers} workers, policy={args.policy})",
        file=sys.stderr,
    )
    if service.history is not None:
        print(
            f"run history at {args.history} "
            f"({len(service.history)} prior runs"
            + (
                f", {service.history.skipped()} torn records skipped"
                if service.history.skipped()
                else ""
            )
            + ")",
            file=sys.stderr,
        )
    if service.faults is not None:
        sites = sorted({spec.site for spec in service.faults.specs})
        print(
            f"fault injection ACTIVE (seed={service.faults.seed}, "
            f"sites: {', '.join(sites)})",
            file=sys.stderr,
        )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down...", file=sys.stderr)
    finally:
        service.shutdown()
    return 0


def _client(args: argparse.Namespace):
    from repro.server.client import ProgressClient

    return ProgressClient(args.host, args.port)


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.server.client import ServiceError

    try:
        with _client(args) as client:
            session = client.submit(
                args.sql,
                mode=args.mode,
                name=args.name,
                timeout_s=args.timeout_s,
            )
            sid = session["session_id"]
            print(sid)
            if not args.wait:
                return 0
            final = client.wait(sid, timeout=args.wait_timeout)
            print(
                f"{sid} {final['state']}: {final['row_count']:,} rows "
                f"in {final['elapsed_s']:.2f}s",
                file=sys.stderr,
            )
            if final["state"] == "finished" and args.fetch:
                result = client.fetch(sid)
                print("\t".join(result["columns"]))
                for row in result["rows"][: args.max_rows]:
                    print("\t".join(str(v) for v in row))
                if result["truncated"] or len(result["rows"]) > args.max_rows:
                    shown = min(len(result["rows"]), args.max_rows)
                    print(f"... ({final['row_count'] - shown} more rows)")
            return 0 if final["state"] == "finished" else 1
    except ServiceError as exc:
        print(f"submit failed — {exc}", file=sys.stderr)
        return 1


def cmd_cancel(args: argparse.Namespace) -> int:
    from repro.server.client import ServiceError

    try:
        with _client(args) as client:
            session = client.cancel(args.session_id)
    except ServiceError as exc:
        print(f"cancel failed — {exc}", file=sys.stderr)
        return 1
    print(f"{session['session_id']} -> {session['state']}", file=sys.stderr)
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    """Inspect or clear a run-history store (all access via HistoryStore)."""
    from repro.robust import HistoryStore

    store = HistoryStore(args.path)
    if args.history_cmd == "clear":
        n = len(store)
        store.clear()
        print(f"cleared {n} run(s) from {args.path}")
        return 0
    if store.degraded_reason is not None:
        print(f"warning: {store.degraded_reason}", file=sys.stderr)
    if args.history_cmd == "list":
        records = store.records()
        if not records:
            print(f"no runs recorded in {args.path}")
            return 0
        skipped = store.skipped()
        if skipped:
            print(f"({skipped} torn record(s) skipped on load)", file=sys.stderr)
        print(f"{'seq':>5}  {'fingerprint':16}  {'mode':5}  "
              f"{'rows':>8}  {'T(Q)':>10}  {'wall_s':>8}")
        for rec in records:
            print(
                f"{rec.seq:>5}  {rec.fingerprint:16}  {rec.mode:5}  "
                f"{rec.row_count:>8}  {rec.true_total:>10.0f}  "
                f"{rec.wall_time_s:>8.3f}"
            )
        return 0
    # show <fingerprint>: every recorded run of one plan.
    records = store.records_for(args.fingerprint)
    if not records:
        print(f"no runs for fingerprint {args.fingerprint!r} in {args.path}")
        return 1
    print(f"fingerprint {args.fingerprint} — {len(records)} run(s)")
    print(f"signature: {records[-1].signature}")
    for rec in records:
        print(
            f"  seq {rec.seq}: mode={rec.mode} rows={rec.row_count} "
            f"T={rec.true_total:.0f} wall={rec.wall_time_s:.3f}s"
        )
    return 0


def _render_watch_frame(sessions: dict, workload: dict | None, width: int = 32) -> str:
    lines = []
    for sid in sorted(sessions):
        snap = sessions[sid]
        bar = _progress_bar(snap["progress"], snap["work_total_estimate"], width)
        label = snap["name"] if snap["name"] != sid else sid
        lines.append(f"{label:>16.16} {bar} {snap['state']}")
    if workload is not None:
        frac = workload["progress"]
        filled = int(min(max(frac, 0.0), 1.0) * width)
        lines.append(
            f"{'WORKLOAD':>16} [{'#' * filled}{'-' * (width - filled)}] {frac:6.1%}  "
            f"{workload['states']}"
        )
    return "\n".join(lines)


def cmd_watch(args: argparse.Namespace) -> int:
    from repro.server.client import ServiceError

    sessions: dict = {}
    workload: dict | None = None
    live = sys.stderr.isatty() and not args.plain
    drawn_lines = 0

    def draw() -> None:
        nonlocal drawn_lines
        frame = _render_watch_frame(sessions, workload)
        if not frame:
            return
        if live and drawn_lines:
            sys.stderr.write(f"\x1b[{drawn_lines}F\x1b[J")
        sys.stderr.write(frame + "\n")
        sys.stderr.flush()
        drawn_lines = frame.count("\n") + 1

    try:
        with _client(args) as client:
            for event in client.watch(args.session_id, until_idle=args.until_idle):
                kind = event.get("event")
                if kind == "snapshot":
                    snap = event["session"]
                    sessions[snap["session_id"]] = snap
                elif kind == "workload":
                    workload = event["workload"]
                elif kind == "end":
                    draw()
                    print(f"watch ended: {event.get('reason')}", file=sys.stderr)
                    continue  # the stream stops itself after "end"
                if live:
                    draw()
                elif kind == "snapshot":
                    snap = event["session"]
                    sys.stderr.write(
                        f"{snap['session_id']} {snap['progress']:.3f} {snap['state']}\n"
                    )
        return 0
    except KeyboardInterrupt:
        print("", file=sys.stderr)
        return 0
    except ServiceError as exc:
        print(f"watch failed — {exc}", file=sys.stderr)
        return 1


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query progress indicators (Mishra & Koudas, ICDE 2007) demo CLI",
    )
    parser.add_argument("--sf", type=float, default=0.01, help="TPC-H scale factor")
    parser.add_argument("--skew", type=float, default=1.0, help="Zipf skew for FKs")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--sample", type=float, default=0.1, help="scan sample fraction")
    parser.add_argument("--tick", type=int, default=2000, help="progress tick interval")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser(
        "query", aliases=["run"], help="run a SQL query with a live progress bar"
    )
    q.add_argument("sql", help="the SELECT statement")
    q.add_argument("--mode", choices=("once", "dne", "byte"), default="once")
    q.add_argument("--max-rows", type=int, default=20)
    q.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="pull N rows per next_batch() call "
        "(default: 1024, capped at --tick)",
    )
    q.set_defaults(func=cmd_query)

    a = sub.add_parser(
        "analyze", help="static plan diagnostics (type/pipeline checks), no execution"
    )
    a.add_argument("sql", nargs="?", help="SELECT statement to analyze")
    a.add_argument(
        "--workloads",
        action="store_true",
        help="analyze every repro.workloads builder at toy scale instead of SQL",
    )
    a.add_argument(
        "--min-severity",
        choices=("info", "warning", "error"),
        default="info",
        help="lowest severity to print",
    )
    a.set_defaults(func=cmd_analyze)

    d = sub.add_parser("demo", help="Figure-8 style once-vs-dne showcase")
    d.set_defaults(func=cmd_demo)

    def add_endpoint(p) -> None:
        p.add_argument("--host", default="127.0.0.1", help="service host")
        p.add_argument("--port", type=int, default=7661, help="service port")

    s = sub.add_parser("serve", help="run the multi-session progress service")
    add_endpoint(s)
    s.add_argument("--workers", type=int, default=4, help="scheduler worker threads")
    s.add_argument(
        "--policy",
        choices=("fair", "serw"),
        default="fair",
        help="fair round-robin or shortest-expected-remaining-work",
    )
    s.add_argument("--quantum", type=int, default=512, help="rows per scheduling quantum")
    s.add_argument("--row-cap", type=int, default=10_000, help="result spool cap per session")
    s.add_argument("--max-pending", type=int, default=64, help="admission-control bound")
    s.add_argument(
        "--timeout", type=float, default=None, help="default per-session timeout (s)"
    )
    s.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault-injection spec, e.g. "
            "'seed=42; scan.read:error:rate=0.01:count=2' "
            "(default: none; see docs/FAULTS.md)"
        ),
    )
    s.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="run-history store (JSONL): records finished runs and feeds "
        "their observed cardinalities back to the optimizer "
        "(see docs/ROBUST.md)",
    )
    s.set_defaults(func=cmd_serve)

    sm = sub.add_parser("submit", help="submit SQL to a running service")
    add_endpoint(sm)
    sm.add_argument("sql", help="the SELECT statement")
    sm.add_argument("--mode", choices=("once", "dne", "byte"), default="once")
    sm.add_argument("--name", default=None, help="session display name")
    sm.add_argument(
        "--timeout-s", type=float, default=None, help="per-session timeout (s)"
    )
    sm.add_argument("--wait", action="store_true", help="block until the query ends")
    sm.add_argument(
        "--wait-timeout", type=float, default=300.0, help="--wait poll deadline (s)"
    )
    sm.add_argument("--fetch", action="store_true", help="with --wait: print result rows")
    sm.add_argument("--max-rows", type=int, default=20)
    sm.set_defaults(func=cmd_submit)

    w = sub.add_parser("watch", help="stream live progress bars from the service")
    add_endpoint(w)
    w.add_argument("session_id", nargs="?", default=None, help="one session (default: all)")
    w.add_argument(
        "--until-idle",
        action="store_true",
        help="exit once every session is terminal (aggregate watch only)",
    )
    w.add_argument("--plain", action="store_true", help="line-per-event output, no redraw")
    w.set_defaults(func=cmd_watch)

    c = sub.add_parser("cancel", help="cooperatively cancel a session")
    add_endpoint(c)
    c.add_argument("session_id")
    c.set_defaults(func=cmd_cancel)

    h = sub.add_parser("history", help="inspect or clear a run-history store")
    hsub = h.add_subparsers(dest="history_cmd", required=True)
    hl = hsub.add_parser("list", help="one line per recorded run")
    hl.add_argument("--path", required=True, help="history store (JSONL)")
    hs = hsub.add_parser(
        "show", help="every recorded run of one plan fingerprint"
    )
    hs.add_argument("fingerprint", help="canonical plan fingerprint digest")
    hs.add_argument("--path", required=True, help="history store (JSONL)")
    hc = hsub.add_parser("clear", help="truncate the store")
    hc.add_argument("--path", required=True, help="history store (JSONL)")
    h.set_defaults(func=cmd_history)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    return args.func(args)
