"""The traced run: a staged replay that gives every layer its own numbers.

End-to-end metrics are taken with tracing off (``workloads.py``). This
module is the *separate* traced run. It replays the workload's query mix
stage by stage — each call into a layer's public function wrapped in a
span recorded here, in the benchmark's own files; ``src/`` carries no
spans yet — then probes the layers no workload exercises (robust history,
the scheduler under concurrency, partitioned execution). Spans stay in
memory and are written to ``results/trace-<workload>.json`` at exit; a
layer's self time is its span's duration minus its children's.

Snapshot construction happens inside the executor's pull, so it is bracketed
from outside through the public ``TickBus``: callbacks fire in subscription
order, so one subscribed before the ``ProgressMonitor`` opens the
``core.snapshot`` span and one subscribed after it closes it.
"""

from __future__ import annotations

import itertools
import json
import shutil
import socket
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

from repro import ExecutionEngine, ProgressMonitor, SeqScan, TickBus, compile_select, generate_tpch
from repro.executor.plan import check_plan
from repro.optimizer import annotate_plan
from repro.robust import HistoryStore, fingerprint_plan
from repro.server.protocol import decode, encode
from repro.server.session import QuerySession
from repro.server.wire import SessionStreamEncoder, apply_delta
from repro.sql import parse_select

from benchmarks.e2e import stats
from benchmarks.e2e.hostspeed import HostSpeed
from benchmarks.e2e.queries import Query, long_mix, short_mix
from benchmarks.e2e.server import SERVER_FLAGS, SKEW, TICK, ServerProcess
from benchmarks.e2e.workloads import (
    BATCH_SIZE,
    RESULTS_DIR,
    WORKLOADS,
    Config,
    Result,
    RoundLog,
    run_round,
    set_up,
)

__all__ = ["Tracer", "run_traced"]

QUANTUM_ROWS = int(SERVER_FLAGS[SERVER_FLAGS.index("--quantum") + 1])
CONCURRENT_SESSIONS = 8
#: Seconds of ``--seconds`` one replay repetition of each mix costs on the
#: reference host (all variants), used to size the replay like the workloads.
REPLAY_REPS_PER_SECOND = {long_mix: 0.3, short_mix: 8.0}


# -- spans ------------------------------------------------------------------------


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    #: ``<query>/<variant>#<rep>``: every span of one replayed query shares it.
    query: str | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; single-threaded, like the client it traces."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple[str, str | None, float]] = []
        self._open: list[Span] = []

    def begin(self, name: str, query: str | None = None) -> None:
        parent = self._open[-1] if self._open else None
        if query is None and parent is not None:
            query = parent.query
        span = Span(
            len(self.spans), name, parent.id if parent else None, query,
            time.perf_counter(),
        )  # fmt: skip
        self.spans.append(span)
        self._open.append(span)

    def end(self) -> None:
        self._open.pop().end = time.perf_counter()

    @contextmanager
    def span(self, name: str, query: str | None = None):
        self.begin(name, query)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, value: float) -> None:
        """Record a count at the boundary where the work happens."""
        query = self._open[-1].query if self._open else None
        self.counts.append((name, query, value))

    def self_times(self) -> dict[int, float]:
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def dump(self, path: Path, **header) -> None:
        path.write_text(
            json.dumps({**header, "spans": [asdict(s) for s in self.spans],
                        "counts": self.counts})
        )  # fmt: skip


def _span(tracer: Tracer | None, name: str, query: str | None = None):
    return tracer.span(name, query) if tracer is not None else nullcontext()


# -- the staged replay --------------------------------------------------------------


def build_plan(tracer: Tracer | None, catalog, query: Query):
    """SQL text to a checked physical plan, one span per front-end layer
    (``compile_select`` runs the same four steps in one call)."""
    with _span(tracer, "sql.parse"):
        statement = parse_select(query.sql)
    with _span(tracer, "sql.plan_build"):
        plan = compile_select(catalog, statement, annotate=False, analyze="off").plan
    with _span(tracer, "optimizer.annotate"):
        annotate_plan(plan, catalog)
    with _span(tracer, "analysis.check_plan"):
        check_plan(plan, mode="strict")
    return plan


def attach(tracer: Tracer | None, plan, resilient: bool = False):
    with _span(tracer, "core.attach"):
        bus = TickBus(interval=TICK)
        if tracer is not None:
            bus.subscribe(lambda _count: tracer.begin("core.snapshot"))
        monitor = ProgressMonitor(plan, mode="once", bus=bus, resilient=resilient)
        if tracer is not None:
            bus.subscribe(lambda _count: tracer.end())
    return bus, monitor


def replay_engine(
    tracer: Tracer | None, catalog, query: Query, qid: str,
    batch_size: int | None, monitored: bool,
) -> None:  # fmt: skip
    """The embedded path: front end, attach, one ``ExecutionEngine.run``."""
    kind = "batch" if batch_size else "row"
    suffix = "" if monitored else ".bare"
    with _span(tracer, "query." + kind + suffix, qid):
        plan = build_plan(tracer, catalog, query)
        bus = monitor = None
        if monitored:
            bus, monitor = attach(tracer, plan)
        with _span(tracer, f"executor.pull_{kind}{suffix}"):
            ExecutionEngine(plan, bus=bus).run(batch_size=batch_size)
        if monitored:
            # The caller's own end-of-query reading, as in the workloads.
            with _span(tracer, "core.snapshot"):
                monitor.snapshot()
        if tracer is not None and monitored:
            tracer.count(f"core.snapshots.{kind}", len(monitor.snapshots))
            tracer.count(f"core.getnext_calls.{kind}", monitor.true_total())


def replay_session(tracer: Tracer | None, catalog, query: Query, qid: str) -> None:
    """The served path without the socket: what ``ProgressService`` does per
    submit (session around the plan, quantum stepping, publish-time frame
    encode) and what a delta watcher does per frame (decode + reassembly)."""
    frames = []
    encoder = SessionStreamEncoder()

    def on_publish(_session, snap) -> None:
        with _span(tracer, "server.wire.encode"):
            frames.append(encoder.encode(snap))

    with _span(tracer, "query.serve", qid):
        plan = build_plan(tracer, catalog, query)
        bus, monitor = attach(tracer, plan, resilient=True)
        with _span(tracer, "server.session.create"):
            session = QuerySession(
                plan, monitor=monitor, bus=bus, quantum_rows=QUANTUM_ROWS
            )
            session.add_listener(on_publish)
        quanta = 1
        with _span(tracer, "server.session.step"):
            while session.step():
                quanta += 1
        base = None
        for frame in frames:
            with _span(tracer, "server.client.decode"):
                event = decode(frame.full if frame.delta is None else frame.delta)
                if event["event"] == "delta":
                    base = apply_delta(base, event)
                else:
                    base = event["session"]
        if tracer is not None:
            tracer.count("server.session.quanta", quanta)
            tracer.count("server.wire.encode_calls", encoder.encode_calls)
            for frame in frames:
                if frame.delta is None:
                    tracer.count("server.wire.keyframe_bytes", len(frame.full))
                else:
                    tracer.count("server.wire.delta_bytes", len(frame.delta))


#: variant -> replay function taking (tracer, catalog, query, qid). The three
#: monitored variants carry the name of the workload path they mirror.
VARIANTS = {
    "batch": lambda t, c, q, i: replay_engine(t, c, q, i, BATCH_SIZE, True),
    "batch.bare": lambda t, c, q, i: replay_engine(t, c, q, i, BATCH_SIZE, False),
    "row": lambda t, c, q, i: replay_engine(t, c, q, i, None, True),
    "row.bare": lambda t, c, q, i: replay_engine(t, c, q, i, None, False),
    "serve": replay_session,
}


def staged_replay(tracer: Tracer, catalog, mix, reps: int, own: str) -> dict[str, list[float]]:
    """Replay the mix ``reps`` times through every variant, traced. The
    workload's own variant also runs untraced, order alternating, which
    is what ``trace.overhead_ratio`` compares. Returns those untraced walls."""
    untraced: dict[str, list[float]] = {}

    def run_untraced(query: Query) -> None:
        t0 = time.perf_counter()
        VARIANTS[own](None, catalog, query, "")
        untraced.setdefault(query.name, []).append(time.perf_counter() - t0)

    for rep in range(reps):
        traced_first = stats.alternating(rep)
        for query in mix:
            for variant, replay in VARIANTS.items():
                if variant == own and not traced_first:
                    run_untraced(query)
                replay(tracer, catalog, query, f"{query.name}/{variant}#{rep}")
                if variant == own and traced_first:
                    run_untraced(query)
    return untraced


# -- probes of layers the replay cannot reach from inside one process ------------------


def probe_scan(tracer: Tracer, catalog, reps: int = 5) -> None:
    table = catalog.table("lineitem")
    for rep in range(reps):
        for name, batch_size in (("storage.scan", BATCH_SIZE), ("storage.scan_row", None)):
            with tracer.span(name, f"lineitem#{rep}"):
                ExecutionEngine(SeqScan(table), collect_rows=False).run(batch_size=batch_size)
    tracer.count("storage.scan_rows", table.num_rows)


def _watch_raw(tracer: Tracer, client, sid: str) -> None:
    """One delta watch over a raw socket, so attach latency, frames and
    bytes are visible (``ProgressClient.watch`` hides all three)."""
    with socket.create_connection((client.host, client.port), timeout=client.timeout) as conn:
        with conn.makefile("rb") as stream:
            tracer.begin("server.watch_attach")
            conn.sendall(encode({"op": "watch", "session_id": sid, "delta": True}))
            line = stream.readline()
            tracer.end()
            frames = nbytes = 0
            while line:
                nbytes += len(line)
                if decode(line).get("event") == "end":
                    break
                frames += 1
                line = stream.readline()
    tracer.count("server.frames", frames)
    tracer.count("server.bytes", nbytes)


def probe_tcp(tracer: Tracer, server: ServerProcess, mix, rounds: int, pings: int) -> None:
    client = server.client
    for i in range(pings):
        with tracer.span("server.protocol.ping_rtt", f"ping#{i}"):
            client.ping()
    rss0 = server.rss_kb("VmRSS")
    for rep in range(rounds):
        for query in mix:
            with tracer.span("query.tcp", f"{query.name}/tcp#{rep}"):
                with tracer.span("server.submit_rtt"):
                    sid = client.submit(query.sql, mode="once")["session_id"]
                _watch_raw(tracer, client, sid)
    sessions = rounds * len(mix)
    tracer.count("server.registry.rss_kb_per_session",
                 (server.rss_kb("VmRSS") - rss0) / sessions)  # fmt: skip


def _wait_terminal(client, sid: str) -> None:
    for _event in client.watch(sid, max_reconnects=0):
        pass


def probe_concurrency(tracer: Tracer, server: ServerProcess, seed: int) -> None:
    """Eight Q-long sessions at once against the same eight one by one."""
    client = server.client
    queries = list(itertools.islice(itertools.cycle(long_mix(seed)), CONCURRENT_SESSIONS))
    with tracer.span("server.scheduler.sequential", "concurrency"):
        for query in queries:
            _wait_terminal(client, client.submit(query.sql)["session_id"])
    with tracer.span("server.scheduler.concurrent", "concurrency"):
        sids = [client.submit(query.sql)["session_id"] for query in queries]
        for sid in sids:
            _wait_terminal(client, sid)


def probe_parallel(tracer: Tracer, catalog, seed: int, reps: int = 3) -> None:
    query = next(q for q in long_mix(seed) if q.name == "j3_agg")
    for rep in range(reps):
        for name, kwargs in (
            ("parallel.serial", {"batch_size": BATCH_SIZE}),
            ("parallel.p2", {"parallel": 2}),
        ):
            plan = compile_select(catalog, query.sql).plan
            with tracer.span(name, f"{query.name}#{rep}"):
                ExecutionEngine(plan).run(**kwargs)


def probe_robust(tracer: Tracer, catalog, mix, tmp_dir: Path, reps: int = 3) -> None:
    store = HistoryStore(tmp_dir / "history.jsonl")
    for rep in range(reps):
        for query in mix:
            qid = f"{query.name}/robust#{rep}"
            for name, history in (("robust.run_plain", None), ("robust.run_history", store)):
                plan = compile_select(catalog, query.sql).plan
                with tracer.span(name, qid):
                    bus = TickBus(interval=TICK)
                    if history is None:
                        ProgressMonitor(plan, mode="once", bus=bus)
                    ExecutionEngine(plan, bus=bus, history=history).run(batch_size=BATCH_SIZE)
            with tracer.span("robust.fingerprint", qid):
                fingerprint_plan(plan)
    for i, record in enumerate(store.records()):
        with tracer.span("robust.store_append", f"append#{i}"):
            store.append_run(record)


# -- spans -> per-layer metrics -------------------------------------------------------


class SpanTable:
    """Span aggregates. The unit is one replayed query: a span name's time is
    summed within it, the median taken over repetitions (and over variants,
    for the front-end stages every variant runs), per query of the mix."""

    def __init__(self, tracer: Tracer):
        self.by_name: dict[str, list[Span]] = {}
        for span in tracer.spans:
            self.by_name.setdefault(span.name, []).append(span)
        self.own = tracer.self_times()
        self.counts = tracer.counts

    def by_query(self, name: str, self_time: bool = False) -> dict[str, float]:
        sums: dict[str, float] = {}
        for s in self.by_name[name]:
            spent = self.own[s.id] if self_time else s.duration
            sums[s.query] = sums.get(s.query, 0.0) + spent
        groups: dict[str, list[float]] = {}
        for qid, total in sums.items():
            groups.setdefault(qid.split("/")[0], []).append(total)
        return stats.median_by_key(groups)

    def per_query(self, name: str, self_time: bool = False) -> float:
        """Seconds per query: the mix's mean of ``by_query``."""
        return statistics.fmean(self.by_query(name, self_time).values())

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.by_name[name]]

    def count(self, name: str, default: float | None = None) -> float:
        values = [v for n, _query, v in self.counts if n == name]
        if not values and default is not None:
            return default
        return statistics.fmean(values)


def mix_ratio(numerator: dict[str, float], denominator: dict[str, float]) -> float:
    """Geomean over the mix of per-query ratios."""
    return stats.geomean(value / denominator[q] for q, value in numerator.items())


def layer_metrics(
    t: SpanTable, own_variant: str, untraced_replay: dict[str, list[float]],
    untraced_ms: float,
) -> dict[str, tuple[float, str]]:  # fmt: skip
    us, ms = 1e6, 1e3
    median, mean = statistics.median, statistics.fmean
    pull_batch = t.per_query("executor.pull_batch.bare")
    pull_row = t.per_query("executor.pull_row.bare")
    scan_rows = t.count("storage.scan_rows")
    step, step_encode = t.by_query("server.session.step"), t.by_query("server.wire.encode")
    root = t.by_query(f"query.{own_variant}")
    root_own = t.by_query(f"query.{own_variant}", self_time=True)
    stages_ms = ms * mean(root[q] - root_own[q] for q in root)
    return {
        "datagen.generate_s": (mean(t.durations("datagen.generate")), "s"),
        "storage.scan_mrows_per_s": (
            scan_rows / median(t.durations("storage.scan")) / 1e6, "Mrows/s",
        ),
        "storage.scan_row_mrows_per_s": (
            scan_rows / median(t.durations("storage.scan_row")) / 1e6, "Mrows/s",
        ),
        "executor.pull_batch_ms": (ms * pull_batch, "ms"),
        "executor.pull_row_ms": (ms * pull_row, "ms"),
        "sql.parse_us": (us * t.per_query("sql.parse"), "us"),
        "sql.plan_build_us": (us * t.per_query("sql.plan_build"), "us"),
        "optimizer.annotate_us": (us * t.per_query("optimizer.annotate"), "us"),
        "analysis.check_plan_us": (us * t.per_query("analysis.check_plan"), "us"),
        "core.attach_us": (us * t.per_query("core.attach"), "us"),
        "server.submit_rtt_us": (us * t.per_query("server.submit_rtt"), "us"),
        "server.watch_attach_us": (us * t.per_query("server.watch_attach"), "us"),
        "server.protocol.ping_rtt_us": (
            us * median(t.durations("server.protocol.ping_rtt")), "us",
        ),
        "core.hooks_batch_ms": (
            ms * (t.per_query("executor.pull_batch", self_time=True) - pull_batch), "ms",
        ),
        "core.hooks_row_ms": (
            ms * (t.per_query("executor.pull_row", self_time=True) - pull_row), "ms",
        ),
        "core.snapshot_us": (us * mean(t.durations("core.snapshot")), "us"),
        "core.snapshots_per_query": (t.count("core.snapshots.batch"), "count"),
        "core.getnext_calls_per_query": (t.count("core.getnext_calls.batch"), "count"),
        "server.session.step_overhead_ratio": (
            mix_ratio(
                {q: step[q] - step_encode[q] for q in step},
                t.by_query("executor.pull_batch"),
            ),
            "ratio",
        ),
        "server.session.quanta_per_query": (t.count("server.session.quanta"), "count"),
        "server.wire.encode_us_per_frame": (
            us * mean(t.durations("server.wire.encode")), "us",
        ),
        "server.wire.encode_calls_per_query": (t.count("server.wire.encode_calls"), "count"),
        "server.wire.keyframe_bytes": (t.count("server.wire.keyframe_bytes"), "B"),
        # Single-quantum queries publish keyframes only: no delta, zero bytes.
        "server.wire.delta_bytes": (t.count("server.wire.delta_bytes", default=0.0), "B"),
        "server.client.decode_us_per_frame": (
            us * mean(t.durations("server.client.decode")), "us",
        ),
        "server.frames_per_query": (t.count("server.frames"), "count"),
        "server.bytes_per_query": (t.count("server.bytes"), "B"),
        "server.registry.rss_kb_per_session": (
            t.count("server.registry.rss_kb_per_session"), "KB",
        ),
        "robust.ensemble_overhead_ratio": (
            mix_ratio(t.by_query("robust.run_history"), t.by_query("robust.run_plain")),
            "ratio",
        ),
        "robust.store_append_us": (us * median(t.durations("robust.store_append")), "us"),
        "robust.fingerprint_us": (us * t.per_query("robust.fingerprint"), "us"),
        "server.scheduler.concurrency_penalty": (
            mean(t.durations("server.scheduler.concurrent"))
            / mean(t.durations("server.scheduler.sequential")),
            "ratio",
        ),
        "parallel.p2_speedup": (
            median(t.durations("parallel.serial")) / median(t.durations("parallel.p2")),
            "ratio",
        ),
        "trace.unattributed_ms": (untraced_ms - stages_ms, "ms"),
        "trace.overhead_ratio": (
            mix_ratio(root, stats.median_by_key(untraced_replay)), "ratio",
        ),
    }  # fmt: skip


# -- the traced run -------------------------------------------------------------------


def run_traced(name: str, cfg: Config) -> Result:
    """Replay and probe one workload; the result carries the per-layer metrics."""
    workload = WORKLOADS[name]
    tracer = Tracer()
    RESULTS_DIR.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS_DIR))
    reps = 2 if cfg.smoke else max(3, round(cfg.seconds * REPLAY_REPS_PER_SECOND[workload.mix]))
    harness = extra_server = None
    try:
        with tracer.span("datagen.generate", "setup"):
            generate_tpch(sf=cfg.sf, skew_z=SKEW, seed=cfg.seed)
        harness, _setup_s = set_up(workload, cfg, tmp_dir, HostSpeed())
        server = harness.server
        if server is None:
            server = extra_server = ServerProcess(cfg.sf, cfg.seed, tmp_dir)
        # The workload's real path, untraced and not normalised: the latency the
        # stages' raw spans must sum to.
        log = RoundLog()
        for index in range(reps):
            run_round(harness, list(harness.mix), index, log)
        untraced_ms = 1e3 * statistics.fmean(stats.median_by_key(log.monitored).values())
        untraced_replay = staged_replay(
            tracer, harness.catalog, harness.mix, reps, workload.path
        )
        probe_scan(tracer, harness.catalog)
        probe_tcp(
            tracer, server, harness.mix,
            rounds=max(reps, 60 // len(harness.mix)), pings=20 if cfg.smoke else 200,
        )  # fmt: skip
        probe_concurrency(tracer, server, cfg.seed)
        probe_parallel(tracer, harness.catalog, cfg.seed)
        probe_robust(tracer, harness.catalog, harness.mix, tmp_dir)
    finally:
        if harness is not None:
            harness.close()
        if extra_server is not None:
            extra_server.stop()
        shutil.rmtree(tmp_dir, ignore_errors=True)
        tracer.dump(RESULTS_DIR / f"trace-{name}.json", workload=name, seed=cfg.seed)
    metrics = layer_metrics(SpanTable(tracer), workload.path, untraced_replay, untraced_ms)
    return Result(name, metrics, log.attempted, log.failed, log.failures)
