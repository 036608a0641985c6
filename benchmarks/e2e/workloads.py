"""The four closed-loop workloads, measured from outside with tracing off.

One client thread issues one operation at a time (at most one connection
is open at any moment) against either the public in-process API
(``compile_select`` + ``ProgressMonitor`` + ``ExecutionEngine``) or a
``repro serve`` subprocess through ``ProgressClient``. Work is a fixed
number of rounds derived from ``--seconds`` — never a deadline — so two
runs execute the same operations and their medians, CPU and peak memory
are comparable. Every round runs each query of the mix once monitored and
once as its unmonitored twin, interleaved, with the pair's order
alternating between rounds. Every timing is divided by the host's slowdown
at that moment (``hostspeed.py``), so a run on a slowed host reports what
the quiet one would.
"""

from __future__ import annotations

import random
import shutil
import statistics
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import ExecutionEngine, ProgressMonitor, TickBus, compile_select, generate_tpch
from repro.storage.catalog import Catalog

from benchmarks.e2e import stats
from benchmarks.e2e.hostspeed import HostSpeed
from benchmarks.e2e.queries import Query, long_mix, round_order, short_mix
from benchmarks.e2e.server import SKEW, TICK, ServerProcess, rss_kb

__all__ = [
    "RESULTS_DIR",
    "WORKLOADS",
    "Config",
    "Harness",
    "Result",
    "RoundLog",
    "Workload",
    "run_round",
    "run_workload",
    "set_up",
]

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SF = 0.005
SMOKE_SF = 0.002
SMOKE_ROUNDS = 2
BATCH_SIZE = 1024
#: Set-up is done this many times per run and its median reported, so one
#: slow spawn does not decide ``setup_s``.
SETUP_REPEATS = 3
#: A run is sized by op count. On a host so slow that the count takes this
#: many times ``--seconds``, the run stops early (never below the samples the
#: p90 needs), so that the driver's runs still fit its time limit.
OVERRUN_FACTOR = 1.5


@dataclass(frozen=True)
class Workload:
    name: str
    mix: Callable[[int], tuple[Query, ...]]
    #: "batch" / "row": in-process pull path; "serve": over TCP.
    path: str
    #: Rounds per ``--seconds`` second, calibrated on the 2-core reference
    #: host so the measured phase lasts about ``--seconds``.
    rounds_per_second: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "embed_batch", long_mix, "batch", 2.6,
            "Q-long in-process at batch_size=1024: executor batch drains and core "
            "batch hooks do nearly all the work; sql and server do none",
        ),
        Workload(
            "embed_row", long_mix, "row", 1.0,
            "same queries row-at-a-time: per-row _next and per-row hooks, the only "
            "workload a batch-only win that taxes row callers shows on",
        ),
        Workload(
            "serve_watch", long_mix, "serve", 2.0,
            "Q-long over TCP, submit + delta watch + fetch: adds session quanta, "
            "snapshot publish, wire encode, socket and client reassembly",
        ),
        Workload(
            "serve_short", short_mix, "serve", 50.0,
            "sub-millisecond queries over TCP: parse, plan, analyze, attach, session "
            "set-up and round-trips dominate; thousands of retained sessions show "
            "registry growth",
        ),
    )
}  # fmt: skip


@dataclass(frozen=True)
class Config:
    seed: int
    seconds: float
    smoke: bool = False

    @property
    def sf(self) -> float:
        return SMOKE_SF if self.smoke else SF

    def min_rounds(self, workload: Workload) -> int:
        """The pooled p90 needs ten samples beyond it: at least 100 timed ops."""
        if self.smoke:
            return SMOKE_ROUNDS
        return -(-10 * stats.MIN_BEYOND // len(workload.mix(self.seed)))

    def rounds(self, workload: Workload) -> int:
        if self.smoke:
            return SMOKE_ROUNDS
        return max(
            round(self.seconds * workload.rounds_per_second), self.min_rounds(workload)
        )


# -- correctness oracle -----------------------------------------------------------


def checksum(rows) -> int:
    """Order-insensitive checksum, stable across processes and the wire
    (JSON round-trips ints, strings and float reprs exactly)."""
    return sum(zlib.crc32(repr(tuple(row)).encode()) for row in rows) & 0xFFFFFFFFFFFF


@dataclass(frozen=True)
class Reference:
    row_count: int
    checksum: int


def compute_references(catalog: Catalog, mix: tuple[Query, ...]) -> dict[str, Reference]:
    """Ground truth per query from an unmonitored row-at-a-time run."""
    refs = {}
    for query in mix:
        result = ExecutionEngine(compile_select(catalog, query.sql).plan).run()
        refs[query.name] = Reference(result.row_count, checksum(result.rows))
    return refs


@dataclass
class Op:
    """One timed operation and everything the oracle found wrong with it."""

    latency_s: float
    cpu_s: float
    violations: list[str] = field(default_factory=list)
    #: |reported progress - true progress| for every snapshot the caller saw.
    progress_errors: list[float] = field(default_factory=list)


def check_rows(ref: Reference, row_count: int, rows) -> list[str]:
    found = []
    if row_count != ref.row_count:
        found.append(f"row_count {row_count} != reference {ref.row_count}")
    if len(rows) != row_count:
        found.append(f"{len(rows)} rows returned for row_count {row_count}")
    elif checksum(rows) != ref.checksum:
        found.append("result checksum differs from reference")
    return found


def check_stream(seqs, advancing, final_progress: float, final_state: str) -> list[str]:
    """``advancing`` is the series the layer promises never moves backwards:
    high-watered ``progress`` for a session, ``work_done`` for a bare monitor
    (whose raw progress may dip when T-hat is revised upwards)."""
    found = []
    if any(b <= a for a, b in zip(seqs, seqs[1:])):
        found.append("seq not strictly increasing")
    if any(b < a for a, b in zip(advancing, advancing[1:])):
        found.append("progress regressed")
    if final_state != "finished":
        found.append(f"ended {final_state!r}, not finished")
    if final_progress != 1.0:
        found.append(f"final progress {final_progress!r} is not exactly 1.0")
    return found


# -- operations -------------------------------------------------------------------


def run_embedded(
    catalog: Catalog, query: Query, ref: Reference, batch_size: int | None
) -> Op:
    """SQL text -> rows in-process, with the paper's monitor attached."""
    cpu0, t0 = time.process_time(), time.perf_counter()
    plan = compile_select(catalog, query.sql).plan
    bus = TickBus(interval=TICK)
    monitor = ProgressMonitor(plan, mode="once", bus=bus)
    result = ExecutionEngine(plan, bus=bus).run(batch_size=batch_size)
    final = monitor.snapshot()
    op = Op(time.perf_counter() - t0, time.process_time() - cpu0)
    snaps = [*monitor.snapshots, final]
    op.violations += check_rows(ref, result.row_count, result.rows)
    op.violations += check_stream(
        [s.tick for s in monitor.snapshots],
        [s.work_done for s in snaps],
        final.progress,
        "finished",
    )
    total = final.work_done
    op.progress_errors = [abs(s.progress - s.work_done / total) for s in snaps]
    return op


def run_unmonitored(catalog: Catalog, query: Query, batch_size: int | None) -> float:
    """The twin: same SQL, same pull path, no monitor. Returns latency."""
    t0 = time.perf_counter()
    plan = compile_select(catalog, query.sql).plan
    ExecutionEngine(plan).run(batch_size=batch_size)
    return time.perf_counter() - t0


def run_served(client, query: Query, ref: Reference) -> Op:
    """submit -> delta watch to the terminal frame -> fetch, over TCP."""
    cpu0, t0 = time.process_time(), time.perf_counter()
    sid = client.submit(query.sql, mode="once")["session_id"]
    snaps = [
        event["session"]
        for event in client.watch(sid, max_reconnects=0)
        if event.get("event") == "snapshot"
    ]
    fetched = client.fetch(sid)
    op = Op(time.perf_counter() - t0, time.process_time() - cpu0)
    final = snaps[-1]
    if fetched["truncated"]:
        op.violations.append("result truncated by the server's row cap")
    op.violations += check_rows(ref, final["row_count"], fetched["rows"])
    op.violations += check_stream(
        [s["seq"] for s in snaps],
        [s["progress"] for s in snaps],
        final["progress"],
        final["state"],
    )
    total = final["work_done"]
    op.progress_errors = [abs(s["progress"] - s["work_done"] / total) for s in snaps]
    return op


# -- set-up -----------------------------------------------------------------------


class Harness:
    """Everything a workload needs before its first timed round: the
    catalog, the oracle's references and, for ``serve`` workloads, a ready
    server. Building one *is* the set-up the ``setup_s`` metric times."""

    def __init__(self, workload: Workload, cfg: Config, tmp_dir: Path, speed: HostSpeed):
        self.workload = workload
        self.speed = speed
        self.mix = workload.mix(cfg.seed)
        self.catalog = generate_tpch(sf=cfg.sf, skew_z=SKEW, seed=cfg.seed)
        speed.refresh()
        self.references = compute_references(self.catalog, self.mix)
        speed.refresh()
        self.server: ServerProcess | None = None
        if workload.path == "serve":
            self.server = ServerProcess(cfg.sf, cfg.seed, tmp_dir)
            speed.refresh()
        self.batch_size = None if workload.path == "row" else BATCH_SIZE

    def monitored(self, query: Query) -> Op:
        ref = self.references[query.name]
        if self.server is not None:
            return run_served(self.server.client, query, ref)
        return run_embedded(self.catalog, query, ref, self.batch_size)

    def unmonitored(self, query: Query) -> float:
        return run_unmonitored(self.catalog, query, self.batch_size)

    def engine_pid(self) -> int | str:
        return self.server.pid if self.server is not None else "self"

    def engine_cpu_seconds(self) -> float:
        """CPU of the server subprocess (the client's own CPU is summed
        per op, so the unmonitored twin's never counts)."""
        return self.server.cpu_seconds() if self.server is not None else 0.0

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


@dataclass
class RoundLog:
    """Per-query samples of the timed rounds, each divided by the host's
    slowdown when it was taken (by 1.0 when no probe is given)."""

    monitored: dict[str, list[float]] = field(default_factory=dict)
    unmonitored: dict[str, list[float]] = field(default_factory=dict)
    round_walls: list[float] = field(default_factory=list)
    client_cpu_s: float = 0.0
    #: Monitored wall as measured, and the same with each op divided by the
    #: host's CPU slowdown: their ratio rescales the server's CPU, which is
    #: only read as a total.
    raw_wall_s: float = 0.0
    cpu_scaled_wall_s: float = 0.0
    progress_errors: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, query: Query, op: Op, wall: float, cpu: float) -> float:
        """Record one monitored op taken at slowdown ``wall`` / ``cpu``;
        returns its normalised latency."""
        self.attempted += 1
        latency = op.latency_s / wall
        self.monitored.setdefault(query.name, []).append(latency)
        self.client_cpu_s += op.cpu_s / cpu
        self.raw_wall_s += op.latency_s
        self.cpu_scaled_wall_s += op.latency_s / cpu
        self.progress_errors += op.progress_errors
        self.fail(query, op.violations)
        return latency

    def fail(self, query: Query, violations: list[str]) -> None:
        if violations:
            self.failed += 1
            self.failures += [f"{query.name}: {v}" for v in violations]


def run_round(
    harness: Harness, order: list[Query], index: int, log: RoundLog,
    speed: HostSpeed | None = None,
) -> None:  # fmt: skip
    """One round: every query monitored and unmonitored, pair order
    alternating by round. Any exception or timeout is a failed operation.
    With ``speed``, the host is probed between operations and every sample
    normalised; without (the traced run compares raw spans), none is."""
    monitored_first = stats.alternating(index)
    round_wall = 0.0
    wall = cpu = 1.0

    def twin(query: Query) -> None:
        log.unmonitored.setdefault(query.name, []).append(harness.unmonitored(query) / wall)

    for query in order:
        if speed is not None:
            speed.refresh()
            wall, cpu = speed.wall, speed.cpu
        if not monitored_first:
            twin(query)
        try:
            op = harness.monitored(query)
        except Exception as exc:  # noqa: BLE001 - the oracle counts it, the run goes on
            log.attempted += 1
            log.fail(query, [f"{type(exc).__name__}: {exc}"])
        else:
            round_wall += log.add(query, op, wall, cpu)
        if monitored_first:
            twin(query)
    log.round_walls.append(round_wall)


def set_up(
    workload: Workload, cfg: Config, tmp_dir: Path, speed: HostSpeed
) -> tuple[Harness, float]:
    """Build the harness and run the warm-up round; returns it with the time
    both took, less the probe's own and divided by the host's median slowdown
    meanwhile. A failure in the warm-up round aborts the run."""
    t0 = time.perf_counter()
    speed.mark()
    harness = Harness(workload, cfg, tmp_dir, speed)
    try:
        warm_up = RoundLog()
        run_round(harness, list(harness.mix), 0, warm_up, speed)
        if warm_up.failures:
            raise RuntimeError(f"warm-up round failed: {warm_up.failures[:3]}")
    except BaseException:
        harness.close()
        raise
    speed.sample()
    elapsed = time.perf_counter() - t0
    return harness, (elapsed - speed.spent_s) / speed.window_wall()


# -- the measured phase ------------------------------------------------------------


def measure(harness: Harness, cfg: Config) -> tuple[RoundLog, float]:
    """The timed rounds; returns the log and the engine-side CPU spent,
    rescaled like the client's."""
    rng = random.Random(f"e2e-order-{cfg.seed}")
    log = RoundLog()
    rounds, min_rounds = cfg.rounds(harness.workload), cfg.min_rounds(harness.workload)
    deadline = time.perf_counter() + OVERRUN_FACTOR * max(cfg.seconds, 1.0)
    harness.speed.mark()
    cpu0 = harness.engine_cpu_seconds()
    for index in range(rounds):
        run_round(harness, round_order(harness.mix, rng), index, log, harness.speed)
        if index + 1 >= min_rounds and time.perf_counter() > deadline:
            break
    engine_cpu_s = harness.engine_cpu_seconds() - cpu0
    return log, engine_cpu_s * log.cpu_scaled_wall_s / log.raw_wall_s


def end_to_end_metrics(
    log: RoundLog, engine_cpu_s: float, setup_s: float, peak_rss_kb: int, smoke: bool
) -> dict[str, tuple[float, str]]:
    mix_size = len(log.monitored)
    med_mon = stats.median_by_key(log.monitored)
    med_unmon = stats.median_by_key(log.unmonitored)
    pooled = [s for samples in log.monitored.values() for s in samples]
    completed = len(pooled)
    return {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (mix_size / statistics.median(log.round_walls), "1/s"),
        "query_ms_geomean": (1e3 * stats.geomean(med_mon.values()), "ms"),
        "query_ms_p90": (
            1e3 * stats.pooled_percentile(pooled, 90, 0 if smoke else stats.MIN_BEYOND),
            "ms",
        ),
        "overhead_ratio": (
            stats.geomean(med_mon[q] / med_unmon[q] for q in med_mon), "ratio",
        ),
        "cpu_ms_per_query": (1e3 * (log.client_cpu_s + engine_cpu_s) / completed, "ms"),
        "progress_accuracy": (
            1.0 - statistics.fmean(log.progress_errors), "ratio",
        ),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }  # fmt: skip


@dataclass
class Result:
    workload: str
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    failures: list[str]
    #: Median ratio of the host-speed probe to its nominal time over the
    #: measured phase; reported beside the metrics, never among them.
    host_slowdown: float | None = None


def run_workload(name: str, cfg: Config) -> Result:
    """Set up, measure and tear down one workload with tracing off."""
    workload = WORKLOADS[name]
    RESULTS_DIR.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS_DIR))
    speed = HostSpeed()
    try:
        harness, setup_s = set_up(workload, cfg, tmp_dir, speed)
        try:
            log, engine_cpu_s = measure(harness, cfg)
            host_slowdown = speed.window_wall()
            peak = rss_kb(harness.engine_pid())
        finally:
            harness.close()
        # The repeats come after the measurement, so peak_rss_mb has seen one
        # set-up, as a user's process would, and not their fragmentation.
        setups = [setup_s]
        for _ in range(0 if cfg.smoke else SETUP_REPEATS - 1):
            repeat, setup_s = set_up(workload, cfg, tmp_dir, speed)
            repeat.close()
            setups.append(setup_s)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    metrics = end_to_end_metrics(
        log, engine_cpu_s, statistics.median(setups), peak, cfg.smoke
    )
    return Result(name, metrics, log.attempted, log.failed, log.failures, host_slowdown)
