"""Seeded, deterministic fault injection.

A :class:`FaultPlan` decides — reproducibly — when a *named injection
site* misbehaves. Sites are thin probes compiled into the hot paths of the
executor, the estimator hooks and the server's socket plumbing; each one
costs a single ``is None`` check when no plan is installed, so production
runs pay nothing (the overhead guard enforces this).

Sites
-----
========================  =====================================================
``cursor.fetch``          fired by :meth:`PlanCursor.fetch` *before* the pull
                          enters the plan. Error faults here default to
                          :class:`TransientFault` — nothing is mid-flight yet,
                          so a session may retry the quantum (the storage-
                          hiccup model: the read fails before the getnext call
                          is dispatched).
``operator.pull``         fired by ``Operator.next``/``next_batch`` on every
                          operator. Errors are fatal (:class:`InjectedFault`):
                          generator-based operators cannot resume across an
                          unwound exception, so a fault inside the plan must
                          fail the query rather than silently lose rows.
``scan.read``             fired by the scan operators before reading storage.
``estimator.hook``        fired inside the hardened estimator-hook wrappers
                          (see :meth:`EstimationManager.harden`); with
                          degradation enabled, an error here demotes the
                          estimator to dne instead of killing the query.
``server.read``           fired per request line read from a client socket.
``server.write``          fired per reply/stream line written to a client.
``history.read``          fired when :class:`~repro.robust.HistoryStore` loads
                          run records. A fault leaves the store empty (no
                          observed cardinalities) — it never fails the
                          query.
``history.write``         fired when the history store appends a run record.
                          A fault drops the record and flags the session
                          ``degraded``; the query result is untouched.
========================  =====================================================

Fault kinds
-----------
``error``       raise :class:`InjectedFault` (or :class:`TransientFault` when
                the spec is retryable);
``stall``       sleep ``delay_s`` seconds (a latency spike);
``short_read``  degrade the operation: batch pulls shrink their row budget,
                socket reads/writes truncate the frame mid-line.

Scheduling is per spec: a probability ``rate`` drawn from a seeded
per-site RNG stream (:func:`repro.common.rng.make_rng`, so runs are
reproducible), or a deterministic ``every``-N cadence; both respect an
``after`` warm-up and a ``count`` budget. Every firing is recorded, and
:meth:`FaultPlan.to_wire` serializes plan + firing log — the chaos harness
dumps it on failure so any run can be replayed.

A plan is only ever installed explicitly: ``faults=`` on the engine, a
session or a :class:`~repro.server.service.ProgressService`, or
``repro serve --faults SPEC`` (:func:`parse_fault_spec` holds the grammar),
which is how the TCP server is chaos-tested from outside.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.common.errors import ReproError
from repro.common.rng import make_rng

__all__ = [
    "ALL_SITES",
    "ERROR",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "SHORT_READ",
    "SITE_CURSOR_FETCH",
    "SITE_ESTIMATOR_HOOK",
    "SITE_HISTORY_READ",
    "SITE_HISTORY_WRITE",
    "SITE_OPERATOR_PULL",
    "SITE_SCAN_READ",
    "SITE_SERVER_READ",
    "SITE_SERVER_WRITE",
    "STALL",
    "TransientFault",
    "parse_fault_spec",
]

# -- fault kinds ---------------------------------------------------------------

ERROR = "error"
STALL = "stall"
SHORT_READ = "short_read"
KINDS = (ERROR, STALL, SHORT_READ)

# -- injection sites -----------------------------------------------------------

SITE_CURSOR_FETCH = "cursor.fetch"
SITE_OPERATOR_PULL = "operator.pull"
SITE_SCAN_READ = "scan.read"
SITE_ESTIMATOR_HOOK = "estimator.hook"
SITE_SERVER_READ = "server.read"
SITE_SERVER_WRITE = "server.write"
SITE_HISTORY_READ = "history.read"
SITE_HISTORY_WRITE = "history.write"

ALL_SITES = frozenset(
    {
        SITE_CURSOR_FETCH,
        SITE_OPERATOR_PULL,
        SITE_SCAN_READ,
        SITE_ESTIMATOR_HOOK,
        SITE_SERVER_READ,
        SITE_SERVER_WRITE,
        SITE_HISTORY_READ,
        SITE_HISTORY_WRITE,
    }
)


class InjectedFault(ReproError):
    """A deterministic fault fired by an installed :class:`FaultPlan`.

    Fatal wherever it surfaces: sessions report FAILED, the engine lets it
    propagate. ``site`` names the injection site that fired."""

    def __init__(self, message: str, site: str = ""):
        super().__init__(message)
        self.site = site


class TransientFault(InjectedFault):
    """A retryable injected fault: raised only at points where no executor
    state is mid-flight (the ``cursor.fetch`` boundary), so the caller may
    safely retry the operation. :meth:`QuerySession.step` consumes its
    per-session retry budget on these instead of failing the query."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled misbehaviour at one injection site.

    Parameters
    ----------
    site:
        One of :data:`ALL_SITES`.
    kind:
        ``error`` / ``stall`` / ``short_read``.
    rate:
        Probability per opportunity, drawn from the plan's seeded per-site
        RNG stream. Ignored when ``every`` is set.
    every:
        Deterministic cadence: fire on every ``every``-th opportunity
        (after the ``after`` warm-up).
    count:
        Total firing budget; ``None`` means unlimited.
    after:
        Number of opportunities to skip before the spec arms.
    delay_s:
        Stall duration for ``kind="stall"``.
    retryable:
        For ``kind="error"``: raise :class:`TransientFault` instead of
        :class:`InjectedFault`. ``None`` defaults to True at the
        ``cursor.fetch`` site (the one resumable boundary) and False
        everywhere else.
    """

    site: str
    kind: str = ERROR
    rate: float = 0.0
    every: int | None = None
    count: int | None = 1
    after: int = 0
    delay_s: float = 0.001
    retryable: bool | None = None

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise ValueError(
                f"unknown injection site {self.site!r}; sites: {sorted(ALL_SITES)}"
            )
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.every is None and self.rate == 0.0:
            raise ValueError("spec can never fire: set rate > 0 or every=N")

    @property
    def is_retryable(self) -> bool:
        if self.retryable is not None:
            return self.retryable
        return self.site == SITE_CURSOR_FETCH

    def to_wire(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "rate": self.rate,
            "every": self.every,
            "count": self.count,
            "after": self.after,
            "delay_s": self.delay_s,
            "retryable": self.retryable,
        }


class FaultPlan:
    """A seeded schedule of faults over the named injection sites.

    Thread-safe: scheduling state (opportunity counters, firing budgets,
    the firing log) lives under one private mutex, so a plan may be shared
    by every session of a service. Determinism is per thread-interleaving:
    a single-threaded run with the same seed and specs always fires
    identically, and every firing is recorded for replay either way.
    """

    # Lock discipline (machine-checked by repro.analysis.concurrency):
    # every decision — counters, budgets and the firing log — happens
    # under ``_lock``. Spec tables and RNG streams are built in __init__
    # and never rebound, so site lookups stay lock-free (the cheap
    # ``has_site`` fast path the injection probes rely on).
    _guarded_by_ = {"_seen": "_lock", "_fired": "_lock", "_records": "_lock"}

    def __init__(self, seed: int = 0, specs: tuple[FaultSpec, ...] | list[FaultSpec] = ()):
        self.seed = int(seed)
        by_site: dict[str, list[FaultSpec]] = {}
        for spec in specs:
            by_site.setdefault(spec.site, []).append(spec)
        self._specs: dict[str, tuple[FaultSpec, ...]] = {
            site: tuple(site_specs) for site, site_specs in by_site.items()
        }
        self._rngs = {
            site: make_rng(self.seed, "faults", site) for site in self._specs
        }
        self._lock = threading.Lock()
        self._seen: dict[str, int] = {}
        self._fired: dict[tuple[str, int], int] = {}
        self._records: list[dict] = []

    # -- introspection -----------------------------------------------------------

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        return tuple(s for site in sorted(self._specs) for s in self._specs[site])

    def has_site(self, *sites: str) -> bool:
        """Does any spec target one of ``sites``? Lock-free (the spec table
        is immutable after construction)."""
        return any(site in self._specs for site in sites)

    def records(self) -> list[dict]:
        """Copy of the firing log: one entry per injected fault."""
        with self._lock:
            return list(self._records)

    def to_wire(self) -> dict:
        """JSON-ready description of the plan plus everything it fired —
        enough to reconstruct and replay a chaos schedule."""
        with self._lock:
            fired = list(self._records)
        return {
            "seed": self.seed,
            "specs": [spec.to_wire() for spec in self.specs],
            "fired": fired,
        }

    # -- the injection probe API --------------------------------------------------

    def check(self, site: str, detail: str = "") -> FaultSpec | None:
        """Record one opportunity at ``site``; return the spec that fires,
        if any. Does not act on the fault — :meth:`fire` does."""
        specs = self._specs.get(site)
        if not specs:
            return None
        with self._lock:
            n = self._seen.get(site, 0) + 1
            self._seen[site] = n
            for idx, spec in enumerate(specs):
                key = (site, idx)
                fired = self._fired.get(key, 0)
                if spec.count is not None and fired >= spec.count:
                    continue
                if n <= spec.after:
                    continue
                if spec.every is not None:
                    hit = (n - spec.after) % spec.every == 0
                else:
                    hit = float(self._rngs[site].random()) < spec.rate
                if not hit:
                    continue
                self._fired[key] = fired + 1
                self._records.append(
                    {
                        "site": site,
                        "kind": spec.kind,
                        "opportunity": n,
                        "detail": detail,
                    }
                )
                return spec
        return None

    def fire(self, site: str, detail: str = "") -> FaultSpec | None:
        """The probe entry point: decide, then act.

        * ``error`` — raises :class:`TransientFault` (retryable specs) or
          :class:`InjectedFault`;
        * ``stall`` — sleeps ``delay_s`` and returns the spec;
        * ``short_read`` — returns the spec; the *caller* interprets it
          (shrink the batch, truncate the frame) because only the call
          site knows what a short read means there.

        Returns ``None`` when nothing fires — the common case, one dict
        lookup deep.
        """
        spec = self.check(site, detail)
        if spec is None:
            return None
        if spec.kind == ERROR:
            message = f"injected fault at {site}" + (f" ({detail})" if detail else "")
            if spec.is_retryable:
                raise TransientFault(message, site=site)
            raise InjectedFault(message, site=site)
        if spec.kind == STALL:
            time.sleep(spec.delay_s)
        return spec

    @staticmethod
    def short_read(n: int) -> int:
        """The degraded budget a ``short_read`` fault leaves behind: at
        least 1 so a shortened pull can never masquerade as exhaustion."""
        return max(1, n // 2)


# -- the fault-spec grammar -----------------------------------------------------

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_options(parts: list[str], clause: str) -> dict:
    options: dict = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(f"bad option {part!r} in fault clause {clause!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key == "rate":
            options["rate"] = float(raw)
        elif key == "every":
            options["every"] = int(raw)
        elif key == "count":
            options["count"] = None if raw in ("inf", "none") else int(raw)
        elif key == "after":
            options["after"] = int(raw)
        elif key in ("delay", "delay_s"):
            options["delay_s"] = float(raw)
        elif key == "retryable":
            if raw not in _TRUE | _FALSE:
                raise ValueError(f"retryable must be a boolean, got {raw!r}")
            options["retryable"] = raw in _TRUE
        else:
            raise ValueError(f"unknown option {key!r} in fault clause {clause!r}")
    return options


def parse_fault_spec(text: str) -> FaultPlan | None:
    """Parse a fault spec (``repro serve --faults``) into a :class:`FaultPlan`.

    Grammar (whitespace-insensitive)::

        spec    := [clause (";" clause)*]
        clause  := "seed=" INT
                 | site ":" kind (":" option)*
        site    := cursor.fetch | operator.pull | scan.read
                 | estimator.hook | server.read | server.write
                 | history.read | history.write
        kind    := error | stall | short_read
        option  := rate=FLOAT | every=INT | count=INT|inf | after=INT
                 | delay_s=FLOAT | retryable=BOOL

    Example::

        seed=42; scan.read:error:rate=0.01:count=2; server.write:short_read:every=7

    Returns ``None`` for an empty/blank spec. Raises :class:`ValueError`
    on malformed input — a typo in a chaos schedule must fail loudly, not
    silently inject nothing.
    """
    if text is None:
        return None
    seed = 0
    specs: list[FaultSpec] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            seed = int(clause[len("seed="):].strip())
            continue
        parts = [p.strip() for p in clause.split(":")]
        if len(parts) < 2:
            raise ValueError(
                f"fault clause {clause!r} needs at least site:kind"
            )
        site, kind = parts[0], parts[1]
        options = _parse_options(parts[2:], clause)
        if kind != ERROR and "every" not in options and "rate" not in options:
            options.setdefault("every", 1)
        specs.append(FaultSpec(site=site, kind=kind, **options))
    if not specs:
        return None
    return FaultPlan(seed=seed, specs=tuple(specs))
