"""Operator base class: the Volcano iterator contract plus instrumentation.

Instrumentation is deliberately minimal, matching the paper's "lightweight"
requirement: each operator maintains a single integer ``tuples_emitted``
(the ``K_i`` of the getnext model), an optional :class:`TickBus` reference
that lets the progress monitor sample state *during* long blocking phases,
and hook lists that are skipped entirely when empty. Running a plan with no
estimators attached therefore pays almost nothing over a bare executor.

State machine
-------------
``CREATED -> OPEN -> EXHAUSTED -> CLOSED``; blocking operators additionally
publish a free-form ``phase`` string ("build", "partition_probe", "join",
...) and fire ``phase_hooks`` on transitions so estimators know which pass
is running.

Batched contract
----------------
:meth:`next_batch` is the amortized twin of :meth:`next`: it returns up to
``max_rows`` output rows as a list, in exactly the order :meth:`next` would
have produced them. An *empty* list signals exhaustion; a short non-empty
batch does **not** (callers loop until empty). The default implementation
falls back to repeated ``_next()`` calls, so every operator is batchable
out of the box; hot operators override ``_next_batch`` with vectorized
drains. Instrumentation equivalence is part of the contract:
``tuples_emitted`` advances by ``len(batch)``, hooks (build/probe/input)
observe every row in row order, and blocking-phase work reaches the tick
bus through :meth:`TickBus.tick_n`, so ``C(Q)``, phase transitions and
every estimator's ``D_{t+1}`` refinement observe the same counts and
per-key updates as the row-at-a-time path. See docs/BATCHING.md.

Batch-aggregated hooks
----------------------
Per-row hooks are the monitoring layer's hot path: with an estimator
attached, every consumed tuple costs a Python call per hook. A hook may
therefore declare a *batch twin* — a callable taking ``(keys, rows)`` for a
whole input batch — and native batch drains will invoke the twin once per
batch instead of the per-row form once per row. Pairing is declared on the
row hook itself, either as

* ``hook.batch_hook`` — the batch callable directly (closures), or
* ``hook.batch_hook_name`` — the *name* of a sibling method; for a bound
  method the twin is resolved against ``hook.__self__`` (a class-body
  ``on_probe.batch_hook_name = "on_probe_batch"`` marks every instance).

Hooks without a twin keep firing once per row, in row order, inside batch
drains — registering a plain callable keeps working unchanged. The batch
twin must leave the estimator in *exactly* the state the per-row sequence
would (same counts, same float sums, same histories); the differential
harness enforces this bit-for-bit.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Iterator

from repro.common.errors import ExecutorError
from repro.faults.plan import SHORT_READ, SITE_OPERATOR_PULL
from repro.storage.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.engine import TickBus
    from repro.faults.plan import FaultPlan

__all__ = ["Operator", "OperatorState", "batch_hook_of", "make_batch_dispatch"]


def batch_hook_of(hook: Callable) -> Callable | None:
    """Resolve the batch twin a per-row hook declares, if any.

    See the module docstring ("Batch-aggregated hooks") for the pairing
    protocol. Returns None for plain unpaired callables.
    """
    twin = getattr(hook, "batch_hook", None)
    if twin is not None:
        return twin
    name = getattr(hook, "batch_hook_name", None)
    if name:
        owner = getattr(hook, "__self__", None)
        if owner is not None:
            return getattr(owner, name, None)
    return None


def make_batch_dispatch(hooks: list[Callable]) -> Callable | None:
    """Compile a hook list into one ``(keys, rows)`` batch dispatcher.

    Returns None when there are no hooks (so drains can keep their
    zero-hook fast path). Hooks with a batch twin are invoked once per
    batch; unpaired hooks fall back to a per-row loop inside the dispatcher.
    Each hook still observes every (key, row) pair in row order; only the
    interleaving *between* hooks changes, which no estimator depends on.
    Native drains call this once per pass, never per row.
    """
    if not hooks:
        return None
    batch_fns: list[Callable] = []
    row_fns: list[Callable] = []
    for hook in hooks:
        twin = batch_hook_of(hook)
        if twin is not None:
            batch_fns.append(twin)
        else:
            row_fns.append(hook)
    if not row_fns and len(batch_fns) == 1:
        return batch_fns[0]

    def dispatch(keys: list, rows: list) -> None:
        for fn in batch_fns:
            fn(keys, rows)
        for row_fn in row_fns:
            for key, row in zip(keys, rows):
                row_fn(key, row)

    return dispatch


class OperatorState(enum.Enum):
    CREATED = "created"
    OPEN = "open"
    EXHAUSTED = "exhausted"
    CLOSED = "closed"


class Operator(ABC):
    """Base class for all physical operators.

    Subclasses implement ``_open``, ``_next`` and ``_close`` and declare:

    * ``op_name`` — short name used in EXPLAIN output;
    * ``blocking_child_indexes`` — children that are fully consumed inside a
      preprocessing phase and therefore belong to a *different* pipeline
      (e.g. a hash join's build input);
    * ``driver_child_index`` — the child that continues the current pipeline
      (e.g. a hash join's probe input), or ``None`` for leaves.
    """

    op_name: str = "operator"
    blocking_child_indexes: tuple[int, ...] = ()
    driver_child_index: int | None = None

    # Operators are per-tuple hot objects: __slots__ drops the per-instance
    # __dict__ and makes the tuples_emitted / bus / state attribute reads in
    # next()/next_batch() direct slot loads. Every concrete operator must
    # declare __slots__ too (tests/test_plan_validate.py catches strays).
    __slots__ = (
        "tuples_emitted",
        "state",
        "_exhausted",
        "phase",
        "node_id",
        "bus",
        "faults",
        "phase_hooks",
        "estimated_cardinality",
    )

    def __init__(self) -> None:
        self.tuples_emitted: int = 0
        self.state: OperatorState = OperatorState.CREATED
        self._exhausted: bool = False
        self.phase: str = "init"
        self.node_id: int | None = None
        self.bus: "TickBus | None" = None
        self.faults: "FaultPlan | None" = None
        self.phase_hooks: list[Callable[["Operator", str], None]] = []
        # Optimizer-estimated output cardinality; filled in by the planner
        # (or by hand in tests) and refined online by estimators.
        self.estimated_cardinality: float | None = None

    # -- tree structure ------------------------------------------------------

    @abstractmethod
    def children(self) -> tuple["Operator", ...]:
        """Child operators, build/outer side first where applicable."""

    @property
    @abstractmethod
    def output_schema(self) -> Schema:
        """Schema of emitted rows."""

    def describe(self) -> str:
        """One-line description for EXPLAIN output."""
        return self.op_name

    # -- iterator contract -----------------------------------------------------

    def open(self) -> None:
        """Open this operator and, by default, its children (pre-order)."""
        if self.state is OperatorState.OPEN:
            raise ExecutorError(f"{self.op_name}: open() called twice")
        if self.state is OperatorState.CLOSED:
            raise ExecutorError(f"{self.op_name}: open() after close()")
        for child in self.children():
            child.open()
        self.state = OperatorState.OPEN
        self._open()

    def next(self) -> tuple | None:
        """Produce the next output row, or None when exhausted."""
        if self.state is OperatorState.EXHAUSTED:
            return None
        if self.state is not OperatorState.OPEN:
            raise ExecutorError(
                f"{self.op_name}: next() called in state {self.state.value}"
            )
        if self.faults is not None:
            self.faults.fire(SITE_OPERATOR_PULL, detail=self.op_name)
        row = self._next()
        if row is None:
            self.state = OperatorState.EXHAUSTED
            self._exhausted = True
            self._set_phase("done")
            return None
        self.tuples_emitted += 1
        return row

    def next_batch(self, max_rows: int) -> list[tuple]:
        """Produce up to ``max_rows`` output rows; ``[]`` means exhausted.

        Rows come in exactly the order repeated :meth:`next` calls would
        produce them, and a short non-empty batch does *not* imply
        exhaustion — callers pull until an empty batch. ``tuples_emitted``
        (the ``K_i`` counter) advances by ``len(batch)``, so ``C(Q)`` is
        identical between the row and batch paths.
        """
        if self.state is OperatorState.EXHAUSTED:
            return []
        if self.state is not OperatorState.OPEN:
            raise ExecutorError(
                f"{self.op_name}: next_batch() called in state {self.state.value}"
            )
        if max_rows < 1:
            raise ExecutorError(
                f"{self.op_name}: next_batch() needs max_rows >= 1, got {max_rows}"
            )
        if self.faults is not None:
            spec = self.faults.fire(SITE_OPERATOR_PULL, detail=self.op_name)
            if spec is not None and spec.kind == SHORT_READ:
                max_rows = self.faults.short_read(max_rows)
        batch = self._next_batch(max_rows)
        if not batch:
            self.state = OperatorState.EXHAUSTED
            self._exhausted = True
            self._set_phase("done")
            return batch
        self.tuples_emitted += len(batch)
        return batch

    def close(self) -> None:
        if self.state is OperatorState.CLOSED:
            return
        self._close()
        for child in self.children():
            child.close()
        self.state = OperatorState.CLOSED

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.next()
            if row is None:
                return
            yield row

    # -- subclass responsibilities --------------------------------------------

    def _open(self) -> None:
        """Hook for subclass open logic (children are already open)."""

    @abstractmethod
    def _next(self) -> tuple | None:
        """Produce one row or None."""

    def _next_batch(self, max_rows: int) -> list[tuple]:
        """Produce up to ``max_rows`` rows (``[]`` = exhausted).

        Default: the automatic row-at-a-time fallback — every operator is
        batchable without opting in. Overrides must emit rows in the same
        order as ``_next`` and keep firing per-row hooks in row order;
        ``tuples_emitted`` is maintained by :meth:`next_batch`, never here.
        ``_next`` must stay callable after it has returned None (all
        implementations use exhausted-iterator semantics), because a short
        batch defers the exhaustion transition to the following call.
        """
        batch: list[tuple] = []
        append = batch.append
        produce = self._next
        for _ in range(max_rows):
            row = produce()
            if row is None:
                break
            append(row)
        return batch

    def _close(self) -> None:
        """Hook for subclass close logic."""

    # -- instrumentation -------------------------------------------------------

    def _set_phase(self, phase: str) -> None:
        if phase == self.phase:
            return
        self.phase = phase
        for hook in self.phase_hooks:
            hook(self, phase)

    def _tick(self) -> None:
        """Report one unit of internal work to the tick bus, if attached.

        Called once per input row consumed during blocking phases; emitted
        rows tick via the engine's pull loop instead.
        """
        bus = self.bus
        if bus is not None:
            bus.tick()

    def _tick_n(self, k: int) -> None:
        """Report ``k`` units of internal work in one amortized call.

        The batch-path twin of :meth:`_tick`: native batch implementations
        call it once per input batch instead of once per row, so the bus
        count advances identically while the per-row bookkeeping vanishes.
        """
        bus = self.bus
        if bus is not None:
            bus.tick_n(k)

    def attach_bus(self, bus: "TickBus | None") -> None:
        """Attach a tick bus to this whole subtree."""
        self.bus = bus
        for child in self.children():
            child.attach_bus(bus)

    def attach_faults(self, faults: "FaultPlan | None") -> None:
        """Install a fault plan on this whole subtree (None to remove).

        Arms the ``operator.pull`` site on every node and ``scan.read`` on
        the leaves. Without a plan the probes are single ``is None``
        checks, so unfaulted runs pay nothing measurable.
        """
        self.faults = faults
        for child in self.children():
            child.attach_faults(faults)

    # -- convenience ------------------------------------------------------------

    @property
    def is_exhausted(self) -> bool:
        """True once this operator has produced its last row (sticky
        across close())."""
        return self._exhausted
