"""Operator base class: the Volcano iterator contract plus instrumentation.

Instrumentation is deliberately minimal, matching the paper's "lightweight"
requirement: each operator maintains a single integer ``tuples_emitted``
(the ``K_i`` of the getnext model), an optional :class:`TickBus` reference
that lets the progress monitor sample state *during* long blocking phases,
and hook lists that are skipped entirely when empty. Running a plan with no
estimators attached therefore pays almost nothing over a bare executor.
Every pass that reads one input to its end goes through :meth:`Operator._drain`
— the single instrumented input loop, as the paper instruments PostgreSQL's
one central control function rather than each operator.

State machine
-------------
``CREATED -> OPEN -> EXHAUSTED -> CLOSED``; blocking operators additionally
publish a free-form ``phase`` string ("build", "partition_probe", "join",
...) and fire ``phase_hooks`` on transitions so estimators know which pass
is running.

Pull contract
-------------
:meth:`next_batch` is the one pull path: it returns up to ``max_rows``
output rows as a list. An *empty* list signals exhaustion; a short
non-empty batch does **not** (callers loop until empty). Every operator
implements ``_next_batch`` natively; :meth:`next` is ``next_batch(1)``,
the paper's getnext model as the size-1 case. Instrumentation is part of
the contract: ``tuples_emitted`` advances by ``len(batch)``, the hooks in
``input_hooks[i]`` receive every batch consumed from child ``i`` once as
``(keys, rows)`` in input order, and blocking-phase work reaches the tick
bus through :meth:`TickBus.tick_n`, so ``C(Q)``, phase transitions and
every estimator's ``D_{t+1}`` refinement are the same at every batch size.
See docs/BATCHING.md.
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

__all__ = ["BatchHook", "Operator", "OperatorState"]

#: The one estimator-hook signature: ``hook(keys, rows)``, called once per
#: consumed input batch with the batch's key values and its rows, in input
#: order.
BatchHook = Callable[[list, list[tuple]], None]


class OperatorState(enum.Enum):
    CREATED = "created"
    OPEN = "open"
    EXHAUSTED = "exhausted"
    CLOSED = "closed"


class Operator(ABC):
    """Base class for all physical operators.

    Subclasses implement ``_open``, ``_next_batch`` and ``_close`` and declare:

    * ``op_name`` — short name used in EXPLAIN output;
    * ``blocking_child_indexes`` — children that are fully consumed inside a
      preprocessing phase and therefore belong to a *different* pipeline
      (e.g. a hash join's build input);
    * ``driver_child_index`` — the child that continues the current pipeline
      (e.g. a hash join's probe input), or ``None`` for leaves.

    ``inputs`` is the number of children the subclass reads through
    :meth:`_drain` (or counts itself, as ``Filter`` does). It sizes the
    per-input instrumentation, indexed by child position: ``input_hooks[i]``
    see every batch consumed from child ``i``, ``input_end_hooks[i]`` are
    zero-argument callbacks fired once when that child is exhausted,
    ``rows_consumed[i]`` counts its rows.
    """

    op_name: str = "operator"
    blocking_child_indexes: tuple[int, ...] = ()
    driver_child_index: int | None = None

    # Operators are per-tuple hot objects: __slots__ drops the per-instance
    # __dict__ and makes the tuples_emitted / bus / state attribute reads in
    # next_batch() direct slot loads. Every concrete operator must
    # declare __slots__ too (tests/test_plan_validate.py catches strays).
    __slots__ = (
        "tuples_emitted",
        "state",
        "_exhausted",
        "phase",
        "node_id",
        "bus",
        "fetch_size",
        "faults",
        "phase_hooks",
        "input_hooks",
        "input_end_hooks",
        "rows_consumed",
        "estimated_cardinality",
    )

    def __init__(self, inputs: int = 0) -> None:
        self.tuples_emitted: int = 0
        self.state: OperatorState = OperatorState.CREATED
        self._exhausted: bool = False
        self.phase: str = "init"
        self.node_id: int | None = None
        self.bus: "TickBus | None" = None
        # Rows per pull the plan's cursor was first asked for (0: no cursor);
        # the drain size of blocking passes, see _drain.
        self.fetch_size: int = 0
        self.faults: "FaultPlan | None" = None
        self.phase_hooks: list[Callable[["Operator", str], None]] = []
        self.input_hooks: tuple[list[BatchHook], ...] = tuple(
            [] for _ in range(inputs)
        )
        self.input_end_hooks: tuple[list[Callable[[], None]], ...] = tuple(
            [] for _ in range(inputs)
        )
        self.rows_consumed: list[int] = [0] * inputs
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
        batch = self.next_batch(1)
        return batch[0] if batch else None

    def next_batch(self, max_rows: int) -> list[tuple]:
        """Produce up to ``max_rows`` output rows; ``[]`` means exhausted.

        A short non-empty batch does *not* imply exhaustion — callers pull
        until an empty batch. ``tuples_emitted`` (the ``K_i`` counter)
        advances by ``len(batch)``, so ``C(Q)`` is the same at every batch
        size.
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
        while batch := self.next_batch(1):
            yield batch[0]

    # -- subclass responsibilities --------------------------------------------

    def _open(self) -> None:
        """Hook for subclass open logic (children are already open)."""

    @abstractmethod
    def _next_batch(self, max_rows: int) -> list[tuple]:
        """Produce up to ``max_rows`` rows (``[]`` = exhausted).

        ``tuples_emitted`` is maintained by :meth:`next_batch`, never here.
        Must stay callable after it has returned a short batch (all
        implementations use exhausted-iterator semantics), because a short
        batch defers the exhaustion transition to the following call.
        """

    def _close(self) -> None:
        """Hook for subclass close logic."""

    # -- instrumentation -------------------------------------------------------

    def _set_phase(self, phase: str) -> None:
        if phase == self.phase:
            return
        self.phase = phase
        for hook in self.phase_hooks:
            hook(self, phase)

    def _tick_n(self, k: int) -> None:
        """Report ``k`` units of internal work to the tick bus, if attached.

        Called once per input batch consumed by :meth:`_drain`; emitted
        rows tick via the cursor's pull loop instead.
        """
        bus = self.bus
        if bus is not None:
            bus.tick_n(k)

    def _drain(
        self,
        child_index: int,
        consume: int,
        extract: Callable[[tuple], object] | None = None,
        need_keys: bool = True,
    ) -> Iterator[tuple[list | None, list[tuple]]]:
        """The one instrumented input pass: read child ``child_index`` to
        its end, ``consume`` rows per pull, yielding ``(keys, batch)``.

        A *blocking* pass (``child_index in blocking_child_indexes``) reads
        its input to the end whatever the operator was asked for, so it
        pulls at least ``fetch_size`` rows at a time: a ``Limit`` above
        caps the request it forwards, not the granularity of the passes
        below it. Streaming passes keep ``consume`` (bounded read-ahead).

        Per batch, in this order everywhere: count it in
        ``rows_consumed[child_index]``, extract its keys, call every
        ``input_hooks[child_index]`` hook, yield to the caller's own
        insert/emit code, then tick the bus — so a snapshot taken at that
        tick sees the estimators and the counter agree on the batch. When
        the child is exhausted the ``input_end_hooks[child_index]``
        callbacks fire, once, before the caller moves to its next phase; a
        pass abandoned midway (the operator closed) fires none.

        ``extract`` maps a row to its key; ``None`` means the whole row is
        the key and ``keys`` is the batch itself. With ``need_keys=False``
        the caller does not read the keys, so they are extracted only while
        a hook is attached (``keys`` is ``None`` otherwise). The hook list
        is read in place each batch: hooks attached, wrapped or removed
        mid-pass take effect from the next batch.
        """
        child = self.children()[child_index]
        hooks = self.input_hooks[child_index]
        consumed = self.rows_consumed
        if child_index in self.blocking_child_indexes:
            consume = max(consume, self.fetch_size)
        while batch := child.next_batch(consume):
            consumed[child_index] += len(batch)
            if extract is None:
                keys = batch
            elif need_keys or hooks:
                keys = list(map(extract, batch))
            else:
                keys = None
            for hook in hooks:
                hook(keys, batch)
            yield keys, batch
            self._tick_n(len(batch))
        for callback in self.input_end_hooks[child_index]:
            callback()

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

    # -- copies ------------------------------------------------------------------

    def fresh(self) -> "Operator":
        """A never-opened copy of this ``CREATED`` subtree: it shares every
        subclass slot (tables, expressions, schemas, kernels) and the
        optimizer estimate, swaps each child for the child's ``fresh()``,
        and gets new base instrumentation plus :meth:`_fresh_state`."""
        if self.state is not OperatorState.CREATED:
            raise ExecutorError(f"{self.op_name}: fresh() of a {self.state.value} operator")
        copy = object.__new__(type(self))
        children = {id(child): child.fresh() for child in self.children()}
        for klass in type(self).__mro__[: type(self).__mro__.index(Operator)]:
            for name in klass.__dict__.get("__slots__", ()):
                value = getattr(self, name)
                setattr(copy, name, children.get(id(value), value))
        Operator.__init__(copy, len(self.input_hooks))
        copy.estimated_cardinality = self.estimated_cardinality
        copy._fresh_state()
        return copy

    def _fresh_state(self) -> None:
        """Re-allocate constructor-made mutable run state for a copy."""

    # -- convenience ------------------------------------------------------------

    @property
    def is_exhausted(self) -> bool:
        """True once this operator has produced its last row (sticky
        across close())."""
        return self._exhausted
