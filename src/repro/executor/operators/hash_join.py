"""Hash join (grace-style partitioned, or in-memory streaming).

The grace/hybrid structure matters to the paper twice over:

* The **build pass** sees every build tuple before any probing — this is
  where ONCE builds its exact frequency histogram (``input_hooks[0]``).
* The **probe partitioning pass** sees every probe tuple *in input (random)
  order* before any joining — this is where ONCE refines its estimate
  (``input_hooks[1]``) and why it converges "by the end of the first pass on
  the probe input".
* The **join pass** then reads data *partition-wise*, so output is clustered
  by hash partition. This physically reproduces the reordering that makes
  the dne and byte estimators fluctuate (Figure 4): partitions holding
  high-multiplicity keys emit disproportionately many tuples.

``memory_partitions`` controls the hybrid spectrum, as in hybrid hash join:
partitions below it are kept in memory and joined *during* the probe pass
(emitting immediately), the rest are spilled and joined partition-wise
afterwards. ``memory_partitions=0`` is pure grace (nothing emitted until
the probe pass completes); ``num_partitions=1`` degenerates to a fully
in-memory streaming join. The default (8 partitions, 1 in memory) matches
the behaviour the paper observes in PostgreSQL: a trickle of output during
probing whose rate reflects only the in-memory partition's key
multiplicities, then bursts per spilled partition — the exact reason dne
and byte estimates fluctuate under skew.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Iterator, Sequence

from repro.common.errors import PlanError
from repro.executor.operators.base import Operator
from repro.storage.schema import Schema

__all__ = ["HashJoin", "JOIN_TYPES"]

#: Supported join semantics, all probe-side streaming:
#: ``inner``; ``outer`` (probe-preserving: unmatched probe rows padded with
#: NULLs on the build side); ``semi`` / ``anti`` (emit the probe row once if
#: it has any / no build match; output schema is the probe schema only).
#: Section 4.1.1: "similar estimators can be constructed for semijoins and
#: various kinds of outerjoins as well" — see
#: :func:`repro.core.join_estimators.attach_once_estimator`.
JOIN_TYPES = ("inner", "outer", "semi", "anti")


class HashJoin(Operator):
    """Equijoin of a build child (index 0) and probe child (index 1).

    Parameters
    ----------
    build_keys / probe_keys:
        Equal-length column name sequences; single-column keys join on the
        bare value, multi-column keys on the value tuple.
    num_partitions:
        Total hash partitions; 1 degenerates to a fully in-memory join.
    memory_partitions:
        Partitions joined in memory during the probe pass (hybrid hash
        join); 0 selects pure grace behaviour.
    join_type:
        One of :data:`JOIN_TYPES`; see the module docstring.
    """

    op_name = "hash_join"
    blocking_child_indexes = (0,)
    driver_child_index = 1

    __slots__ = (
        "build_child",
        "probe_child",
        "build_keys",
        "probe_keys",
        "num_partitions",
        "memory_partitions",
        "join_type",
        "_schema",
        "_gen",
    )

    def __init__(
        self,
        build: Operator,
        probe: Operator,
        build_keys: Sequence[str] | str,
        probe_keys: Sequence[str] | str,
        num_partitions: int = 8,
        memory_partitions: int = 1,
        join_type: str = "inner",
    ):
        super().__init__(2)
        if join_type not in JOIN_TYPES:
            raise PlanError(f"join_type must be one of {JOIN_TYPES}, got {join_type!r}")
        if isinstance(build_keys, str):
            build_keys = (build_keys,)
        if isinstance(probe_keys, str):
            probe_keys = (probe_keys,)
        if len(build_keys) != len(probe_keys) or not build_keys:
            raise PlanError(
                f"join key arity mismatch: {list(build_keys)} vs {list(probe_keys)}"
            )
        if num_partitions < 1:
            raise PlanError(f"num_partitions must be >= 1, got {num_partitions}")
        if not 0 <= memory_partitions <= num_partitions:
            raise PlanError(
                f"memory_partitions must be in [0, {num_partitions}], "
                f"got {memory_partitions}"
            )
        self.build_child = build
        self.probe_child = probe
        self.build_keys = tuple(build_keys)
        self.probe_keys = tuple(probe_keys)
        self.num_partitions = num_partitions
        self.memory_partitions = num_partitions if num_partitions == 1 else memory_partitions
        self.join_type = join_type
        if join_type in ("semi", "anti"):
            self._schema = probe.output_schema
        else:
            self._schema = build.output_schema.concat(probe.output_schema)
        self._gen: Iterator[tuple] | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.build_child, self.probe_child)

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def describe(self) -> str:
        conds = ", ".join(
            f"{b} = {p}" for b, p in zip(self.build_keys, self.probe_keys)
        )
        if self.memory_partitions == self.num_partitions:
            mode = "memory"
        elif self.memory_partitions == 0:
            mode = "grace"
        else:
            mode = "hybrid"
        kind = "" if self.join_type == "inner" else f" {self.join_type}"
        return f"hash_join[{mode}]{kind}({conds})"

    # -- key extraction --------------------------------------------------------

    def _key_extractor(self, schema: Schema, keys: tuple[str, ...]):
        # operator.itemgetter is a C-level extractor: single-column keys
        # join on the bare value, multi-column keys on the value tuple
        # (multi-arg itemgetter returns exactly that tuple).
        idxs = [schema.index_of(k) for k in keys]
        return itemgetter(*idxs)

    # -- execution ---------------------------------------------------------------

    def _open(self) -> None:
        self._set_phase("init")

    def _next_batch(self, max_rows: int) -> list[tuple]:
        gen = self._gen
        if gen is None:
            # The first pull sizes the streaming pass; a blocking pass also
            # follows the cursor's fetch size (Operator._drain).
            gen = self._gen = self._run_hybrid(max_rows)
        return list(islice(gen, max_rows))

    def _close(self) -> None:
        self._gen = None

    def _make_emitter(self):
        """Per-probe-row emission closure implementing the join semantics."""
        join_type = self.join_type
        if join_type == "inner":
            def emit(matches, probe_row):
                if matches:
                    for build_row in matches:
                        yield build_row + probe_row
        elif join_type == "outer":
            padding = (None,) * len(self.build_child.output_schema)

            def emit(matches, probe_row):
                if matches:
                    for build_row in matches:
                        yield build_row + probe_row
                else:
                    yield padding + probe_row
        elif join_type == "semi":
            def emit(matches, probe_row):
                if matches:
                    yield probe_row
        else:  # anti
            def emit(matches, probe_row):
                if not matches:
                    yield probe_row
        return emit

    def _run_hybrid(self, consume: int) -> Iterator[tuple]:
        """Hybrid hash join.

        Build pass: partition the build input; partitions below
        ``memory_partitions`` become in-memory hash tables, the rest stay as
        spilled row lists. Probe pass: every probe batch reaches the hooks
        in input order; tuples hitting an in-memory partition join and emit
        immediately, the rest are spilled. Join pass: spilled partitions are
        joined one at a time, so their output is clustered by partition.

        ``consume`` is the granularity at which the *inputs* are pulled
        (see :meth:`Operator._drain`): every hook receives each pass's
        ``(keys, rows)`` once per batch — so it observes the full
        (key, row) sequence whatever the granularity.
        """
        n_parts = self.num_partitions
        n_memory = self.memory_partitions
        memory_tables: list[dict[object, list[tuple]]] = [
            {} for _ in range(n_memory)
        ]
        spilled_build: list[list[tuple[object, tuple]]] = [
            [] for _ in range(n_parts - n_memory)
        ]

        self._set_phase("build")
        extract = self._key_extractor(self.build_child.output_schema, self.build_keys)
        for keys, batch in self._drain(0, consume, extract):
            for key, row in zip(keys, batch):
                if key is None:
                    continue
                part = hash(key) % n_parts
                if part < n_memory:
                    memory_tables[part].setdefault(key, []).append(row)
                else:
                    spilled_build[part - n_memory].append((key, row))

        emit = self._make_emitter()

        # Probe pass: hooks fire for every probe tuple while the stream is
        # still in input (random) order — this is where ONCE estimation
        # happens. In-memory partitions emit immediately (the hybrid
        # trickle); other tuples are spilled for the join pass.
        self._set_phase(
            "probe" if n_memory == n_parts else "partition_probe"
        )
        spilled_probe: list[list[tuple[object, tuple]]] = [
            [] for _ in range(n_parts - n_memory)
        ]
        extract = self._key_extractor(self.probe_child.output_schema, self.probe_keys)
        for keys, batch in self._drain(1, consume, extract):
            for key, probe_row in zip(keys, batch):
                if key is None:
                    # NULL keys never match; outer/anti still emit.
                    yield from emit(None, probe_row)
                    continue
                part = hash(key) % n_parts
                if part < n_memory:
                    yield from emit(memory_tables[part].get(key), probe_row)
                else:
                    spilled_probe[part - n_memory].append((key, probe_row))

        # Join pass over spilled partitions: output clustered by partition,
        # the reordering the paper's Figure 4 discussion relies on.
        if n_memory < n_parts:
            self._set_phase("join")
            for part_id in range(n_parts - n_memory):
                table: dict[object, list[tuple]] = {}
                for key, row in spilled_build[part_id]:
                    table.setdefault(key, []).append(row)
                spilled_build[part_id] = []  # release as we go
                self._tick_n(len(spilled_probe[part_id]))
                for key, probe_row in spilled_probe[part_id]:
                    yield from emit(table.get(key), probe_row)
                spilled_probe[part_id] = []
