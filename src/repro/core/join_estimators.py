"""ONCE: online cardinality estimation for binary joins (Sections 4.1.1-4.1.3).

During the preprocessing pass over one input R (hash-join build pass, first
sort of a sort-merge join, index build of an index NL join) maintain an
exact frequency histogram ``N^R``. Then, as the other input S streams by
*in its original random order* (hash-join probe partitioning pass, second
sort, outer scan), each tuple contributes ``c = N^R[key]`` output rows to
the running estimate ``|S| × mean_t(c)`` — one histogram lookup and two adds
per probe tuple, no second histogram, no bucket-by-bucket multiply.

:class:`~repro.core.accumulator.OnceAccumulator` is that running estimate;
:class:`OnceJoinEstimator` supplies the equi-join contribution ``c`` and
:func:`attach_once_estimator` wires it onto a concrete operator's hooks.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.common.errors import EstimationError
from repro.core.accumulator import OnceAccumulator, TotalProvider
from repro.core.histogram import FrequencyHistogram
from repro.executor.operators.base import Operator
from repro.executor.operators.filter import Filter
from repro.executor.operators.hash_join import HashJoin
from repro.executor.operators.limit import Limit
from repro.executor.operators.materialize import Materialize
from repro.executor.operators.merge_join import SortMergeJoin
from repro.executor.operators.nested_loops import IndexNestedLoopsJoin
from repro.executor.operators.project import Project
from repro.executor.operators.scan import IndexScan, SampleScan, SeqScan
from repro.executor.operators.sort import Sort

__all__ = [
    "OnceJoinEstimator",
    "attach_once_estimator",
    "resolve_stream_total",
]


def resolve_stream_total(op: Operator) -> TotalProvider:
    """Best-available total-cardinality provider for a tuple stream.

    * scans: exact (catalog row counts);
    * selections: scan total × observed selectivity — the driver-node rule
      the paper prescribes for selections (zero error in expectation on
      random input, refined as the scan advances);
    * pass-through operators: delegate to the child;
    * anything else: the optimizer estimate annotated on the node, refined
      to the observed count once the node is exhausted.
    """
    if isinstance(op, (SeqScan, SampleScan, IndexScan)):
        total = float(op.total_rows)
        return lambda: total
    if isinstance(op, Filter):
        child_total = resolve_stream_total(op.child)
        return lambda: child_total() * op.observed_selectivity
    if isinstance(op, (Project, Sort, Materialize)):
        return resolve_stream_total(op.children()[0])
    if isinstance(op, Limit):
        child_total = resolve_stream_total(op.child)
        n = float(op.n)
        return lambda: min(n, child_total())

    def fallback() -> float:
        if op.is_exhausted:
            return float(op.tuples_emitted)
        if op.estimated_cardinality is not None:
            return float(op.estimated_cardinality)
        return float(max(op.tuples_emitted, 1))

    return fallback


class OnceJoinEstimator:
    """Join-size estimator over one build histogram: the contribution
    kernel of a binary equi-join around one :class:`OnceAccumulator`
    (:attr:`acc` — ``t``, ``Σc``, the estimate, its interval
    and the build maximum live there; the paper's distribution-free
    half-width is ``binomial_beta(acc.t)``).

    Parameters
    ----------
    probe_total:
        ``|S|``: the probe stream's total size — a number, or a provider
        re-evaluated at each estimate (e.g. a selection whose selectivity
        is still being observed).
    join_type:
        Join semantics; changes only the per-probe-tuple contribution
        (Section 4.1.1, "similar estimators can be constructed for
        semijoins and various kinds of outerjoins"):

        * ``inner`` — ``N^R[key]``;
        * ``semi``  — ``1`` if ``N^R[key] > 0`` else ``0``;
        * ``anti``  — ``1`` if ``N^R[key] == 0`` else ``0``;
        * ``outer`` — ``max(N^R[key], 1)`` (probe-preserving).

    ``histogram`` is an exact :class:`FrequencyHistogram`; assigning a
    :class:`repro.core.histogram.BucketizedHistogram` before the build pass
    trades accuracy for memory.
    """

    __slots__ = ("join_type", "histogram", "acc")

    def __init__(
        self,
        probe_total: float | TotalProvider | None = None,
        join_type: str = "inner",
    ):
        if join_type not in ("inner", "semi", "anti", "outer"):
            raise EstimationError(f"unsupported join type {join_type!r}")
        self.join_type = join_type
        self.histogram = FrequencyHistogram()
        self.acc = OnceAccumulator(probe_total)

    # -- stream callbacks ---------------------------------------------------------

    def on_build(self, key: object, row: tuple | None = None) -> None:
        """One build-side tuple: count its key."""
        if key is not None:
            self.histogram.add(key)

    def on_probe(self, key: object, row: tuple | None = None) -> None:
        """One probe-side tuple: refine the estimate."""
        c = self._contribution(key)
        self.acc.add(1, c, c * c)

    # -- batch forms: the ``(keys, rows)`` hooks operators call -------------------

    def on_build_batch(self, keys: Sequence[object], rows: Sequence | None = None) -> None:
        """A build-side batch: count every non-None key in one bulk add."""
        self.histogram.add_batch(keys)

    def on_probe_batch(self, keys: Sequence[object], rows: Sequence | None = None) -> None:
        """A probe-side batch: refine the estimate in one aggregated step.

        The running-mean refinement only needs Σc, Σc² and t, so the batch
        is aggregated with one Counter — one histogram lookup per *distinct*
        key — and folded with one ``add``. All sums are integer arithmetic,
        so the resulting state is bit-identical to k :meth:`on_probe` calls.
        """
        contribution = self._contribution
        batch_sum = 0
        batch_sq = 0
        for key, count in Counter(keys).items():
            c = contribution(key)
            if c:
                batch_sum += c * count
                batch_sq += c * c * count
        self.acc.add(len(keys), batch_sum, batch_sq)

    def _contribution(self, key: object) -> int:
        """Output rows this probe tuple generates, under the join type."""
        count = self.histogram.count(key) if key is not None else 0
        if self.join_type == "inner":
            return count
        if self.join_type == "semi":
            return 1 if count else 0
        if self.join_type == "anti":
            return 0 if count else 1
        return count if count else 1  # outer

    def finalize_build(self) -> None:
        """The build pass completed: the most rows one probe tuple can
        emit — the histogram's maximum, and an outer or anti join emits an
        unmatched probe tuple once — is final."""
        mult = self.histogram.max_multiplicity()
        if self.join_type in ("outer", "anti"):
            mult = max(mult, 1)
        self.acc.max_multiplicity = float(mult)

    def finalize_probe(self) -> None:
        """The probe pass completed: the estimate is now exact."""
        self.acc.finalize()


#: The ONCE-capable joins as ``(build-pass child, probe-pass child)``: the
#: input whose pass builds the histogram, then the input whose pass refines
#: the estimate (hash build / probe, left / right sort, index build / outer).
_ONCE_PASSES: dict[type[Operator], tuple[int, int]] = {
    HashJoin: (0, 1),
    SortMergeJoin: (0, 1),
    IndexNestedLoopsJoin: (1, 0),
}


def attach_once_estimator(join: Operator) -> OnceJoinEstimator:
    """Create an :class:`OnceJoinEstimator` and hook it onto ``join``.

    Supported operators and their (build pass, probe pass) mapping:

    * :class:`HashJoin` — (build pass, probe/partition pass);
    * :class:`SortMergeJoin` — (left sort, right sort); raises
      :class:`EstimationError` when either input is presorted, since then
      no preprocessing pass sees that input and the paper defaults to dne;
    * :class:`IndexNestedLoopsJoin` — (index build, outer scan).

    The estimator freezes to its exact value when the probe-side input is
    exhausted, not when the join finishes.
    """
    passes = next(
        (p for cls, p in _ONCE_PASSES.items() if isinstance(join, cls)), None
    )
    if passes is None:
        raise EstimationError(
            f"no ONCE estimator for operator {type(join).__name__}; "
            "nested-loops joins and selections use the driver-node estimator"
        )
    if isinstance(join, SortMergeJoin) and (join.left_presorted or join.right_presorted):
        raise EstimationError(
            "presorted merge-join inputs have no preprocessing pass; "
            "use the driver-node estimator instead"
        )
    build, probe = passes
    # Multi-column keys work identically on tuple keys; the hooks pass the
    # composite key through unchanged.
    estimator = OnceJoinEstimator(
        probe_total=resolve_stream_total(join.children()[probe]),
        join_type=getattr(join, "join_type", "inner"),
    )
    join.input_hooks[build].append(estimator.on_build_batch)
    join.input_end_hooks[build].append(estimator.finalize_build)
    join.input_hooks[probe].append(estimator.on_probe_batch)
    join.input_end_hooks[probe].append(estimator.finalize_probe)
    return estimator
