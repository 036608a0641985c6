"""Push-down estimation for pipelines of hash joins (Section 4.1.4, Algorithm 1).

Consider a chain of hash joins J0 (lowest) .. J(k-1) (topmost) where each
join's probe input is the output of the join below and J0's probe input is a
base tuple stream C. In Volcano order the *upper* builds complete first
(J(k-1)'s build, then J(k-2)'s, ..., then J0's) and only then does C stream
through J0's probe pass. The paper pushes the estimation of **every** join
in the chain down to that single probe pass:

* **Same attribute / Case 1** — Ji's probe key traces to a column of C
  itself: each C tuple r contributes ``Π_m H_m[r.c_m]`` output tuples at
  level i, where ``H_m`` are the exact build histograms. A probe key that
  is a lower join's own *build key* traces, by equijoin transitivity, to
  that join's probe key: in the paper's Figure 5 chain the upper join is
  keyed on ``c1.nationkey``, which equals C's ``c2.nationkey`` in every
  row of the lower join's output, so both levels read C's key
  (``N^A·N^B`` per probe tuple) and no derived histogram is built.
* **Case 2** — Ji's probe key traces to a column ``a`` of a *lower* build
  relation B_m: no column of C can probe ``H_i`` directly. Instead, during
  B_m's build pass (which runs *after* H_i is complete), a derived
  histogram is built over B_m's own join key x:
  ``W[x] += H_i[b.a]`` — the paper's "histogram representing the
  distribution of values in column x of A ⋈ B". At probe time ``W[r.x]``
  *replaces* both H_m's factor and the folded joins' factors.

This module implements the fully recursive form of Algorithm 1's
``makeJoinList``: references may nest (a join keyed on the build input of a
join that is itself keyed on another build input), as in a TPC-H Q8-style
chain where ``customer`` is probed via ``orders``'s build column and
``nation`` via ``customer``'s. Every join m owns a family of *versioned
effective histograms*

    A_m^{(i)} = Σ_{b in B_m, key(b)=v} Π_{l refs B_m, l <= i} A_l^{(i)}[b.a_l]

keyed by its build key, where version ``i`` (a *breakpoint*) includes the
weight of all joins up to level i that transitively reach B_m. Because
builds execute top-down, each A_l^{(i)} is complete before B_m streams by,
so all versions are built in B_m's single build pass. The level-i estimate
for a probe tuple r is then ``Π over C-keyed joins m <= i of A_m^{(i)}[r.c_m]``,
and every join's estimate converges to its exact output cardinality by the
end of C's probe pass — while dne/byte "would not have seen many tuples at
the upper join" yet.

A chain of length 1 degenerates to the binary ONCE estimator, so
:class:`HashJoinChainEstimator` is the uniform mechanism the estimation
manager attaches to every hash join.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from math import prod
from operator import itemgetter, mul
from typing import Callable, Sequence

from repro.common.errors import EstimationError
from repro.core.accumulator import OnceAccumulator
from repro.core.histogram import FrequencyHistogram
from repro.core.join_estimators import resolve_stream_total
from repro.executor.operators.base import Operator
from repro.executor.operators.hash_join import HashJoin
from repro.executor.plan import walk

__all__ = ["HashJoinChainEstimator", "chain_provenance", "find_hash_join_chains"]

#: ``listener(values, contributions)``: a probe batch's group-column values
#: and, per probe tuple, the number of chain-output rows it yields.
OutputListener = Callable[[Sequence[object], Sequence[int]], None]


def find_hash_join_chains(root: Operator) -> list[list[HashJoin]]:
    """All maximal probe-edge-connected chains of hash joins, bottom-up.

    A chain is a sequence J0..J(k-1) of :class:`HashJoin` operators where
    ``J(i+1).probe_child is Ji``. Chains are maximal: the list includes
    single joins whose probe input is not a hash join. An operator between
    two joins (even a filter) breaks the chain — the upper join then heads
    its own chain, estimated against the intermediate stream.
    """
    joins = [op for op in walk(root) if isinstance(op, HashJoin)]
    # Only inner joins compose multiplicatively; semi/anti/outer joins head
    # and terminate their own (usually singleton) chains.

    def extends_down(join: HashJoin) -> bool:
        child = join.probe_child
        return (
            join.join_type == "inner"
            and isinstance(child, HashJoin)
            and child.join_type == "inner"
        )

    absorbed = {id(j.probe_child) for j in joins if extends_down(j)}
    chains: list[list[HashJoin]] = []
    for join in joins:
        if id(join) in absorbed:
            continue  # a join above will pick this one up
        chain: list[HashJoin] = [join]
        while extends_down(chain[-1]):
            chain.append(chain[-1].probe_child)  # type: ignore[arg-type]
        chain.reverse()
        chains.append(chain)
    return chains


@dataclass(frozen=True, slots=True)
class _Provenance:
    """Where a join's probe key column comes from."""

    kind: str  # "C" (base probe stream) or "B" (a lower join's build input)
    level: int  # for "B": chain index of the owning join; -1 for "C"
    index: int  # column index within the C row / the B_level build row


def chain_provenance(chain: Sequence[HashJoin]) -> list[_Provenance]:
    """Where each join's probe key comes from, bottom-up: Algorithm 1's
    chain shape, decided here for both the estimator and the plan analyzer.

    ``out(J_m) = build_m ++ out(J_{m-1})``, bottoming out at C, so a probe
    key is located by peeling build segments from the join below downwards.
    A key that lands on B_m's own build key equals J_m's probe key by
    equijoin transitivity, and the trace restarts from there: that is what
    resolves the paper's same-attribute chains (every join on C's key) to C
    rather than to a Case-2 reference.

    Raises :class:`EstimationError` on multi-column keys.
    """
    if any(len(j.probe_keys) != 1 or len(j.build_keys) != 1 for j in chain):
        raise EstimationError("chain estimation supports single-column join keys")
    provenance = []
    for i, join in enumerate(chain):
        offset = join.probe_child.output_schema.index_of(join.probe_keys[0])
        m = i - 1
        while m >= 0:
            lower = chain[m]
            build_schema = lower.build_child.output_schema
            if offset >= len(build_schema):
                offset -= len(build_schema)
            elif offset == build_schema.index_of(lower.build_keys[0]):
                offset = lower.probe_child.output_schema.index_of(lower.probe_keys[0])
            else:
                break
            m -= 1
        provenance.append(_Provenance("B" if m >= 0 else "C", m, offset))
    return provenance


class HashJoinChainEstimator:
    """Estimates the output cardinality of every join in a hash-join chain.

    Parameters
    ----------
    chain:
        Hash joins bottom-up (``chain[0]`` is the lowest; its probe child is
        the base stream C). Single-element chains are the binary case.
    stop_after_sample:
        Section 4.4's punctuation behaviour: "for each pipeline, we keep
        obtaining estimates until the random sample is read ... After this
        point, we have an approximately correct estimate". When True and
        the base probe stream is (or sits above) a
        :class:`~repro.executor.operators.scan.SampleScan`, the estimator
        freezes when the scan's sample-boundary punctuation fires —
        trading the exact-at-pass-end guarantee for zero per-tuple work on
        the bulk of the stream. Default False (refine to exactness).

    Raises
    ------
    EstimationError
        For chain shapes outside the framework: non-inner joins, joins not
        connected probe-to-output, or multi-column keys
        (:func:`chain_provenance`).
    """

    __slots__ = (
        "chain",
        "k",
        "base_stream",
        "_c_schema",
        "provenance",
        "refs",
        "breakpoints",
        "base_hists",
        "derived",
        "_level_factors",
        "levels",
        "frozen",
        "output_listeners",
        "_unit",
        "_unit_levels",
    )

    def __init__(self, chain: list[HashJoin], stop_after_sample: bool = False):
        if not chain:
            raise EstimationError("empty hash-join chain")
        for join in chain:
            if join.join_type != "inner":
                raise EstimationError(
                    f"chain estimation is defined for inner joins; "
                    f"{join.describe()} is {join.join_type} — use the binary "
                    "ONCE estimator"
                )
        for lower, upper in zip(chain, chain[1:]):
            if upper.probe_child is not lower:
                raise EstimationError(
                    "chain joins must be connected probe-to-output, bottom-up"
                )
        self.chain = list(chain)
        self.k = len(chain)
        self.base_stream = chain[0].probe_child
        self._c_schema = self.base_stream.output_schema

        self.provenance = chain_provenance(chain)

        # refs[m]: ascending levels whose probe key references B_m.
        self.refs: dict[int, list[int]] = {}
        for i, prov in enumerate(self.provenance):
            if prov.kind == "B":
                self.refs.setdefault(prov.level, []).append(i)
        for levels in self.refs.values():
            levels.sort()

        # Breakpoints: versions at which join m's effective histogram
        # changes content. A direct reference at level l adds breakpoint l;
        # folded joins propagate their own later breakpoints. Computed top
        # down so referenced (higher) joins are resolved first.
        self.breakpoints: dict[int, list[int]] = {}
        for m in range(self.k - 1, -1, -1):
            bps: set[int] = set()
            for level in self.refs.get(m, []):
                bps.add(level)
                bps.update(self.breakpoints.get(level, []))
            self.breakpoints[m] = sorted(bps)

        # Base histograms H_m and derived versions W[(m, breakpoint)].
        self.base_hists: list[FrequencyHistogram] = [
            FrequencyHistogram() for _ in range(self.k)
        ]
        self.derived: dict[tuple[int, int], FrequencyHistogram] = {
            (m, bp): FrequencyHistogram()
            for m, bps in self.breakpoints.items()
            for bp in bps
        }

        # Per-level probe factor tables: level i multiplies, for each
        # C-keyed join m <= i, its effective histogram version at i.
        self._level_factors: list[list[tuple[int, FrequencyHistogram]]] = []
        for i in range(self.k):
            factors = [
                (self.provenance[m].index, self._effective_hist(m, i))
                for m in range(i + 1)
                if self.provenance[m].kind == "C"
            ]
            self._level_factors.append(factors)

        # Estimation state: one accumulator per join, all over the same
        # stream C — they advance in lockstep and share |C|.
        probe_total = resolve_stream_total(self.base_stream)
        self.levels = [OnceAccumulator(probe_total) for _ in range(self.k)]
        self.frozen: bool = False
        self.output_listeners: list[tuple[int, OutputListener]] = []
        # ids of the histograms known, once built, to hold only 0/1 counts
        # (FK -> PK joins), and per level whether all its factors do: then
        # every contribution is 0 or 1 and Σc² = Σc.
        self._unit: set[int] = set()
        self._unit_levels: list[bool] = [False] * self.k

        # Punctuation wiring runs first: if it fails (no SampleScan), the
        # constructor raises before any operator hooks are attached.
        if stop_after_sample:
            self._wire_sample_punctuation()
        self._wire_hooks()

    # -- construction helpers -----------------------------------------------------

    def _effective_hist(self, m: int, level: int) -> FrequencyHistogram:
        """A_m^{(level)}: join m's effective histogram as of ``level``."""
        applicable = [bp for bp in self.breakpoints.get(m, []) if bp <= level]
        if applicable:
            return self.derived[(m, max(applicable))]
        return self.base_hists[m]

    def _wire_sample_punctuation(self) -> None:
        """Freeze on the base scan's sample-boundary punctuation."""
        from repro.executor.operators.scan import SampleScan

        op = self.base_stream
        while True:
            if isinstance(op, SampleScan):
                op.sample_boundary_hooks.append(self._on_sample_boundary)
                return
            children = op.children()
            if len(children) != 1:
                raise EstimationError(
                    "stop_after_sample requires a SampleScan-backed base "
                    f"probe stream; found {op.describe()}"
                )
            op = children[0]

    def _on_sample_boundary(self, _scan) -> None:
        self.frozen = True

    def _wire_hooks(self) -> None:
        for m, join in enumerate(self.chain):
            join.input_hooks[0].append(self._make_build_hook(m))
            join.input_end_hooks[0].append(partial(self._on_build_end, m))
        bottom = self.chain[0]
        bottom.input_hooks[1].append(self._on_probe)
        bottom.input_end_hooks[1].append(self._on_probe_end)

    def _on_build_end(self, m: int) -> None:
        mult = self.base_hists[m].max_multiplicity()
        self.levels[m].max_multiplicity = float(mult)
        if mult > 1:
            return
        unit = self._unit
        unit.add(id(self.base_hists[m]))
        for bp in self.breakpoints.get(m, []):
            if self._folded_unit(m, bp):
                unit.add(id(self.derived[(m, bp)]))
        self._unit_levels = [
            all(id(hist) in unit for _, hist in factors) for factors in self._level_factors
        ]

    def _folded_unit(self, m: int, bp: int) -> bool:
        """Are the histograms folded into join ``m``'s derived version
        ``bp`` all 0/1? Their builds ended before B_m's began."""
        return all(
            id(self._effective_hist(level, bp)) in self._unit
            for level in self.refs.get(m, [])
            if level <= bp
        )

    def _make_build_hook(self, m: int):
        base_hist = self.base_hists[m]
        breakpoints = self.breakpoints.get(m, [])
        if not breakpoints:
            return lambda keys, rows: base_hist.add_batch(keys)

        # For each breakpoint version: which folded joins contribute, read
        # from which column of this build row, weighted by which (already
        # complete) effective histogram of theirs.
        version_specs: list[
            tuple[int, FrequencyHistogram, list[tuple[itemgetter, FrequencyHistogram]]]
        ] = []
        for bp in breakpoints:
            folded = [
                (itemgetter(self.provenance[level].index), self._effective_hist(level, bp))
                for level in self.refs.get(m, [])
                if level <= bp
            ]
            version_specs.append((bp, self.derived[(m, bp)], folded))

        def build_hook_with_refs(keys: Sequence[object], rows: Sequence[tuple]) -> None:
            base_hist.add_batch(keys)
            for bp, derived, folded in version_specs:
                # Column at a time; a zero factor zeroes the row's weight.
                factors = (
                    map(hist.counts.get, map(column, rows), repeat(0))
                    for column, hist in folded
                )
                weights = map(prod, zip(*factors))
                if self._folded_unit(m, bp):  # 0/1 weights: count the 1s in C
                    derived.add_batch(list(compress(keys, weights)))
                else:
                    derived.add_weighted(keys, weights)

        return build_hook_with_refs

    # -- probe-pass callbacks --------------------------------------------------------

    def _on_probe(self, keys: Sequence[object], rows: Sequence[tuple]) -> None:
        """Probe hook of the bottom join: ``keys`` is its probe-key column
        of the base-stream batch ``rows``."""
        if not self.frozen:
            self._apply_batch(keys, rows)

    def _apply_batch(self, keys: Sequence[object], rows: Sequence[tuple]) -> None:
        """Fold a batch column at a time, C-level passes only: one looked-up
        factor list per distinct (C column, histogram) pair, shared by every
        level whose product reads it. A key absent from a histogram — None
        never is one — contributes factor 0, which zeroes the product.
        Integer arithmetic throughout, so the state is bit-identical to
        per-tuple refinement. Each output listener then gets the batch's
        group column with the topmost level's contributions, in one call."""
        n = len(rows)
        key_col = self.provenance[0].index  # already extracted by the drain
        looked_up: dict[tuple[int, int], list[int]] = {}
        for i, (factors, level) in enumerate(zip(self._level_factors, self.levels)):
            contribs = None
            for col, hist in factors:
                factor = looked_up.get((col, id(hist)))
                if factor is None:
                    values = keys if col == key_col else map(itemgetter(col), rows)
                    factor = list(map(hist.counts.get, values, repeat(0)))
                    looked_up[col, id(hist)] = factor
                contribs = factor if contribs is None else list(map(mul, contribs, factor))
            sum_c = sum(contribs)
            unit = self._unit_levels[i]
            level.add(n, sum_c, sum_c if unit else sum(map(mul, contribs, contribs)))
        for col, listener in self.output_listeners:
            listener(keys if col == key_col else list(map(itemgetter(col), rows)), contribs)

    def _on_probe_end(self) -> None:
        """The base stream is exhausted: every level's estimate is exact."""
        if self.frozen:
            # The sample-based estimate stands; the pass was not fully
            # observed, so exactness cannot be claimed.
            return
        for level in self.levels:
            level.finalize()

    # -- estimates: ``levels[i]`` answers for ``chain[i]`` ---------------------------------

    @property
    def t(self) -> int:
        """C tuples seen (every level's ``t``)."""
        return self.levels[0].t

    @property
    def exact(self) -> bool:
        return self.levels[0].exact

    # -- aggregation push-down ----------------------------------------------------------

    def add_output_listener(self, group_column: str, listener: OutputListener) -> None:
        """Register a listener over the chain output's value distribution.

        ``listener(values, contributions)`` is invoked once per probe batch
        with the batch's ``group_column`` values and, per probe tuple, the
        number of chain-output rows it generates (0 for a tuple that joins
        nothing). Only columns of the base probe stream are supported (the
        paper's "aggregation on the same attribute as the join" case);
        anything else raises :class:`EstimationError` and the caller falls
        back to estimating at the aggregate itself.
        """
        if not self._c_schema.has_column(group_column):
            raise EstimationError(
                f"group column {group_column!r} is not part of the chain's "
                "base probe stream; aggregation push-down unsupported"
            )
        self.output_listeners.append((self._c_schema.index_of(group_column), listener))
