"""Tests for validate_plan's hard structural gate (error paths)."""

import ast
from pathlib import Path

import pytest

from repro.common.errors import PlanError
from repro.executor.engine import ExecutionEngine, PlanCursor
from repro.executor.expressions import Comparison, col, lit
import repro.core.aggregate_estimators
import repro.core.distinct
import repro.core.histogram
import repro.core.join_estimators
import repro.core.manager
import repro.core.pipeline_estimators
import repro.executor.operators
from repro.executor.operators import (
    AggregateSpec,
    Filter,
    HashAggregate,
    HashJoin,
    Operator,
    SeqScan,
)
from repro.executor.plan import validate_plan
from repro.server.session import QuerySession
from repro.storage.schema import Schema
from repro.storage.table import Table


def table(name):
    return Table(name, Schema.of("k:int", "v:int"), [(1, 10), (2, 20)])


class TestValidatePlan:
    def test_assigns_preorder_node_ids(self):
        join = HashJoin(SeqScan(table("b")), SeqScan(table("p")), "b.k", "p.k")
        ops = validate_plan(join)
        assert [op.node_id for op in ops] == [0, 1, 2]
        assert ops[0] is join

    def test_duplicate_node_rejected(self):
        join = HashJoin(SeqScan(table("b")), SeqScan(table("p")), "b.k", "p.k")
        join.probe_child = join.build_child  # alias one scan into both edges
        with pytest.raises(PlanError, match="appears twice"):
            validate_plan(join)

    def test_blocking_index_out_of_range(self):
        class _Rogue(Filter):
            blocking_child_indexes = (3,)

        op = _Rogue(SeqScan(table("t")), Comparison(">", col("t.v"), lit(0)))
        with pytest.raises(PlanError, match="blocking child index 3"):
            validate_plan(op)

    def test_driver_index_out_of_range(self):
        class _Rogue(Filter):
            driver_child_index = 9

        op = _Rogue(SeqScan(table("t")), Comparison(">", col("t.v"), lit(0)))
        with pytest.raises(PlanError, match="driver child index 9"):
            validate_plan(op)

    def test_closed_operator_rejected(self):
        scan = SeqScan(table("t"))
        scan.open()
        scan.close()
        with pytest.raises(PlanError, match="already closed"):
            validate_plan(scan)

    def test_engine_refuses_closed_plan(self):
        scan = SeqScan(table("t"))
        ExecutionEngine(scan).run()  # runs and closes the plan
        with pytest.raises(PlanError):
            ExecutionEngine(scan).run()

    def test_engine_and_session_refuse_an_exhausted_plan(self):
        """A plan drained through a cursor that was never closed is
        exhausted, not closed; re-running it would return no rows."""
        join = HashJoin(SeqScan(table("c")), SeqScan(table("o")), "c.k", "o.k")
        cursor = PlanCursor(join)
        cursor.open()
        assert sum(len(batch) for batch in iter(lambda: cursor.fetch(1024), [])) == 2
        with pytest.raises(PlanError, match="P004 .*already exhausted"):
            ExecutionEngine(join).run()
        with pytest.raises(PlanError, match="P004 .*already exhausted"):
            QuerySession(join)


class TestOperatorsStayDictFree:
    """Operators are per-tuple hot objects (see ``operators/base.py``):
    one subclass without ``__slots__`` gives every instance a ``__dict__``
    back."""

    def test_every_operator_class_declares_slots(self):
        seen = _operator_classes()
        assert {HashJoin, HashAggregate} <= set(seen)  # direct and transitive
        assert [c.__name__ for c in seen if "__slots__" not in vars(c)] == []
        # One pull path: no operator grows a row twin back, and every
        # concrete one drains natively.
        assert [c.__name__ for c in seen if "_next" in vars(c)] == []
        assert [
            c.__name__ for c in seen if c._next_batch is Operator._next_batch
        ] == []

    def test_instantiated_plan_has_no_instance_dict(self):
        join = HashJoin(
            SeqScan(table("b")),
            Filter(SeqScan(table("p")), Comparison("<", col("p.v"), lit(15))),
            "b.k",
            "p.k",
        )
        plan = HashAggregate(join, ["b.k"], [AggregateSpec("count", alias="n")])
        ops = validate_plan(plan)
        assert len(ops) == 5
        assert [type(op).__name__ for op in ops if hasattr(op, "__dict__")] == []


def _operator_classes() -> list[type]:
    """Every ``Operator`` subclass shipped in ``repro`` (test-local
    subclasses — exploding scans etc. — are exempt)."""
    pending, seen = [Operator], []
    while pending:
        for cls in pending.pop().__subclasses__():
            if cls.__module__.startswith("repro."):
                seen.append(cls)
            pending.append(cls)
    return seen


class TestOneInstrumentedInputPass:
    """``Operator._drain`` is the only place an input pass is instrumented:
    one loop dispatches input hooks and ticks the bus per consumed batch, so
    a change to that protocol has one edit point."""

    HOOK_LISTS = {
        "input_hooks",
        "input_end_hooks",
        "phase_hooks",
        "sample_boundary_hooks",
    }

    @staticmethod
    def _modules() -> dict[str, ast.Module]:
        directory = Path(repro.executor.operators.__file__).parent
        return {
            path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))
        }

    @staticmethod
    def _calls(node: ast.AST, method: str) -> bool:
        return any(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == method
            for n in ast.walk(node)
        )

    def test_only_base_touches_the_input_hook_lists(self):
        modules = self._modules()
        assert "base.py" in modules and len(modules) > 10
        touching = {
            name
            for name, tree in modules.items()
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and n.attr in ("input_hooks", "input_end_hooks")
        }
        assert touching == {"base.py"}

    def test_only_base_ticks_the_bus_from_a_child_drain_loop(self):
        ticking = {
            name
            for name, tree in self._modules().items()
            for loop in ast.walk(tree)
            if isinstance(loop, (ast.For, ast.While))
            and self._calls(loop, "next_batch")
            and self._calls(loop, "_tick_n")
        }
        assert ticking == {"base.py"}

    def test_operators_carry_no_other_hook_list(self):
        classes = _operator_classes()
        assert {HashJoin, HashAggregate} <= set(classes)
        stray = {
            f"{cls.__name__}.{slot}"
            for cls in [Operator, *classes]
            for slot in vars(cls).get("__slots__", ())
            if slot.endswith("_hooks") and slot not in self.HOOK_LISTS
        }
        assert stray == set()
        # ... and the manager keeps no table of hook-list names to walk.
        assert [n for n in vars(repro.core.manager) if n.endswith("_ATTRS")] == []


class TestHooksAreColumnKernels:
    """The estimators pay per batch, not per tuple: no function they
    register on ``input_hooks`` or through a chain's
    ``add_output_listener`` — nor any method of theirs it hands the batch
    on to — loops over its ``rows`` / ``keys`` / ``values`` / ``weights``
    in Python. That covers the chain and ONCE hooks, the histograms they
    fill (``core/histogram.py``, whose batch parameter is ``values``) and
    the group-count paths, direct and pushed down (registered in
    ``core/aggregate_estimators.py``, implemented in ``core/distinct.py``).
    One function is exempt, by name: ``FrequencyHistogram.add_weighted``
    (a Case-2 derived build whose folded histograms are not all 0/1 is one
    Python step per build row)."""

    BATCH_PARAMS = {"rows", "keys", "values", "weights"}
    EXEMPT = frozenset({"add_weighted"})
    FIXTURE = (
        Path(__file__).parent / "fixtures" / "lint" / "repro" / "core" / "bad_row_loop_hook.py"
    )

    @staticmethod
    def _registered(tree: ast.Module) -> set[str]:
        """Names handed to ``<op>.input_hooks[i].append(...)`` or, last, to
        ``<chain>.add_output_listener(...)``: a bound method registers
        itself, a factory call its inner functions."""
        names = set()
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
                continue
            if call.func.attr == "add_output_listener":
                *_, hook = call.args
            elif (
                call.func.attr == "append"
                and isinstance(call.func.value, ast.Subscript)
                and isinstance(call.func.value.value, ast.Attribute)
                and call.func.value.value.attr == "input_hooks"
            ):
                (hook,) = call.args
            else:
                continue
            if isinstance(hook, ast.Call):
                hook = hook.func
            assert isinstance(hook, ast.Attribute), ast.dump(hook)
            names.add(hook.attr)
        return names

    @classmethod
    def _iterates_batch(cls, loop_iter: ast.expr, params: set[str]) -> bool:
        """Is ``loop_iter`` a batch parameter, a slice of one, or a
        ``zip`` / ``enumerate`` / ``reversed`` over one?"""
        if isinstance(loop_iter, ast.Subscript):
            return cls._iterates_batch(loop_iter.value, params)
        if isinstance(loop_iter, ast.Call) and isinstance(loop_iter.func, ast.Name):
            return loop_iter.func.id in ("zip", "enumerate", "reversed", "iter") and any(
                cls._iterates_batch(arg, params) for arg in loop_iter.args
            )
        return isinstance(loop_iter, ast.Name) and loop_iter.id in params

    @classmethod
    def _row_loops(cls, *sources: str, exempt: frozenset[str] = EXEMPT) -> set[str]:
        """Offending functions reachable from the hooks the ``sources``
        register; a call is followed into every function of that name in
        any of them (methods of different classes may share one)."""
        trees = [ast.parse(source) for source in sources]
        functions: dict[str, list[ast.FunctionDef]] = {}
        for tree in trees:
            for n in ast.walk(tree):
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.setdefault(n.name, []).append(n)
        pending = sorted(set().union(*map(cls._registered, trees)))
        assert pending, "no input_hooks registration found"
        reached: set[str] = set()
        offenders: set[str] = set()
        while pending:
            name = pending.pop()
            if name in reached or name in exempt or name not in functions:
                continue
            reached.add(name)
            # A factory's closures (and lambdas) are walked with it.
            for fn in (f for top in functions[name] for f in ast.walk(top)):
                if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                    continue
                params = {a.arg for a in fn.args.args} & cls.BATCH_PARAMS
                for node in ast.walk(fn):
                    iters = (
                        [node.iter]
                        if isinstance(node, ast.For)
                        else [g.iter for g in getattr(node, "generators", [])]
                    )
                    if any(cls._iterates_batch(it, params) for it in iters):
                        offenders.add(getattr(fn, "name", "<lambda>"))
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                        pending.append(node.func.attr)
        return offenders

    @staticmethod
    def _source(module) -> str:
        return Path(module.__file__).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "modules",
        [
            (repro.core.pipeline_estimators, repro.core.histogram),
            (repro.core.join_estimators, repro.core.histogram),
            (repro.core.aggregate_estimators, repro.core.distinct),
        ],
        # Named by the estimator modules; every join path also follows
        # its calls into the histograms.
        ids=lambda modules: "+".join(
            m.__name__ for m in modules if m is not repro.core.histogram
        ),
    )
    def test_no_registered_hook_loops_over_its_batch(self, modules):
        assert self._row_loops(*map(self._source, modules)) == set()

    def test_the_guard_reaches_the_group_state(self):
        """The group path's batch is named ``keys`` all the way down, so a
        per-key loop in ``GroupFrequencyState.observe_batch`` is caught."""
        registration = self._source(repro.core.aggregate_estimators)
        distinct = self._source(repro.core.distinct)
        counted_in_c = "        self.counts.update(keys)\n"
        assert distinct.count(counted_in_c) == 1
        mutated = distinct.replace(
            counted_in_c,
            "        for key in keys:\n            self.counts[key] += 1\n",
        )
        assert self._row_loops(registration, mutated) == {"observe_batch"}

    def test_the_guard_reaches_the_pushed_down_fold(self):
        """The push-down listener is followed from its registration into
        ``GroupFrequencyState.observe_weighted``, whose batch is named
        ``values`` / ``weights``, so a per-pair loop there is caught."""
        registration = self._source(repro.core.aggregate_estimators)
        distinct = self._source(repro.core.distinct)
        summed_in_c = "        moves = Counter(chain.from_iterable(map(repeat, values, weights)))\n"
        assert distinct.count(summed_in_c) == 1
        mutated = distinct.replace(
            summed_in_c,
            "        moves = Counter()\n"
            "        for value, weight in zip(values, weights):\n"
            "            moves[value] += weight\n",
        )
        assert self._row_loops(registration, mutated) == {"observe_weighted"}

    def test_the_guard_reaches_the_histograms(self):
        """A build hook's ``add_batch`` is followed into ``core/histogram.py``,
        and ``add_weighted`` is passed over only because it is exempt."""
        chain = self._source(repro.core.pipeline_estimators)
        histogram = self._source(repro.core.histogram)
        counted_in_c = "        counts.update(values)\n"
        assert histogram.count(counted_in_c) == 1
        mutated = histogram.replace(
            counted_in_c, "        for value in values:\n            counts[value] += 1\n"
        )
        assert self._row_loops(chain, mutated) == {"add_batch"}
        assert self._row_loops(
            chain, histogram, exempt=self.EXEMPT - {"add_weighted"}
        ) == {"add_weighted"}

    def test_the_guard_flags_the_fixture(self):
        assert self._row_loops(self.FIXTURE.read_text(encoding="utf-8")) == {
            "build_hook",
            "_on_probe",
            "_apply",
            "_on_output",
        }
