"""The source checker: one Python-``ast`` engine for every source rule.

Run as ``python -m repro.analysis.lint src/`` (exit 1 on violations, 2 on
an unknown ``--rules`` code; ``--json FILE`` also writes the findings as a
JSON report). Each file is parsed once; the R rules below and the
lock-discipline X rules (X001–X006, :mod:`repro.analysis.concurrency`,
described in :data:`repro.analysis.diagnostics.CODES`) run over the same
trees and report one :class:`~repro.analysis.diagnostics.Violation` type.
The R rules protect the invariants the whole getnext accounting model
depends on — things no runtime assertion can catch because they only
break when someone writes new code:

* **R001** — no subclass writes ``tuples_emitted`` outside
  ``Operator.next_batch()``. That single counter *is* the ``K_i`` of the
  paper's model; an operator that bumps or resets it corrupts ``C(Q)``
  silently — the ``+= len(batch)`` belongs to ``next_batch`` alone, never
  to a subclass's ``_next_batch`` drain.
  Coordinator packages (``repro/server/`` and ``repro/parallel/``) are
  held to a stricter form: coordinator threads observe, they never drive —
  so calls to ``tick()`` / ``tick_n()`` and writes to the bus ``count``
  are also illegal there (worker fragments advance counters only through
  the sanctioned ``PlanCursor.fetch`` pull loop). The only mutation path
  for estimator/counter state is ``Operator.next_batch`` under the
  engine's pull loop.
* **R002** — no ``random`` / ``numpy.random`` use outside
  ``repro/common/rng.py``. All randomness flows through the seeded factory
  so runs are reproducible.
* **R003** — no bare ``except:``. Swallowing ``KeyboardInterrupt`` inside
  an operator loop hangs long queries, the exact scenario progress
  indicators exist for.
* **R004** — every concrete ``Operator`` subclass declares (or inherits
  from a concrete ancestor) ``op_name``, ``children`` and
  ``output_schema``. The analyzer, EXPLAIN and pipeline decomposition all
  dispatch on these.
* **R005** — no per-tuple estimator call (``on_build`` / ``on_probe`` /
  ``observe``) inside a loop of a coordinator package's delta-merge
  (``fold``) or merge-step (``apply``) method: the coordinator combines
  workers' sufficient statistics, it never replays tuples.
* **R006** — no bare ``threading.Lock()`` / ``threading.RLock()``
  construction inside ``executor/`` or ``core/``. Those layers synchronize
  through the TickBus-carried sampling lock; a private lock there either
  duplicates it (two locks "protecting" the same estimator state protect
  nothing) or silently partitions the protocol the concurrency analyzer
  (:mod:`repro.analysis.concurrency`) checks. ``TickBus`` itself — the
  class that *creates* the sampling lock — is exempt. Sanctioned
  exceptions carry ``# noqa: R006`` with a justification comment.
* **R007** — no ``json.dumps`` / ``encode`` / ``write_message`` call inside
  a loop of a ``repro.server`` module. The fan-out pipeline serializes each
  snapshot exactly once at publish time (``server/wire.py``) and watch
  loops ship pre-encoded frames via ``protocol.write_frame``; an encode in
  a per-subscriber/per-watcher loop silently reinstates the
  O(watchers × steps) serialization wall. ``protocol.py`` and ``wire.py``
  (the sanctioned encode sites) are exempt; accepted O(1)-per-iteration
  sites carry ``# noqa: R007``.
* **R008** — no raw file I/O (``open`` / ``Path.read_text`` /
  ``write_text`` / ``read_bytes`` / ``write_bytes``) inside
  ``repro/robust/`` outside ``store.py``. The run-history file is
  append-only JSONL with torn-tail recovery and fault-site probes;
  ``HistoryStore`` is the single sanctioned access path — a side-channel
  read skips the crash tolerance, a side-channel write corrupts the
  record framing the recovery logic depends on.

A violation on a line carrying ``# noqa: <code>`` (matching code, R or X)
is suppressed — the accepted sites stay visible and justified in the source.

The engine parses every file once and builds one cross-module class table
(:class:`~repro.analysis.concurrency.ClassTable`) so inheritance resolves
through intermediate bases (``SampleScan -> SeqScan``,
``HashAggregate -> _AggregateBase``), then applies the rules: R004 reads
its members and abstract methods, the X rules its lock attributes, guards
and aliases.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

from repro.analysis.concurrency import ClassTable, _last_name, lock_violations
from repro.analysis.diagnostics import CODES, Violation

__all__ = ["CHECKS", "RULES", "Violation", "lint_paths", "main"]

_NOQA_RE = re.compile(r"#\s*noqa:\s*([A-Z0-9, ]+)")


def _noqa_codes(line: str) -> set[str]:
    """Codes suppressed by a ``# noqa: R001[, R002]`` comment on ``line``."""
    match = _NOQA_RE.search(line)
    if not match:
        return set()
    return {c.strip() for c in match.group(1).split(",") if c.strip()}

#: Rule id -> one-line description (kept in sync with docs/ANALYSIS.md).
RULES: dict[str, str] = {
    "R001": "tuples_emitted may only be written by Operator.next_batch(); "
    "coordinator modules (server, parallel) may not drive tick()/tick_n() or "
    "write bus counters",
    "R002": "random/numpy.random are forbidden outside repro.common.rng",
    "R003": "bare `except:` clauses are forbidden",
    "R004": "Operator subclasses must declare op_name, children and output_schema",
    "R005": "per-tuple estimator calls (on_build/on_probe/observe) are forbidden "
    "inside coordinator merge loops (fold/apply); fold sufficient statistics",
    "R006": "bare threading.Lock()/RLock() construction is forbidden in executor/ "
    "and core/; use the TickBus-carried sampling lock",
    "R007": "json.dumps/encode/write_message calls are forbidden inside loops in "
    "repro.server (except protocol.py/wire.py): snapshots are serialized once "
    "at publish time and fanned out as pre-encoded frames",
    "R008": "raw file I/O (open/read_text/write_text/read_bytes/write_bytes) is "
    "forbidden in repro.robust outside store.py; all history-file access goes "
    "through HistoryStore",
}

#: Every code the checker reports -> one-line description: the R rules and
#: the lock-discipline X rules, whose descriptions live in the registry.
CHECKS: dict[str, str] = {
    **RULES,
    **{code: text for code, (_severity, text) in CODES.items() if code.startswith("X")},
}

#: The one module allowed to touch raw RNG constructors.
_RNG_MODULE_SUFFIX = ("repro", "common", "rng.py")

#: Members R004 requires on concrete Operator subclasses.
_REQUIRED_OPERATOR_MEMBERS = ("op_name", "children", "output_schema")


def _collect_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


# -- rules ---------------------------------------------------------------------


#: Packages whose threads observe execution rather than drive it (stricter
#: R001 rules): the server, and the parallel coordinator — whose fragments
#: advance counters only through the sanctioned ``PlanCursor.fetch`` API,
#: never by ticking the bus directly.
_COORDINATOR_PKGS = (("repro", "server"), ("repro", "parallel"))

#: Methods coordinator code may never call: they advance the work counters.
_COUNTER_DRIVERS = ("tick", "tick_n")


def _in_coordinator_package(path: str) -> bool:
    parts = Path(path).parts
    return any(
        parts[i : i + len(pkg)] == pkg
        for pkg in _COORDINATOR_PKGS
        for i in range(len(parts) - len(pkg) + 1)
    )


def _rule_r001(tree: ast.Module, path: str) -> list[Violation]:
    """Writes to ``tuples_emitted`` outside
    ``Operator.next_batch``/``__init__``; in coordinator
    packages (``repro.server``, ``repro.parallel``) additionally any
    ``tick()``/``tick_n()`` call or write to a ``count`` attribute (the
    TickBus counter)."""
    violations: list[Violation] = []
    in_coordinator = _in_coordinator_package(path)

    def is_counter_write(stmt: ast.stmt) -> int | None:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr == "tuples_emitted":
                return stmt.lineno
        return None

    def visit(node: ast.AST, class_name: str | None, func_name: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, class_name, child.name)
                continue
            line = is_counter_write(child) if isinstance(child, ast.stmt) else None
            allowed = class_name == "Operator" and func_name in (
                "next_batch",
                "__init__",
            )
            if line is not None and not allowed:
                where = f"{class_name}.{func_name}" if class_name else func_name or "module"
                violations.append(
                    Violation(
                        "R001",
                        path,
                        line,
                        f"write to tuples_emitted in {where}; the K_i counter "
                        "is maintained solely by Operator.next_batch()",
                    )
                )
            if isinstance(child, ast.stmt):
                visit(child, class_name, func_name)

    visit(tree, None, None)
    if in_coordinator:
        violations.extend(_r001_coordinator_checks(tree, path))
    return violations


def _r001_coordinator_checks(tree: ast.Module, path: str) -> list[Violation]:
    """Coordinator threads observe execution, they never drive it: no
    ``tick``/``tick_n`` calls, no writes to a ``count`` attribute."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _COUNTER_DRIVERS
        ):
            violations.append(
                Violation(
                    "R001",
                    path,
                    node.lineno,
                    f"call to {node.func.attr}() in coordinator code; only "
                    "Operator.next_batch() under the engine's pull "
                    "loop may advance the work counters",
                )
            )
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr == "count":
                violations.append(
                    Violation(
                        "R001",
                        path,
                        node.lineno,
                        "write to a .count attribute in coordinator code; "
                        "the TickBus counter belongs to the execution side",
                    )
                )
    return violations


def _rule_r002(tree: ast.Module, path: str) -> list[Violation]:
    """``random`` / ``numpy.random`` outside the seeded-rng module."""
    if Path(path).parts[-3:] == _RNG_MODULE_SUFFIX:
        return []
    violations: list[Violation] = []

    def flag(line: int, what: str) -> None:
        violations.append(
            Violation(
                "R002",
                path,
                line,
                f"{what}; use repro.common.rng.make_rng for deterministic seeds",
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "random" or alias.name.startswith("numpy.random"):
                    flag(node.lineno, f"import of {alias.name!r}")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "random" or module.startswith("numpy.random"):
                flag(node.lineno, f"import from {module!r}")
            elif module == "numpy" and any(a.name == "random" for a in node.names):
                flag(node.lineno, "import of numpy.random")
        elif isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("numpy", "np"):
                flag(node.lineno, "use of numpy.random")
    return violations


def _rule_r003(tree: ast.Module, path: str) -> list[Violation]:
    """Bare ``except:`` clauses."""
    return [
        Violation(
            "R003",
            path,
            node.lineno,
            "bare except swallows KeyboardInterrupt/SystemExit; name the "
            "exception types",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is None
    ]


#: Per-tuple estimator methods banned from coordinator merge loops.
_PER_ROW_HOOKS = ("observe", "on_build", "on_probe")

#: The delta-merge path (``fold``) and coordinator merge steps (``apply``)
#: must combine sufficient statistics, never replay tuples.
_R005_COORDINATOR_METHODS = ("apply", "fold")


def _rule_r005(tree: ast.Module, path: str) -> list[Violation]:
    """Per-tuple estimator calls inside the delta-merge/merge-step loops of
    coordinator packages."""
    if not _in_coordinator_package(path):
        return []
    flagged: set[tuple[int, str]] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in _R005_COORDINATOR_METHODS:
            continue
        for loop in ast.walk(node):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for call in ast.walk(loop):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _PER_ROW_HOOKS
                ):
                    flagged.add((call.lineno, call.func.attr))
    return [
        Violation(
            "R005",
            path,
            line,
            f"per-tuple {attr}() call in a coordinator merge loop; "
            "coordinator merges must fold sufficient statistics",
        )
        for line, attr in sorted(flagged)
    ]


#: Packages where private lock construction is banned (R006).
_R006_PKGS = (("repro", "executor"), ("repro", "core"))

#: The class that owns the sampling lock may, of course, construct it.
_R006_EXEMPT_CLASSES = ("TickBus",)


def _in_package(path: str, pkg: tuple[str, ...]) -> bool:
    parts = Path(path).parts
    return any(
        parts[i : i + len(pkg)] == pkg for i in range(len(parts) - len(pkg) + 1)
    )


def _rule_r006(tree: ast.Module, path: str) -> list[Violation]:
    """Bare ``threading.Lock()``/``RLock()`` in executor/ or core/."""
    if not any(_in_package(path, pkg) for pkg in _R006_PKGS):
        return []
    violations: list[Violation] = []

    def visit(node: ast.AST, class_name: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and _last_name(child.func) in ("Lock", "RLock")
                and class_name not in _R006_EXEMPT_CLASSES
            ):
                violations.append(
                    Violation(
                        "R006",
                        path,
                        child.lineno,
                        f"bare threading.{_last_name(child.func)}() constructed in "
                        f"{Path(path).parts[-2]}/; executor and core state is "
                        "guarded by the TickBus-carried sampling lock — share "
                        "bus.lock (or justify with a `# noqa: R006` comment)",
                    )
                )
            visit(child, class_name)

    visit(tree, None)
    return violations


#: The package R007 polices: the serving layer's fan-out loops.
_R007_PKG = ("repro", "server")

#: Modules allowed to encode: the wire protocol itself and the
#: serialize-once frame encoder (the single publish-time encode point).
_R007_EXEMPT_FILES = ("protocol.py", "wire.py")

#: Call names that serialize or write a wire line; inside a loop these
#: re-encode per iteration — the exact O(watchers x steps) wall the
#: serialize-once pipeline removes.
_R007_ENCODE_CALLS = ("dumps", "encode", "write_message")


def _rule_r007(tree: ast.Module, path: str) -> list[Violation]:
    """Serialization calls inside loops of ``repro.server`` modules.

    Per-subscriber/per-watcher loops must ship pre-encoded frames
    (``protocol.write_frame``); any ``json.dumps``/``encode``/
    ``write_message`` lexically inside a ``for``/``while`` there
    re-serializes per iteration. Helper functions *defined* outside a
    loop and merely called from it are fine — the rule polices where
    the encode happens, not the call graph. Accepted O(1)-per-iteration
    sites (one request line per reconnect, one error reply per request)
    carry ``# noqa: R007``.
    """
    if not _in_package(path, _R007_PKG):
        return []
    if Path(path).name in _R007_EXEMPT_FILES:
        return []
    flagged: set[tuple[int, str]] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Call)
                and _last_name(child.func) in _R007_ENCODE_CALLS
            ):
                flagged.add((child.lineno, _last_name(child.func) or ""))
    return [
        Violation(
            "R007",
            path,
            line,
            f"{name}() inside a repro.server loop re-serializes per "
            "iteration; encode once at publish time and fan out "
            "pre-encoded frames (protocol.write_frame)",
        )
        for line, name in sorted(flagged)
    ]


#: The package R008 polices: everything around the run-history store.
_R008_PKG = ("repro", "robust")

#: The single module allowed to open/read/write the history file.
_R008_EXEMPT_FILES = ("store.py",)

#: Call names that reach the filesystem directly.
_R008_IO_CALLS = ("open", "read_text", "write_text", "read_bytes", "write_bytes")


def _rule_r008(tree: ast.Module, path: str) -> list[Violation]:
    """Raw file I/O in ``repro.robust`` outside the sanctioned store module.

    The history file's crash tolerance (torn-tail skip, flush-per-record
    framing) and its fault-injection probes live in
    :class:`~repro.robust.store.HistoryStore`; any other module opening the
    file bypasses both. The rule is lexical and deliberately blunt — the
    robust package has no business doing file I/O of any kind elsewhere.
    """
    if not _in_package(path, _R008_PKG):
        return []
    if Path(path).name in _R008_EXEMPT_FILES:
        return []
    flagged: set[tuple[int, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _last_name(node.func) in _R008_IO_CALLS:
            flagged.add((node.lineno, _last_name(node.func) or ""))
    return [
        Violation(
            "R008",
            path,
            line,
            f"{name}() in repro.robust outside store.py; history-file access "
            "must go through HistoryStore (torn-tail recovery + fault probes)",
        )
        for line, name in sorted(flagged)
    ]


def _rule_r004(table: ClassTable) -> list[Violation]:
    """Concrete Operator subclasses missing required declarations."""
    classes = table.classes

    def is_operator_subclass(name: str, seen: frozenset[str] = frozenset()) -> bool:
        """True for strict descendants of ``Operator`` (not Operator itself)."""
        info = classes.get(name)
        if info is None or name in seen:
            return False
        return any(
            base == "Operator" or is_operator_subclass(base, seen | {name})
            for base in info.bases
        )

    def effective_members(name: str, seen: frozenset[str] = frozenset()) -> set[str]:
        """Members declared on ``name`` or inherited from table ancestors,
        excluding ``Operator`` itself (its defaults/abstracts don't count as
        subclass declarations)."""
        info = classes.get(name)
        if name == "Operator" or name in seen or info is None:
            return set()
        members = set(info.members)
        for base in info.bases:
            members |= effective_members(base, seen | {name})
        return members

    violations: list[Violation] = []
    for name, info in sorted(classes.items()):
        if not is_operator_subclass(name):
            continue
        # Abstract intermediates opt out: leading-underscore names or any
        # @abstractmethod of their own.
        if name.startswith("_") or info.has_abstract_methods:
            continue
        members = effective_members(name)
        missing = [m for m in _REQUIRED_OPERATOR_MEMBERS if m not in members]
        if missing:
            violations.append(
                Violation(
                    "R004",
                    info.path,
                    info.line,
                    f"Operator subclass {name} does not declare or inherit "
                    f"{', '.join(missing)}",
                )
            )
    return violations


# -- engine --------------------------------------------------------------------


def lint_paths(paths: list[str], rules: set[str] | None = None) -> list[Violation]:
    """Check every ``.py`` file under ``paths`` against the selected R and X
    codes (default: all of :data:`CHECKS`); returns sorted violations."""
    selected = set(CHECKS) if rules is None else rules
    unknown = selected - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown lint rules: {sorted(unknown)}")
    modules: list[tuple[ast.Module, str]] = []
    lines_by_path: dict[str, list[str]] = {}
    violations: list[Violation] = []
    for file in _collect_files(paths):
        text = file.read_text()
        lines_by_path[str(file)] = text.splitlines()
        try:
            tree = ast.parse(text, filename=str(file))
        except SyntaxError as exc:
            violations.append(
                Violation("R003", str(file), exc.lineno or 0, f"syntax error: {exc.msg}")
            )
            continue
        modules.append((tree, str(file)))
    per_module = {
        "R001": _rule_r001,
        "R002": _rule_r002,
        "R003": _rule_r003,
        "R005": _rule_r005,
        "R006": _rule_r006,
        "R007": _rule_r007,
        "R008": _rule_r008,
    }
    for tree, path in modules:
        for rule_id, rule in per_module.items():
            if rule_id in selected:
                violations.extend(rule(tree, path))
    table = ClassTable(modules)
    if "R004" in selected:
        violations.extend(_rule_r004(table))
    if any(code.startswith("X") for code in selected):
        violations.extend(v for v in lock_violations(table) if v.code in selected)
    kept = []
    for violation in violations:
        lines = lines_by_path.get(violation.path, [])
        if 0 < violation.line <= len(lines):
            if violation.code in _noqa_codes(lines[violation.line - 1]):
                continue
        kept.append(violation)
    return sorted(kept, key=lambda v: (v.path, v.line, v.code))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Source checker: codebase invariants (R001-R008) and lock "
        "discipline (X001-X006)",
        epilog="\n".join(f"{code}  {text}" for code, text in CHECKS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("paths", nargs="+", help="files or directories to check")
    parser.add_argument(
        "--rules",
        help="comma-separated subset of codes to check (default: all)",
    )
    parser.add_argument("--json", metavar="FILE", help="also write a JSON report")
    args = parser.parse_args(argv)
    rules = set(args.rules.split(",")) if args.rules else None
    try:
        violations = lint_paths(args.paths, rules)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json is not None:
        report = {"findings": [asdict(v) for v in violations], "count": len(violations)}
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
