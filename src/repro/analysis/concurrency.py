"""Lock-discipline rules (X-codes) of the source checker.

:mod:`repro.analysis.lint` runs them over the trees it has parsed
(``python -m repro.analysis.lint src/``); this module holds the lock model
and the rules. The server subsystem made the progress framework concurrent,
and its correctness rests on a locking protocol — every read/write of
estimator and session state happens under the TickBus-carried sampling
RLock or the owning component's private lock. A slightly-wrong estimator
is worse than a crashed one (nothing alerts you), so this pass turns the
protocol from folklore into a static guarantee.

The analyzer consumes the annotation model of :mod:`repro.common.locks`
(``guarded_by``/``holds_lock``/``acquires`` decorators; ``_guarded_by_``,
``_write_guarded_by_`` and ``_critical_locks_`` class registries), reads
the checker's one class table over every analyzed file
(:class:`ClassTable`: inheritance, lock-attribute aliases such as
``ProgressMonitor._lock = bus.lock``, and attribute/local types inferred
from constructor calls and parameter annotations; R004 reads the same
table's members), then runs an intraprocedural held-lock analysis over each
method:

========  =====================================================================
X001      read/write of a guarded attribute without the guarding lock held
X002      ``guarded_by`` method called without the lock provably held
X003      lock acquired outside ``with`` without an immediate try/finally
          release (an exception path leaks the lock)
X004      inconsistent lock-acquisition order — a cycle in the acquisition
          graph means two threads can deadlock
X005      blocking call (``time.sleep``, socket ops, condition waits,
          session stepping, timeout-taking queue gets) while holding a
          *critical* lock (the TickBus sampling lock)
X006      guarded mutable state escaping its lock: returned bare, or handed
          to another thread (``Thread(...)`` / ``submit(...)``)
========  =====================================================================

Lock identity is canonicalized per *class* — every ``TickBus`` instance's
``lock`` maps to the one node ``TickBus.lock`` — which conflates instances
but matches how the discipline is written (each plan has exactly one bus,
and the protocol is identical across plans). Aliases are chased, so
``ProgressMonitor._lock``, ``QuerySession.bus.lock`` and
``PlanCursor.bus.lock`` all canonicalize to ``TickBus.lock`` and the
acquisition-order graph sees one lock, not four.

Deliberate limits (documented, not accidental): the analysis is
intraprocedural — cross-function lock flow is expressed through the
annotations, which is the point: the annotation *is* the contract. Nested
functions and lambdas are skipped (they run at an unknown time under
unknown locks); ``__init__`` is exempt from X001/X006 because construction
is single-threaded by definition.

Suppression is the checker's: a finding on a line carrying
``# noqa: X00x`` is dropped — accepted findings stay visible and justified
at the use site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Violation

__all__ = ["ClassTable", "lock_violations"]

#: Decorator attribute names, as written at the decoration site.
_DECOS = {"guarded_by": "guarded", "holds_lock": "holds", "acquires": "acquires"}

#: Class-body registries the analyzer reads.
_GUARD_REGISTRY = "_guarded_by_"
_WRITE_GUARD_REGISTRY = "_write_guarded_by_"
_CRITICAL_REGISTRY = "_critical_locks_"

#: Constructors that create a lock-like object (Condition is lock-like:
#: it wraps an RLock and is entered the same way).
_LOCK_CTORS = {"Lock", "RLock", "Condition"}

#: Method calls that mutate a container in place — a write for guard purposes.
_MUTATORS = {
    "append",
    "appendleft",
    "extend",
    "extendleft",
    "insert",
    "remove",
    "pop",
    "popleft",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "rotate",
    "sort",
    "reverse",
}

#: Dotted call names that block unconditionally.
_BLOCKING_DOTTED = {"time.sleep", "socket.create_connection"}

#: Attribute call names that block. ``wait``/``wait_for`` are exempt when
#: invoked on a lock that is itself held (a Condition wait *releases* it);
#: ``join`` is exempt on string constants (``", ".join``); ``take`` is a
#: subscription waiting for a publish; ``get``/``put`` only count when
#: passed a ``timeout=`` keyword (queues — a plain ``dict.get`` never takes
#: one).
_BLOCKING_ATTRS = {
    "sleep",
    "wait",
    "wait_for",
    "join",
    "recv",
    "recv_into",
    "sendall",
    "accept",
    "connect",
    "select",
    "step",
    "serve_forever",
    "take",
}
_BLOCKING_WITH_TIMEOUT = {"get", "put"}


# -- class model ---------------------------------------------------------------


@dataclass
class _MethodInfo:
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    guarded: tuple[str, ...] = ()
    holds: tuple[str, ...] = ()
    acquires: tuple[str, ...] = ()


@dataclass
class _ClassInfo:
    name: str
    path: str
    line: int
    bases: list[str] = field(default_factory=list)
    guarded: dict[str, str] = field(default_factory=dict)
    write_guarded: dict[str, str] = field(default_factory=dict)
    locks: set[str] = field(default_factory=set)
    critical: set[str] = field(default_factory=set)
    aliases: dict[str, tuple[str, str]] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    mutable: set[str] = field(default_factory=set)
    methods: dict[str, _MethodInfo] = field(default_factory=dict)
    # What R004 reads: every ``def`` and class-level ``Name`` target, and
    # whether the class has an ``@abstractmethod`` of its own.
    members: set[str] = field(default_factory=set)
    has_abstract_methods: bool = False


def _last_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted_name(node: ast.expr) -> str | None:
    """``time.sleep`` -> "time.sleep"; None for non-Name roots."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_class(node: ast.expr | None) -> str | None:
    """Best-effort class name out of an annotation (``TickBus | None``,
    ``Optional["ProgressMonitor"]``, ``threading.RLock`` ...)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return None if node.id == "None" else node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_class(node.left) or _annotation_class(node.right)
    if isinstance(node, ast.Subscript):
        return _annotation_class(node.slice)
    return None


def _str_dict(node: ast.expr) -> dict[str, str]:
    out: dict[str, str] = {}
    if isinstance(node, ast.Dict):
        for k, v in zip(node.keys, node.values):
            if (
                isinstance(k, ast.Constant)
                and isinstance(k.value, str)
                and isinstance(v, ast.Constant)
                and isinstance(v.value, str)
            ):
                out[k.value] = v.value
    return out


def _str_seq(node: ast.expr) -> tuple[str, ...]:
    if isinstance(node, (ast.Tuple, ast.List)):
        return tuple(
            e.value
            for e in node.elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        )
    return ()


def _deco_specs(deco: ast.expr) -> tuple[str, tuple[str, ...]] | None:
    """``@guarded_by("_lock")`` -> ("guarded", ("_lock",))."""
    if not isinstance(deco, ast.Call):
        return None
    name = _last_name(deco.func)
    kind = _DECOS.get(name or "")
    if kind is None:
        return None
    specs = tuple(
        a.value for a in deco.args if isinstance(a, ast.Constant) and isinstance(a.value, str)
    )
    return (kind, specs) if specs else None


def _is_lock_ctor(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and _last_name(node.func) in _LOCK_CTORS


#: Constructor names producing a mutable container (for X006 purposes).
_MUTABLE_CTORS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "OrderedDict",
    "Counter",
}


def _is_mutable_value(node: ast.expr) -> bool:
    """Conservative: does this ``__init__`` value build a mutable container?

    X006 (state escaping its lock) only makes sense for fields that hold
    aliasable mutable objects — handing out an int or a frozen snapshot is
    value publication, not state escape.
    """
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    return isinstance(node, ast.Call) and _last_name(node.func) in _MUTABLE_CTORS


def _collect_method(stmt: ast.FunctionDef | ast.AsyncFunctionDef) -> _MethodInfo:
    m = _MethodInfo(name=stmt.name, node=stmt)
    for deco in stmt.decorator_list:
        parsed = _deco_specs(deco)
        if parsed is not None:
            kind, specs = parsed
            setattr(m, kind, getattr(m, kind) + specs)
    return m


def _collect_class(node: ast.ClassDef, path: str, class_names: set[str]) -> _ClassInfo:
    info = _ClassInfo(name=node.name, path=path, line=node.lineno)
    for base in node.bases:
        name = _last_name(base)
        if name is not None:
            info.bases.append(name)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.members.add(stmt.name)
            if any(_last_name(d) == "abstractmethod" for d in stmt.decorator_list):
                info.has_abstract_methods = True
            info.methods[stmt.name] = _collect_method(stmt)
            if stmt.name == "__init__":
                _collect_init(stmt, info, class_names)
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            info.members.update(names)
            if len(stmt.targets) == 1 and names:
                _collect_registry(names[0], stmt.value, info)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.members.add(stmt.target.id)
            if stmt.value is not None:
                _collect_registry(stmt.target.id, stmt.value, info)
            cls = _annotation_class(stmt.annotation)
            if cls in _LOCK_CTORS:
                info.locks.add(stmt.target.id)
            elif cls in class_names:
                info.attr_types.setdefault(stmt.target.id, cls)
    return info


def _collect_registry(name: str, value: ast.expr, info: _ClassInfo) -> None:
    if name == _GUARD_REGISTRY:
        info.guarded.update(_str_dict(value))
    elif name == _WRITE_GUARD_REGISTRY:
        info.write_guarded.update(_str_dict(value))
    elif name == _CRITICAL_REGISTRY:
        info.critical.update(_str_seq(value))


def _collect_init(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, info: _ClassInfo, class_names: set[str]
) -> None:
    """Infer lock attrs, aliases and attribute types from ``__init__``."""
    param_types: dict[str, str] = {}
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        cls = _annotation_class(arg.annotation)
        if cls is not None:
            param_types[arg.arg] = cls
    for stmt in ast.walk(fn):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        annotation: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value, annotation = [stmt.target], stmt.value, stmt.annotation
        else:
            continue
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            if value is None:
                continue
            is_lock = _annotation_class(annotation) in _LOCK_CTORS or any(
                _is_lock_ctor(sub) for sub in ast.walk(value)
            )
            if is_lock:
                info.locks.add(attr)
            if _is_mutable_value(value):
                info.mutable.add(attr)
            # Alias: any `param.x[.y]` sub-expression whose root parameter
            # has a class annotation (`bus.lock` with bus: TickBus | None).
            for sub in ast.walk(value):
                if isinstance(sub, ast.Attribute):
                    root = sub
                    parts = [root.attr]
                    while isinstance(root.value, ast.Attribute):
                        root = root.value
                        parts.append(root.attr)
                    if isinstance(root.value, ast.Name) and root.value.id in param_types:
                        info.aliases.setdefault(
                            attr,
                            (param_types[root.value.id], ".".join(reversed(parts))),
                        )
                        break
            # Attribute type: constructor call or annotated parameter.
            inferred: str | None = None
            for sub in ast.walk(value):
                if isinstance(sub, ast.Call):
                    name = _last_name(sub.func)
                    if name in class_names:
                        inferred = name
                        break
                if isinstance(sub, ast.Name) and sub.id in param_types:
                    if param_types[sub.id] in class_names:
                        inferred = param_types[sub.id]
                        break
            cls = _annotation_class(annotation)
            if cls in class_names:
                inferred = cls
            if inferred is not None:
                info.attr_types.setdefault(attr, inferred)


# -- registry with inheritance -------------------------------------------------


@dataclass
class _ClassView:
    """A class merged with its registry ancestors."""

    name: str
    guarded: dict[str, str]
    write_guarded: dict[str, str]
    locks: set[str]
    critical: set[str]
    aliases: dict[str, tuple[str, str]]
    attr_types: dict[str, str]
    mutable: set[str]
    methods: dict[str, _MethodInfo]


class ClassTable:
    """Every class of the checked ``(tree, path)`` modules, collected once
    and read by both R004 and the X rules; the first definition of a name
    wins."""

    def __init__(self, modules: list[tuple[ast.Module, str]]) -> None:
        self.classes: dict[str, _ClassInfo] = {}
        self.module_scopes: list[_ClassInfo] = []
        self._views: dict[str, _ClassView] = {}
        class_names = {
            node.name
            for tree, _path in modules
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        for tree, path in modules:
            self._add_module(tree, path, class_names)

    def _add_module(self, tree: ast.Module, path: str, class_names: set[str]) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self.classes.setdefault(node.name, _collect_class(node, path, class_names))
        # Module-level functions are analyzed too, as a lock-less pseudo
        # scope: guarded-field checks fire through typed locals such as
        # ``monitor = ProgressMonitor(...)``.
        scope = _ClassInfo(name="<module>", path=path, line=1)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.methods[node.name] = _collect_method(node)
        if scope.methods:
            self.module_scopes.append(scope)

    def view(self, name: str, _seen: frozenset[str] = frozenset()) -> _ClassView:
        cached = self._views.get(name)
        if cached is not None:
            return cached
        info = self.classes.get(name)
        view = _ClassView(name, {}, {}, set(), set(), {}, {}, set(), {})
        if info is not None and name not in _seen:
            for base in info.bases:
                bview = self.view(base, _seen | {name})
                view.guarded.update(bview.guarded)
                view.write_guarded.update(bview.write_guarded)
                view.locks |= bview.locks
                view.critical |= bview.critical
                view.aliases.update(bview.aliases)
                view.attr_types.update(bview.attr_types)
                view.mutable |= bview.mutable
                view.methods.update(bview.methods)
            view.guarded.update(info.guarded)
            view.write_guarded.update(info.write_guarded)
            view.locks |= info.locks
            view.critical |= info.critical
            view.aliases.update(info.aliases)
            view.attr_types.update(info.attr_types)
            view.mutable |= info.mutable
            view.methods.update(info.methods)
        if not _seen:
            self._views[name] = view
        return view

    def canonical(
        self, cls_name: str, spec: str, _seen: frozenset[tuple[str, str]] = frozenset()
    ) -> str | None:
        """Resolve a lock spec relative to a class into a canonical id.

        ``("ProgressMonitor", "_lock")`` chases the ``= bus.lock`` alias to
        ``"TickBus.lock"``; ``("QuerySession", "bus.lock")`` descends the
        ``bus: TickBus`` attribute type to the same id.
        """
        if (cls_name, spec) in _seen:
            return None
        seen = _seen | {(cls_name, spec)}
        view = self.view(cls_name)
        alias = view.aliases.get(spec)
        if alias is not None:
            resolved = self.canonical(alias[0], alias[1], seen)
            if resolved is not None:
                return resolved
        if spec in view.locks:
            return f"{cls_name}.{spec}"
        parts = spec.split(".")
        if len(parts) > 1 and parts[0] in view.attr_types:
            return self.canonical(view.attr_types[parts[0]], ".".join(parts[1:]), seen)
        return None

    def critical_ids(self) -> set[str]:
        out: set[str] = set()
        for info in self.classes.values():
            for spec in self.view(info.name).critical:
                canon = self.canonical(info.name, spec)
                if canon is not None:
                    out.add(canon)
        return out


# -- the per-method analysis ---------------------------------------------------


class _Analysis:
    """Shared state for one :func:`lock_violations` run."""

    def __init__(self, registry: ClassTable):
        self.registry = registry
        self.critical = registry.critical_ids()
        self.findings: list[Violation] = []
        # Acquisition-order edges: (held, acquired) -> first (path, line, symbol).
        self.edges: dict[tuple[str, str], tuple[str, int, str]] = {}

    def add(self, code: str, path: str, line: int, symbol: str, message: str) -> None:
        self.findings.append(Violation(code, path, line, message, symbol))

    def edge(self, held: str, acquired: str, path: str, line: int, symbol: str) -> None:
        if held != acquired:
            self.edges.setdefault((held, acquired), (path, line, symbol))

    def report_order_cycles(self) -> None:
        """X004: cycles in the acquisition graph are potential deadlocks."""
        graph: dict[str, set[str]] = {}
        for a, b in self.edges:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        seen_cycles: set[frozenset[str]] = set()
        state: dict[str, int] = {}
        stack: list[str] = []

        def dfs(node: str) -> None:
            state[node] = 1
            stack.append(node)
            for nxt in sorted(graph[node]):
                if state.get(nxt, 0) == 0:
                    dfs(nxt)
                elif state.get(nxt) == 1:
                    cycle = stack[stack.index(nxt):] + [nxt]
                    key = frozenset(cycle)
                    if key in seen_cycles:
                        continue
                    seen_cycles.add(key)
                    sites = []
                    for x, y in zip(cycle, cycle[1:]):
                        path, line, symbol = self.edges[(x, y)]
                        sites.append(f"{x} -> {y} at {path}:{line} ({symbol})")
                    path, line, symbol = self.edges[(cycle[0], cycle[1])]
                    self.add(
                        "X004",
                        path,
                        line,
                        symbol,
                        "inconsistent lock-acquisition order (deadlock cycle): "
                        + "; ".join(sites),
                    )
            stack.pop()
            state[node] = 2

        for node in sorted(graph):
            if state.get(node, 0) == 0:
                dfs(node)


class _MethodChecker:
    def __init__(
        self,
        analysis: _Analysis,
        cls: _ClassInfo,
        view: _ClassView,
        method: _MethodInfo,
        path: str,
    ):
        self.a = analysis
        self.cls = cls
        self.view = view
        self.method = method
        self.path = path
        self.symbol = (
            method.name if cls.name == "<module>" else f"{cls.name}.{method.name}"
        )
        self.is_init = method.name == "__init__"
        self.locals: dict[str, str] = {}  # local name -> "self.x[.y]" path
        self.local_types: dict[str, str] = {}  # local name -> class name
        self.reported: set[tuple[str, int, str]] = set()

    # -- resolution -------------------------------------------------------------

    def _expr_path(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            if node.id == "self":
                return "self"
            return self.locals.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._expr_path(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    def _lock_id(self, node: ast.expr) -> str | None:
        path = self._expr_path(node)
        if path is not None and path.startswith("self."):
            return self.a.registry.canonical(self.cls.name, path[len("self."):])
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
        ):
            # `with bus.lock:` where `bus` is a typed local (`bus =
            # TickBus(...)`) — resolve through the local's class, which is
            # how module-level functions honour class lock protocols
            # without a `self` to root at.
            cls = self.local_types.get(node.value.id)
            if cls is not None:
                return self.a.registry.canonical(cls, node.attr)
        if isinstance(node, ast.Name):
            cls = self.local_types.get(node.id)
            if cls is not None:
                return None  # a lock object held in a typed local: unknown spec
        return None

    def _receiver_class(self, node: ast.expr) -> str | None:
        """Class of a call/field receiver, via attr types or typed locals."""
        if isinstance(node, ast.Name):
            if node.id == "self":
                return self.cls.name
            cls = self.local_types.get(node.id)
            if cls is not None:
                return cls
            path = self.locals.get(node.id)
            if path is not None:
                return self._class_of_path(path)
            return None
        if isinstance(node, ast.Attribute):
            path = self._expr_path(node)
            if path is not None:
                return self._class_of_path(path)
        return None

    def _class_of_path(self, path: str) -> str | None:
        parts = path.split(".")
        if parts[0] != "self":
            return None
        cls = self.cls.name
        for part in parts[1:]:
            view = self.a.registry.view(cls)
            nxt = view.attr_types.get(part)
            if nxt is None:
                return None
            cls = nxt
        return cls

    def _canon_spec(self, owner_cls: str, spec: str) -> str | None:
        return self.a.registry.canonical(owner_cls, spec)

    # -- entry ------------------------------------------------------------------

    def run(self) -> None:
        entry: set[str] = set()
        for spec in (*self.method.guarded, *self.method.holds):
            canon = self._canon_spec(self.cls.name, spec)
            if canon is not None:
                entry.add(canon)
        self._walk(self.method.node.body, frozenset(entry))

    # -- statement walk ---------------------------------------------------------

    def _walk(self, stmts: list[ast.stmt], held: frozenset[str]) -> None:
        cur = held
        i = 0
        while i < len(stmts):
            stmt = stmts[i]
            consumed = 1
            if isinstance(stmt, ast.With):
                cur_with = cur
                locks: list[str] = []
                for item in stmt.items:
                    self._visit_expr(item.context_expr, cur_with)
                    lock = self._lock_id(item.context_expr)
                    if lock is not None:
                        for h in cur_with:
                            self.a.edge(h, lock, self.path, stmt.lineno, self.symbol)
                        locks.append(lock)
                        cur_with = cur_with | {lock}
                self._walk(stmt.body, cur_with)
            elif isinstance(stmt, ast.Expr) and self._acquire_lock(stmt.value) is not None:
                lock = self._acquire_lock(stmt.value)
                assert lock is not None
                for h in cur:
                    self.a.edge(h, lock, self.path, stmt.lineno, self.symbol)
                nxt = stmts[i + 1] if i + 1 < len(stmts) else None
                if isinstance(nxt, ast.Try) and self._releases_in_finally(nxt, lock):
                    self._walk(nxt.body, cur | {lock})
                    for handler in nxt.handlers:
                        self._walk(handler.body, cur | {lock})
                    self._walk(nxt.orelse, cur | {lock})
                    self._walk(nxt.finalbody, cur | {lock})
                    consumed = 2
                else:
                    self.report(
                        "X003",
                        stmt.lineno,
                        f"lock {lock} acquired outside `with` and not released in an "
                        "immediately following try/finally; an exception path leaks it",
                    )
                    cur = cur | {lock}  # assume held; avoids cascading X001 noise
            elif isinstance(stmt, ast.Expr) and self._release_lock(stmt.value) is not None:
                lock = self._release_lock(stmt.value)
                cur = frozenset(x for x in cur if x != lock)
                self._visit_expr(stmt.value, cur)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                pass  # nested defs run at an unknown time under unknown locks
            elif isinstance(stmt, ast.Assign):
                self._record_alias(stmt)
                for target in stmt.targets:
                    self._visit_expr(target, cur)
                self._visit_expr(stmt.value, cur)
            elif isinstance(stmt, ast.AugAssign):
                self._visit_expr(stmt.target, cur)
                self._visit_expr(stmt.value, cur)
            elif isinstance(stmt, ast.AnnAssign):
                self._visit_expr(stmt.target, cur)
                if stmt.value is not None:
                    self._record_alias(stmt)
                    self._visit_expr(stmt.value, cur)
            elif isinstance(stmt, (ast.Return, ast.Expr)):
                value = stmt.value
                if value is not None:
                    if isinstance(stmt, ast.Return):
                        self._check_escape_value(value)
                    self._visit_expr(value, cur)
            elif isinstance(stmt, ast.If):
                self._visit_expr(stmt.test, cur)
                self._walk(stmt.body, cur)
                self._walk(stmt.orelse, cur)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._visit_expr(stmt.iter, cur)
                self._visit_expr(stmt.target, cur)
                self._walk(stmt.body, cur)
                self._walk(stmt.orelse, cur)
            elif isinstance(stmt, ast.While):
                self._visit_expr(stmt.test, cur)
                self._walk(stmt.body, cur)
                self._walk(stmt.orelse, cur)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, cur)
                for handler in stmt.handlers:
                    self._walk(handler.body, cur)
                self._walk(stmt.orelse, cur)
                self._walk(stmt.finalbody, cur)
            elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
                for sub in ast.iter_child_nodes(stmt):
                    if isinstance(sub, ast.expr):
                        self._visit_expr(sub, cur)
            else:
                for sub in ast.iter_child_nodes(stmt):
                    if isinstance(sub, ast.expr):
                        self._visit_expr(sub, cur)
            i += consumed

    def _acquire_lock(self, node: ast.expr) -> str | None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            return self._lock_id(node.func.value)
        return None

    def _release_lock(self, node: ast.expr) -> str | None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"
        ):
            return self._lock_id(node.func.value)
        return None

    def _releases_in_finally(self, node: ast.Try, lock: str) -> bool:
        for stmt in node.finalbody:
            if isinstance(stmt, ast.Expr):
                released = self._release_lock(stmt.value)
                if released == lock:
                    return True
        return False

    def _record_alias(self, stmt: ast.Assign | ast.AnnAssign) -> None:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        name = targets[0].id
        value = stmt.value
        if value is None:
            return
        path = self._expr_path(value)
        if path is not None:
            self.locals[name] = path
            return
        if isinstance(value, ast.Call):
            cls = _last_name(value.func)
            if cls is not None and cls in self.a.registry.classes:
                self.local_types[name] = cls

    # -- expression checks ------------------------------------------------------

    def _visit_expr(self, node: ast.expr, held: frozenset[str]) -> None:
        for sub in self._walk_expr(node):
            if isinstance(sub, ast.Attribute):
                self._check_field_access(sub, held)
            elif isinstance(sub, ast.Call):
                self._check_call(sub, held)

    def _walk_expr(self, node: ast.expr):
        """ast.walk that does not descend into lambdas (deferred execution)."""
        stack: list[ast.AST] = [node]
        while stack:
            cur = stack.pop()
            if isinstance(cur, ast.Lambda):
                continue
            yield cur
            stack.extend(ast.iter_child_nodes(cur))

    def _field_guard(self, node: ast.Attribute) -> tuple[str, str, bool] | None:
        """``(owner class, guarding lock id, write_only)`` for a guarded field."""
        owner = self._receiver_class(node.value)
        if owner is None:
            return None
        view = self.a.registry.view(owner)
        spec = view.guarded.get(node.attr)
        write_only = False
        if spec is None:
            spec = view.write_guarded.get(node.attr)
            write_only = True
        if spec is None:
            return None
        canon = self._canon_spec(owner, spec)
        if canon is None:
            return None
        return owner, canon, write_only

    def _check_field_access(self, node: ast.Attribute, held: frozenset[str]) -> None:
        if self.is_init:
            return
        guard = self._field_guard(node)
        if guard is None:
            return
        owner, lock, write_only = guard
        is_write = isinstance(node.ctx, (ast.Store, ast.Del))
        if write_only and not is_write:
            return
        if lock in held:
            return
        kind = "write to" if is_write else "read of"
        self.report(
            "X001",
            node.lineno,
            f"unguarded {kind} {owner}.{node.attr} (guarded by {lock}); "
            f"held here: {self._held_str(held)}",
        )

    def _check_call(self, node: ast.Call, held: frozenset[str]) -> None:
        func = node.func
        self._check_thread_escape(node)
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        self._check_blocking(node, attr, func, held)
        # In-place mutation of a guarded container is a write.
        if attr in _MUTATORS and isinstance(func.value, ast.Attribute):
            guard = self._field_guard(func.value)
            if guard is not None and not self.is_init:
                owner, lock, _write_only = guard
                if lock not in held:
                    self.report(
                        "X001",
                        node.lineno,
                        f"unguarded mutation {owner}.{func.value.attr}.{attr}() "
                        f"(guarded by {lock}); held here: {self._held_str(held)}",
                    )
        # Resolve the callee for X002 and acquisition-order edges.
        owner = self._receiver_class(func.value)
        if owner is None:
            return
        view = self.a.registry.view(owner)
        callee = view.methods.get(attr)
        if callee is None:
            return
        for spec in callee.guarded:
            canon = self._canon_spec(owner, spec)
            if canon is not None and canon not in held and not self.is_init:
                self.report(
                    "X002",
                    node.lineno,
                    f"call to {owner}.{attr}() requires {canon} held "
                    f"(guarded_by); held here: {self._held_str(held)}",
                )
        for spec in callee.acquires:
            canon = self._canon_spec(owner, spec)
            if canon is not None:
                for h in held:
                    self.a.edge(h, canon, self.path, node.lineno, self.symbol)

    def _check_blocking(
        self, node: ast.Call, attr: str, func: ast.Attribute, held: frozenset[str]
    ) -> None:
        hot = held & self.a.critical
        if not hot:
            return
        dotted = _dotted_name(func)
        blocking = dotted in _BLOCKING_DOTTED or attr in _BLOCKING_ATTRS
        if attr in _BLOCKING_WITH_TIMEOUT:
            blocking = any(kw.arg == "timeout" for kw in node.keywords)
        if not blocking:
            return
        if attr in ("wait", "wait_for"):
            receiver = self._lock_id(func.value)
            if receiver is not None and receiver in held:
                return  # Condition.wait releases the lock it waits on
        if attr == "join" and isinstance(func.value, ast.Constant):
            return  # str.join
        self.report(
            "X005",
            node.lineno,
            f"blocking call {dotted or attr}() while holding critical lock(s) "
            f"{', '.join(sorted(hot))}; every concurrent snapshot stalls behind it",
        )

    def _guarded_mutable(self, node: ast.expr) -> tuple[str, str] | None:
        """``(owner, lock)`` when ``node`` is a guarded *mutable* field."""
        if not isinstance(node, ast.Attribute):
            return None
        guard = self._field_guard(node)
        if guard is None:
            return None
        owner, lock, _write_only = guard
        if node.attr not in self.a.registry.view(owner).mutable:
            return None  # publishing an immutable value is not an escape
        return owner, lock

    def _check_escape_value(self, value: ast.expr) -> None:
        """X006: returning a guarded mutable object bare lets it escape its lock."""
        if self.is_init:
            return
        guard = self._guarded_mutable(value)
        if guard is None:
            return
        owner, lock = guard
        self.report(
            "X006",
            value.lineno,
            f"guarded state {owner}.{value.attr} (guarded by {lock}) returned "
            "bare; the caller uses it after the lock is released — return a copy",
        )

    def _check_thread_escape(self, node: ast.Call) -> None:
        """X006: guarded state handed to another thread.

        Only bare attribute arguments (or tuple/list elements of one) are
        flagged — a derived value such as ``len(self._threads)`` inside an
        f-string is a copy, not an escaping alias.
        """
        if self.is_init:
            return
        name = _last_name(node.func)
        if name not in ("Thread", "submit", "start_new_thread", "run_in_executor"):
            return
        candidates: list[ast.expr] = []
        for arg in [*node.args, *[kw.value for kw in node.keywords]]:
            if isinstance(arg, (ast.Tuple, ast.List)):
                candidates.extend(arg.elts)
            else:
                candidates.append(arg)
        for candidate in candidates:
            guard = self._guarded_mutable(candidate)
            if guard is not None:
                owner, lock = guard
                self.report(
                    "X006",
                    node.lineno,
                    f"guarded state {owner}.{candidate.attr} (guarded by {lock}) "
                    f"passed to {name}(); it escapes to another thread "
                    "without its guard",
                )

    def _held_str(self, held: frozenset[str]) -> str:
        return ", ".join(sorted(held)) if held else "no locks"

    def report(self, code: str, line: int, message: str) -> None:
        key = (code, line, message)
        if key in self.reported:
            return
        self.reported.add(key)
        self.a.add(code, self.path, line, self.symbol, message)


# -- entry point ---------------------------------------------------------------


def lock_violations(table: ClassTable) -> list[Violation]:
    """Every X finding over the checked modules' class table, unsorted and
    before ``# noqa`` filtering (the checker does both)."""
    analysis = _Analysis(table)
    for info in [*table.classes.values(), *table.module_scopes]:
        view = table.view(info.name)
        for method in info.methods.values():
            _MethodChecker(analysis, info, view, method, info.path).run()
    analysis.report_order_cycles()
    return analysis.findings
