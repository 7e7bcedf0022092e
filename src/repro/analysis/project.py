"""Project-level analysis model: per-module summaries and the call graph.

One pass over every module produces a :class:`ModuleSummary` — imports,
classes, and a :class:`FunctionSummary` per (possibly nested) function
recording the facts the RPR7xx rules need: calls out, raise sites, lock
acquisitions (and the locks *held* at each call), blocking primitives
(the RPR401 set), and entropy sources (the RPR101 set).  Summaries are
plain data: they serialize to JSON for the incremental cache and can be
built in worker processes.

:class:`ProjectGraph` stitches summaries into a conservative call graph
with two edge tiers:

* **resolved** edges — the callee is identified with high confidence
  (bare names in scope, ``self.``/``cls.`` methods with base-class
  lookup, imported symbols incl. function-level imports and package
  re-exports, ``module.attr`` chains, ``ClassName(...)`` constructors,
  nested defs).  RPR701/702/704 traverse only these, so a name
  collision cannot manufacture a false chain.
* **loose** edges — an attribute call whose receiver is unknown maps to
  *every* project function of that name.  Only RPR703's reachability
  uses them, where over-approximation is the safe direction.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import AnalysisError
from repro.analysis.base import dotted_name
from repro.analysis.checkers.async_hygiene import (
    BLOCKING_DOTTED,
    BLOCKING_METHODS,
    BLOCKING_NAMES,
    backend_blocking_label,
)
from repro.analysis.checkers.determinism import NONDETERMINISTIC_CALLS

__all__ = [
    "CallSite",
    "ClassSummary",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectGraph",
    "build_project_graph",
    "module_name_for",
    "summarize_module",
]

#: Marker separating a function scope from definitions nested inside it,
#: mirroring ``__qualname__`` (``SessionManager._execute.<locals>.blocking``).
LOCALS = "<locals>"

#: Attribute names treated as lock objects when acquired via ``with`` or
#: ``.acquire()`` (matches the RPR3xx lexical conventions).
_LOCK_ATTRS = frozenset({"lock", "_lock"})

_MAX_REEXPORT_DEPTH = 8


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``raw`` is the full dotted chain when the callee is a pure
    Name/Attribute chain (``"self._count"``, ``"os.fsync"``), else
    ``""``.  ``attr`` is the final attribute or bare name — the key
    for loose matching.
    """

    raw: str
    attr: str
    line: int
    col: int

    def to_dict(self) -> dict[str, Any]:
        return {"raw": self.raw, "attr": self.attr, "line": self.line, "col": self.col}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CallSite":
        return cls(
            raw=str(data["raw"]),
            attr=str(data["attr"]),
            line=int(data["line"]),
            col=int(data["col"]),
        )


@dataclass
class FunctionSummary:
    """Facts about one function definition, recorded once at parse time."""

    name: str
    #: Scope path within the module, e.g. ``SessionManager.push`` or
    #: ``_locked_session.<locals>._Ctx.__enter__``.
    local: str
    module: str
    relpath: str
    #: Local path of the immediately enclosing class, or ``None``.
    cls: str | None
    is_async: bool
    lineno: int
    calls: list[CallSite] = field(default_factory=list)
    #: ``(primitive label, line)`` — RPR401-set blocking calls made here.
    blocking: list[tuple[str, int]] = field(default_factory=list)
    #: ``(dotted chain, line)`` — RPR101-set entropy calls made here.
    entropy: list[tuple[str, int]] = field(default_factory=list)
    #: ``(raw exception name, line)`` for each ``raise`` statement.
    raises: list[tuple[str, int]] = field(default_factory=list)
    #: ``(canonical lock key, line)`` for each acquisition.
    acquires: list[tuple[str, int]] = field(default_factory=list)
    #: ``(held key, acquired key, line)`` — intra-function order edges.
    lock_edges: list[tuple[str, str, int]] = field(default_factory=list)
    #: ``(held keys, call site)`` — calls made while holding locks.
    calls_under_locks: list[tuple[tuple[str, ...], CallSite]] = field(
        default_factory=list
    )

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.local}"

    @property
    def is_nested(self) -> bool:
        return LOCALS in self.local

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "local": self.local,
            "module": self.module,
            "relpath": self.relpath,
            "cls": self.cls,
            "is_async": self.is_async,
            "lineno": self.lineno,
            "calls": [c.to_dict() for c in self.calls],
            "blocking": [list(b) for b in self.blocking],
            "entropy": [list(e) for e in self.entropy],
            "raises": [list(r) for r in self.raises],
            "acquires": [list(a) for a in self.acquires],
            "lock_edges": [list(e) for e in self.lock_edges],
            "calls_under_locks": [
                [list(held), site.to_dict()] for held, site in self.calls_under_locks
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FunctionSummary":
        return cls(
            name=str(data["name"]),
            local=str(data["local"]),
            module=str(data["module"]),
            relpath=str(data["relpath"]),
            cls=data["cls"],
            is_async=bool(data["is_async"]),
            lineno=int(data["lineno"]),
            calls=[CallSite.from_dict(c) for c in data["calls"]],
            blocking=[(str(b[0]), int(b[1])) for b in data["blocking"]],
            entropy=[(str(e[0]), int(e[1])) for e in data["entropy"]],
            raises=[(str(r[0]), int(r[1])) for r in data["raises"]],
            acquires=[(str(a[0]), int(a[1])) for a in data["acquires"]],
            lock_edges=[
                (str(e[0]), str(e[1]), int(e[2])) for e in data["lock_edges"]
            ],
            calls_under_locks=[
                (tuple(str(k) for k in held), CallSite.from_dict(site))
                for held, site in data["calls_under_locks"]
            ],
        )


@dataclass
class ClassSummary:
    """One class definition: raw base names and direct methods."""

    name: str
    #: Scope path within the module (may be nested under a function).
    local: str
    module: str
    lineno: int
    #: Raw dotted base-class names, unresolved (``"ServiceError"``,
    #: ``"repro.errors.ReproError"``).
    bases: list[str] = field(default_factory=list)
    #: ``method name -> function local path``.
    methods: dict[str, str] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.local}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "local": self.local,
            "module": self.module,
            "lineno": self.lineno,
            "bases": list(self.bases),
            "methods": dict(self.methods),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ClassSummary":
        return cls(
            name=str(data["name"]),
            local=str(data["local"]),
            module=str(data["module"]),
            lineno=int(data["lineno"]),
            bases=[str(b) for b in data["bases"]],
            methods={str(k): str(v) for k, v in data["methods"].items()},
        )


@dataclass
class ModuleSummary:
    """Everything the project graph needs from one source file."""

    relpath: str
    module: str
    is_package: bool
    #: ``local binding -> absolute dotted target`` over *all* imports,
    #: including function-level ones.
    imports: dict[str, str] = field(default_factory=dict)
    #: Function summaries keyed by local scope path.
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: Class summaries keyed by local scope path.
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    #: Parsed module-level ``ERROR_CODES`` entries:
    #: ``(raw class name, wire code, line)``.
    error_codes: list[tuple[str, str, int]] = field(default_factory=list)
    #: Parsed module-level ``OPS`` entries (wire op names).
    ops: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "relpath": self.relpath,
            "module": self.module,
            "is_package": self.is_package,
            "imports": dict(self.imports),
            "functions": {k: v.to_dict() for k, v in self.functions.items()},
            "classes": {k: v.to_dict() for k, v in self.classes.items()},
            "error_codes": [list(e) for e in self.error_codes],
            "ops": list(self.ops),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ModuleSummary":
        return cls(
            relpath=str(data["relpath"]),
            module=str(data["module"]),
            is_package=bool(data["is_package"]),
            imports={str(k): str(v) for k, v in data["imports"].items()},
            functions={
                str(k): FunctionSummary.from_dict(v)
                for k, v in data["functions"].items()
            },
            classes={
                str(k): ClassSummary.from_dict(v) for k, v in data["classes"].items()
            },
            error_codes=[
                (str(e[0]), str(e[1]), int(e[2])) for e in data["error_codes"]
            ],
            ops=[str(o) for o in data["ops"]],
        )


def module_name_for(relpath: str) -> str:
    """Dotted module name for a posix relpath (``a/b/__init__.py`` -> ``a.b``)."""
    parts = relpath.split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(p for p in parts if p) or relpath


# ----------------------------------------------------------------------
# Summarizer
# ----------------------------------------------------------------------
def _call_parts(func: ast.expr) -> tuple[str, str]:
    """``(raw dotted chain or "", final attr / bare name or "")``."""
    raw = dotted_name(func) or ""
    if isinstance(func, ast.Attribute):
        return raw, func.attr
    if isinstance(func, ast.Name):
        return raw, func.id
    return raw, ""


def _blocking_label(raw: str, attr: str, func: ast.expr) -> str | None:
    """The RPR401 blocking-primitive label for a call, or ``None``."""
    if raw and raw in BLOCKING_DOTTED:
        return raw
    if isinstance(func, ast.Name) and func.id in BLOCKING_NAMES:
        return func.id
    if isinstance(func, ast.Attribute) and attr in BLOCKING_METHODS:
        return f".{attr}"
    return backend_blocking_label(func)


def _canonical_lock_key(dotted: str, cls_name: str | None) -> str:
    """Stable identity for a lock expression across functions.

    ``self``/``cls`` receivers canonicalize to the enclosing class name;
    longer chains keep their last two components so ``ms.lock`` and
    ``ctx.ms.lock`` unify.  Distinct spellings of the *same* runtime
    lock may still map to distinct keys — that only loses edges, never
    invents them.
    """
    parts = dotted.split(".")
    if parts and parts[0] in ("self", "cls") and cls_name is not None:
        parts[0] = cls_name
    if len(parts) > 2:
        parts = parts[-2:]
    return ".".join(parts)


def _lock_key_for_expr(node: ast.expr, cls_name: str | None) -> str | None:
    """Lock key when ``node`` denotes a lock object, else ``None``."""
    if isinstance(node, ast.Attribute) and node.attr in _LOCK_ATTRS:
        dotted = dotted_name(node)
        if dotted is not None:
            return _canonical_lock_key(dotted, cls_name)
    if isinstance(node, ast.Name) and node.id in _LOCK_ATTRS:
        return node.id
    return None


def _exception_name(node: ast.expr | None) -> str | None:
    """Raw dotted name of the exception in a ``raise`` statement."""
    if node is None:
        return None  # bare re-raise: propagates an existing exception
    if isinstance(node, ast.Call):
        return dotted_name(node.func)
    return dotted_name(node)


class _ModuleSummarizer:
    """Single-pass scope-aware walk producing a :class:`ModuleSummary`."""

    def __init__(self, relpath: str, tree: ast.Module) -> None:
        self.summary = ModuleSummary(
            relpath=relpath,
            module=module_name_for(relpath),
            is_package=relpath.endswith("__init__.py"),
        )
        self._module_parts = self.summary.module.split(".")
        self._tree = tree

    def run(self) -> ModuleSummary:
        self._collect_specials(self._tree)
        self._walk_scope(self._tree.body, scope=(), cls=None)
        return self.summary

    # ------------------------------------------------------------------
    # Module-level specials: imports handled everywhere; ERROR_CODES/OPS
    # only at top level.
    # ------------------------------------------------------------------
    def _collect_specials(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if target.id == "ERROR_CODES":
                self._parse_error_codes(value)
            elif target.id == "OPS":
                self._parse_ops(value)

    def _parse_error_codes(self, value: ast.expr) -> None:
        if not isinstance(value, (ast.Tuple, ast.List)):
            return
        for elt in value.elts:
            if not isinstance(elt, (ast.Tuple, ast.List)) or len(elt.elts) != 2:
                continue
            name = dotted_name(elt.elts[0])
            code = elt.elts[1]
            if name is None or not isinstance(code, ast.Constant):
                continue
            if not isinstance(code.value, str):
                continue
            self.summary.error_codes.append((name, code.value, elt.lineno))

    def _parse_ops(self, value: ast.expr) -> None:
        if not isinstance(value, (ast.Tuple, ast.List)):
            return
        for elt in value.elts:
            # A bare name, or a table row whose first argument is one.
            if isinstance(elt, ast.Call) and elt.args:
                elt = elt.args[0]
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                self.summary.ops.append(elt.value)

    # ------------------------------------------------------------------
    # Imports (any scope)
    # ------------------------------------------------------------------
    def _record_import(self, stmt: ast.Import | ast.ImportFrom) -> None:
        imports = self.summary.imports
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``; dotted *usage* is
                    # resolved absolutely, so record the root.
                    root = alias.name.split(".")[0]
                    imports.setdefault(root, root)
            return
        base = self._import_base(stmt.level)
        mod = stmt.module or ""
        prefix = ".".join(p for p in (base, mod) if p)
        for alias in stmt.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            imports[bound] = f"{prefix}.{alias.name}" if prefix else alias.name

    def _import_base(self, level: int) -> str:
        if level == 0:
            return ""
        parts = list(self._module_parts)
        if not self.summary.is_package:
            parts = parts[:-1]
        drop = level - 1
        if drop:
            parts = parts[:-drop] if drop < len(parts) else []
        return ".".join(parts)

    # ------------------------------------------------------------------
    # Scope walk
    # ------------------------------------------------------------------
    def _walk_scope(
        self, body: list[ast.stmt], scope: tuple[str, ...], cls: str | None
    ) -> None:
        """Process definitions at one scope level (module or class body)."""
        for stmt in body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._record_import(stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._summarize_function(stmt, scope, cls)
            elif isinstance(stmt, ast.ClassDef):
                self._summarize_class(stmt, scope)
            elif isinstance(stmt, (ast.If, ast.Try)):
                # Guarded/conditional definitions (TYPE_CHECKING, fallbacks).
                self._walk_scope(_inner_bodies(stmt), scope, cls)

    def _summarize_class(self, node: ast.ClassDef, scope: tuple[str, ...]) -> None:
        local = ".".join(scope + (node.name,))
        summary = ClassSummary(
            name=node.name,
            local=local,
            module=self.summary.module,
            lineno=node.lineno,
        )
        for base in node.bases:
            raw = dotted_name(base)
            if raw is not None:
                summary.bases.append(raw)
        self.summary.classes[local] = summary
        self._walk_scope(node.body, scope + (node.name,), cls=local)

    def _summarize_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        scope: tuple[str, ...],
        cls: str | None,
    ) -> None:
        local = ".".join(scope + (node.name,))
        fn = FunctionSummary(
            name=node.name,
            local=local,
            module=self.summary.module,
            relpath=self.summary.relpath,
            cls=cls,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            lineno=node.lineno,
        )
        self.summary.functions[local] = fn
        if cls is not None:
            owner = self.summary.classes.get(cls)
            if owner is not None and LOCALS not in local[len(cls) + 1 :]:
                owner.methods.setdefault(node.name, local)
        walker = _FunctionBodyWalker(self, fn, scope + (node.name, LOCALS))
        walker.walk(node.body)

    # Called by the body walker for nested definitions.
    def nested_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        scope: tuple[str, ...],
    ) -> None:
        self._summarize_function(node, scope, cls=None)

    def nested_class(self, node: ast.ClassDef, scope: tuple[str, ...]) -> None:
        self._summarize_class(node, scope)


def _inner_bodies(stmt: ast.If | ast.Try) -> list[ast.stmt]:
    bodies: list[ast.stmt] = list(stmt.body)
    if isinstance(stmt, ast.Try):
        for handler in stmt.handlers:
            bodies.extend(handler.body)
        bodies.extend(stmt.finalbody)
    bodies.extend(stmt.orelse)
    return bodies


class _FunctionBodyWalker:
    """Statement-granular walk of one function body.

    Tracks the set of lock keys held at each point (``with`` scopes plus
    sticky ``.acquire()`` calls, which conservatively hold to the end of
    the function) and hands nested definitions back to the summarizer.
    """

    def __init__(
        self,
        summarizer: _ModuleSummarizer,
        fn: FunctionSummary,
        nested_scope: tuple[str, ...],
    ) -> None:
        self._summarizer = summarizer
        self._fn = fn
        self._nested_scope = nested_scope
        self._sticky: list[str] = []

    def walk(self, body: list[ast.stmt]) -> None:
        self._walk_block(body, held=())

    # ------------------------------------------------------------------
    def _walk_block(self, body: list[ast.stmt], held: tuple[str, ...]) -> None:
        for stmt in body:
            self._walk_stmt(stmt, held)

    def _walk_stmt(self, stmt: ast.stmt, held: tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._summarizer.nested_function(stmt, self._nested_scope)
            return
        if isinstance(stmt, ast.ClassDef):
            self._summarizer.nested_class(stmt, self._nested_scope)
            return
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._summarizer._record_import(stmt)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._walk_with(stmt, held)
            return
        if isinstance(stmt, ast.Raise):
            name = _exception_name(stmt.exc)
            if name is not None:
                self._fn.raises.append((name, stmt.lineno))
            for expr in ast.iter_child_nodes(stmt):
                self._collect_exprs(expr, held)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._collect_exprs(stmt.test, held)
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._collect_exprs(stmt.iter, held)
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._walk_block(stmt.body, held)
            for handler in stmt.handlers:
                self._walk_block(handler.body, held)
            self._walk_block(stmt.orelse, held)
            self._walk_block(stmt.finalbody, held)
            return
        # Leaf statements: expressions, assignments, returns, asserts...
        self._collect_exprs(stmt, held)

    def _walk_with(self, stmt: ast.With | ast.AsyncWith, held: tuple[str, ...]) -> None:
        acquired: list[str] = []
        for item in stmt.items:
            key = _lock_key_for_expr(item.context_expr, self._class_name())
            if key is not None:
                self._record_acquire(key, item.context_expr.lineno, held)
                acquired.append(key)
            else:
                self._collect_exprs(item.context_expr, held)
        self._walk_block(stmt.body, held + tuple(acquired))

    # ------------------------------------------------------------------
    def _class_name(self) -> str | None:
        if self._fn.cls is None:
            return None
        return self._fn.cls.rsplit(".", 1)[-1]

    def _record_acquire(
        self, key: str, line: int, held: tuple[str, ...]
    ) -> None:
        self._fn.acquires.append((key, line))
        for prior in list(held) + self._sticky:
            if prior != key:
                self._fn.lock_edges.append((prior, key, line))

    def _held_now(self, held: tuple[str, ...]) -> tuple[str, ...]:
        seen: list[str] = []
        for key in list(held) + self._sticky:
            if key not in seen:
                seen.append(key)
        return tuple(seen)

    def _collect_exprs(self, node: ast.AST, held: tuple[str, ...]) -> None:
        """Record calls (and lock facts) in an expression subtree,
        skipping nested definitions and lambdas."""
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            self._walk_stmt(node, held)
            return
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Call):
            self._record_call(node, held)
        for child in ast.iter_child_nodes(node):
            self._collect_exprs(child, held)

    def _record_call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        raw, attr = _call_parts(node.func)
        site = CallSite(raw=raw, attr=attr, line=node.lineno, col=node.col_offset + 1)
        self._fn.calls.append(site)
        held_now = self._held_now(held)
        if held_now:
            self._fn.calls_under_locks.append((held_now, site))
        label = _blocking_label(raw, attr, node.func)
        if label is not None:
            self._fn.blocking.append((label, node.lineno))
        if raw and raw in NONDETERMINISTIC_CALLS:
            self._fn.entropy.append((raw, node.lineno))
        # ``X.acquire(...)`` — sticky acquisition to end of function.
        if (
            attr == "acquire"
            and isinstance(node.func, ast.Attribute)
        ):
            key = _lock_key_for_expr(node.func.value, self._class_name())
            if key is not None:
                self._record_acquire(key, node.lineno, held_now)
                if key not in self._sticky:
                    self._sticky.append(key)


def summarize_module(relpath: str, tree: ast.Module) -> ModuleSummary:
    """Summarize one parsed module for the project graph."""
    return _ModuleSummarizer(relpath, tree).run()


# ----------------------------------------------------------------------
# Project graph
# ----------------------------------------------------------------------
class ProjectGraph:
    """Call graph + class hierarchy over a set of module summaries."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self.classes: dict[str, ClassSummary] = {}
        for ms in summaries:
            if ms.module in self.modules:
                raise AnalysisError(
                    f"duplicate module name {ms.module!r} "
                    f"({self.modules[ms.module].relpath} vs {ms.relpath})"
                )
            self.modules[ms.module] = ms
            for fn in ms.functions.values():
                self.functions[fn.qualname] = fn
            for cs in ms.classes.values():
                self.classes[cs.qualname] = cs
        # Loose index: function name -> every qualname bearing it.
        index: dict[str, list[str]] = {}
        for qual in sorted(self.functions):
            index.setdefault(self.functions[qual].name, []).append(qual)
        self._loose_index: dict[str, tuple[str, ...]] = {
            name: tuple(quals) for name, quals in index.items()
        }
        self._resolve_cache: dict[tuple[str, str], str | None] = {}
        self._ancestor_cache: dict[str, tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Function iteration (always deterministic)
    # ------------------------------------------------------------------
    def sorted_functions(self) -> list[FunctionSummary]:
        return [self.functions[q] for q in sorted(self.functions)]

    # ------------------------------------------------------------------
    # Call resolution — resolved tier
    # ------------------------------------------------------------------
    def resolve_call(self, fn: FunctionSummary, site: CallSite) -> str | None:
        """Qualname of the callee when identifiable with confidence."""
        if not site.raw:
            return None
        key = (fn.qualname, site.raw)
        if key not in self._resolve_cache:
            self._resolve_cache[key] = self._resolve_raw(fn, site.raw)
        return self._resolve_cache[key]

    def _resolve_raw(self, fn: FunctionSummary, raw: str) -> str | None:
        ms = self.modules.get(fn.module)
        if ms is None:
            return None
        parts = raw.split(".")
        if parts[0] in ("self", "cls"):
            if len(parts) == 2 and fn.cls is not None:
                return self._method_in_class(f"{fn.module}.{fn.cls}", parts[1])
            return None
        if len(parts) == 1:
            return self._resolve_bare(ms, fn, parts[0])
        # Absolute dotted usage (``repro.service.protocol.request``).
        resolved = self._resolve_absolute(raw)
        if resolved is not None:
            return resolved
        # Imported binding as chain root (``protocol.request``, ``np.zeros``).
        target = ms.imports.get(parts[0])
        if target is not None:
            return self._resolve_absolute(".".join([target] + parts[1:]))
        # Local ``ClassName.method`` reference.
        if len(parts) == 2:
            head = self._scoped_class(ms, fn, parts[0])
            if head is not None:
                return self._method_in_class(head, parts[1])
        return None

    def _resolve_bare(
        self, ms: ModuleSummary, fn: FunctionSummary, name: str
    ) -> str | None:
        # Nested defs visible from enclosing scopes, innermost first.
        for scope in self._enclosing_scopes(fn.local):
            candidate = f"{scope}.{LOCALS}.{name}" if scope else name
            if candidate in ms.functions:
                return f"{ms.module}.{candidate}"
        if name in ms.functions:
            return f"{ms.module}.{name}"
        if name in ms.classes:
            return self._method_in_class(f"{ms.module}.{name}", "__init__")
        target = ms.imports.get(name)
        if target is not None:
            return self._resolve_absolute(target)
        return None

    @staticmethod
    def _enclosing_scopes(local: str) -> list[str]:
        """Function scopes enclosing ``local``, innermost first."""
        scopes = [local]
        cursor = local
        while f".{LOCALS}." in cursor:
            cursor = cursor.rsplit(f".{LOCALS}.", 1)[0]
            scopes.append(cursor)
        return scopes

    def _scoped_class(
        self, ms: ModuleSummary, fn: FunctionSummary, name: str
    ) -> str | None:
        """Qualname of class ``name`` visible from ``fn``'s scope."""
        for scope in self._enclosing_scopes(fn.local):
            candidate = f"{scope}.{LOCALS}.{name}" if scope else name
            if candidate in ms.classes:
                return f"{ms.module}.{candidate}"
        if name in ms.classes:
            return f"{ms.module}.{name}"
        target = ms.imports.get(name)
        if target is not None:
            return self._resolve_absolute_class(target)
        return None

    def _resolve_absolute(self, dotted: str, depth: int = 0) -> str | None:
        """Function qualname for an absolute dotted path, following
        package re-exports."""
        if depth > _MAX_REEXPORT_DEPTH:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            ms = self.modules.get(".".join(parts[:cut]))
            if ms is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                name = rest[0]
                if name in ms.functions:
                    return f"{ms.module}.{name}"
                if name in ms.classes:
                    return self._method_in_class(f"{ms.module}.{name}", "__init__")
                target = ms.imports.get(name)
                if target is not None and target != dotted:
                    return self._resolve_absolute(target, depth + 1)
                return None
            if len(rest) == 2:
                cls_name, meth = rest
                if cls_name in ms.classes:
                    return self._method_in_class(f"{ms.module}.{cls_name}", meth)
                target = ms.imports.get(cls_name)
                if target is not None:
                    return self._resolve_absolute(f"{target}.{meth}", depth + 1)
            return None
        return None

    def _resolve_absolute_class(self, dotted: str, depth: int = 0) -> str | None:
        """Class qualname for an absolute dotted path."""
        if depth > _MAX_REEXPORT_DEPTH:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            ms = self.modules.get(".".join(parts[:cut]))
            if ms is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                name = rest[0]
                if name in ms.classes:
                    return f"{ms.module}.{name}"
                target = ms.imports.get(name)
                if target is not None and target != dotted:
                    return self._resolve_absolute_class(target, depth + 1)
            return None
        return None

    def _method_in_class(
        self, class_qual: str, method: str, _seen: frozenset[str] = frozenset()
    ) -> str | None:
        """Method lookup with static MRO walk over project classes."""
        if class_qual in _seen:
            return None
        cs = self.classes.get(class_qual)
        if cs is None:
            return None
        local = cs.methods.get(method)
        if local is not None:
            return f"{cs.module}.{local}"
        seen = _seen | {class_qual}
        for base_raw in cs.bases:
            base_qual = self.resolve_class_in_module(cs.module, base_raw)
            if base_qual is not None:
                found = self._method_in_class(base_qual, method, seen)
                if found is not None:
                    return found
        return None

    # ------------------------------------------------------------------
    # Class resolution / hierarchy (RPR703)
    # ------------------------------------------------------------------
    def resolve_class_in_module(self, module: str, raw: str) -> str | None:
        """Class qualname for a raw dotted name used inside ``module``."""
        ms = self.modules.get(module)
        if ms is None:
            return None
        parts = raw.split(".")
        if len(parts) == 1:
            if parts[0] in ms.classes:
                return f"{ms.module}.{parts[0]}"
            target = ms.imports.get(parts[0])
            if target is not None:
                return self._resolve_absolute_class(target)
            return None
        resolved = self._resolve_absolute_class(raw)
        if resolved is not None:
            return resolved
        target = ms.imports.get(parts[0])
        if target is not None:
            return self._resolve_absolute_class(".".join([target] + parts[1:]))
        return None

    def class_ancestors(self, class_qual: str) -> tuple[str, ...]:
        """``class_qual`` plus every statically resolvable base, sorted."""
        cached = self._ancestor_cache.get(class_qual)
        if cached is not None:
            return cached
        closure: set[str] = set()
        stack = [class_qual]
        while stack:
            current = stack.pop()
            if current in closure:
                continue
            closure.add(current)
            cs = self.classes.get(current)
            if cs is None:
                continue
            for base_raw in cs.bases:
                base_qual = self.resolve_class_in_module(cs.module, base_raw)
                if base_qual is not None and base_qual not in closure:
                    stack.append(base_qual)
        result = tuple(sorted(closure))
        self._ancestor_cache[class_qual] = result
        return result

    # ------------------------------------------------------------------
    # Loose tier (RPR703 reachability only)
    # ------------------------------------------------------------------
    def loose_targets(self, site: CallSite) -> tuple[str, ...]:
        """Every project function whose name matches an attribute call
        with an unknown receiver.  Over-approximate by design."""
        if not site.attr:
            return ()
        if site.raw == site.attr:
            return ()  # bare name: resolved tier or a builtin, not loose
        return self._loose_index.get(site.attr, ())

    # ------------------------------------------------------------------
    # Display helpers
    # ------------------------------------------------------------------
    def display_name(self, qualname: str) -> str:
        """Compact human-readable name (module tail + function path)."""
        fn = self.functions.get(qualname)
        if fn is None:
            return qualname
        mod_tail = fn.module.rsplit(".", 1)[-1]
        return f"{mod_tail}.{fn.local}"


def build_project_graph(summaries: Iterable[ModuleSummary]) -> ProjectGraph:
    """Assemble a :class:`ProjectGraph` from module summaries."""
    return ProjectGraph(summaries)
