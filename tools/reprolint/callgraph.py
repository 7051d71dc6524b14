"""Project-wide symbol table and conservative call graph.

The whole-program half of reprolint starts here: every file under
``config.project_roots`` is parsed (through the engine's content-hash
AST cache) into a :class:`Project` — modules, classes, functions,
per-class attribute types, and lock declarations — and then every
function body is visited once to extract the facts the
interprocedural rules consume:

* **call sites** with their resolved target set,
* **lock acquisitions** (``with self._lock`` over a sanitizer-role
  lock) with the locally-held set at that point,
* **spawn sites** — callables handed to ``threading.Thread``, a
  worker pool (``map_settled``/``map_ordered``/``submit``), or a
  retry policy — which become concurrency roots,
* **guarded-field mutations** and **guarded-field returns/yields**.

Call resolution is deliberately *heuristic but conservative*: a
receiver is typed via ``self``, constructor assignments in
``__init__`` (``self._wal = WriteAheadLog(...)``), parameter / return
annotations, and local constructor assignments; a resolved receiver
dispatches virtually (the static type **plus every subclass
override**), ``super()`` dispatches up the recorded MRO, and property
accesses resolve to their getter.  Calls whose receiver cannot be
typed are recorded as *unresolved* rather than guessed by name —
``--stats`` reports the resolution rate so precision loss is visible
instead of silent.  The known unsoundness (and why it is acceptable
here) is documented in docs/INTERNALS.md §15.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from tools.reprolint.config import LintConfig

__all__ = [
    "CallSite", "ClassInfo", "FunctionInfo", "LockDecl", "MutationSite",
    "Project", "ReturnSite", "build_project",
]

#: receiver pseudo-types for stdlib objects the engine knows block.
QUEUE_TYPE = "<queue.Queue>"
EVENT_TYPE = "<threading.Event>"
THREAD_TYPE = "<threading.Thread>"

#: methods on the pseudo-types above that can block the caller.
BLOCKING_STDLIB_METHODS = {
    (QUEUE_TYPE, "get"): "queue.Queue.get",
    (QUEUE_TYPE, "join"): "queue.Queue.join",
    (EVENT_TYPE, "wait"): "threading.Event.wait",
    (THREAD_TYPE, "join"): "threading.Thread.join",
}

#: FileSystem-style methods that do object-store I/O.
FS_METHODS = {"write", "append", "read", "delete", "listdir", "exists"}

#: calls that copy a container, laundering an escape (rule 4).
COPYING_CALLS = {"list", "dict", "set", "tuple", "frozenset", "sorted", "bytes"}


@dataclass
class LockDecl:
    """One lock attribute declared in a class body or ``__init__``."""

    attr: str            #: attribute name, e.g. ``_lock``
    role: str            #: sanitizer role, or a synthetic ``<Class._attr>``
    reentrant: bool      #: constructed via ``threading.RLock()``
    declared: bool       #: role came from a ``maybe_sanitize(..., "role")``
    lineno: int = 0


@dataclass
class FunctionInfo:
    """One function/method (or nested function / lambda) in the model."""

    qualname: str        #: ``module.Class.method`` / ``module.func``
    module: str
    relpath: str
    name: str
    node: ast.AST
    cls: Optional[str] = None        #: owning class qualname
    is_property: bool = False
    decorators: List[str] = field(default_factory=list)
    lineno: int = 0
    # -- facts filled in by the body pass --
    calls: List["CallSite"] = field(default_factory=list)
    acquisitions: List[Tuple[str, int, int, Tuple[str, ...]]] = field(default_factory=list)
    mutations: List["MutationSite"] = field(default_factory=list)
    returns: List["ReturnSite"] = field(default_factory=list)
    spawns: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass
class CallSite:
    """One resolved (or unresolved) call inside a function body."""

    caller: str
    line: int
    col: int
    targets: Tuple[str, ...]         #: resolved callee qualnames
    held: Tuple[str, ...]            #: roles locally held at the site
    dotted: str = ""                 #: best-effort dotted source form
    blocking: Optional[str] = None   #: blocking classification label
    resolved: bool = True


@dataclass
class MutationSite:
    """A ``self.<field>`` write (assign/augassign/del/mutator call)."""

    fieldname: str
    line: int
    col: int
    held: Tuple[str, ...]


@dataclass
class ReturnSite:
    """A ``return``/``yield`` of a bare ``self.<field>``."""

    fieldname: str
    line: int
    col: int
    kind: str                        #: "return" or "yield"


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)   #: resolved qualnames
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    locks: Dict[str, LockDecl] = field(default_factory=dict)
    guards: Dict[str, str] = field(default_factory=dict)  #: field -> lock attr
    properties: Set[str] = field(default_factory=set)
    immutable_fields: Set[str] = field(default_factory=set)

    def has_concurrency_surface(self) -> bool:
        return bool(self.locks) or bool(self.guards)


class Project:
    """The resolved whole-program model consumed by the rules."""

    def __init__(self, config: LintConfig):
        self.config = config
        self.modules: Dict[str, ast.Module] = {}
        self.module_paths: Dict[str, str] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.imports: Dict[str, Dict[str, str]] = {}       #: module -> local -> dotted
        self.subclasses: Dict[str, Set[str]] = {}
        self.roots: Set[str] = set()                       #: concurrency roots
        self.root_witness: Dict[str, Tuple[str, int]] = {} #: root -> (spawner, line)
        self.skipped_files: List[Tuple[str, str]] = []     #: (relpath, reason)
        self.total_function_defs = 0                       #: raw def count

    # -- lookups ---------------------------------------------------------

    def mro(self, class_qualname: str) -> List[str]:
        """Depth-first base linearization (good enough for this repo)."""
        seen: List[str] = []

        def visit(qn: str) -> None:
            if qn in seen or qn not in self.classes:
                return
            seen.append(qn)
            for base in self.classes[qn].base_names:
                visit(base)

        visit(class_qualname)
        return seen

    def find_method(self, class_qualname: str, name: str) -> Optional[FunctionInfo]:
        for qn in self.mro(class_qualname):
            fn = self.classes[qn].methods.get(name)
            if fn is not None:
                return fn
        return None

    def virtual_targets(self, class_qualname: str, name: str) -> List[FunctionInfo]:
        """Static lookup plus every subclass override (may-dispatch set)."""
        found: Dict[str, FunctionInfo] = {}
        base = self.find_method(class_qualname, name)
        if base is not None:
            found[base.qualname] = base
        for sub in self._all_subclasses(class_qualname):
            override = self.classes[sub].methods.get(name)
            if override is not None:
                found[override.qualname] = override
        return list(found.values())

    def _all_subclasses(self, class_qualname: str) -> Set[str]:
        out: Set[str] = set()
        frontier = [class_qualname]
        while frontier:
            cls = frontier.pop()
            for sub in self.subclasses.get(cls, ()):
                if sub not in out:
                    out.add(sub)
                    frontier.append(sub)
        return out

    def class_locks(self, class_qualname: str) -> Dict[str, LockDecl]:
        """Lock declarations visible on a class, including inherited."""
        locks: Dict[str, LockDecl] = {}
        for qn in reversed(self.mro(class_qualname)):
            locks.update(self.classes[qn].locks)
        return locks

    def class_guards(self, class_qualname: str) -> Dict[str, str]:
        guards: Dict[str, str] = {}
        for qn in reversed(self.mro(class_qualname)):
            guards.update(self.classes[qn].guards)
        for qualified, lock in self.config.guarded_fields.items():
            clsname, _, fieldname = qualified.partition(".")
            for qn in self.mro(class_qualname):
                if self.classes[qn].name == clsname and fieldname:
                    guards[fieldname] = lock
        return guards

    def is_filesystem_class(self, class_qualname: str) -> bool:
        return any(
            self.classes[qn].name == "FileSystem"
            for qn in self.mro(class_qualname)
        )

    def stats(self) -> Dict[str, object]:
        sites = [c for fn in self.functions.values() for c in fn.calls]
        resolved = sum(1 for c in sites if c.resolved)
        return {
            "files": len(self.modules),
            "skipped_files": [list(s) for s in self.skipped_files],
            "classes": len(self.classes),
            "functions_indexed": len(self.functions),
            "functions_found": self.total_function_defs,
            # indexed can exceed found (lambdas are indexed but not
            # counted by the raw def walk) — clamp to 1.0.
            "coverage": min(1.0, (
                len(self.functions) / self.total_function_defs
                if self.total_function_defs else 1.0
            )),
            "call_sites": len(sites),
            "call_sites_resolved": resolved,
            "resolution_rate": resolved / len(sites) if sites else 1.0,
            "concurrency_roots": sorted(self.roots),
            "lock_roles": sorted({
                decl.role
                for cls in self.classes.values()
                for decl in cls.locks.values()
            }),
        }


# ---------------------------------------------------------------------------
# pass 1: symbol table
# ---------------------------------------------------------------------------


def module_name_for(relpath: str, config: LintConfig) -> Optional[str]:
    rel = relpath.replace(os.sep, "/")
    src = config.src_root.rstrip("/") + "/"
    if rel.startswith(src):
        rel = rel[len(src):]
    else:
        # absolute src_root (tests point project_roots at a tmp dir)
        abs_path = os.path.abspath(relpath).replace(os.sep, "/")
        abs_src = os.path.abspath(config.src_root).replace(os.sep, "/").rstrip("/") + "/"
        if abs_path.startswith(abs_src):
            rel = abs_path[len(abs_src):]
    if not rel.endswith(".py"):
        return None
    rel = rel[:-3]
    if rel.endswith("/__init__"):
        rel = rel[: -len("/__init__")]
    return rel.replace("/", ".")


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def _decorator_names(node: ast.AST) -> List[str]:
    names = []
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        parts = _dotted(target)
        if parts:
            names.append(".".join(parts))
    return names


def _dotted(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    if isinstance(node, ast.Call):
        # a().b — keep the trailing attribute chain, mark the call head
        inner = _dotted(node.func)
        return inner + ["()"] if inner else []
    return []


def _lock_ctor(node: ast.AST) -> Optional[bool]:
    """``threading.Lock()`` -> False, ``threading.RLock()`` -> True."""
    if not isinstance(node, ast.Call):
        return None
    parts = _dotted(node.func)
    if parts and parts[-1] in {"Lock", "RLock"}:
        return parts[-1] == "RLock"
    return None


def _maybe_sanitize_decl(node: ast.AST) -> Optional[Tuple[str, bool]]:
    """``maybe_sanitize(<ctor>, "role")`` -> (role, reentrant)."""
    if not (isinstance(node, ast.Call) and _dotted(node.func)[-1:] == ["maybe_sanitize"]):
        return None
    if len(node.args) < 2 or not (
        isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)
    ):
        return None
    reentrant = _lock_ctor(node.args[0])
    return node.args[1].value, bool(reentrant)


_IMMUTABLE_CTORS = {
    "tuple", "frozenset", "int", "float", "str", "bool", "bytes",
    "len", "max", "min", "abs", "round",
}


def _is_immutable_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return not isinstance(node.value, (bytearray,))
    if isinstance(node, ast.Tuple):
        return True
    if isinstance(node, ast.Call):
        parts = _dotted(node.func)
        return bool(parts) and parts[-1] in _IMMUTABLE_CTORS
    if isinstance(node, (ast.UnaryOp, ast.BinOp)):
        return True  # arithmetic produces fresh scalars
    return False


def _scan_class(
    cls: ClassInfo, module: str, relpath: str, project: Project
) -> None:
    """Populate methods, locks, guards, attr types from one class body."""
    mutable_seen: Set[str] = set()
    for stmt in cls.node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{cls.qualname}.{stmt.name}"
            decorators = _decorator_names(stmt)
            fn = FunctionInfo(
                qualname=qualname, module=module, relpath=relpath,
                name=stmt.name, node=stmt, cls=cls.qualname,
                is_property="property" in decorators or any(
                    d.endswith(".setter") for d in decorators
                ),
                decorators=decorators, lineno=stmt.lineno,
            )
            cls.methods[stmt.name] = fn
            if fn.is_property:
                cls.properties.add(stmt.name)
            project.functions[qualname] = fn
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "_GUARDED_BY" \
                        and isinstance(stmt.value, ast.Dict):
                    for key, value in zip(stmt.value.keys, stmt.value.values):
                        if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                            cls.guards[str(key.value)] = str(value.value)

    # attribute types / locks / immutability from every method body
    # (constructor assignments dominate, but flush()-style re-assigns
    # of e.g. ``self._memtable`` carry type information too).
    for fn in cls.methods.values():
        args = fn.node.args
        param_ann: Dict[str, ast.AST] = {
            a.arg: a.annotation
            for a in args.posonlyargs + args.args + args.kwonlyargs
            if a.annotation is not None
        }
        for node in ast.walk(fn.node):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if value is not None:
                    decl = _maybe_sanitize_decl(value)
                    if decl is not None:
                        role, reentrant = decl
                        cls.locks[attr] = LockDecl(
                            attr, role, reentrant, True, node.lineno
                        )
                        continue
                    reentrant = _lock_ctor(value)
                    if reentrant is not None:
                        cls.locks.setdefault(attr, LockDecl(
                            attr, f"<{cls.name}.{attr}>", reentrant, False,
                            node.lineno,
                        ))
                        continue
                    if not _is_immutable_expr(value):
                        mutable_seen.add(attr)
                if isinstance(node, ast.AnnAssign) and node.annotation is not None:
                    cls.attr_types.setdefault(attr, set()).update(
                        _annotation_types(node.annotation, project, fn.module)
                    )
                if value is not None:
                    cls.attr_types.setdefault(attr, set()).update(
                        _ctor_types(value, project, fn.module)
                    )
                    cls.attr_types.setdefault(attr, set()).update(
                        _param_value_types(value, param_ann, project, fn.module)
                    )
    cls.immutable_fields = {
        attr for attr in cls.attr_types
        if attr not in mutable_seen and attr not in cls.locks
    } | {
        attr for attr in cls.guards if attr not in mutable_seen
    } - mutable_seen


def _resolve_symbol(name: str, module: str, project: Project) -> Optional[str]:
    """Resolve a dotted name in ``module`` to a project qualname."""
    imports = project.imports.get(module, {})
    head, _, rest = name.partition(".")
    dotted = imports.get(head)
    if dotted is not None:
        candidate = dotted + ("." + rest if rest else "")
    else:
        candidate = f"{module}.{name}"
    if candidate in project.classes or candidate in project.functions:
        return candidate
    # ``from repro.storage import LSMManager`` re-exported via __init__:
    # fall back to any project class with the same final name + module prefix.
    tail = candidate.rsplit(".", 1)[-1]
    matches = [
        qn for qn in project.classes
        if qn.rsplit(".", 1)[-1] == tail and candidate.rsplit(".", 1)[0] in qn
    ]
    if len(matches) == 1:
        return matches[0]
    return None


def _annotation_types(node: ast.AST, project: Project, module: str) -> Set[str]:
    """Class qualnames named by an annotation (Optional/string unwrapped)."""
    if node is None:
        return set()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return set()
    if isinstance(node, ast.Subscript):
        # Optional[X] / List[X] / "queue.Queue[...]": look at head + args
        out = _annotation_types(node.value, project, module)
        out |= _annotation_types(node.slice, project, module)
        return out
    if isinstance(node, ast.Tuple):
        out: Set[str] = set()
        for elt in node.elts:
            out |= _annotation_types(elt, project, module)
        return out
    parts = _dotted(node)
    if not parts:
        return set()
    dotted = ".".join(parts)
    if parts[-1] == "Queue":
        return {QUEUE_TYPE}
    if parts[-1] == "Event":
        return {EVENT_TYPE}
    if parts[-1] == "Thread":
        return {THREAD_TYPE}
    resolved = _resolve_symbol(dotted, module, project)
    if resolved in project.classes:
        return {resolved}
    return set()


def _param_value_types(
    node: ast.AST,
    param_ann: Dict[str, ast.AST],
    project: Project,
    module: str,
) -> Set[str]:
    """Types carried by annotated parameter names in a value expression.

    Covers the dependency-injection idiom ``self.fs = fs`` (and its
    ``fs or Default()`` / conditional variants) where the type lives on
    the ``__init__`` parameter annotation, not on a constructor call.
    """
    if isinstance(node, ast.IfExp):
        return _param_value_types(
            node.body, param_ann, project, module
        ) | _param_value_types(node.orelse, param_ann, project, module)
    if isinstance(node, ast.BoolOp):
        out: Set[str] = set()
        for value in node.values:
            out |= _param_value_types(value, param_ann, project, module)
        return out
    if isinstance(node, ast.Name) and node.id in param_ann:
        return _annotation_types(param_ann[node.id], project, module)
    return set()


def _ctor_types(node: ast.AST, project: Project, module: str) -> Set[str]:
    """Types produced by a value expression (constructor calls, etc.)."""
    if isinstance(node, ast.IfExp):
        return _ctor_types(node.body, project, module) | _ctor_types(
            node.orelse, project, module
        )
    if isinstance(node, ast.BoolOp):
        out: Set[str] = set()
        for value in node.values:
            out |= _ctor_types(value, project, module)
        return out
    if not isinstance(node, ast.Call):
        return set()
    parts = _dotted(node.func)
    if not parts or parts[-1] == "()":
        return set()
    dotted = ".".join(parts)
    if parts[-1] == "Queue":
        return {QUEUE_TYPE}
    if parts[-1] == "Event":
        return {EVENT_TYPE}
    if parts[-1] == "Thread":
        return {THREAD_TYPE}
    resolved = _resolve_symbol(dotted, module, project)
    if resolved in project.classes:
        return {resolved}
    if resolved in project.functions:
        fn = project.functions[resolved]
        returns = getattr(fn.node, "returns", None)
        return _annotation_types(returns, project, fn.module)
    return set()


# ---------------------------------------------------------------------------
# pass 2: function bodies
# ---------------------------------------------------------------------------


class _BodyVisitor(ast.NodeVisitor):
    """One pass over a function body: calls, locks, mutations, escapes.

    Tracks the locally-held lock-role stack through ``with`` blocks;
    nested function/lambda bodies are extracted as their own pseudo
    functions (they may run later, on another thread, without the
    enclosing locks).
    """

    def __init__(self, project: Project, fn: FunctionInfo):
        self.project = project
        self.fn = fn
        self.cls = project.classes.get(fn.cls) if fn.cls else None
        self.held: List[str] = []
        self.locals: Dict[str, Set[str]] = {}
        self._nested: List[Tuple[FunctionInfo, "ast.AST"]] = []
        self._lock_decls = (
            project.class_locks(fn.cls) if fn.cls else {}
        )
        self._prescan_locals()

    # -- type environment ------------------------------------------------

    def _prescan_locals(self) -> None:
        args = getattr(self.fn.node, "args", None)
        if args is not None:
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.annotation is not None:
                    self.locals[arg.arg] = _annotation_types(
                        arg.annotation, self.project, self.fn.module
                    )
        for node in ast.walk(self.fn.node):
            value: Optional[ast.AST] = None
            names: List[str] = []
            if isinstance(node, ast.Assign):
                value = node.value
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
                self.locals.setdefault(node.target.id, set()).update(
                    _annotation_types(node.annotation, self.project, self.fn.module)
                )
                value = node.value
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                if isinstance(node.optional_vars, ast.Name):
                    names = [node.optional_vars.id]
                    value = node.context_expr
            elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                self.locals.setdefault(node.target.id, set()).update(
                    self._iter_types(node.iter)
                )
            elif isinstance(node, ast.comprehension) and isinstance(
                node.target, ast.Name
            ):
                self.locals.setdefault(node.target.id, set()).update(
                    self._iter_types(node.iter)
                )
            if value is not None:
                types = self._expr_types(value)
                for name in names:
                    self.locals.setdefault(name, set()).update(types)

    def _iter_types(self, node: ast.AST) -> Set[str]:
        """Element types for a loop/comprehension iterable.

        Annotation flattening already conflates container and element
        classes (``Dict[str, VectorIndex]`` types the attribute as
        ``{VectorIndex}``), so iterating an annotated collection — or
        its ``.values()`` view — types the iteration variable with the
        same set.  This is what lets held-lock propagation follow
        ``for ix in self.indexes.values(): ix.memory_bytes()`` into the
        index classes' lock acquisitions.
        """
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "values"
            and not node.args
        ):
            return self._expr_types(node.func.value)
        return self._expr_types(node)

    def _expr_types(self, node: ast.AST) -> Set[str]:
        """Candidate class qualnames for an expression's value."""
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls is not None:
                return {self.cls.qualname}
            return set(self.locals.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            receivers = self._expr_types(node.value)
            out: Set[str] = set()
            for recv in receivers:
                if recv in self.project.classes:
                    info = self.project.classes[recv]
                    for qn in self.project.mro(recv):
                        out |= self.project.classes[qn].attr_types.get(node.attr, set())
                    prop = self.project.find_method(recv, node.attr)
                    if prop is not None and prop.is_property:
                        out |= _annotation_types(
                            getattr(prop.node, "returns", None),
                            self.project, prop.module,
                        )
            return out
        if isinstance(node, ast.Call):
            # constructor or annotated-return call
            direct = _ctor_types(node, self.project, self.fn.module)
            if direct:
                return direct
            targets = self._call_targets(node)
            out = set()
            for qn in targets:
                fn = self.project.functions.get(qn)
                if fn is not None:
                    out |= _annotation_types(
                        getattr(fn.node, "returns", None), self.project, fn.module
                    )
            return out
        if isinstance(node, ast.IfExp):
            return self._expr_types(node.body) | self._expr_types(node.orelse)
        if isinstance(node, ast.BoolOp):
            out = set()
            for value in node.values:
                out |= self._expr_types(value)
            return out
        return set()

    # -- call resolution -------------------------------------------------

    def _call_targets(self, node: ast.Call) -> List[str]:
        func = node.func
        # super().m()
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and self.cls is not None
        ):
            for qn in self.project.mro(self.cls.qualname)[1:]:
                m = self.project.classes[qn].methods.get(func.attr)
                if m is not None:
                    return [m.qualname]
            return []
        if isinstance(func, ast.Attribute):
            receivers = self._expr_types(func.value)
            out: Dict[str, None] = {}
            for recv in receivers:
                if recv in self.project.classes:
                    for target in self.project.virtual_targets(recv, func.attr):
                        out[target.qualname] = None
            return list(out)
        if isinstance(func, ast.Name):
            resolved = _resolve_symbol(func.id, self.fn.module, self.project)
            if resolved in project_functions(self.project):
                return [resolved]
            if resolved in self.project.classes:
                init = self.project.find_method(resolved, "__init__")
                return [init.qualname] if init is not None else []
        return []

    def _classify_blocking(self, node: ast.Call, targets: Sequence[str]) -> Optional[str]:
        """Label a call that may block (I/O, sleeps, pool/queue waits)."""
        func = node.func
        dotted = ".".join(_dotted(func))
        # configured dotted patterns (time.sleep, requests., ...)
        for pattern in self.project.config.blocking_calls:
            if dotted == pattern or (pattern.endswith(".") and dotted.startswith(pattern)):
                return dotted
        if isinstance(func, ast.Attribute):
            # sorted: receiver sets have no stable order, and the label
            # feeds baseline fingerprints which must be deterministic
            receivers = sorted(self._expr_types(func.value))
            for recv in receivers:
                label = BLOCKING_STDLIB_METHODS.get((recv, func.attr))
                if label is not None:
                    return label
                if recv in self.project.classes:
                    info = self.project.classes[recv]
                    if func.attr in FS_METHODS and self.project.is_filesystem_class(recv):
                        return f"{info.name}.{func.attr} (filesystem I/O)"
                    if info.name == "RetryPolicy" and func.attr == "call":
                        return "RetryPolicy.call (retry with backoff)"
                    if info.name in {"WorkerPool", "QueryExecutor"} and (
                        func.attr in self.project.config.spawn_methods
                    ):
                        return f"{info.name}.{func.attr} (pool submit/wait)"
            # untyped receiver, structural fallbacks for the big ones
            if func.attr == "fsync" and dotted.startswith("os."):
                return "os.fsync"
        return None

    # -- spawned callables (concurrency roots) --------------------------

    def _callable_targets(self, node: ast.AST) -> List[str]:
        """Functions a callable-valued expression may refer to."""
        if isinstance(node, ast.Lambda):
            nested = self._extract_nested(node, "<lambda>")
            return [nested.qualname]
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            return self._callable_targets(node.elt)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out: List[str] = []
            for elt in node.elts:
                out.extend(self._callable_targets(elt))
            return out
        if isinstance(node, ast.Call):
            parts = _dotted(node.func)
            if parts and parts[-1] == "partial" and node.args:
                return self._callable_targets(node.args[0])
            return []
        if isinstance(node, ast.Attribute):
            receivers = self._expr_types(node.value)
            out = []
            for recv in receivers:
                if recv in self.project.classes:
                    for t in self.project.virtual_targets(recv, node.attr):
                        out.append(t.qualname)
            return out
        if isinstance(node, ast.Name):
            # a local def captured by name
            local_qual = f"{self.fn.qualname}.<locals>.{node.id}"
            if local_qual in self.project.functions:
                return [local_qual]
            resolved = _resolve_symbol(node.id, self.fn.module, self.project)
            if resolved in self.project.functions:
                return [resolved]
        return []

    def _record_spawns(self, node: ast.Call) -> List[str]:
        """Thread targets / pool tasks / retry callbacks at this call.

        Returns the callables that may ALSO run inline at this site
        (pool tasks under the executor's serial fallback, retry
        callbacks).  Thread targets are spawn-only: ``Thread(target=f)``
        never invokes ``f`` at the construction site, so the caller's
        locks must not propagate into it.
        """
        inline: List[str] = []
        thread_only: List[str] = []
        func = node.func
        parts = _dotted(func)
        is_thread = bool(parts) and parts[-1] == "Thread"
        is_spawn_method = (
            isinstance(func, ast.Attribute)
            and func.attr in self.project.config.spawn_methods
        )
        is_retry = False
        if isinstance(func, ast.Attribute) and func.attr == "call":
            for recv in self._expr_types(func.value):
                if recv in self.project.classes and (
                    self.project.classes[recv].name == "RetryPolicy"
                ):
                    is_retry = True
        if is_thread:
            for kw in node.keywords:
                if kw.arg == "target":
                    thread_only.extend(self._callable_targets(kw.value))
        elif is_spawn_method or is_retry:
            for arg in node.args:
                inline.extend(self._callable_targets(arg))
        for qual in inline + thread_only:
            self.fn.spawns.append((qual, node.lineno))
        return inline

    # -- nested callables ------------------------------------------------

    def _extract_nested(self, node: ast.AST, name: str) -> FunctionInfo:
        qualname = f"{self.fn.qualname}.<locals>.{name}"
        existing = self.project.functions.get(qualname)
        if existing is not None:
            return existing
        nested = FunctionInfo(
            qualname=qualname, module=self.fn.module, relpath=self.fn.relpath,
            name=name, node=node, cls=self.fn.cls,
            lineno=getattr(node, "lineno", self.fn.lineno),
        )
        self.project.functions[qualname] = nested
        self._nested.append((nested, node))
        return nested

    # -- visitor ---------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self.fn.node:
            self.generic_visit(node)
        else:
            self._extract_nested(node, node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._extract_nested(node, "<lambda>")

    def visit_With(self, node: ast.With) -> None:
        added = 0
        for item in node.items:
            expr = item.context_expr
            role = self._lock_role(expr)
            if role is not None:
                self.fn.acquisitions.append(
                    (role, expr.lineno, expr.col_offset, tuple(self.held))
                )
                self.held.append(role)
                added += 1
            else:
                self.visit(expr)
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(added):
            self.held.pop()

    visit_AsyncWith = visit_With

    def _lock_role(self, expr: ast.AST) -> Optional[str]:
        """Role acquired by a ``with`` item, or None if not a lock."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            decl = self._lock_decls.get(expr.attr)
            if decl is not None:
                return decl.role
            # `with self._unknown_lock:` in a class without the decl —
            # name-based fallback keeps the edge rather than dropping it.
            if expr.attr.endswith("_lock") or expr.attr.endswith("lock"):
                owner = self.cls.name if self.cls else self.fn.module
                return f"<{owner}.{expr.attr}>"
            return None
        if isinstance(expr, ast.Name):
            # module-level locks (e.g. pool._state_lock)
            if expr.id.endswith("_lock"):
                return f"<{self.fn.module}.{expr.id}>"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        spawned = self._record_spawns(node)
        targets = self._call_targets(node)
        dotted = ".".join(_dotted(node.func))
        blocking = self._classify_blocking(node, targets)
        resolved = bool(targets) or self._is_external(node)
        # Spawned callables may also run inline (serial fallback of the
        # executor), so they count as call targets too — with the
        # caller's locks held. Conservative on purpose.
        all_targets = tuple(dict.fromkeys(list(targets) + spawned))
        self.fn.calls.append(CallSite(
            caller=self.fn.qualname, line=node.lineno, col=node.col_offset,
            targets=all_targets, held=tuple(self.held), dotted=dotted,
            blocking=blocking, resolved=resolved,
        ))
        if isinstance(node.func, ast.Attribute):
            self.visit(node.func.value)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def _is_external(self, node: ast.Call) -> bool:
        """Heads off to stdlib/numpy/etc. — resolved as 'not ours'."""
        parts = _dotted(node.func)
        if not parts:
            return False
        head = parts[0]
        if head == "self" or head in self.locals:
            return False
        imports = self.project.imports.get(self.fn.module, {})
        dotted = imports.get(head, head)
        return not dotted.startswith("repro")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # property access = call edge (properties that acquire locks)
        receivers = self._expr_types(node.value)
        for recv in receivers:
            if recv in self.project.classes:
                prop = self.project.find_method(recv, node.attr)
                if prop is not None and prop.is_property:
                    self.fn.calls.append(CallSite(
                        caller=self.fn.qualname, line=node.lineno,
                        col=node.col_offset, targets=(prop.qualname,),
                        held=tuple(self.held), dotted=f"<property {node.attr}>",
                    ))
        self.generic_visit(node)

    # -- mutations and escapes ------------------------------------------

    def _record_mutation(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_mutation(elt, node)
            return
        if isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.fn.mutations.append(MutationSite(
                target.attr, node.lineno, node.col_offset, tuple(self.held)
            ))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_mutation(target, node)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_mutation(node.target, node)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_mutation(node.target, node)
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_mutation(target, node)

    def _record_escape(self, value: Optional[ast.AST], node: ast.AST, kind: str) -> None:
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            self.fn.returns.append(ReturnSite(
                value.attr, node.lineno, node.col_offset, kind
            ))

    def visit_Return(self, node: ast.Return) -> None:
        self._record_escape(node.value, node, "return")
        if node.value is not None:
            self.visit(node.value)

    def visit_Yield(self, node: ast.Yield) -> None:
        self._record_escape(node.value, node, "yield")
        if node.value is not None:
            self.visit(node.value)

    # mutator-method calls on guarded fields count as mutations too
    def run(self) -> None:
        for stmt in getattr(self.fn.node, "body", []):
            self.visit(stmt)
        for call in list(self.fn.calls):
            pass
        # mutator calls: self._field.append(...) etc.
        for node in ast.walk(self.fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.project.config.mutator_methods
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
                and not self._is_component(func.value.attr)
            ):
                # held set unknown at walk time; conservatively use the
                # lexical with-scan below
                self.fn.mutations.append(MutationSite(
                    func.value.attr, node.lineno, node.col_offset,
                    self._held_at_line(node),
                ))
        # process nested callables with a fresh (empty) held stack
        while self._nested:
            nested, node = self._nested.pop()
            sub = _BodyVisitor(self.project, nested)
            body = node.body if isinstance(node.body, list) else [node.body]
            for stmt_or_expr in body:
                sub.visit(stmt_or_expr)
            sub._finish_nested()

    def _finish_nested(self) -> None:
        while self._nested:
            nested, node = self._nested.pop()
            sub = _BodyVisitor(self.project, nested)
            body = node.body if isinstance(node.body, list) else [node.body]
            for stmt_or_expr in body:
                sub.visit(stmt_or_expr)
            sub._finish_nested()

    def _is_component(self, attr: str) -> bool:
        """True when ``self.<attr>`` is a project object, not a container.

        ``self._lsm.insert(...)`` is a method call on a component with
        its own locking (already a call edge), not an in-place mutation
        of the ``_lsm`` binding.
        """
        if self.cls is None:
            return False
        for qn in self.project.mro(self.cls.qualname):
            types = self.project.classes[qn].attr_types.get(attr, ())
            if any(t in self.project.classes for t in types):
                return True
        return False

    def _held_at_line(self, node: ast.AST) -> Tuple[str, ...]:
        """Roles of lock-``with`` statements lexically enclosing ``node``."""
        held: List[str] = []

        def descend(parent: ast.AST) -> bool:
            for child in ast.iter_child_nodes(parent):
                if child is node:
                    return True
                pushed = False
                if isinstance(child, ast.With):
                    for item in child.items:
                        role = self._lock_role(item.context_expr)
                        if role is not None:
                            held.append(role)
                            pushed = True
                if descend(child):
                    return True
                if pushed:
                    for item in child.items:
                        if self._lock_role(item.context_expr) is not None:
                            held.pop()
            return False

        descend(self.fn.node)
        return tuple(held)


def project_functions(project: Project) -> Dict[str, FunctionInfo]:
    return project.functions


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def build_project(config: LintConfig, parse) -> Project:
    """Build the whole-program model over ``config.project_roots``.

    ``parse`` is ``engine.parse_cached`` (injected to avoid an import
    cycle): ``parse(path) -> (relpath, tree | None, error | None)``.
    """
    project = Project(config)
    files: List[str] = []
    for root in config.project_roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in {"__pycache__", ".git", ".pytest_cache"}
            )
            files.extend(
                os.path.join(dirpath, f) for f in sorted(filenames)
                if f.endswith(".py")
            )

    # pass 0: parse everything, count raw function defs for coverage
    parsed: List[Tuple[str, str, ast.Module]] = []
    for path in files:
        relpath, tree, error = parse(path)
        if tree is None:
            project.skipped_files.append((relpath, error or "unreadable"))
            continue
        module = module_name_for(relpath, config)
        if module is None:
            project.skipped_files.append((relpath, "outside src root"))
            continue
        project.modules[module] = tree
        project.module_paths[module] = relpath
        project.imports[module] = _collect_imports(tree)
        parsed.append((module, relpath, tree))
        project.total_function_defs += sum(
            1 for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )

    # pass 1a: classes + module functions (symbols only)
    for module, relpath, tree in parsed:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                qualname = f"{module}.{node.name}"
                project.classes[qualname] = ClassInfo(
                    qualname=qualname, module=module, name=node.name, node=node,
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module}.{node.name}"
                project.functions[qualname] = FunctionInfo(
                    qualname=qualname, module=module, relpath=relpath,
                    name=node.name, node=node, lineno=node.lineno,
                    decorators=_decorator_names(node),
                )

    # pass 1b: resolve bases, then class internals (needs all symbols)
    for module, relpath, tree in parsed:
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = project.classes[f"{module}.{node.name}"]
            for base in node.bases:
                parts = _dotted(base)
                if not parts:
                    continue
                resolved = _resolve_symbol(".".join(parts), module, project)
                if resolved in project.classes:
                    cls.base_names.append(resolved)
                    project.subclasses.setdefault(resolved, set()).add(cls.qualname)
    for module, relpath, tree in parsed:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                _scan_class(
                    project.classes[f"{module}.{node.name}"], module, relpath,
                    project,
                )

    # pass 2: function bodies (fixed list — nested defs register as found)
    for fn in list(project.functions.values()):
        visitor = _BodyVisitor(project, fn)
        visitor.run()

    # concurrency roots from the recorded spawn sites
    for fn in project.functions.values():
        for target, line in fn.spawns:
            project.roots.add(target)
            project.root_witness.setdefault(target, (fn.qualname, line))
    return project
