"""AST rules: lock-discipline, determinism, and hygiene checks.

Every rule consumes a :class:`FileContext` (parsed tree + config) and
yields :class:`~tools.reprolint.engine.Violation` records.  Rules are
registered in :data:`ALL_RULES`; adding a rule means adding a class
with a ``rule_id`` and a ``check`` method — nothing else changes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from tools.reprolint.config import LintConfig
from tools.reprolint.engine import FileContext, Violation

#: numpy.random attributes that are deterministic constructors (allowed);
#: everything else on the module is the hidden global RNG.
NP_RANDOM_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "RandomState",
    "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
}

#: stdlib ``random`` attributes that do NOT touch the module-global RNG.
STD_RANDOM_ALLOWED = {"Random", "SystemRandom", "getstate", "setstate"}

_DOCSTRING_RNG = re.compile(
    r"\b(?:np|numpy)\.random\.(?!(?:%s)\b)(\w+)\s*\(" % "|".join(NP_RANDOM_ALLOWED)
)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.<attr>`` -> ``attr``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _dotted_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty when not a plain chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------


def _class_guards(classdef: ast.ClassDef, config: LintConfig) -> Dict[str, str]:
    """Guarded-field map for one class: in-code ``_GUARDED_BY`` + config."""
    guards: Dict[str, str] = {}
    for stmt in classdef.body:
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "_GUARDED_BY"
                and isinstance(stmt.value, ast.Dict)
            ):
                for key, value in zip(stmt.value.keys, stmt.value.values):
                    if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                        guards[str(key.value)] = str(value.value)
    for qualified, lock in config.guarded_fields.items():
        clsname, _, fieldname = qualified.partition(".")
        if clsname == classdef.name and fieldname:
            guards[fieldname] = lock
    return guards


class _MethodLockChecker(ast.NodeVisitor):
    """Check one method body: guarded mutations must hold the lock."""

    def __init__(self, ctx: FileContext, guards: Dict[str, str], clsname: str):
        self.ctx = ctx
        self.guards = guards
        self.clsname = clsname
        self.held: List[str] = []
        self.violations: List[Violation] = []

    # -- lock tracking --------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        added = 0
        for item in node.items:
            name = _self_attr(item.context_expr)
            if name is not None:
                self.held.append(name)
                added += 1
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(added):
            self.held.pop()

    def _fresh_scope(self, node: ast.AST) -> None:
        # A nested function/lambda may run later, outside the lock.
        saved, self.held = self.held, []
        self.generic_visit(node)
        self.held = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._fresh_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._fresh_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._fresh_scope(node)

    # -- mutation sites -------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target, node)
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in self.ctx.config.mutator_methods:
            fieldname = _self_attr(func.value)
            if fieldname in self.guards:
                self._require(fieldname, node, f"self.{fieldname}.{func.attr}()")
        self.generic_visit(node)

    def _check_target(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_target(elt, node)
            return
        if isinstance(target, ast.Subscript):
            target = target.value
        fieldname = _self_attr(target)
        if fieldname in self.guards:
            self._require(fieldname, node, f"self.{fieldname}")

    def _require(self, fieldname: str, node: ast.AST, what: str) -> None:
        lock = self.guards[fieldname]
        if lock not in self.held:
            self.violations.append(
                Violation(
                    path=self.ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="lock-discipline",
                    message=(
                        f"{self.clsname}: {what} is guarded by self.{lock} "
                        f"but mutated outside `with self.{lock}`"
                    ),
                )
            )


class LockDisciplineRule:
    rule_id = "lock-discipline"
    rationale = (
        "Fields listed in a class's _GUARDED_BY dict (or the pyproject "
        "guarded-fields table) are shared across threads; mutating one "
        "outside `with self.<lock>` is a data race. Methods ending in the "
        "locked-suffix run with the lock already held by convention and "
        "are exempt, as is __init__ (the object is not shared yet)."
    )
    example = (
        "    _GUARDED_BY = {\"_next_id\": \"_lock\"}\n"
        "    def bump(self):\n"
        "        self._next_id += 1     # <- BAD: no `with self._lock:`\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes(ast.ClassDef):
            guards = _class_guards(node, ctx.config)
            if not guards:
                continue
            for stmt in node.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if stmt.name == "__init__":
                    continue  # the object is not shared yet
                if stmt.name.endswith(ctx.config.locked_suffix):
                    continue  # convention: caller holds the lock
                args = stmt.args.posonlyargs + stmt.args.args
                if not args or args[0].arg != "self":
                    continue  # staticmethod/classmethod
                checker = _MethodLockChecker(ctx, guards, node.name)
                for body_stmt in stmt.body:
                    checker.visit(body_stmt)
                yield from checker.violations


# ---------------------------------------------------------------------------
# determinism (global RNG)
# ---------------------------------------------------------------------------


class GlobalRngRule:
    """Forbid hidden-global RNG calls in the library source tree."""

    rule_id = "global-rng"
    rationale = (
        "The paper reproduction must be bit-for-bit deterministic under a "
        "seed; numpy.random.* and random.* module-level calls draw from "
        "hidden global state that any import or thread can perturb. Use "
        "np.random.default_rng(seed) or a seeded random.Random instead. "
        "Applies only under the configured rng-paths."
    )
    example = (
        "    noise = np.random.normal(size=dim)          # <- BAD\n"
        "    noise = np.random.default_rng(seed).normal(size=dim)  # ok\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.config.rng_applies(ctx.relpath):
            return
        numpy_aliases: Set[str] = set()
        nprandom_aliases: Set[str] = set()
        stdrandom_aliases: Set[str] = set()
        banned_direct: Dict[str, str] = {}
        for node in ctx.nodes(ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "numpy":
                    numpy_aliases.add(bound)
                elif alias.name == "numpy.random":
                    nprandom_aliases.add(alias.asname or "numpy")
                    if alias.asname is None:
                        numpy_aliases.add("numpy")
                elif alias.name == "random":
                    stdrandom_aliases.add(bound)
        for node in ctx.nodes(ast.ImportFrom):
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        nprandom_aliases.add(alias.asname or "random")
            elif node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in NP_RANDOM_ALLOWED:
                        banned_direct[alias.asname or alias.name] = (
                            f"numpy.random.{alias.name}"
                        )
            elif node.module == "random":
                for alias in node.names:
                    if alias.name not in STD_RANDOM_ALLOWED:
                        banned_direct[alias.asname or alias.name] = (
                            f"random.{alias.name}"
                        )

        for node in ctx.nodes(ast.Call):
            yield from self._check_call(
                ctx, node, numpy_aliases, nprandom_aliases,
                stdrandom_aliases, banned_direct,
            )
        yield from self._check_docstrings(ctx)

    def _check_call(self, ctx, node, numpy_aliases, nprandom_aliases,
                    stdrandom_aliases, banned_direct) -> Iterator[Violation]:
        chain = _dotted_chain(node.func)
        fn: Optional[str] = None
        origin = ""
        if len(chain) >= 3 and chain[0] in numpy_aliases and chain[1] == "random":
            fn, origin = chain[2], "numpy.random"
        elif len(chain) == 2 and chain[0] in nprandom_aliases:
            fn, origin = chain[1], "numpy.random"
        elif len(chain) == 2 and chain[0] in stdrandom_aliases:
            fn, origin = chain[1], "random"
        elif len(chain) == 1 and chain[0] in banned_direct:
            yield self._violation(ctx, node, banned_direct[chain[0]])
            return
        if fn is None:
            return
        allowed = NP_RANDOM_ALLOWED if origin == "numpy.random" else STD_RANDOM_ALLOWED
        if fn not in allowed:
            yield self._violation(ctx, node, f"{origin}.{fn}")

    def _check_docstrings(self, ctx: FileContext) -> Iterator[Violation]:
        docstring_owners = [ctx.tree] + ctx.nodes(
            ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef
        )
        for node in docstring_owners:
            doc = ast.get_docstring(node, clean=False)
            if not doc or not node.body:
                continue
            doc_node = node.body[0].value  # type: ignore[attr-defined]
            for offset, line in enumerate(doc.splitlines()):
                match = _DOCSTRING_RNG.search(line)
                if match:
                    yield Violation(
                        path=ctx.path,
                        line=doc_node.lineno + offset,
                        col=match.start(),
                        rule="global-rng",
                        message=(
                            f"docstring example calls numpy.random.{match.group(1)} "
                            "(global RNG); use np.random.default_rng(seed)"
                        ),
                    )

    def _violation(self, ctx: FileContext, node: ast.AST, name: str) -> Violation:
        return Violation(
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset,
            rule="global-rng",
            message=(
                f"{name} uses the hidden global RNG; "
                "use np.random.default_rng(seed) (or a seeded random.Random)"
            ),
        )


# ---------------------------------------------------------------------------
# hygiene
# ---------------------------------------------------------------------------


class MutableDefaultRule:
    rule_id = "mutable-default"
    rationale = (
        "Default argument values evaluate once at def time; a mutable "
        "default (list/dict/set) is silently shared by every call, so "
        "state leaks between invocations. Use None and construct inside."
    )
    example = (
        "    def search(self, filters=[]):   # <- BAD: shared list\n"
        "    def search(self, filters=None): # ok\n"
        "        filters = [] if filters is None else filters\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes(ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield Violation(
                        path=ctx.path,
                        line=default.lineno,
                        col=default.col_offset,
                        rule="mutable-default",
                        message=(
                            f"{name}(): mutable default argument is shared "
                            "across calls; use None and construct inside"
                        ),
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"list", "dict", "set", "bytearray"}
            and not node.args
            and not node.keywords
        )


class BareExceptRule:
    rule_id = "bare-except"
    rationale = (
        "A bare `except:` catches KeyboardInterrupt and SystemExit, which "
        "makes worker loops unkillable and hides shutdown bugs. Catch "
        "Exception, or something narrower."
    )
    example = (
        "    try:\n"
        "        task.run()\n"
        "    except:              # <- BAD\n"
        "    except Exception:    # ok\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes(ast.ExceptHandler):
            if node.type is None:
                yield Violation(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="bare-except",
                    message=(
                        "bare `except:` swallows KeyboardInterrupt/SystemExit; "
                        "catch Exception (or something narrower)"
                    ),
                )


class FloatEqRule:
    """``==``/``!=`` on floating distance/score values is order-fragile."""

    rule_id = "float-eq"
    rationale = (
        "Distances and scores come out of floating-point reductions whose "
        "value depends on summation order (parallel merge vs serial scan); "
        "exact ==/!= on them is order-fragile. Compare with np.isclose or "
        "an absolute-difference tolerance. Names are matched against the "
        "configured float-eq-names segments."
    )
    example = (
        "    if best_score == 0.0:                 # <- BAD\n"
        "    if abs(best_score) < 1e-9:            # ok\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        tokens = {t.lower() for t in ctx.config.float_eq_names}
        for node in ctx.nodes(ast.Compare):
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left_scoreish = self._is_scoreish(left, tokens)
                right_scoreish = self._is_scoreish(right, tokens)
                if (left_scoreish or right_scoreish) and (
                    left_scoreish and right_scoreish
                    or self._is_float_const(left)
                    or self._is_float_const(right)
                ):
                    yield Violation(
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="float-eq",
                        message=(
                            "exact ==/!= on a distance/score float; compare "
                            "with a tolerance (np.isclose / abs diff)"
                        ),
                    )
                    break

    @staticmethod
    def _terminal_name(node: ast.AST) -> Optional[str]:
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    @classmethod
    def _is_scoreish(cls, node: ast.AST, tokens: Set[str]) -> bool:
        name = cls._terminal_name(node)
        if not name:
            return False
        return any(seg in tokens for seg in name.lower().split("_") if seg)

    @staticmethod
    def _is_float_const(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)


# ---------------------------------------------------------------------------
# metric-name
# ---------------------------------------------------------------------------

#: Prometheus-flavoured snake_case: lowercase start, [a-z0-9_] body.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


class MetricNameRule:
    """Metric names must be snake_case; counter names must end ``_total``.

    Applies to any ``<registry>.counter/gauge/histogram("name", ...)``
    call whose first argument is a string literal.  Dynamic names are
    not checked (they cannot be validated statically).
    """

    rule_id = "metric-name"
    rationale = (
        "Metric names are a public, scrape-time API: snake_case keeps them "
        "Prometheus-compatible, and the _total suffix on counters is the "
        "convention dashboards rely on to apply rate(). Only string-literal "
        "first arguments are checked."
    )
    example = (
        "    obs.registry.counter(\"flushCount\")        # <- BAD (case)\n"
        "    obs.registry.counter(\"flush_total\")        # ok\n"
    )

    _FACTORIES = {"counter", "gauge", "histogram"}

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes(ast.Call):
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in self._FACTORIES):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            name = first.value
            if not METRIC_NAME_RE.match(name):
                yield Violation(
                    path=ctx.path, line=first.lineno, col=first.col_offset,
                    rule=self.rule_id,
                    message=f"metric name {name!r} is not snake_case "
                            f"(expected ^[a-z][a-z0-9_]*$)",
                )
            elif func.attr == "counter" and not name.endswith("_total"):
                yield Violation(
                    path=ctx.path, line=first.lineno, col=first.col_offset,
                    rule=self.rule_id,
                    message=f"counter name {name!r} must end with '_total'",
                )


# ---------------------------------------------------------------------------
# span-context
# ---------------------------------------------------------------------------


class SpanContextRule:
    """Stages must be entered via ``with``.

    A ``profile_stage(...)`` or ``measurement_stage(...)`` call that is
    never entered records nothing (the timer starts on ``__enter__``,
    and a root is kept only on ``__exit__``), so the call must appear
    either directly as a ``with`` item or be assigned to a name that is
    used as a ``with`` item in the same file.  ``ProfileNode.stage(...)``
    is exempt: pre-creating child stages on the coordinating thread (and
    entering them inside the workers) is the sanctioned fan-out
    determinism pattern.
    """

    rule_id = "span-context"
    rationale = (
        "Stages start their timers in __enter__ and a root stage is kept "
        "only on __exit__; a profile_stage(...) call that is never entered "
        "as a context manager records nothing and silently drops the "
        "timing data. ProfileNode.stage pre-creation is the sanctioned "
        "exception."
    )
    example = (
        "    profile_stage(\"flush\")            # <- BAD: never entered\n"
        "    with profile_stage(\"flush\"):      # ok\n"
        "        ...\n"
    )

    _STAGE_FUNCTIONS = {"profile_stage", "measurement_stage"}

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        withitem_calls: Set[int] = set()
        withitem_names: Set[str] = set()
        for node in ctx.nodes(ast.With, ast.AsyncWith):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    withitem_calls.add(id(expr))
                elif isinstance(expr, ast.Name):
                    withitem_names.add(expr.id)

        for stmt, call in self._span_calls(ctx.tree):
            if id(call) in withitem_calls:
                continue
            if self._assigned_to_withitem(stmt, withitem_names):
                continue
            func = call.func
            label = func.attr if isinstance(func, ast.Attribute) else func.id
            yield Violation(
                path=ctx.path, line=call.lineno, col=call.col_offset,
                rule=self.rule_id,
                message=f"{label}(...) opened outside a 'with' statement; "
                        f"stages only record when entered as a "
                        f"context manager",
            )

    def _span_calls(self, tree: ast.AST) -> Iterator[tuple]:
        """Yield ``(innermost_stmt, call)`` for every span-opening call."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt):
                continue
            for expr in self._shallow_walk(node):
                if isinstance(expr, ast.Call) and self._is_span_call(expr):
                    yield node, expr

    @staticmethod
    def _shallow_walk(stmt: ast.stmt) -> Iterator[ast.AST]:
        """Walk a statement's expressions without entering child statements."""
        stack = [c for c in ast.iter_child_nodes(stmt) if not isinstance(c, ast.stmt)]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(
                c for c in ast.iter_child_nodes(node) if not isinstance(c, ast.stmt)
            )

    @classmethod
    def _is_span_call(cls, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr in cls._STAGE_FUNCTIONS
        if isinstance(func, ast.Name):
            return func.id in cls._STAGE_FUNCTIONS
        return False

    @staticmethod
    def _assigned_to_withitem(stmt: ast.stmt, withitem_names: Set[str]) -> bool:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return False
        target = stmt.targets[0]
        return isinstance(target, ast.Name) and target.id in withitem_names


ALL_RULES = [
    LockDisciplineRule(),
    GlobalRngRule(),
    MutableDefaultRule(),
    BareExceptRule(),
    FloatEqRule(),
    MetricNameRule(),
    SpanContextRule(),
]
