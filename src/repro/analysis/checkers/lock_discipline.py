"""lock-discipline: transport shared state mutates under the lock.

PR 5 made epochs pipelined: the scheduler publishes epoch *e+1* while
workers still execute epoch *e*, so ``Transport`` subclasses are hit
from the routing thread and the execution pool at once.  The contract
(docs/runtime.md): every mutation of cross-thread state — the
``TransportStats`` counters, ``last_epoch``, and the private staging
dicts — happens inside ``with self._lock:`` (a reentrant lock), or in a
method that documents the caller holds it via the ``*_locked`` name
suffix (``_teardown_locked`` in repro.net.transport is the exemplar).
``__init__`` is exempt: no other thread can see the object yet.

The checker is structural, not a race detector: it looks at classes
named ``*Transport`` and flags mutations that are lexically outside any
``with self.<...lock...>:`` block in a non-exempt method.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from ..base import CHECKERS, Checker, ModuleContext
from ..findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import LintConfig

RULE = "lock-discipline"

#: dict/set/list mutator method names on private attributes.
_MUTATORS = {"pop", "clear", "update", "setdefault", "append", "add",
             "remove", "discard", "extend", "popitem", "insert"}

_HINT = ("wrap the mutation in 'with self._lock:', or move it into a "
         "'*_locked' helper whose name promises the caller holds the "
         "lock (see _teardown_locked in repro.net.transport)")


def _is_self_attr(node: ast.expr, attr: "str | None" = None) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and (attr is None or node.attr == attr))


def _guarded_state(node: ast.expr) -> "str | None":
    """Human name of the shared state ``node`` touches, if any."""
    # self.stats.<counter>
    if isinstance(node, ast.Attribute) and _is_self_attr(node.value,
                                                         "stats"):
        return f"self.stats.{node.attr}"
    # self.last_epoch
    if _is_self_attr(node, "last_epoch"):
        return "self.last_epoch"
    # self._private[...]  (staging dicts)
    if isinstance(node, ast.Subscript) and \
            isinstance(node.value, ast.Attribute) and \
            _is_self_attr(node.value) and node.value.attr.startswith("_") \
            and "lock" not in node.value.attr:
        return f"self.{node.value.attr}[...]"
    return None


class LockDisciplineChecker(Checker):
    rule = RULE
    summary = ("Transport stats/staging mutations happen under "
               "self._lock or inside *_locked methods")

    def check(self, ctx: ModuleContext,
              config: "LintConfig") -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and \
                    node.name.endswith("Transport"):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: ModuleContext,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__" or \
                    method.name.endswith("_locked"):
                continue
            yield from self._check_method(ctx, cls, method)

    def _check_method(self, ctx: ModuleContext, cls: ast.ClassDef,
                      method: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(method):
            state = self._mutation(node)
            if state is None:
                continue
            if self._under_lock(ctx, node, method):
                continue
            yield ctx.finding(
                node, self.rule,
                f"{cls.name}.{getattr(method, 'name', '?')} mutates "
                f"{state} outside 'with self._lock:'; pipelined epochs "
                f"hit transports from two threads at once", hint=_HINT)

    @staticmethod
    def _mutation(node: ast.AST) -> "str | None":
        """Shared-state name if ``node`` is a mutation of it."""
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                state = _guarded_state(target)
                if state:
                    return state
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATORS:
            owner = node.func.value
            if isinstance(owner, ast.Attribute) and _is_self_attr(owner) \
                    and owner.attr.startswith("_") \
                    and "lock" not in owner.attr:
                return f"self.{owner.attr}.{node.func.attr}(...)"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                state = _guarded_state(target)
                if state:
                    return state
        return None

    @staticmethod
    def _lock_item(item: ast.withitem) -> bool:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        return isinstance(expr, ast.Attribute) and \
            "lock" in expr.attr.lower() and _is_self_attr(expr)

    def _under_lock(self, ctx: ModuleContext, node: ast.AST,
                    method: ast.AST) -> bool:
        parents = ctx.parent_map()
        current = parents.get(node)
        while current is not None and current is not method:
            if isinstance(current, ast.With) and \
                    any(self._lock_item(i) for i in current.items):
                return True
            # Mutations inside a nested *_locked helper are the
            # helper's business, not this method's.
            if isinstance(current, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)) and \
                    current.name.endswith("_locked"):
                return True
            current = parents.get(current)
        return False


CHECKERS.register(RULE, LockDisciplineChecker,
                  summary=LockDisciplineChecker.summary)
