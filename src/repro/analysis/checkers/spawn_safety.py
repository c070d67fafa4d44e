"""spawn-safety: what crosses the executor seam must survive pickling.

Process backends and remote ``WorkerAgent``s ship ``(task_function,
task)`` pairs by pickling them into spawned interpreters (docs/
runtime.md).  Pickle serializes functions *by reference*, so anything
that is not a module-level callable — a lambda, a closure, a function
defined inside another function, a bound method — either fails to
pickle or silently rebinds to the wrong state on the worker.  The rule:

- the ``fn`` handed to ``Executor.map_tasks`` / ``submit_tasks`` must be
  a module-level function (``functools.partial`` is allowed only around
  one);
- arguments stamped onto the task payload (``WorkerTask``) must not be
  lambdas or locally-defined callables — plain data and strings only
  (this is why ``kernel`` rides as a registry key, not a kernel object).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from ..base import Checker, ModuleContext
from ..findings import Finding
from ..registry import register_checker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import LintConfig

RULE = "spawn-safety"

#: Executor methods whose first argument travels to worker processes.
_SEAM_METHODS = {"map_tasks", "submit_tasks"}

#: The task payload class shipped through executors (docs/runtime.md).
_TASK_CLASSES = {"WorkerTask"}

_HINT = ("move the callable to module scope (spawned workers import it "
         "by reference), or ship plain data/registry keys instead")


def _local_callables(tree: ast.Module,
                     ctx: ModuleContext) -> set[str]:
    """Names bound to lambdas, or to defs/classes nested in functions."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if ctx.enclosing(node, ast.FunctionDef,
                             ast.AsyncFunctionDef) is not None:
                names.add(node.name)
        elif isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _describe(node: ast.expr, local: set[str]) -> str | None:
    """Why this expression is not spawn-safe (None: looks fine)."""
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, ast.Name) and node.id in local:
        return f"locally-defined callable {node.id!r}"
    if isinstance(node, ast.Attribute):
        return f"bound method / attribute lookup {node.attr!r}"
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if name == "partial" and node.args:
            return _describe(node.args[0], local)
    return None


class SpawnSafetyChecker(Checker):
    rule = RULE
    summary = ("callables crossing the executor seam must be "
               "module-level; task payloads carry plain data")

    def check(self, ctx: ModuleContext,
              config: "LintConfig") -> Iterable[Finding]:
        local = _local_callables(ctx.tree, ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_seam_call(ctx, node, local)
            yield from self._check_task_payload(ctx, node, local)

    def _check_seam_call(self, ctx: ModuleContext, node: ast.Call,
                         local: set[str]) -> Iterator[Finding]:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _SEAM_METHODS):
            return
        if not node.args:
            return
        problem = _describe(node.args[0], local)
        if problem:
            yield ctx.finding(
                node, self.rule,
                f"{problem} passed to {func.attr}() crosses the "
                f"executor seam; process/remote backends pickle task "
                f"functions by reference", hint=_HINT)

    def _check_task_payload(self, ctx: ModuleContext, node: ast.Call,
                            local: set[str]) -> Iterator[Finding]:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if name not in _TASK_CLASSES:
            return
        args = [(None, a) for a in node.args] + \
            [(kw.arg, kw.value) for kw in node.keywords]
        for label, value in args:
            if isinstance(value, ast.Lambda) or (
                    isinstance(value, ast.Name) and value.id in local):
                what = "a lambda" if isinstance(value, ast.Lambda) \
                    else f"locally-defined callable {value.id!r}"
                where = f"field {label!r}" if label else "a field"
                yield ctx.finding(
                    value, self.rule,
                    f"{what} stamped onto {name} ({where}); task "
                    f"payloads must be plain data that survives spawn "
                    f"pools and remote agents", hint=_HINT)


register_checker(RULE, SpawnSafetyChecker,
                 summary=SpawnSafetyChecker.summary)
