"""error-taxonomy: raise ReproError subclasses; name spans/metrics well.

Callers of the library catch :class:`repro.errors.ReproError` to
distinguish "this stack rejected the input" from genuine bugs
(docs/api.md).  A bare ``ValueError`` raised on an API path escapes
that contract.  ``ConfigError`` deliberately subclasses both
``ReproError`` and ``ValueError``, so converting a legacy ``raise
ValueError`` is backward compatible.

Builtin exceptions that *are* the protocol stay allowed: ``KeyError`` /
``IndexError`` / ``AttributeError`` for mapping/sequence/attribute
contracts, ``TypeError`` for misuse of a call signature,
``StopIteration`` and ``NotImplementedError`` for their usual roles.

The same checker audits observability naming (docs/observability.md):
metric names are dotted lowercase (``transport.published_bytes``) so
dashboards can group by component; span names are single lowercase
tokens (``worker_task``).
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterable, Iterator

from ..base import CHECKERS, Checker, ModuleContext
from ..findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import LintConfig

RULE = "error-taxonomy"

#: Builtins that must not be raised directly on library paths.
_FLAGGED_RAISES = {
    "Exception", "BaseException", "ValueError", "RuntimeError",
    "OSError", "IOError", "ConnectionError", "ConnectionResetError",
    "BrokenPipeError", "EOFError", "TimeoutError", "FileNotFoundError",
    "PermissionError", "LookupError", "ArithmeticError",
}

_RAISE_HINT = ("raise a ReproError subclass (repro.errors) — "
               "ConfigError also subclasses ValueError, so converting "
               "is backward compatible")

_METRIC_METHODS = {"counter", "gauge", "histogram"}
_SPAN_METHODS = {"span", "add_span"}

_METRIC_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
_METRIC_PREFIX_RE = re.compile(r"^[a-z][a-z0-9_.]*$")
_SPAN_RE = re.compile(r"^[a-z][a-z0-9_]*$")

_NAME_HINT = ("metric names are dotted lowercase like "
              "'transport.published_bytes'; span names are single "
              "lowercase tokens like 'worker_task' "
              "(docs/observability.md)")


def _exception_name(node: "ast.expr | None") -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _name_arg(node: ast.Call) -> "tuple[str, bool] | None":
    """(name, is_prefix_only) for the first argument, if checkable."""
    if not node.args:
        return None
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value, False
    if isinstance(arg, ast.JoinedStr) and arg.values and \
            isinstance(arg.values[0], ast.Constant) and \
            isinstance(arg.values[0].value, str):
        return arg.values[0].value, True
    return None


class ErrorTaxonomyChecker(Checker):
    rule = RULE
    summary = ("library paths raise ReproError subclasses; metric/span "
               "names follow the dotted-lowercase convention")

    def check(self, ctx: ModuleContext,
              config: "LintConfig") -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise):
                yield from self._check_raise(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_obs_name(ctx, node)

    def _check_raise(self, ctx: ModuleContext,
                     node: ast.Raise) -> Iterator[Finding]:
        name = _exception_name(node.exc)
        if name in _FLAGGED_RAISES:
            yield ctx.finding(
                node, self.rule,
                f"raises builtin {name}; callers catch ReproError to "
                f"tell stack rejections from bugs", hint=_RAISE_HINT)

    def _check_obs_name(self, ctx: ModuleContext,
                        node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        checked = _name_arg(node)
        if checked is None:
            return
        name, prefix_only = checked
        if func.attr in _METRIC_METHODS:
            pattern = _METRIC_PREFIX_RE if prefix_only else _METRIC_RE
            if not pattern.match(name):
                yield ctx.finding(
                    node, self.rule,
                    f"metric name {name!r} is not dotted lowercase",
                    hint=_NAME_HINT)
        elif func.attr in _SPAN_METHODS:
            if prefix_only:
                if not _SPAN_RE.match(name.rstrip("_")):
                    yield ctx.finding(
                        node, self.rule,
                        f"span name prefix {name!r} is not a lowercase "
                        f"token", hint=_NAME_HINT)
            elif not _SPAN_RE.match(name):
                yield ctx.finding(
                    node, self.rule,
                    f"span name {name!r} is not a single lowercase "
                    f"token", hint=_NAME_HINT)


CHECKERS.register(RULE, ErrorTaxonomyChecker,
                  summary=ErrorTaxonomyChecker.summary)
