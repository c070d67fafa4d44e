"""lazy-net: ``import repro`` must never pull in :mod:`repro.net`.

The networking package (sockets, agents, block stores) is registered
lazily everywhere — the ``tcp`` transport and the ``remote`` backend are
``lazy="module:attr"`` :class:`repro.registry.Registry` entries — so
that importing the library, or any non-remote path through it, stays
light and never touches socket machinery.  The
three legitimate call sites import :mod:`repro.net` *function-locally*
(``cli._cmd_serve``, ``resolve_array_ref``, ``RunConfig.__post_init__``).

This checker flags any module-scope (or class-scope) import of
``repro.net`` outside ``src/repro/net/`` itself, including relative
spellings (``from ..net import ...``).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from ..base import CHECKERS, Checker, ModuleContext
from ..findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import LintConfig

RULE = "lazy-net"

_NET = "repro.net"

_HINT = ("move the import inside the function that needs it, or "
         "register the dependency lazily ('module:attr') like the tcp "
         "transport and the remote backend do")


def _resolve_from(node: ast.ImportFrom, package: str) -> str:
    """Absolute dotted target of an ImportFrom (best effort)."""
    if not node.level:
        return node.module or ""
    parts = package.split(".") if package else []
    if node.level - 1:
        parts = parts[: -(node.level - 1)] if node.level - 1 <= len(parts) \
            else []
    base = ".".join(parts)
    if node.module:
        return f"{base}.{node.module}" if base else node.module
    return base


def _targets_net(target: str) -> bool:
    return target == _NET or target.startswith(_NET + ".")


class LazyNetChecker(Checker):
    rule = RULE
    summary = ("no module-scope import of repro.net outside "
               "src/repro/net/ — 'import repro' stays light")

    def check(self, ctx: ModuleContext,
              config: "LintConfig") -> Iterable[Finding]:
        if ctx.module == _NET or ctx.module.startswith(_NET + "."):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            # Function-local imports are the sanctioned escape hatch.
            if ctx.enclosing(node, ast.FunctionDef,
                             ast.AsyncFunctionDef) is not None:
                continue
            if isinstance(node, ast.Import):
                offenders = [a.name for a in node.names
                             if _targets_net(a.name)]
                if offenders:
                    yield ctx.finding(
                        node, self.rule,
                        f"module-scope import of {offenders[0]!r}; "
                        f"repro.net must stay lazily imported",
                        hint=_HINT)
                continue
            target = _resolve_from(node, ctx.package)
            imported_net = _targets_net(target) or (
                target in ("repro", ctx.package) and any(
                    _targets_net(f"{target}.{a.name}")
                    for a in node.names))
            if imported_net:
                spelled = ("." * node.level) + (node.module or "")
                yield ctx.finding(
                    node, self.rule,
                    f"module-scope 'from {spelled} import ...' resolves "
                    f"to repro.net; repro.net must stay lazily imported",
                    hint=_HINT)


CHECKERS.register(RULE, LazyNetChecker, summary=LazyNetChecker.summary)
