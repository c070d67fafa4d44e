"""env-registry: under ``repro.*`` only the knob module reads the environment.

Every ``REPRO_*`` variable is a row of :data:`repro.knobs.TABLE`, and
:func:`repro.knobs.env` is the one reader: it applies the shared parse
rule and the error message that names the variable.  Anywhere else in
the package, ``os.environ`` or ``os.getenv`` is a knob nobody can
discover and a parse rule of its own.  Code outside the package is not
checked.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from ..base import CHECKERS, Checker, ModuleContext
from ..findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import LintConfig

RULE = "env-registry"

_KNOB_MODULE = "repro.knobs"
_READERS = ("environ", "getenv")

_HINT = ("add a row to repro.knobs.TABLE, document it in docs/api.md and "
         "read it with repro.knobs.env()")


class EnvRegistryChecker(Checker):
    rule = RULE
    summary = ("under repro.*, os.environ / os.getenv appear only in "
               "repro.knobs")

    def check(self, ctx: ModuleContext,
              config: "LintConfig") -> Iterable[Finding]:
        if ctx.module.partition(".")[0] != "repro" or \
                ctx.module == _KNOB_MODULE:
            return
        for node in ast.walk(ctx.tree):
            imported = isinstance(node, ast.ImportFrom) and \
                node.module == "os" and \
                any(alias.name in _READERS for alias in node.names)
            if imported or (isinstance(node, ast.Attribute)
                            and node.attr in _READERS):
                name = _literal_env_name(ctx, node)
                yield ctx.finding(
                    node, self.rule,
                    f"{name or 'the environment'} is read outside "
                    f"{_KNOB_MODULE}", hint=_HINT)


def _literal_env_name(ctx: ModuleContext, node: ast.AST) -> str | None:
    """The ``REPRO_X`` literal an environment read names, if any."""
    parent = ctx.parent_map().get(node)
    if isinstance(parent, ast.Attribute):      # os.environ.get(...)
        parent = ctx.parent_map().get(parent)
    args = (parent.args[:1] if isinstance(parent, ast.Call)
            else [parent.slice] if isinstance(parent, ast.Subscript)
            else [])
    for arg in args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


CHECKERS.register(RULE, EnvRegistryChecker,
                  summary=EnvRegistryChecker.summary)
