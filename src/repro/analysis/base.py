"""Checker interface and per-module context for the lint engine.

A checker sees one parsed module at a time (:class:`ModuleContext`) plus
the run-wide :class:`LintConfig`, and yields
:class:`~repro.analysis.findings.Finding` objects.  Checkers register in
:data:`CHECKERS` and are pure AST consumers — they never import the module under analysis — so linting
broken or half-written code is safe.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from ..registry import Registry
from .findings import Finding
from .suppress import Suppressions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import LintConfig

__all__ = ["ModuleContext", "Checker", "CHECKERS", "iter_with_parents",
           "module_name_for"]


def module_name_for(path: Path) -> str:
    """Dotted module name from the package layout on disk.

    Walks up while ``__init__.py`` exists, so ``src/repro/net/agent.py``
    becomes ``repro.net.agent`` regardless of where ``src`` lives.  A
    file outside any package is just its stem.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass
class ModuleContext:
    """One parsed source file, ready for checkers."""

    path: Path                     # absolute path on disk
    relpath: str                   # posix path relative to the lint root
    module: str                    # dotted module name ("repro.net.agent")
    source: str
    tree: ast.Module
    suppressions: Suppressions
    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict,
                                             repr=False)

    @property
    def package(self) -> str:
        """The package this module lives in ("" for top-level files)."""
        if self.path.stem == "__init__":
            return self.module
        return self.module.rpartition(".")[0]

    def parent_map(self) -> dict[ast.AST, ast.AST]:
        """child node -> parent node, built once per module on demand."""
        if not self._parents:
            for parent, child in iter_with_parents(self.tree):
                self._parents[child] = parent
        return self._parents

    def enclosing(self, node: ast.AST, *types: type) -> ast.AST | None:
        """Nearest ancestor of ``node`` that is one of ``types``."""
        parents = self.parent_map()
        current = parents.get(node)
        while current is not None:
            if isinstance(current, types):
                return current
            current = parents.get(current)
        return None

    def finding(self, node: ast.AST, rule: str, message: str,
                hint: str = "") -> Finding:
        return Finding(path=self.relpath,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule=rule, message=message, hint=hint)


def iter_with_parents(tree: ast.AST) -> Iterator[tuple[ast.AST, ast.AST]]:
    """Yield ``(parent, child)`` for every edge of the AST."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield node, child
            stack.append(child)


class Checker(ABC):
    """One domain rule.  Subclasses set ``rule`` and ``summary``."""

    #: Rule id, kebab-case; what suppressions and ``--rules`` name.
    rule: str = "abstract"
    #: One-line description shown by ``repro lint --list-rules``.
    summary: str = ""

    @abstractmethod
    def check(self, ctx: ModuleContext,
              config: "LintConfig") -> Iterable[Finding]:
        """Yield findings for one module."""


#: Every lint rule, keyed by rule id: the ``--rules`` / ``--list-rules``
#: lineup, the suppression validator and the default checker set.
CHECKERS = Registry("lint rule")
