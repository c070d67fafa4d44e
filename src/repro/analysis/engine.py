"""The lint engine: collect files, parse, run checkers, subtract noise.

:func:`run` is the library entry point (``repro lint`` is a thin CLI on
top of it), so future tooling — e.g. admission checks in a long-lived
query service — can gate code programmatically::

    from repro.analysis import run
    findings = run(["src/repro"])          # [] means clean

The pipeline per file: parse → run every selected checker → drop
findings suppressed by a reasoned ``# repro: lint-ignore[RULE] reason``
comment.  Malformed suppressions surface as ``lint-ignore`` findings
and are never suppressed themselves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..errors import ConfigError
from .base import CHECKERS, Checker, ModuleContext, module_name_for
from .findings import Finding
from .suppress import SUPPRESSION_RULE, parse_suppressions

__all__ = ["LintConfig", "run", "lint_file", "collect_files"]

#: Directories never descended into.
_SKIP_DIRS = {".git", "__pycache__", ".venv", "venv", "node_modules",
              "build", "dist", ".mypy_cache", ".ruff_cache",
              ".pytest_cache", ".claude", "results"}


@dataclass
class LintConfig:
    """Run-wide settings the checkers consult."""

    #: Root the reports are relative to.
    root: Path = field(default_factory=Path.cwd)


def collect_files(paths: Iterable["Path | str"]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ConfigError(f"lint path {path} does not exist")
        if path.is_file():
            if path.suffix == ".py":
                seen.add(path.resolve())
            continue
        for candidate in path.rglob("*.py"):
            if not any(part in _SKIP_DIRS for part in candidate.parts):
                seen.add(candidate.resolve())
    return sorted(seen)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _resolve_checkers(rules: "Sequence[str] | None") -> list[Checker]:
    names = tuple(rules) if rules is not None else CHECKERS.keys()
    return [CHECKERS.create(name) for name in names]


def lint_file(path: "Path | str", config: LintConfig,
              checkers: "Sequence[Checker] | None" = None
              ) -> Iterator[Finding]:
    """Run the selected checkers over one file."""
    path = Path(path)
    relpath = _relpath(path, config.root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        yield Finding(path=relpath, line=exc.lineno or 1,
                      col=(exc.offset or 1) - 1, rule="parse-error",
                      message=f"file does not parse: {exc.msg}")
        return
    known = (*CHECKERS.keys(), SUPPRESSION_RULE, "parse-error")
    suppressions = parse_suppressions(relpath, source, known)
    ctx = ModuleContext(path=path, relpath=relpath,
                        module=module_name_for(path), source=source,
                        tree=tree, suppressions=suppressions)
    yield from suppressions.bad
    if checkers is None:
        checkers = _resolve_checkers(None)
    for checker in checkers:
        for finding in checker.check(ctx, config):
            if not suppressions.is_suppressed(finding.rule, finding.line):
                yield finding


def run(paths: Iterable["Path | str"], *,
        rules: "Sequence[str] | None" = None,
        root: "Path | str | None" = None,
        config: "LintConfig | None" = None) -> list[Finding]:
    """Lint ``paths`` and return the surviving findings, sorted.

    ``rules`` restricts the checker lineup (default: all registered).
    An empty return value means the tree is clean.
    """
    if config is None:
        config = LintConfig(root=Path(root) if root is not None
                            else Path.cwd())
    checkers = _resolve_checkers(rules)
    findings: list[Finding] = []
    for path in collect_files(paths):
        findings.extend(lint_file(path, config, checkers))
    return sorted(findings)
