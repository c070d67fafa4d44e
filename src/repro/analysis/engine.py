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
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..errors import ConfigError
from .base import Checker, ModuleContext, module_name_for
from .findings import Finding
from .registry import available_checkers, create_checker
from .suppress import SUPPRESSION_RULE, parse_suppressions

__all__ = ["LintConfig", "run", "lint_file", "collect_files"]

#: Directories never descended into.
_SKIP_DIRS = {".git", "__pycache__", ".venv", "venv", "node_modules",
              "build", "dist", ".mypy_cache", ".ruff_cache",
              ".pytest_cache", ".claude", "results"}

_ENV_VAR_RE = re.compile(r"\bREPRO_[A-Z0-9_]+\b")


@dataclass
class LintConfig:
    """Run-wide knobs and cross-file facts the checkers consult.

    The three ``*_override`` fields exist for fixture tests: they
    replace the live catalogs (RunConfig's env registry, the engine/
    kernel/transport registries, docs/api.md) so a checker can be
    exercised on synthetic files without the real repo around them.
    """

    #: Root the reports are relative to, and where docs/ lives.
    root: Path = field(default_factory=Path.cwd)
    #: Declared REPRO_* environment variables; None loads
    #: :data:`repro.api.config.ENV_CATALOG` on first use.
    env_catalog_override: "frozenset[str] | None" = None
    #: ``{"engines": {...}, "kernels": {...}, "transports": {...}}``;
    #: None loads the live registries on first use.
    registry_keys_override: "dict[str, frozenset[str]] | None" = None
    #: REPRO_* names considered documented; None parses
    #: ``<root>/docs/api.md`` on first use (missing file -> no check).
    documented_env_override: "frozenset[str] | None" = None

    _env_catalog: "frozenset[str] | None" = field(default=None,
                                                  repr=False)
    _registry_keys: "dict[str, frozenset[str]] | None" = field(
        default=None, repr=False)
    _documented: "frozenset[str] | None" = field(default=None, repr=False)

    def env_catalog(self) -> frozenset[str]:
        """Every declared REPRO_* variable name."""
        if self.env_catalog_override is not None:
            return self.env_catalog_override
        if self._env_catalog is None:
            from ..api.config import ENV_CATALOG

            self._env_catalog = frozenset(ENV_CATALOG)
        return self._env_catalog

    def registry_keys(self) -> dict[str, frozenset[str]]:
        """Registered keys per registry kind (live unless overridden)."""
        if self.registry_keys_override is not None:
            return self.registry_keys_override
        if self._registry_keys is None:
            from ..engines import registry as engines_registry
            from ..kernels import available_kernels
            from ..runtime.transport import available_transports

            self._registry_keys = {
                "engines": frozenset(engines_registry.available()),
                "kernels": frozenset(available_kernels()),
                "transports": frozenset(available_transports()),
            }
        return self._registry_keys

    def documented_env_vars(self) -> "frozenset[str] | None":
        """REPRO_* names documented in docs/api.md (None: docs absent)."""
        if self.documented_env_override is not None:
            return self.documented_env_override
        if self._documented is None:
            doc = self.root / "docs" / "api.md"
            if not doc.exists():
                return None
            self._documented = frozenset(
                _ENV_VAR_RE.findall(doc.read_text(encoding="utf-8")))
        return self._documented


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
    names = tuple(rules) if rules is not None else available_checkers()
    return [create_checker(name) for name in names]


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
    known = (*available_checkers(), SUPPRESSION_RULE, "parse-error")
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
