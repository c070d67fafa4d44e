"""repro.analysis — a domain-aware lint engine for this stack.

General-purpose linters check style; this package machine-checks the
invariants *this* codebase depends on: what crosses the executor seam
must pickle (spawn-safety), ``import repro`` stays light (lazy-net),
transports mutate shared state under the lock (lock-discipline),
every env knob is declared and documented (env-registry), registries
stay the single source of truth (registry-consistency), and API paths
raise :class:`~repro.errors.ReproError` with well-named observability
(error-taxonomy).

Library entry point::

    from repro.analysis import run
    findings = run(["src/repro"])       # [] means clean

CLI: ``python -m repro lint`` (see docs/static_analysis.md).
Checkers live in a string-keyed registry mirroring
:mod:`repro.engines.registry`; third parties add rules with
:func:`register_checker`.
"""

from __future__ import annotations

from .base import Checker, ModuleContext
from .engine import LintConfig, collect_files, lint_file, run
from .findings import Finding
from .registry import (available_checkers, checker_spec, create_checker,
                       register_checker)
from .suppress import SUPPRESSION_RULE

from . import checkers  # noqa: F401  (registers the built-in rules)

__all__ = [
    "Checker",
    "Finding",
    "LintConfig",
    "ModuleContext",
    "SUPPRESSION_RULE",
    "available_checkers",
    "checker_spec",
    "collect_files",
    "create_checker",
    "lint_file",
    "register_checker",
    "run",
]
