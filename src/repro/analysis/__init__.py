"""repro.analysis — a domain-aware lint engine for this stack.

General-purpose linters check style; this package machine-checks the
invariants *this* codebase depends on: what crosses the executor seam
must pickle (spawn-safety), ``import repro`` stays light (lazy-net),
transports mutate shared state under the lock (lock-discipline),
only the knob table reads the environment (env-registry), and API
paths raise :class:`~repro.errors.ReproError` with well-named observability
(error-taxonomy).

Library entry point::

    from repro.analysis import run
    findings = run(["src/repro"])       # [] means clean

CLI: ``python -m repro lint`` (see docs/static_analysis.md).
Checkers live in :data:`CHECKERS`, a :class:`repro.registry.Registry`;
third parties add rules with ``CHECKERS.register(rule, MyChecker)``.
"""

from __future__ import annotations

from .base import CHECKERS, Checker, ModuleContext
from .engine import LintConfig, collect_files, lint_file, run
from .findings import Finding
from .suppress import SUPPRESSION_RULE

from . import checkers  # noqa: F401  (registers the built-in rules)

__all__ = [
    "CHECKERS",
    "Checker",
    "Finding",
    "LintConfig",
    "ModuleContext",
    "SUPPRESSION_RULE",
    "collect_files",
    "lint_file",
    "run",
]
