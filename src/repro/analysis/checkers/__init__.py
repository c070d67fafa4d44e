"""Built-in domain checkers.

Importing this package registers every built-in rule with
:data:`repro.analysis.base.CHECKERS` — the same pattern
:mod:`repro.engines.registry` and :mod:`repro.kernels` use for their
built-ins.  Each module registers exactly one rule at its bottom.
"""

from __future__ import annotations

from . import (  # noqa: F401  (imported for registration side effects)
    env_registry,
    error_taxonomy,
    lazy_net,
    lock_discipline,
    spawn_safety,
)

__all__ = ["spawn_safety", "lazy_net", "lock_discipline", "env_registry",
           "error_taxonomy"]
