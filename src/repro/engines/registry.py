"""The engine lineup: :data:`ENGINES`, one :class:`repro.registry.Registry`.

The CLI ``--engine`` choices, the benchmark lineups and
:class:`repro.api.JoinSession` all read it:

>>> from repro.engines import registry
>>> registry.available()
('sparksql', 'bigjoin', 'hcubej', 'hcubej-cache', 'adj', 'yannakakis')
>>> engine = registry.create("adj", samples=50)

``create`` accepts an :class:`~repro.engines.base.EngineOptions` (plus
field-name keyword overrides) and translates it through each engine's
``options_map``, so callers never need per-engine constructor keywords.
New engines call :func:`register` and immediately show up in the CLI,
the benches and ``JoinSession.engines()``.
"""

from __future__ import annotations

from ..registry import Registry
from .adj import ADJ
from .base import Engine, EngineOptions, engine_from_options
from .bigjoin import BigJoin
from .hcubej import HCubeJ
from .hcubej_cache import HCubeJCache
from .sparksql import SparkSQLJoin
from .yannakakis import YannakakisJoin

__all__ = ["ENGINES", "register", "create", "available", "display_name"]

ENGINES = Registry("engine")
register = ENGINES.register
available = ENGINES.keys


def display_name(key: str) -> str:
    """The engine's human-facing name (``ADJ``, ``HCubeJ+Cache``...)."""
    return getattr(ENGINES.get(key), "name", key)


def create(key: str, options: EngineOptions | None = None,
           **overrides) -> Engine:
    """Instantiate the engine registered under ``key``.

    ``options`` supplies typed knobs; ``overrides`` are
    :class:`EngineOptions` field names that win over ``options``
    (``create("adj", opts, samples=50)``).  Fields an engine does not
    declare in its ``options_map`` are silently ignored, so one options
    object can drive a whole multi-engine lineup.
    """
    cls = ENGINES.get(key)
    if overrides:
        options = (options or EngineOptions()).merged_with(**overrides)
    return engine_from_options(cls, options)


# -- the six built-in engines (Sec. VII lineup + Yannakakis) -----------------

register("sparksql", SparkSQLJoin,
         summary="multi-round distributed binary hash joins")
register("bigjoin", BigJoin,
         summary="round-per-attribute parallel Leapfrog (Ammar et al.)")
register("hcubej", HCubeJ,
         summary="one-round HCube + Leapfrog, communication-first")
register("hcubej-cache", HCubeJCache,
         summary="HCubeJ with a bounded intersection cache")
register("adj", ADJ,
         summary="the paper's co-optimized one-round engine")
register("yannakakis", YannakakisJoin,
         summary="GHD + full reducer + bottom-up joins (acyclic)")
