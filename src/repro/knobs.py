"""Every ``REPRO_*`` environment variable, declared once.

One :class:`Knob` row per variable: its name, how its value parses, its
default, a one-line doc and — when it has one — the
:class:`repro.api.RunConfig` field it defaults and the CLI flag that
overrides it.  :func:`env` is the only place under ``repro`` that reads
``os.environ`` (the ``env-registry`` lint rule keeps it that way), so
every variable follows one parse rule:

- unset or blank means "use the default";
- an ``int`` knob takes an integral number (``8``, ``1e6``) and refuses
  ``2.7``, ``nan`` and ``inf``; a ``float`` knob is a finite positive
  number; both refuse anything outside their bounds;
- a knob with registry ``choices`` must name a registered key;
- every failure is a :class:`~repro.errors.ConfigError` that names the
  variable.

Precedence stays explicit argument > environment > default: ``RunConfig``
fields default to ``env(...)`` and CLI flags default to None, so a flag or
constructor argument always wins.  docs/api.md documents every row (a
tier-1 test compares the two).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any

from .errors import ConfigError
from .registry import load

__all__ = ["Knob", "TABLE", "ENV_CATALOG", "env", "split_hosts"]

_ON_OFF = {"on": True, "1": True, "true": True, "yes": True,
           "off": False, "0": False, "false": False, "no": False}


def split_hosts(text: str) -> tuple[str, ...] | None:
    """``"h:p, local:2"`` -> ``("h:p", "local:2")`` (None when empty)."""
    return tuple(p.strip() for p in text.split(",") if p.strip()) or None


@dataclass(frozen=True)
class Knob:
    """One environment variable: parse rule, default, doc and uses."""

    name: str
    #: "int" | "float" | "str" | "onoff" | "hosts".
    kind: str
    default: Any
    doc: str
    #: Inclusive bounds of an int knob.
    minimum: int | None = None
    maximum: int | None = None
    #: A ``"module:attr"`` :class:`~repro.registry.Registry` whose keys
    #: the value must be (checked here, and the CLI flag's choices), or a
    #: tuple that only constrains the CLI flag.
    choices: str | tuple[str, ...] | None = None
    #: The RunConfig field this variable defaults, and its CLI flag.
    field: str | None = None
    flag: str | None = None
    #: The default as docs and ``--help`` show it (None: no default
    #: beyond "unset").
    shown: str | None = None

    @property
    def shown_default(self) -> str | None:
        if self.shown is not None or self.default is None:
            return self.shown
        return str(self.default)

    def registry(self) -> Any:
        """The Registry a ``"module:attr"`` ``choices`` names (or None)."""
        return load(self.choices) if isinstance(self.choices, str) else None

    def choice_keys(self) -> tuple[str, ...] | None:
        """What the CLI flag accepts (None: anything)."""
        if isinstance(self.choices, str):
            keys: tuple[str, ...] = self.registry().keys()
            return keys
        return self.choices

    def parse(self, raw: str) -> Any:
        """The typed value of a non-blank ``raw`` setting."""
        if self.kind == "int":
            return self._parse_int(raw)
        if self.kind == "float":
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not math.isfinite(value) or value <= 0:
                raise ConfigError(
                    f"{self.name} must be a positive number, got {raw!r}")
            return value
        if self.kind == "onoff":
            if raw.lower() not in _ON_OFF:
                raise ConfigError(f"{self.name} must be one of "
                                  f"{sorted(_ON_OFF)}, got {raw!r}")
            return _ON_OFF[raw.lower()]
        if self.kind == "hosts":
            return split_hosts(raw)
        registry = self.registry()
        if registry is not None:
            try:
                registry.check(raw)
            except ConfigError as exc:
                raise ConfigError(f"{self.name}: {exc}") from None
        return raw

    def _parse_int(self, raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            try:
                number = float(raw)
            except ValueError:
                number = math.nan
            if not (math.isfinite(number) and number.is_integer()):
                raise ConfigError(f"{self.name} must be an integer, "
                                  f"got {raw!r}") from None
            value = int(number)
        if (self.minimum is not None and value < self.minimum) or \
                (self.maximum is not None and value > self.maximum):
            bounds = (f"between {self.minimum} and {self.maximum}"
                      if self.maximum is not None else f">= {self.minimum}")
            raise ConfigError(f"{self.name} must be {bounds}, got {raw!r}")
        return value


_KNOBS = (
    # -- RunConfig fields ----------------------------------------------------
    Knob("REPRO_WORKERS", "int", 8, "worker count", minimum=1,
         field="workers", flag="--workers"),
    Knob("REPRO_BACKEND", "str", "serial",
         "runtime backend for per-worker computation: serial/threads/"
         "processes run locally, 'remote' drives worker agents from --hosts",
         choices="repro.runtime.executor:BACKENDS", field="backend",
         flag="--backend"),
    Knob("REPRO_TRANSPORT", "str", None,
         "data plane carrying task payloads: 'pickle' ships partition "
         "matrices, 'shm' shared-memory descriptors, 'tcp' block-store "
         "descriptors remote workers fetch themselves (tcp is the default "
         "under --backend remote); resolved when the executor is created",
         choices="repro.runtime.transport:TRANSPORTS", field="transport",
         flag="--transport", shown="pickle"),
    Knob("REPRO_HOSTS", "hosts", None,
         "comma-separated worker hosts for --backend remote: 'host:port' "
         "agents (python -m repro serve) and/or 'local[:slots]'",
         field="hosts", flag="--hosts"),
    Knob("REPRO_SAMPLES", "int", 100, "optimizer samples", minimum=1,
         field="samples", flag="--samples"),
    Knob("REPRO_SEED", "int", 0, "sampling seed", minimum=0, field="seed"),
    Knob("REPRO_SCALE", "float", 1e-4,
         "dataset scale, resolved by repro.data.datasets", shown="1e-4"),
    Knob("REPRO_WORK_BUDGET", "int", None, "Leapfrog work budget",
         minimum=1, field="work_budget"),
    Knob("REPRO_KERNEL", "str", "adaptive",
         "join kernel for per-cube/per-bag execution: 'wcoj' is pure "
         "Leapfrog, 'binary' chains vectorized hash joins, 'adaptive' picks "
         "per subquery; see docs/kernels.md",
         choices="repro.kernels.base:KERNELS", field="kernel",
         flag="--kernel"),
    Knob("REPRO_MEMORY_TUPLES", "int", None,
         "per-worker memory budget in tuples", minimum=1,
         field="memory_tuples"),
    Knob("REPRO_PROFILE", "onoff", False,
         "EXPLAIN ANALYZE: print a per-phase modeled vs measured profile "
         "tree after the run table", field="profile", flag="--profile",
         shown="off"),
    Knob("REPRO_TRACE", "str", None,
         "write a Chrome trace-event JSON timeline of the run to this path "
         "(load in Perfetto / chrome://tracing)", field="trace_path",
         flag="--trace"),
    Knob("REPRO_LOG", "str", None, "level for the repro.* structured loggers",
         choices=("debug", "info", "warning", "error"), field="log_level",
         flag="--log-level", shown="warning"),
    # -- networking layer (docs/net.md) ---------------------------------------
    Knob("REPRO_BIND_HOST", "str", "127.0.0.1",
         "address block stores bind"),
    Knob("REPRO_ADVERTISE_HOST", "str", None,
         "address advertised to peers for block fetches", shown="bind host"),
    # -- query service (docs/service.md) --------------------------------------
    Knob("REPRO_SERVICE_PORT", "int", 7075,
         "default port for repro serve-sql and repro query", minimum=0,
         maximum=65535),
    Knob("REPRO_MAX_CONCURRENT", "int", 4,
         "queries the QueryService runs concurrently", minimum=1),
    Knob("REPRO_RESULT_CACHE_BYTES", "int", 64 << 20,
         "result-cache byte budget (0 disables caching)", minimum=0,
         shown="64 MiB"),
)

#: name -> row, in declaration order.
TABLE: dict[str, Knob] = {knob.name: knob for knob in _KNOBS}

#: Every environment variable the stack honours.
ENV_CATALOG: tuple[str, ...] = tuple(TABLE)

_UNSET: Any = object()


def env(name: str, default: Any = _UNSET) -> Any:
    """The parsed value of ``$name``, or its default when unset/blank.

    ``default`` replaces the table's default for one caller (the CLI's
    smaller dataset scale); a set variable still wins over it.
    """
    knob = TABLE[name]
    raw = os.environ.get(name, "").strip()
    if not raw:
        return knob.default if default is _UNSET else default
    return knob.parse(raw)
