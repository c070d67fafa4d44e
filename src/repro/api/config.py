"""Typed run configuration with environment-variable defaults.

One :class:`RunConfig` answers every "how should this run?" question —
worker count, runtime backend, data-plane transport, optimizer sampling,
budgets, memory — that used to be scattered across per-engine kwargs,
``Cluster`` fields and ``executor_for`` arguments.

Precedence is **explicit argument > environment variable > built-in
default**: every field's default factory reads its ``REPRO_*`` variable,
so a value passed to ``RunConfig(...)`` (e.g. from a CLI flag) always
wins, and an unset field falls back to the documented default.

Environment variables::

    REPRO_WORKERS      simulated worker count         (default 8)
    REPRO_BACKEND      serial | threads | processes | remote
                                                      (default serial)
    REPRO_TRANSPORT    pickle | shm | tcp — resolved by the transport
                       layer at executor creation, not here
    REPRO_HOSTS        worker hosts for the remote backend, e.g.
                       "127.0.0.1:7070,127.0.0.1:7071,local:2"
    REPRO_SAMPLES      optimizer sample budget        (default 100)
    REPRO_SEED         sampling seed                  (default 0)
    REPRO_SCALE        dataset scale — resolved by repro.data.datasets
    REPRO_WORK_BUDGET  Leapfrog work budget           (default None)
    REPRO_KERNEL       join kernel: wcoj | binary | adaptive
                                                      (default adaptive)
    REPRO_MEMORY_TUPLES per-worker memory budget      (default None)
    REPRO_PROFILE      EXPLAIN ANALYZE profiles: on | off  (default off)
    REPRO_TRACE        Chrome-trace output path       (default None)
    REPRO_LOG          log level for the repro.* loggers
                                                      (default warning)
    REPRO_BIND_HOST    address block stores bind      (default 127.0.0.1)
    REPRO_ADVERTISE_HOST  address advertised to peers for block fetches
                                                      (default: bind host)
    REPRO_NET_CACHE_BYTES remote block-fetch cache budget in bytes
                                                      (default 256 MiB)

:data:`ENV_CATALOG` is the machine-readable registry of these names;
the ``env-registry`` lint rule (docs/static_analysis.md) rejects any
``REPRO_*`` read that is not declared here and documented in
docs/api.md.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from ..distributed.cluster import RUNTIME_BACKENDS, Cluster, default_workers
from ..engines.base import EngineOptions
from ..errors import ConfigError
from ..kernels import KERNEL_ENV_VAR, default_kernel, kernel_spec
from ..obs.log import LOG_ENV_VAR, resolve_level
from ..obs.tracing import TRACE_ENV_VAR

__all__ = ["RunConfig", "EngineOptions", "ENV_CATALOG", "default_backend",
           "default_hosts", "default_kernel", "default_log_level",
           "default_profile", "default_samples",
           "default_seed", "default_trace_path", "KERNEL_ENV_VAR",
           "LOG_ENV_VAR", "PROFILE_ENV_VAR", "TRACE_ENV_VAR"]


HOSTS_ENV_VAR = "REPRO_HOSTS"

#: Every environment variable the stack honours, in one place.  New
#: REPRO_* knobs must be added here (and to docs/api.md) before any
#: code reads them — the env-registry lint rule enforces it.
ENV_CATALOG: tuple[str, ...] = (
    "REPRO_WORKERS",
    "REPRO_BACKEND",
    "REPRO_TRANSPORT",
    "REPRO_HOSTS",
    "REPRO_SAMPLES",
    "REPRO_SEED",
    "REPRO_SCALE",
    "REPRO_WORK_BUDGET",
    "REPRO_KERNEL",
    "REPRO_MEMORY_TUPLES",
    "REPRO_PROFILE",
    "REPRO_TRACE",
    "REPRO_LOG",
    "REPRO_BIND_HOST",
    "REPRO_ADVERTISE_HOST",
    "REPRO_NET_CACHE_BYTES",
    "REPRO_SERVICE_PORT",
    "REPRO_RESULT_CACHE_BYTES",
    "REPRO_MAX_CONCURRENT",
)


def default_hosts() -> tuple[str, ...] | None:
    """Host specs from ``REPRO_HOSTS`` (None when unset/empty).

    Mirrors :func:`repro.net.executor.default_hosts` rather than
    importing it: this factory runs on every :class:`RunConfig`
    construction, and ``import repro.api`` must not pull in the
    networking package (it is registered lazily everywhere else too —
    only ``backend="remote"`` touches :mod:`repro.net`).
    """
    raw = os.environ.get(HOSTS_ENV_VAR)
    if raw is None:
        return None
    hosts = tuple(part.strip() for part in raw.split(",") if part.strip())
    return hosts or None

BACKEND_ENV_VAR = "REPRO_BACKEND"
PROFILE_ENV_VAR = "REPRO_PROFILE"
SAMPLES_ENV_VAR = "REPRO_SAMPLES"
SEED_ENV_VAR = "REPRO_SEED"
WORK_BUDGET_ENV_VAR = "REPRO_WORK_BUDGET"
MEMORY_ENV_VAR = "REPRO_MEMORY_TUPLES"

_DEFAULT_SAMPLES = 100
_DEFAULT_SEED = 0


def _env_int(var: str, default: int | None, minimum: int | None = None
             ) -> int | None:
    raw = os.environ.get(var)
    if raw is None:
        return default
    try:
        value = int(float(raw))
    except ValueError:
        raise ConfigError(f"{var} must be a number, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{var} must be >= {minimum}, got {raw!r}")
    return value


def default_backend() -> str:
    """Runtime backend, overridable through REPRO_BACKEND."""
    raw = os.environ.get(BACKEND_ENV_VAR)
    if raw is None:
        return "serial"
    if raw not in RUNTIME_BACKENDS:
        raise ConfigError(
            f"{BACKEND_ENV_VAR} must be one of {RUNTIME_BACKENDS}, "
            f"got {raw!r}")
    return raw


def default_trace_path() -> str | None:
    """Chrome-trace output path from REPRO_TRACE (None when unset)."""
    raw = os.environ.get(TRACE_ENV_VAR)
    return raw.strip() or None if raw is not None else None


def default_log_level() -> str | None:
    """Log level from REPRO_LOG (None defers to configure_logging)."""
    raw = os.environ.get(LOG_ENV_VAR)
    return raw.strip() or None if raw is not None else None


_PROFILE_VALUES = {"on": True, "1": True, "true": True, "yes": True,
                   "off": False, "0": False, "false": False, "no": False}


def default_profile() -> bool:
    """EXPLAIN ANALYZE default from ``REPRO_PROFILE`` (off unless set)."""
    raw = os.environ.get(PROFILE_ENV_VAR)
    if raw is None:
        return False
    value = _PROFILE_VALUES.get(raw.strip().lower())
    if value is None:
        raise ConfigError(
            f"{PROFILE_ENV_VAR} must be one of "
            f"{sorted(_PROFILE_VALUES)}, got {raw!r}")
    return value


def default_samples() -> int:
    return _env_int(SAMPLES_ENV_VAR, _DEFAULT_SAMPLES, minimum=1)


def default_seed() -> int:
    return _env_int(SEED_ENV_VAR, _DEFAULT_SEED)


@dataclass(frozen=True)
class RunConfig:
    """Everything a :class:`repro.api.JoinSession` needs to run queries."""

    #: Simulated worker count (REPRO_WORKERS).
    workers: int = field(default_factory=default_workers)
    #: Runtime backend: serial | threads | processes (REPRO_BACKEND).
    backend: str = field(default_factory=default_backend)
    #: Data-plane transport name; None defers to REPRO_TRANSPORT when
    #: the executor is created (``pickle``, or ``tcp`` for the remote
    #: backend).
    transport: str | None = None
    #: Worker hosts for the ``remote`` backend (REPRO_HOSTS): a tuple of
    #: ``"host:port"`` agent addresses and/or ``"local[:slots]"``
    #: entries; None is fine for every other backend.
    hosts: tuple[str, ...] | None = field(default_factory=default_hosts)
    #: Optimizer sample budget (REPRO_SAMPLES).
    samples: int = field(default_factory=default_samples)
    #: Sampling seed (REPRO_SEED).
    seed: int = field(default_factory=default_seed)
    #: Dataset scale for named test-cases; None defers to REPRO_SCALE /
    #: the dataset default inside repro.data.datasets.
    scale: float | None = None
    #: Leapfrog work budget, the 12-hour-timeout analogue
    #: (REPRO_WORK_BUDGET).
    work_budget: int | None = field(
        default_factory=lambda: _env_int(WORK_BUDGET_ENV_VAR, None,
                                         minimum=1))
    #: :mod:`repro.kernels` key driving per-cube/per-bag join execution
    #: (REPRO_KERNEL, default ``adaptive``).  ``wcoj`` reproduces the
    #: historical pure-Leapfrog counters exactly.
    kernel: str = field(default_factory=default_kernel)
    #: Per-worker memory budget in tuples; None disables OOM checking
    #: (REPRO_MEMORY_TUPLES).
    memory_tuples: float | None = field(
        default_factory=lambda: _env_int(MEMORY_ENV_VAR, None, minimum=1))
    #: EXPLAIN ANALYZE by default: every ``QueryJob.run`` assembles a
    #: :class:`repro.obs.profile.QueryProfile` onto the result
    #: (``REPRO_PROFILE``, default off — profiling records spans into a
    #: run-local tracer, so the zero-overhead contract only holds when
    #: this is off).  Per-call ``run(profile=...)`` wins over it.
    profile: bool = field(default_factory=default_profile)
    #: Where to write the Chrome-trace JSON timeline of every run in
    #: the session; None disables tracing entirely — the hot paths see
    #: only the zero-cost noop tracer (REPRO_TRACE, docs/observability.md).
    trace_path: str | None = field(default_factory=default_trace_path)
    #: Level for the ``repro.*`` structured loggers; None keeps the
    #: REPRO_LOG / ``warning`` default inside configure_logging.
    log_level: str | None = field(default_factory=default_log_level)

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.log_level is not None:
            try:
                resolve_level(self.log_level)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.backend not in RUNTIME_BACKENDS:
            raise ConfigError(
                f"unknown backend {self.backend!r}; "
                f"choose from {RUNTIME_BACKENDS}")
        kernel_spec(self.kernel)   # validates; raises ConfigError
        if self.hosts is not None and not isinstance(self.hosts, tuple):
            # Accept a comma-separated string or any iterable of specs.
            hosts = (tuple(p.strip() for p in self.hosts.split(",")
                           if p.strip())
                     if isinstance(self.hosts, str)
                     else tuple(str(h) for h in self.hosts))
            object.__setattr__(self, "hosts", hosts or None)
        if self.backend == "remote":
            from ..net.executor import parse_host_specs

            parse_host_specs(self.hosts)   # validates; raises ConfigError

    def replace(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied (None values are dropped, so
        optional CLI flags pass through untouched)."""
        changes = {k: v for k, v in changes.items() if v is not None}
        return dataclasses.replace(self, **changes) if changes else self

    def make_cluster(self) -> Cluster:
        return Cluster(num_workers=self.workers, runtime=self.backend,
                       memory_tuples_per_worker=self.memory_tuples)

    def engine_options(self, options: EngineOptions | None = None,
                       **overrides) -> EngineOptions:
        """Session-level defaults folded into an :class:`EngineOptions`.

        Per-call ``options`` and field-name ``overrides`` win over the
        config's ``samples``/``seed``/``work_budget``.
        """
        base = EngineOptions(samples=self.samples, seed=self.seed,
                             work_budget=self.work_budget,
                             kernel=self.kernel)
        return base.merged_with(options, **overrides)
