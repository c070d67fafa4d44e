"""Typed run configuration with environment-variable defaults.

One :class:`RunConfig` answers every "how should this run?" question —
worker count, runtime backend, data-plane transport, optimizer sampling,
budgets, memory — that used to be scattered across per-engine kwargs,
``Cluster`` fields and ``executor_for`` arguments.

Precedence is **explicit argument > environment variable > built-in
default**: every field's default factory reads its ``REPRO_*`` variable,
so a value passed to ``RunConfig(...)`` (e.g. from a CLI flag) always
wins, and an unset field falls back to the documented default.

Each field's variable, parse rule and default live in one row of
:data:`repro.knobs.TABLE` (:data:`ENV_CATALOG` lists them all; docs/api.md
documents them).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial

from ..distributed.cluster import Cluster
from ..engines.base import EngineOptions
from ..errors import ConfigError
from ..kernels import KERNELS
from ..knobs import ENV_CATALOG, env, split_hosts
from ..obs.log import resolve_level
from ..runtime.executor import BACKENDS

__all__ = ["RunConfig", "EngineOptions", "ENV_CATALOG"]


@dataclass(frozen=True)
class RunConfig:
    """Everything a :class:`repro.api.JoinSession` needs to run queries."""

    #: Simulated worker count (REPRO_WORKERS).
    workers: int = field(default_factory=partial(env, "REPRO_WORKERS"))
    #: Runtime backend: serial | threads | processes (REPRO_BACKEND).
    backend: str = field(default_factory=partial(env, "REPRO_BACKEND"))
    #: Data-plane transport name; None defers to REPRO_TRANSPORT when
    #: the executor is created (``pickle``, or ``tcp`` for the remote
    #: backend).
    transport: str | None = None
    #: Worker hosts for the ``remote`` backend (REPRO_HOSTS): a tuple of
    #: ``"host:port"`` agent addresses and/or ``"local[:slots]"``
    #: entries; None is fine for every other backend.
    hosts: tuple[str, ...] | None = field(
        default_factory=partial(env, "REPRO_HOSTS"))
    #: Optimizer sample budget (REPRO_SAMPLES).
    samples: int = field(default_factory=partial(env, "REPRO_SAMPLES"))
    #: Sampling seed (REPRO_SEED).
    seed: int = field(default_factory=partial(env, "REPRO_SEED"))
    #: Dataset scale for named test-cases; None defers to REPRO_SCALE /
    #: the dataset default inside repro.data.datasets.
    scale: float | None = None
    #: Leapfrog work budget, the 12-hour-timeout analogue
    #: (REPRO_WORK_BUDGET).
    work_budget: int | None = field(
        default_factory=partial(env, "REPRO_WORK_BUDGET"))
    #: :mod:`repro.kernels` key driving per-cube/per-bag join execution
    #: (REPRO_KERNEL, default ``adaptive``).  ``wcoj`` reproduces the
    #: historical pure-Leapfrog counters exactly.
    kernel: str = field(default_factory=partial(env, "REPRO_KERNEL"))
    #: Per-worker memory budget in tuples; None disables OOM checking
    #: (REPRO_MEMORY_TUPLES).
    memory_tuples: float | None = field(
        default_factory=partial(env, "REPRO_MEMORY_TUPLES"))
    #: EXPLAIN ANALYZE by default: every ``QueryJob.run`` assembles a
    #: :class:`repro.obs.profile.QueryProfile` onto the result
    #: (``REPRO_PROFILE``, default off — profiling records spans into a
    #: run-local tracer, so the zero-overhead contract only holds when
    #: this is off).  Per-call ``run(profile=...)`` wins over it.
    profile: bool = field(default_factory=partial(env, "REPRO_PROFILE"))
    #: Where to write the Chrome-trace JSON timeline of every run in
    #: the session; None disables tracing entirely — the hot paths see
    #: only the zero-cost noop tracer (REPRO_TRACE, docs/observability.md).
    trace_path: str | None = field(
        default_factory=partial(env, "REPRO_TRACE"))
    #: Level for the ``repro.*`` structured loggers; None keeps the
    #: REPRO_LOG / ``warning`` default inside configure_logging.
    log_level: str | None = field(
        default_factory=partial(env, "REPRO_LOG"))

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.log_level is not None:
            resolve_level(self.log_level)   # validates; raises ConfigError
        BACKENDS.check(self.backend)
        KERNELS.check(self.kernel)
        if self.hosts is not None and not isinstance(self.hosts, tuple):
            # Accept a comma-separated string or any iterable of specs.
            hosts = (split_hosts(self.hosts) if isinstance(self.hosts, str)
                     else tuple(str(h) for h in self.hosts) or None)
            object.__setattr__(self, "hosts", hosts)
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
