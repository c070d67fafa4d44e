"""The simulated cluster every engine runs against.

Mirrors the paper's setup (Sec. VII-A): a number of workers (they use 28,
4 per slave x 7 slaves), a per-worker memory budget, and calibrated
communication/computation rates.  The cluster itself is a small value
object — tuples are assigned to workers in :mod:`repro.distributed.hcube`
(the one partitioner); the cluster supplies the parameters and fresh cost
ledgers.

The ``runtime`` field is a *hint* naming the execution backend
(:mod:`repro.runtime`) that should carry local per-cube computation:
``serial`` keeps everything in-process (the historical simulated
behaviour), ``threads``/``processes`` run worker tasks on a real pool,
and ``remote`` drives :mod:`repro.net` worker agents on other machines.
The hint is resolved into an :class:`repro.runtime.Executor` by
:func:`repro.runtime.executor_for`.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from ..errors import ConfigError
from .metrics import CostLedger, CostModelParams

__all__ = ["Cluster", "default_workers", "RUNTIME_BACKENDS"]

#: Environment variable overriding the default worker count.
WORKERS_ENV_VAR = "REPRO_WORKERS"

_DEFAULT_WORKERS = 8

#: Execution backends understood by :mod:`repro.runtime` (``remote``
#: resolves to :class:`repro.net.executor.RemoteExecutor` lazily).
RUNTIME_BACKENDS = ("serial", "threads", "processes", "remote")


def default_workers() -> int:
    """Worker count, overridable through REPRO_WORKERS."""
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return _DEFAULT_WORKERS
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{WORKERS_ENV_VAR} must be an integer >= 1, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"{WORKERS_ENV_VAR} must be >= 1, got {raw!r}")
    return value


@dataclass(frozen=True)
class Cluster:
    """A simulated cluster configuration."""

    num_workers: int = field(default_factory=default_workers)
    params: CostModelParams = field(default_factory=CostModelParams)
    #: Per-worker memory budget in tuples; None disables OOM checking.
    memory_tuples_per_worker: float | None = None
    #: Execution backend hint: one of :data:`RUNTIME_BACKENDS`.
    runtime: str = "serial"

    def __post_init__(self):
        if self.num_workers < 1:
            raise ConfigError("a cluster needs at least one worker")
        if self.runtime not in RUNTIME_BACKENDS:
            raise ConfigError(
                f"unknown runtime {self.runtime!r}; "
                f"choose from {RUNTIME_BACKENDS}")

    def new_ledger(self) -> CostLedger:
        return CostLedger(params=self.params)

    def with_workers(self, num_workers: int) -> "Cluster":
        """Same configuration, different worker count (Fig. 11 sweeps)."""
        return dataclasses.replace(self, num_workers=num_workers)

    def with_runtime(self, runtime: str) -> "Cluster":
        """Same configuration, different execution backend."""
        return dataclasses.replace(self, runtime=runtime)
