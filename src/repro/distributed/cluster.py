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
import functools
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..knobs import env
from .metrics import CostLedger, CostModelParams

__all__ = ["Cluster"]


@dataclass(frozen=True)
class Cluster:
    """A simulated cluster configuration."""

    num_workers: int = field(
        default_factory=functools.partial(env, "REPRO_WORKERS"))
    params: CostModelParams = field(default_factory=CostModelParams)
    #: Per-worker memory budget in tuples; None disables OOM checking.
    memory_tuples_per_worker: float | None = None
    #: Execution backend hint: a :data:`repro.runtime.BACKENDS` key.
    runtime: str = "serial"

    def __post_init__(self):
        from ..runtime.executor import BACKENDS

        if self.num_workers < 1:
            raise ConfigError("a cluster needs at least one worker")
        BACKENDS.check(self.runtime)

    def new_ledger(self) -> CostLedger:
        return CostLedger(params=self.params)

    def with_workers(self, num_workers: int) -> "Cluster":
        """Same configuration, different worker count (Fig. 11 sweeps)."""
        return dataclasses.replace(self, num_workers=num_workers)

    def with_runtime(self, runtime: str) -> "Cluster":
        """Same configuration, different execution backend."""
        return dataclasses.replace(self, runtime=runtime)
