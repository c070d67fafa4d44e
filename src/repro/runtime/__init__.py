"""Parallel execution runtime: run HCube plans on real worker pools.

The rest of the library *models* a distributed cluster (cost ledgers,
simulated shuffles).  This subsystem adds the missing execution
substrate: an :class:`Executor` abstraction with ``serial``, ``threads``,
``processes`` and ``remote`` (:mod:`repro.net`) backends, a pluggable
data-plane :class:`Transport` (``pickle`` payloads, zero-copy ``shm``
descriptors, or multi-machine ``tcp`` block refs), one task shape
(:class:`WorkerTask` — cubes, a GHD bag or a partition pair — run by the
spawn-safe :func:`execute_worker_task`), a scheduler that mints tasks
from HCube routing assignments and runs any task stream as one epoch
(:func:`run_epoch`), and wall-clock telemetry recorded next to the
modeled cost breakdowns.

See docs/runtime.md for backend selection and spawn-safety rules, and
docs/data_plane.md for transport selection and shared-memory lifetime
rules.
"""

from .executor import (
    Executor,
    ExecutorView,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_backends,
    available_parallelism,
    create_executor,
    executor_for,
)
from .scheduler import (
    MergedOutcome,
    iter_routed_tasks,
    merge_task_results,
    run_epoch,
    run_streamed_tasks,
)
from .telemetry import RuntimeTelemetry, modeled_vs_measured
from .transport import (
    ArrayRef,
    PickleTransport,
    SharedMemoryTransport,
    Transport,
    TransportStats,
    available_transports,
    create_transport,
    default_transport_name,
    register_transport,
    resolve_array_ref,
)
from .worker import WorkerTask, WorkerTaskResult, execute_worker_task

__all__ = [
    "Executor",
    "ExecutorView",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "available_backends",
    "available_parallelism",
    "create_executor",
    "executor_for",
    "MergedOutcome",
    "iter_routed_tasks",
    "merge_task_results",
    "run_epoch",
    "run_streamed_tasks",
    "RuntimeTelemetry",
    "modeled_vs_measured",
    "ArrayRef",
    "Transport",
    "TransportStats",
    "PickleTransport",
    "SharedMemoryTransport",
    "available_transports",
    "create_transport",
    "default_transport_name",
    "register_transport",
    "resolve_array_ref",
    "WorkerTask",
    "WorkerTaskResult",
    "execute_worker_task",
]
