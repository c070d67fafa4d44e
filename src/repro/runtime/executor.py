"""Executor backends: where worker tasks actually run.

One interface, three implementations:

- ``serial``    — tasks run in the calling process, each the moment the
  task source produces it.  The default everywhere: an engine handed no
  executor runs on a private one.
- ``threads``   — a ``ThreadPoolExecutor``.  Cheap to start and shares
  memory, but Leapfrog is Python/numpy-bound so the GIL caps speedup;
  useful for overlap with I/O and for testing task plumbing.
- ``processes`` — a ``ProcessPoolExecutor``.  Task payloads (numpy column
  batches inside :class:`repro.runtime.scheduler.WorkerTask`) are pickled
  to worker processes, so task functions must be importable top-level
  functions (spawn/fork safe — see docs/runtime.md).

One dispatcher, two spellings:

- ``submit_tasks(fn, tasks)`` — ``tasks`` may be a *lazy* iterable (e.g.
  the scheduler's :func:`~repro.runtime.scheduler.iter_routed_tasks`
  generator, which publishes relations and mints descriptors as it
  goes).  Pool backends submit each task the moment the iterable
  produces it, so the first tasks execute while later ones are still
  being routed/published — the pipelined-epoch overlap.  Results are
  yielded in submission order.
- ``map_tasks(fn, tasks)`` — ``list(submit_tasks(fn, tasks))``, for
  callers that hold every task up front and want one ordered list.

Failure contract: a task that raises anything other than a
:class:`repro.errors.ReproError` — or a worker process that dies — is
converted into :class:`repro.errors.WorkerCrashed` so engines fail
cleanly instead of hanging or leaking backend internals.  A recoverable
:class:`ReproError` (e.g. ``BudgetExceeded``) propagates unchanged and
leaves the pool *and* the transport untouched: the engine's own
teardown owns the epoch, so failed runs still report real data-plane
counters.  Only a genuine crash (``BrokenProcessPool`` / non-ReproError)
shuts the pool down — and even then the transport is never torn down
from the submission path.

Every executor also owns a data-plane :class:`Transport`
(:mod:`repro.runtime.transport`) and exposes ``setup``/``teardown``
lifecycle hooks.  ``teardown`` releases whatever the transport published
(shared-memory segments under ``shm``) and is called from ``close()``,
so segments are reclaimed even when a worker task crashes mid-run.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import (
    FIRST_EXCEPTION,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Callable, Iterable, Iterator, TypeVar

from ..errors import ConfigError, ReproError, WorkerCrashed
from ..obs.tracing import current_tracer
from .transport import Transport, create_transport

__all__ = [
    "Executor",
    "ExecutorView",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "available_backends",
    "create_executor",
    "executor_for",
    "available_parallelism",
]

T = TypeVar("T")
R = TypeVar("R")

def available_parallelism() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class Executor:
    """Runs a batch of worker tasks and returns their results in order."""

    name: str = "abstract"
    #: Whether ``submit_tasks`` really executes tasks concurrently with
    #: their production.  False here (and for ``serial``): the base
    #: implementation runs tasks inline between mints, so there is no
    #: overlap to measure.  Pool backends set True.
    concurrent: bool = False

    def __init__(self, max_workers: int | None = None,
                 transport: "Transport | str | None" = None):
        if max_workers is None:
            max_workers = 1
        max_workers = int(max_workers)
        if max_workers < 1:
            raise ConfigError(
                f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._transport: Transport | None = (
            create_transport(transport) if transport is not None else None)

    @property
    def transport(self) -> Transport:
        """The data plane carrying task payload arrays to workers.

        Resolved lazily so an unconfigured executor honours the
        ``REPRO_TRANSPORT`` environment default at first use.
        """
        if self._transport is None:
            self._transport = create_transport()
        return self._transport

    def map_tasks(self, fn: Callable[[T], R], tasks: Iterable[T]
                  ) -> list[R]:
        """Apply ``fn`` to every task; results keep submission order.

        The one definition for every backend: :meth:`submit_tasks`,
        drained — same dispatcher, same failure contract.
        """
        return list(self.submit_tasks(fn, tasks))

    def submit_tasks(self, fn: Callable[[T], R], tasks: Iterable[T]
                     ) -> Iterator[R]:
        """Run ``fn`` over a (possibly *lazy*) task source.

        Consumes ``tasks`` (which may be a generator doing real work —
        publishing relations, minting descriptors) and yields results in
        submission order.  The base implementation executes each task
        inline as soon as the iterable produces it (the serial
        behaviour); pool backends override this to submit tasks as they
        stream in, so execution overlaps with task production.

        Failure contract: ReproError subclasses propagate unchanged,
        everything else becomes :class:`WorkerCrashed`, and neither
        outcome tears down the transport — the caller owns the epoch.
        """
        with current_tracer().span("submit_tasks", cat="executor",
                                   backend=self.name):
            for i, task in enumerate(tasks):
                try:
                    yield fn(task)
                except ReproError:
                    raise
                except Exception as exc:
                    raise WorkerCrashed(
                        i, f"{type(exc).__name__}: {exc}") from exc

    def setup(self) -> None:
        """Acquire backend + transport resources ahead of time (idempotent)."""
        self.transport.setup()

    def teardown(self) -> None:
        """Release transport-published resources (idempotent).

        Safe to call between runs: the next publish starts a new epoch.
        """
        if self._transport is not None:
            self._transport.teardown()

    def close(self) -> None:
        """Release pool and transport resources (idempotent)."""
        self.teardown()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialExecutor(Executor):
    """In-process execution: each task runs the moment it is minted."""

    name = "serial"


class _PoolExecutor(Executor):
    """Shared submit/collect logic for the two real pool backends."""

    concurrent = True

    def __init__(self, max_workers: int | None = None,
                 transport: "Transport | str | None" = None):
        super().__init__(max_workers, transport=transport)
        self._pool = None
        # Guards pool creation/teardown: concurrent queries sharing one
        # warm executor (through ExecutorViews) may race to the first
        # submit_tasks call; without the lock two pools get built and one
        # leaks its worker threads/processes.  Reentrant because a
        # failing ``_make_pool`` (e.g. RemoteExecutor with an
        # unreachable host) cleans up via ``close`` -> ``_shutdown_pool``
        # while ``_ensure_pool`` still holds the lock.
        self._pool_lock = threading.RLock()

    def _make_pool(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _ensure_pool(self):
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool

    def setup(self) -> None:
        super().setup()
        self._ensure_pool()

    def _shutdown_pool(self) -> None:
        """Discard the pool only — the transport (and its epoch counters)
        stays alive, because the *engine* owns the epoch and must be able
        to tear it down itself and read real ``last_epoch`` stats even
        after a failed run."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    def _raise_if_cancelled(self, futures) -> None:
        """Surface cross-run cancellation as a clean WorkerCrashed.

        When a *concurrent* run on the same shared pool crashes, its
        ``_shutdown_pool`` cancels every pending future — including
        ours.  A cancelled future holds no exception, so the
        FIRST_EXCEPTION scan misses it and ``result()`` would leak a
        raw ``CancelledError`` out of the failure contract.
        """
        cancelled = next((f for f in futures if f.cancelled()), None)
        if cancelled is not None:
            raise WorkerCrashed(
                futures.index(cancelled),
                "task cancelled: the shared pool was shut down by a "
                "concurrent failure")

    def _raise_failure(self, futures, failed) -> None:
        """Re-raise a failed future per the shared failure contract."""
        exc = failed.exception()
        if isinstance(exc, ReproError):
            # Recoverable (budget trips, modelled OOM, an already-wrapped
            # WorkerCrashed): the pool itself is healthy — keep it.
            raise exc
        # Genuine crash: a broken pool (dead worker process) or an
        # unexpected exception.  The pool may be unusable; discard it —
        # but never the transport (the engine's teardown owns the epoch).
        self._shutdown_pool()
        raise WorkerCrashed(
            futures.index(failed),
            f"{type(exc).__name__}: {exc}") from exc

    def submit_tasks(self, fn: Callable[[T], R], tasks: Iterable[T]
                     ) -> Iterator[R]:
        """Submit tasks as the (possibly lazy) iterable produces them.

        Pool workers start executing the first tasks while the iterable
        is still minting later ones — the coordinator/worker overlap of
        pipelined epochs.  If an already-submitted task fails while the
        stream is still being consumed, consumption stops early, pending
        tasks are cancelled, and the failure is raised under the shared
        contract.
        """
        pool = self._ensure_pool()
        futures = []
        abort = threading.Event()

        def _watch(future) -> None:
            if not future.cancelled() and future.exception() is not None:
                abort.set()

        with current_tracer().span("submit_tasks", cat="executor",
                                   backend=self.name):
            try:
                for task in tasks:
                    if abort.is_set():
                        break
                    try:
                        future = pool.submit(fn, task)
                    except Exception as exc:
                        if isinstance(exc, BrokenExecutor):
                            self._shutdown_pool()
                        raise WorkerCrashed(
                            -1, f"task submission failed: "
                                f"{type(exc).__name__}: {exc}") from exc
                    future.add_done_callback(_watch)
                    futures.append(future)
            except Exception:
                # The task *source* failed (publish error, routing bug)
                # or the pool refused a task: don't leave orphan tasks
                # running against an epoch the caller is about to tear
                # down.
                for f in futures:
                    f.cancel()
                raise
            # Block until everything finished or something failed —
            # healthy long runs never time out.  On failure, report the
            # future that actually holds the exception (not whichever
            # healthy task is still running) and cancel the rest.
            done, pending = wait(futures, return_when=FIRST_EXCEPTION)
            failed = next(
                (f for f in done if not f.cancelled()
                 and f.exception() is not None), None)
            if failed is not None:
                for f in pending:
                    f.cancel()
                self._raise_failure(futures, failed)
            self._raise_if_cancelled(futures)
            # No exception => FIRST_EXCEPTION degenerated to
            # ALL_COMPLETED, so every result is ready and result()
            # cannot block.
            for future in futures:
                yield future.result()

    def close(self) -> None:
        self._shutdown_pool()
        super().close()


class ThreadExecutor(_PoolExecutor):
    """Thread-pool execution (shared memory, GIL-bound compute)."""

    name = "threads"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.max_workers,
                                  thread_name_prefix="repro-worker")


class ProcessExecutor(_PoolExecutor):
    """Process-pool execution: real parallelism via pickled partitions."""

    name = "processes"

    def __init__(self, max_workers: int | None = None,
                 transport: "Transport | str | None" = None,
                 start_method: str | None = None):
        super().__init__(max_workers, transport=transport)
        self.start_method = start_method

    def _make_pool(self):
        import multiprocessing

        ctx = (multiprocessing.get_context(self.start_method)
               if self.start_method else None)
        return ProcessPoolExecutor(max_workers=self.max_workers,
                                   mp_context=ctx)


class ExecutorView(Executor):
    """Per-query view of a shared executor: same pool, private data plane.

    Every engine run assumes exclusive use of ``executor.transport`` —
    publish an epoch, tear it down in ``finally``, read the frozen
    ``last_epoch`` counters.  A warm cluster serving concurrent queries
    breaks that single-run assumption, so each query gets a *view*:
    ``submit_tasks`` (and so ``map_tasks``) delegates to the shared base
    executor (one worker pool, amortized across queries) while
    :attr:`transport` is a private instance stamped with a per-query
    epoch id.  Published
    blocks, :class:`~repro.runtime.transport.TransportStats` and the
    frozen ``last_epoch`` of interleaved queries therefore never mix,
    and engines need no changes to run concurrently.

    ``teardown()``/``close()`` release only the view's own transport;
    the shared pool (and whatever transport the base executor may own)
    stays warm for the next query.
    """

    def __init__(self, base: Executor, transport: "Transport | str | None"
                 = None, epoch: str | None = None):
        super().__init__(base.max_workers, transport=transport)
        self._base = base
        self.name = base.name
        self.concurrent = base.concurrent
        self.epoch = epoch
        if epoch is not None:
            self.transport.epoch = epoch

    @property
    def base(self) -> Executor:
        """The shared executor this view delegates execution to."""
        return self._base

    def submit_tasks(self, fn: Callable[[T], R], tasks: Iterable[T]
                     ) -> Iterator[R]:
        return self._base.submit_tasks(fn, tasks)

    def setup(self) -> None:
        # Only the view's own transport: the base pool is built lazily
        # (and thread-safely) on first use, and eagerly creating a
        # transport the base never publishes through would be waste.
        self.transport.setup()

    def close(self) -> None:
        # Deliberately *not* base.close(): the context owns the pool.
        self.teardown()

    def __repr__(self) -> str:
        return (f"ExecutorView(base={self._base!r}, "
                f"epoch={self.epoch!r})")


_BACKENDS: dict[str, type[Executor]] = {
    "serial": SerialExecutor,
    "threads": ThreadExecutor,
    "processes": ProcessExecutor,
}

#: Backends resolved on first use, so importing the runtime never pulls
#: in :mod:`repro.net` (and its sockets).
_LAZY_BACKENDS: dict[str, tuple[str, str]] = {
    "remote": ("repro.net.executor", "RemoteExecutor"),
}


def available_backends() -> tuple[str, ...]:
    """Registered executor backend names."""
    return (*_BACKENDS, *_LAZY_BACKENDS)


def create_executor(backend: str, max_workers: int | None = None,
                    transport: "Transport | str | None" = None,
                    **kwargs) -> Executor:
    """Instantiate a backend by name
    (``serial``/``threads``/``processes``/``remote``).

    ``transport`` names (or supplies) the data plane; ``None`` defers to
    ``REPRO_TRANSPORT`` at first use (the ``remote`` backend defaults to
    ``tcp`` instead).
    """
    cls = _BACKENDS.get(backend)
    if cls is None and backend in _LAZY_BACKENDS:
        import importlib

        module, attr = _LAZY_BACKENDS[backend]
        cls = getattr(importlib.import_module(module), attr)
    if cls is None:
        raise ConfigError(
            f"unknown runtime backend {backend!r}; "
            f"choose from {available_backends()}")
    return cls(max_workers, transport=transport, **kwargs)


def executor_for(cluster,
                 transport: "Transport | str | None" = None,
                 hosts=None) -> Executor:
    """Executor matching a :class:`repro.distributed.Cluster`'s hint.

    The pool size is the cluster's worker count capped at the CPUs the
    process may use — more pool members than cores only adds contention
    (for threads the GIL makes surplus workers pure overhead).  The
    ``remote`` backend is not capped (its parallelism is the slots the
    worker ``hosts`` advertise, not this machine's cores).
    """
    workers = cluster.num_workers
    kwargs = {}
    if cluster.runtime in ("processes", "threads"):
        workers = min(workers, available_parallelism())
    if cluster.runtime == "remote":
        kwargs["hosts"] = hosts
    return create_executor(cluster.runtime, max_workers=workers,
                           transport=transport, **kwargs)
