"""Executor backends: where worker tasks actually run.

One interface, three implementations here plus ``remote``
(:mod:`repro.net`, registered lazily), all in :data:`BACKENDS`:

- ``serial``    — tasks run in the calling process, each the moment the
  task source produces it.  The default everywhere: an engine handed no
  executor runs on a private one.
- ``threads``   — a ``ThreadPoolExecutor``.  Cheap to start and shares
  memory, but Leapfrog is Python/numpy-bound so the GIL caps speedup;
  useful for overlap with I/O and for testing task plumbing.
- ``processes`` — one process and one duplex pipe per slot: task
  ``worker % slots`` always runs in the same process, its *home*, and
  tasks with no ``worker`` go round-robin.  A home runs a loop — read
  ``(fn, task)``, run it, write back the result or the exception it
  raised — with no pool, manager thread or call queue between it and
  the coordinator.  Task payloads (numpy column batches or descriptors
  inside :class:`repro.runtime.scheduler.WorkerTask`) are pickled down
  the pipe, so task functions must be importable top-level functions
  (spawn/fork safe — see docs/runtime.md).  A home process keeps the
  inputs it resolved (:mod:`repro.runtime.residency`) and the heap
  pages it freed (:func:`keep_heap`); the executor's
  :attr:`~Executor.residency` view tells the task source what each
  slot holds, so a warm query publishes nothing a worker already has.

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
counters.  What else a failure discards depends on the backend: a
``threads`` or ``remote`` pool is shut down by any other exception; on
``processes`` a raised exception is only a reply — the home keeps its
process, heap and resident inputs — and only a dead home process (EOF
or EPIPE on its pipe) discards the homes and their residency.  The
transport is never torn down from the submission path.

Every executor also owns a data-plane :class:`Transport`
(:mod:`repro.runtime.transport`) and exposes ``setup``/``teardown``
lifecycle hooks.  ``teardown`` releases whatever the transport published
(shared-memory segments under ``shm``) and is called from ``close()``,
so segments are reclaimed even when a worker task crashes mid-run.
"""

from __future__ import annotations

import ctypes
import importlib
import itertools
import multiprocessing
import os
import pickle
import sys
import threading
import weakref
from concurrent.futures import (
    FIRST_EXCEPTION,
    BrokenExecutor,
    ThreadPoolExecutor,
    wait,
)
from multiprocessing import resource_tracker
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Iterable, Iterator, TypeVar

from ..errors import ConfigError, ReproError, WorkerCrashed
from ..obs.tracing import current_tracer
from ..registry import Registry
from .residency import RESIDENT_BYTES, ResidencyView
from .transport import Transport, create_transport

__all__ = [
    "Executor",
    "ExecutorView",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "BACKENDS",
    "create_executor",
    "executor_for",
    "available_parallelism",
    "keep_heap",
]

T = TypeVar("T")
R = TypeVar("R")

#: glibc's ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: Free bytes at the top of a home process's heap that glibc keeps
#: rather than returning to the OS: ``RESIDENT_BYTES``, so what a
#: process frees between tasks stays its own up to what it may keep
#: resident anyway (below 2**31: ``mallopt`` takes an ``int``).
HEAP_TRIM_BYTES = RESIDENT_BYTES

#: Smallest allocation a home process takes as its own ``mmap`` rather
#: than from the heap: 4 MiB, eight times a frontier chunk's largest
#: temporary (``repro.wcoj.leapfrog._CHUNK`` int64 candidates, 512 KB),
#: so a chunk's temporaries reuse heap pages, while an array this large
#: or larger stays a mapping of its own, which goes back to the OS when
#: freed.  glibc refuses a threshold above 32 MiB on 64-bit.
HEAP_MMAP_BYTES = 4 << 20


def keep_heap() -> None:
    """A home process's first call: it keeps its heap between tasks.

    glibc returns freed memory at the top of the heap to the OS once it
    passes a threshold, and serves large blocks from fresh mappings, so
    every frontier chunk of every warm query faulted its temporaries in
    again (about 1 500 minor faults and 4 ms of system time per warm
    ``tri-skew`` query and home process, on a 2-vCPU box; about 3
    faults with both thresholds set).  Both are set, or neither:
    setting either one turns off glibc's dynamic adjustment of the
    other, and either alone measured worse than the defaults, so the
    trim threshold is set only once glibc has taken the ``mmap`` one.
    A no-op where the C library is not glibc.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_BYTES) == 1:
        mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_BYTES)


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
    #: What each home process holds (a
    #: :class:`~repro.runtime.residency.ResidencyView`; ``processes``
    #: only).  Stamped on the executor's transports, where the task
    #: source reads it.
    residency: ResidencyView | None = None

    def __init__(self, max_workers: int | None = None,
                 transport: "Transport | str | None" = None):
        if max_workers is None:
            max_workers = 1
        max_workers = int(max_workers)
        if max_workers < 1:
            raise ConfigError(
                f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._transport: Transport | None = None
        if transport is not None:
            self._adopt(create_transport(transport))

    def _adopt(self, transport: Transport) -> None:
        self._transport = transport
        transport.residency = self.residency

    @property
    def transport(self) -> Transport:
        """The data plane carrying task payload arrays to workers.

        Resolved lazily so an unconfigured executor honours the
        ``REPRO_TRANSPORT`` environment default at first use.
        """
        if self._transport is None:
            self._adopt(create_transport())
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
    """A lazily made, lock-guarded pool; ``threads`` and ``remote``
    submit to a ``concurrent.futures`` pool through it, and
    ``processes`` keeps its homes in it."""

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

    def _shutdown_pool(self, wait: bool = False) -> None:
        """Discard the pool only — the transport (and its epoch counters)
        stays alive, because the *engine* owns the epoch and must be able
        to tear it down itself and read real ``last_epoch`` stats even
        after a failed run.

        ``wait`` joins the pool's workers; the crash path never waits,
        as a worker there may be dead or hung."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=wait, cancel_futures=True)
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
        # Genuine crash: a broken pool or an unexpected exception.  The
        # pool may be unusable; discard it — but never the transport
        # (the engine's teardown owns the epoch).
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


#: Every live home in this process.  A forked child closes its copies
#: of their coordinator ends (:func:`_drop_inherited_ends`), so only the
#: coordinator holds one: a home sees EOF, and exits, once the
#: coordinator closes its end or dies.
_HOMES: "weakref.WeakSet[_Home]" = weakref.WeakSet()
#: Serializes home starts in this process: a home forked while another
#: one's end of its pipe is still open here would hold that end too, and
#: the other home's death would then never read as EOF.
_STARTING = threading.Lock()


def _drop_inherited_ends() -> None:
    for home in list(_HOMES):
        home.conn.close()
    _HOMES.clear()


os.register_at_fork(after_in_child=_drop_inherited_ends)


def _dumps(obj) -> bytes:
    return ForkingPickler.dumps(obj, pickle.HIGHEST_PROTOCOL)


#: What a task imports on first use: the tcp ref resolver.  A home
#: imports those its coordinator has loaded before its first read.
_LAZY_TASK_PATH = ("repro.net.blockstore",)


def _home_loop(conn, preload: tuple[str, ...]) -> None:
    """A home process: run each ``(fn, task)`` its coordinator sends and
    write back ``(True, result)`` or ``(False, exception raised)``.

    It keeps its heap, imports the task path (``repro.runtime.worker``,
    its kernels, and the ``preload`` modules) and says it is ready (its
    pid) before its first read, so a spawned home pays for its imports
    while its executor starts, not inside the first query.  EOF (the
    coordinator closed its end, or died) ends the loop.
    """
    keep_heap()
    from . import worker  # noqa: F401  (the task path and its kernels)

    for module in preload:
        importlib.import_module(module)
    try:
        conn.send_bytes(_dumps(os.getpid()))
        while True:
            message = conn.recv_bytes()
            try:
                fn, task = pickle.loads(message)
                reply = _dumps((True, fn(task)))
            except Exception as exc:
                try:
                    reply = _dumps((False, exc))
                except Exception:
                    reply = _dumps((False, RuntimeError(
                        f"{type(exc).__name__}: {exc}")))
            conn.send_bytes(reply)
    except (EOFError, OSError, KeyboardInterrupt):
        return


class _HomeDied(Exception):
    """A home process's pipe closed under a task (the process died)."""


class _Ticket:
    """One sent task's reply: its pickled bytes, or why none came."""

    __slots__ = ("data", "lost")

    def __init__(self, lost: str | None = None):
        self.data: bytes | None = None
        self.lost = lost

    @property
    def done(self) -> bool:
        return self.data is not None or self.lost is not None


class _Home:
    """One home process and the coordinator's end of its duplex pipe.

    A home holds at most one task at a time: a task for a busy home is
    written once the reply before it has been read, so the coordinator
    never writes to a home that is blocked writing a reply nobody
    reads, whatever their sizes.  Whichever thread reads a reply — the
    task's owner, or a sender waiting for the home to free up — keeps it
    on the task's ticket for its owner; so concurrent queries share a
    home without a thread in between.
    """

    def __init__(self, ctx, slot: int, preload: tuple[str, ...]):
        self.slot = slot
        self.conn, theirs = ctx.Pipe()
        self.process = ctx.Process(target=_home_loop,
                                   args=(theirs, preload),
                                   name=f"repro-home-{slot}", daemon=True)
        _HOMES.add(self)
        self.process.start()
        theirs.close()
        self._sending = threading.Lock()
        self._reading = threading.Lock()
        self._flight: _Ticket | None = None
        self._lost: str | None = None

    def ready(self) -> None:
        """Wait for the process's first message (it has started)."""
        self._flight = _Ticket()
        self.reply(self._flight)

    def send(self, payload: bytes) -> _Ticket:
        """Write one pickled ``(fn, task)``; its reply comes to the
        returned ticket (lost at once if the home is already dead)."""
        with self._sending:
            if self._flight is not None:
                self._await(self._flight)
            ticket = self._flight = _Ticket(self._lost)
            if not ticket.done:
                try:
                    self.conn.send_bytes(payload)
                except OSError:
                    self._lose(ticket)
            return ticket

    def reply(self, ticket: _Ticket):
        """``ticket``'s ``(ok, value)``; :class:`_HomeDied` if lost."""
        self._await(ticket)
        if ticket.lost:
            raise _HomeDied(ticket.lost)
        return pickle.loads(ticket.data)

    def _await(self, ticket: _Ticket) -> None:
        # A ticket not yet done is the one in flight, so the next reply
        # on the pipe is its own.
        with self._reading:
            if ticket.done:
                return
            try:
                ticket.data = self.conn.recv_bytes()
            except (EOFError, OSError):
                self._lose(ticket)

    def _lose(self, ticket: _Ticket) -> None:
        self._lost = self._lost or (f"home process died (slot "
                                    f"{self.slot}, pid {self.process.pid})")
        ticket.lost = self._lost

    def stop(self, wait: bool) -> None:
        """End the process: after its running task (``wait``), or now."""
        if wait:
            with self._sending:
                if self._flight is not None:
                    self._await(self._flight)
                self._lost = self._lost or "home closed"
                with self._reading:
                    self.conn.close()       # EOF ends the loop
            self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        _HOMES.discard(self)


class ProcessExecutor(_PoolExecutor):
    """Process execution on home slots: real parallelism, and each
    worker's inputs stay where they were last used.

    ``_pool`` is the list of :class:`_Home` slots (None until started).
    """

    name = "processes"

    def __init__(self, max_workers: int | None = None,
                 transport: "Transport | str | None" = None,
                 start_method: str | None = None):
        super().__init__(max_workers, transport=transport)
        self.residency = ResidencyView(self.max_workers)
        if self._transport is not None:
            self._adopt(self._transport)
        self.start_method = start_method
        self._turn = itertools.count()

    def _make_pool(self) -> list[_Home]:
        ctx = multiprocessing.get_context(self.start_method)
        # New processes hold nothing.
        self.residency.clear()
        # Start every home now, back to back, before any task runs: a
        # process forked later, while another query thread holds a lock
        # the child needs (the shm resource tracker's), would wait on it
        # forever.  The tracker itself runs first, so the homes share it
        # instead of starting their own (which would report segments the
        # coordinator freed as leaked).
        resource_tracker.ensure_running()
        preload = tuple(m for m in _LAZY_TASK_PATH if m in sys.modules)
        with _STARTING:
            homes = [_Home(ctx, slot, preload)
                     for slot in range(self.max_workers)]
        try:
            for home in homes:
                home.ready()
        except _HomeDied as exc:
            for home in homes:
                home.stop(wait=False)
            raise WorkerCrashed(-1, f"a home did not start: {exc}") \
                from None
        return homes

    def submit_tasks(self, fn: Callable[[T], R], tasks: Iterable[T]
                     ) -> Iterator[R]:
        """Write each task to its home as the (possibly lazy) iterable
        produces it, then read the replies in submission order.

        Task ``worker % slots`` goes to that slot's home; a task with no
        integer ``worker`` goes round-robin.  A task that raised is a
        reply: a :class:`ReproError` propagates unchanged and anything
        else becomes :class:`WorkerCrashed`, and either way the home
        keeps its process and its resident inputs.  Only a dead home
        process (EOF or EPIPE on its pipe) discards the homes and clears
        :attr:`residency`.
        """
        homes = self._ensure_pool()
        sent: list[tuple[_Home, _Ticket]] = []
        with current_tracer().span("submit_tasks", cat="executor",
                                   backend=self.name):
            for task in tasks:
                worker = getattr(task, "worker", None)
                if not isinstance(worker, int):
                    worker = next(self._turn)
                home = homes[worker % len(homes)]
                try:
                    payload = _dumps((fn, task))
                except Exception as exc:
                    raise WorkerCrashed(
                        len(sent), f"task submission failed: "
                                   f"{type(exc).__name__}: {exc}") from exc
                sent.append((home, home.send(payload)))
            for i, (home, ticket) in enumerate(sent):
                try:
                    ok, value = home.reply(ticket)
                except _HomeDied as exc:
                    self._discard(homes)
                    raise WorkerCrashed(i, str(exc)) from None
                except Exception as exc:     # a reply that does not load
                    raise WorkerCrashed(
                        i, f"{type(exc).__name__}: {exc}") from exc
                if not ok:
                    if isinstance(value, ReproError):
                        raise value
                    raise WorkerCrashed(
                        i, f"{type(value).__name__}: {value}") from value
                self.residency.report(home.slot, value)
                yield value

    def _discard(self, homes: list[_Home]) -> None:
        """The crash path: discard ``homes`` unless already replaced."""
        with self._pool_lock:
            if self._pool is homes:
                self._shutdown_pool()

    def _shutdown_pool(self, wait: bool = False) -> None:
        """Discard the homes — joined after their running tasks
        (``wait``), or ended at once — and what they held."""
        with self._pool_lock:
            homes, self._pool = self._pool, None
        for home in homes or ():
            home.stop(wait)
        self.residency.clear()

    def close(self) -> None:
        self._shutdown_pool(wait=True)
        super().close()


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
        self.residency = base.residency
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


BACKENDS = Registry("backend")
BACKENDS.register("serial", SerialExecutor,
                  summary="tasks run in the calling process")
BACKENDS.register("threads", ThreadExecutor,
                  summary="a thread pool (shared memory, GIL-bound)")
BACKENDS.register("processes", ProcessExecutor,
                  summary="a process pool (pickled task payloads)")
BACKENDS.register("remote", lazy="repro.net.executor:RemoteExecutor",
                  summary="worker agents on other machines (repro.net)")


def create_executor(backend: str, max_workers: int | None = None,
                    transport: "Transport | str | None" = None,
                    **kwargs) -> Executor:
    """Instantiate a backend by name
    (``serial``/``threads``/``processes``/``remote``).

    ``transport`` names (or supplies) the data plane; ``None`` defers to
    ``REPRO_TRANSPORT`` at first use (the ``remote`` backend defaults to
    ``tcp`` instead).
    """
    return BACKENDS.create(backend, max_workers, transport=transport,
                           **kwargs)


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
