"""Scheduler: mint worker tasks, run them as one epoch, merge the results.

The HCube locality property guarantees every output tuple is produced by
exactly one cube, so per-worker evaluation is embarrassingly parallel:
:func:`iter_routed_tasks` groups each worker's cubes into one
:class:`WorkerTask` — the mint of every routed fragment (cubes,
co-partitioned pairs); only Yannakakis, whose bags are whole relations,
mints the same task shape itself.  :func:`run_epoch` is the
one sequence every engine runs per transport epoch — stream the tasks to
an :class:`repro.runtime.Executor` as they are minted
(:func:`run_streamed_tasks`), merge the results
(:func:`merge_task_results`, the only place a failed result becomes
:class:`~repro.errors.WorkerCrashed` / :class:`~repro.errors
.BudgetExceeded`), tear the transport epoch down whatever happened, and
snapshot its counters.  The merged counters (counts, per-level
intermediate tuples, per-worker intersection work) are the same on
every backend, so modeled cost accounting is backend-independent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..data.database import Database
from ..distributed.hcube import HCubeRouting
from ..errors import BudgetExceeded, WorkerCrashed
from ..obs.metrics import METRICS
from ..obs.tracing import current_tracer, trace_context
from ..wcoj.leapfrog import trie_order
from .executor import Executor
from .telemetry import RuntimeTelemetry
from .transport import PickleTransport, Transport
from .worker import WorkerTask, WorkerTaskResult, execute_worker_task

__all__ = ["MergedOutcome", "RoutedTasks", "absorb_result_observability",
           "iter_routed_tasks", "merge_task_results", "run_epoch",
           "run_streamed_tasks"]


@dataclass
class MergedOutcome:
    """Sum of all worker task results (the coordinator's view)."""

    count: int = 0
    level_tuples: list[int] = field(default_factory=list)
    total_work: int = 0
    worker_work: dict[int, float] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    tasks: int = 0
    #: Materializing tasks' rows, in task order (empty for count-only).
    rows: list[np.ndarray] = field(default_factory=list)
    #: The epoch's post-teardown transport counters plus ``transport``
    #: (filled by :func:`run_epoch`).
    data_plane: dict = field(default_factory=dict)


def iter_routed_tasks(routing: HCubeRouting, db: Database,
                      order: Sequence[str],
                      budget: int | None = None,
                      transport: Transport | None = None,
                      cache_capacity: Callable[[int], int] | None = None,
                      kernel: str = "wcoj",
                      materialize: bool = False) -> "RoutedTasks":
    """Stream worker tasks: yield each task as soon as its refs exist.

    The pipelined-epoch task source.  The routing's source layouts are
    published lazily — each the first time one of its refs is minted —
    and a worker's :class:`~repro.runtime.worker.WorkerTask` is yielded
    the moment all of its descriptors are mintable, so an executor
    consuming this stream through
    :meth:`~repro.runtime.executor.Executor.submit_tasks` starts
    executing the first workers' tasks while later tasks are still
    being published.  Each layout (``routing.layouts``: one per atom,
    so a self-join publishes its relation once per atom) is published
    at most once; tasks carry one
    :class:`~repro.runtime.transport.ArrayRef` per (atom, cube) — a row
    range of that atom's layout — instead of a materialized partition
    matrix, so partitioning happens on the worker that owns the cube.
    A task flags, per atom, the slices that arrive as sorted sets in
    the atom's trie order — a layout of distinct rows whose column
    order is the atom's trie order (every block is lexsorted) — and
    its worker skips their sort.

    When the transport carries a residency view (a ``processes``
    executor's home slots, :mod:`repro.runtime.residency`) and the
    tasks are count-only, every ref names its rows by content
    (:meth:`~repro.distributed.hcube.HCubeRouting.content_keys`, over
    ``db``'s relation digests): a key the worker's home process already
    holds becomes a header-only ``resident`` ref, and a source none of
    whose refs needs publishing is never published.  (A materializing
    task's sources — a SparkSQL step's — are new relations every query,
    so naming them would hash rows per query; they carry no keys.)
    :meth:`RoutedTasks.remint` re-mints a worker's task with every ref
    published, for :func:`run_epoch` to retry a resident miss.

    ``budget`` is the engine's *global* intersection-work cap; each task
    receives it whole and the coordinator re-checks the summed work after
    the run (see :func:`merge_task_results`), so a budget violation is
    detected whether it happens inside one worker or only in aggregate.

    ``cache_capacity(worker_load)`` sizes an optional Leapfrog
    intersection cache (HCubeJ+Cache).  ``kernel`` is the
    :mod:`repro.kernels` key each task executes with — a plain string so
    it survives spawned process pools and remote agents.  ``materialize``
    makes every task ship its joined rows home (a SparkSQL step needs
    the intermediate relation; cube counts do not).
    """
    return RoutedTasks(routing, db, tuple(order), budget,
                       transport or PickleTransport(), cache_capacity,
                       kernel, materialize)


class RoutedTasks:
    """The task stream of :func:`iter_routed_tasks`: one task per worker,
    in worker order; :meth:`remint` mints a worker's task again."""

    def __init__(self, routing: HCubeRouting, db: Database,
                 order: tuple[str, ...], budget: int | None,
                 transport: Transport,
                 cache_capacity: Callable[[int], int] | None,
                 kernel: str, materialize: bool):
        self.routing = routing
        self.transport = transport
        self._order = order
        self._budget = budget
        self._cache_capacity = cache_capacity
        self._kernel = kernel
        self._materialize = materialize
        self._local_query = routing.local_query
        query = routing.grid.query
        self._sorted_atoms = tuple(
            layout.is_sorted_set
            and a.attributes == trie_order(a.attributes, order)
            for a, layout in zip(query.atoms, routing.layouts))
        self._residency = None if materialize else transport.residency
        self._content = (routing.content_keys(db)
                         if self._residency is not None else None)
        self._keys: dict[int, str] = {}
        # A layout is published under the first atom that reads it (a
        # self-join's atoms read different layouts of one relation).
        self._first = [next(i for i, held in enumerate(routing.layouts)
                            if held is layout)
                       for layout in routing.layouts]
        self._cubes: dict[int, list[int]] = {}
        for cube in range(routing.grid.num_cubes):
            self._cubes.setdefault(routing.grid.worker_of_cube(cube),
                                   []).append(cube)
        self._trace: dict | None = None

    def __iter__(self) -> Iterator[WorkerTask]:
        self._trace = trace_context()
        for worker in sorted(self._cubes):
            yield self._mint(worker, resident=True)

    def remint(self, worker: int) -> WorkerTask:
        """``worker``'s task again, every ref published."""
        return self._mint(worker, resident=False)

    def _publish(self, ai: int) -> str:
        ai = self._first[ai]
        key = self._keys.get(ai)
        if key is None:
            # Per-query epoch id (stamped on ExecutorView transports):
            # namespace publish keys so interleaved epochs from
            # concurrent queries sharing one staging area never collide.
            epoch = self.transport.epoch
            prefix = f"{epoch}/" if epoch else ""
            relation = self.routing.grid.query.atoms[ai].relation
            key = self.transport.publish(f"{prefix}rel:{relation}#{ai}",
                                         self.routing.layouts[ai].data)
            self._keys[ai] = key
        return key

    def _mint(self, worker: int, resident: bool) -> WorkerTask:
        routing, transport = self.routing, self.transport
        capacity = None
        if self._cache_capacity is not None:
            capacity = int(self._cache_capacity(
                routing.worker_loads.get(worker, 0)))
        task = WorkerTask(worker=worker, query=self._local_query,
                          order=self._order, budget=self._budget,
                          cache_capacity=capacity, trace=self._trace,
                          kernel=self._kernel,
                          materialize=self._materialize,
                          sorted_atoms=self._sorted_atoms)
        content = self._content
        held = (self._residency.held(worker)
                if resident and content is not None else frozenset())
        for cube in self._cubes[worker]:
            refs = []
            for ai, layout in enumerate(routing.layouts):
                rows = routing.atom_rows[ai][cube]
                key = content[ai][cube] if content is not None else None
                if key in held:
                    refs.append(transport.resident_ref(
                        key, (rows.stop - rows.start,)
                        + layout.data.shape[1:],
                        str(layout.data.dtype)))
                else:
                    refs.append(transport.make_ref(self._publish(ai), rows,
                                                   key))
            task.cubes.append(tuple(refs))
        return task


def absorb_result_observability(results: Sequence[WorkerTaskResult]
                                ) -> None:
    """Fold task results into the tracer and the metrics registry.

    Called on the coordinator as soon as results exist — before
    :func:`merge_task_results` gets a chance to raise — so spans shipped
    by a *crashed* remote task still land in the merged timeline, and
    ``runtime.*`` metrics count failed work too.
    """
    tracer = current_tracer()
    durations = METRICS.histogram("runtime.task_seconds")
    for res in results:
        tracer.merge_payload(res.spans)
        durations.observe(res.total_seconds)
        if res.intersection_work:
            METRICS.counter("runtime.intersection_work").inc(
                res.intersection_work)
        for name in ("resident_hits", "resident_misses",
                     "resident_evictions"):
            if getattr(res, name):
                METRICS.counter(f"runtime.{name}").inc(getattr(res, name))
        if res.failure == "miss":
            continue       # retried by run_epoch, counted there
        if res.failure:
            METRICS.counter("runtime.tasks_failed").inc()
        else:
            METRICS.counter("runtime.tasks_completed").inc()


def run_streamed_tasks(executor: Executor,
                       tasks: Iterable[WorkerTask],
                       telemetry: RuntimeTelemetry | None = None,
                       run_phase: str = "local_join"
                       ) -> list[WorkerTaskResult]:
    """Execute a *lazy* task stream, overlapping minting with execution.

    The only runner: ``tasks`` is typically a generator that does real
    coordinator work per task (publishing source arrays, slicing
    partition refs).  The stream is fed to
    :meth:`~repro.runtime.executor.Executor.submit_tasks`, so pool
    backends execute early tasks while later ones are still being
    minted.  The tasks' spans and metrics are folded into the
    coordinator (:func:`absorb_result_observability`) whatever shape
    they had.

    Telemetry: coordinator time spent inside the generator is recorded
    under ``publish``, the remaining wall-clock of the phase under
    ``run_phase``, and every task's seconds under its worker.  The
    *overlap window* — the wall-clock between the first task's
    submission and the completion of minting, i.e. how long task
    production and task execution coexisted — accumulates into
    :attr:`~repro.runtime.telemetry.RuntimeTelemetry.overlap_seconds`.
    Overlap is only recorded for executors that actually run streamed
    tasks concurrently (``executor.concurrent``): the serial backend
    executes each task inline between mints, so its window would count
    plain execution time as overlap.

    Dispatch: each epoch observes ``runtime.dispatch_seconds``, its wall
    minus its slowest task's ``total_seconds`` — what getting the tasks
    to their workers and the results back cost beyond the join.
    """
    start = time.perf_counter()
    mint_seconds = 0.0
    first_submit: float | None = None
    last_mint = start

    def timed_stream():
        nonlocal mint_seconds, first_submit, last_mint
        iterator = iter(tasks)
        while True:
            t0 = time.perf_counter()
            try:
                task = next(iterator)
            except StopIteration:
                last_mint = time.perf_counter()
                mint_seconds += last_mint - t0
                return
            now = time.perf_counter()
            mint_seconds += now - t0
            last_mint = now
            if first_submit is None:
                first_submit = now
            yield task

    results = list(executor.submit_tasks(execute_worker_task,
                                         timed_stream()))
    elapsed = time.perf_counter() - start
    absorb_result_observability(results)
    if results:
        METRICS.histogram("runtime.dispatch_seconds").observe(max(
            0.0, elapsed - max(res.total_seconds for res in results)))
    if telemetry is not None:
        telemetry.record("publish", mint_seconds)
        telemetry.record(run_phase, max(0.0, elapsed - mint_seconds))
        if first_submit is not None and executor.concurrent:
            telemetry.record_overlap(max(0.0, last_mint - first_submit))
        for res in results:
            telemetry.record_worker(res.worker, res.total_seconds)
    return results


def merge_task_results(results: Sequence[WorkerTaskResult],
                       num_levels: int,
                       budget: int | None = None) -> MergedOutcome:
    """Sum worker results; surface failures as the proper error types.

    Raises :class:`BudgetExceeded` if any worker tripped its budget or
    the aggregate work exceeds the global cap, and :class:`WorkerCrashed`
    for anything else — a crashed task never hangs the coordinator.
    """
    merged = MergedOutcome(level_tuples=[0] * num_levels)
    for res in results:
        if res.failure in ("crash", "miss"):
            reason = res.failure_info[0] if res.failure_info else "unknown"
            raise WorkerCrashed(res.worker, reason)
        merged.count += res.count
        merged.total_work += res.intersection_work
        merged.cache_hits += res.cache_hits
        merged.cache_misses += res.cache_misses
        merged.worker_work[res.worker] = \
            merged.worker_work.get(res.worker, 0.0) + res.intersection_work
        for d in range(min(num_levels, len(res.level_tuples))):
            merged.level_tuples[d] += res.level_tuples[d]
        merged.tasks += 1
        if res.rows is not None:
            merged.rows.append(res.rows)
    # Per-worker budget failures and the aggregate check share one cap.
    for res in results:
        if res.failure == "budget":
            work_done, cap = (res.failure_info if res.failure_info
                              else (merged.total_work, budget or 0))
            raise BudgetExceeded(max(int(work_done), merged.total_work),
                                 int(cap))
    if budget is not None and merged.total_work > budget:
        raise BudgetExceeded(merged.total_work, budget)
    return merged


def run_epoch(executor: Executor, tasks: Iterable[WorkerTask],
              num_levels: int, budget: int | None = None,
              telemetry: RuntimeTelemetry | None = None,
              run_phase: str = "local_join") -> MergedOutcome:
    """One transport epoch: stream ``tasks``, merge, tear down, snapshot.

    Whatever the tasks published is released when the epoch ends,
    successfully or not (a failure leaves the frozen counters in the
    transport's ``last_epoch`` for the failed result to report).  The
    snapshot is read *after* teardown so ``data_plane`` includes
    teardown-time counters (blocks freed, bytes workers fetched back
    out of a tcp block store).

    A task that missed a resident input (``failure="miss"``) is re-minted
    by the task source (:meth:`RoutedTasks.remint`, every ref
    published) and run once more, in the same epoch; the retries count
    in ``runtime.tasks_retried``.  A re-minted task cannot miss.
    """
    transport = executor.transport
    tracer = current_tracer()
    try:
        results = run_streamed_tasks(executor, tasks, telemetry=telemetry,
                                     run_phase=run_phase)
        missed = [i for i, res in enumerate(results)
                  if res.failure == "miss"]
        if missed and hasattr(tasks, "remint"):
            METRICS.counter("runtime.tasks_retried").inc(len(missed))
            retried = run_streamed_tasks(
                executor, (tasks.remint(results[i].worker) for i in missed),
                telemetry=telemetry, run_phase=run_phase)
            for i, res in zip(missed, retried):
                results[i] = res
        with tracer.span("merge", cat="schedule", tasks=len(results)):
            merged = merge_task_results(results, num_levels, budget=budget)
    finally:
        with tracer.span("teardown", cat="transport",
                         transport=transport.name):
            transport.teardown()
    merged.data_plane = dict(transport.last_epoch.as_dict(),
                             transport=transport.name)
    return merged
