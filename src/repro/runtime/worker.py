"""Worker-side task payloads and the top-level task functions.

Everything in this module must stay pickle-friendly and importable from a
fresh interpreter: process backends ship :class:`WorkerTask` objects to
spawned/forked workers and call the *top-level* functions below by
reference.  Keep task functions at module scope (no closures, no lambdas,
no bound methods) — that is the spawn-safety rule documented in
docs/runtime.md.

Task payload arrays arrive either as plain ``int64`` matrices (the
pickle data plane) or as :class:`repro.runtime.transport.ArrayRef`
descriptors (the shared-memory data plane); every task function resolves
them through :func:`repro.runtime.transport.resolve_array_ref`, so the
worker-side code is transport-agnostic.

A task deliberately never raises across the process boundary.  The two
modelled failure modes are encoded in the returned
:class:`WorkerTaskResult` (``failure="budget"``) or detected before tasks
are built (OOM happens at shuffle time in the coordinator); anything else
is reported as ``failure="crash"`` with a reason string.  The scheduler
re-raises the right :mod:`repro.errors` type in the coordinator, so
pickling exotic exception objects is never needed.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..errors import BudgetExceeded
from ..kernels import create_kernel
from ..kernels.binary import hash_join
from ..obs.tracing import current_tracer, set_thread_tracer, task_tracer
from ..query.query import JoinQuery
from ..wcoj.cache import IntersectionCache
from ..wcoj.leapfrog import LeapfrogStats, build_tries, leapfrog_join
from .transport import resolve_array_ref

__all__ = ["WorkerTask", "WorkerTaskResult", "execute_worker_task",
           "BagTask", "BagTaskResult", "materialize_bag_task",
           "PartitionJoinTask", "join_partition_pair_task"]


@dataclass
class WorkerTask:
    """One worker's share of a one-round plan: its cubes, ready to run.

    ``cubes`` holds, per owned hypercube, one entry per atom of the
    (localized) query: either a plain numpy column batch (pickle data
    plane) or an :class:`~repro.runtime.transport.ArrayRef` descriptor
    the worker resolves locally (shared-memory data plane).

    ``cache_capacity`` (values) builds a fresh per-cube
    :class:`~repro.wcoj.cache.IntersectionCache` on the worker — caches
    are worker-local state and never cross the process boundary.
    """

    worker: int
    query: JoinQuery                      # localized query (unique names)
    order: tuple[str, ...]
    cubes: list[tuple] = field(default_factory=list)
    budget: int | None = None             # intersection-work cap (total)
    cache_capacity: int | None = None     # per-cube intersection cache
    trace: dict | None = None             # obs.tracing trace context
    kernel: str = "wcoj"                  # repro.kernels key (plain str
                                          # so it survives spawn/remote)

    @property
    def num_tuples(self) -> int:
        total = 0
        for cube in self.cubes:
            for a in cube:
                total += int(a.shape[0]) if isinstance(a, np.ndarray) \
                    else a.num_rows
        return total


@dataclass
class WorkerTaskResult:
    """What one task produced, plus measured per-phase wall-clock."""

    worker: int
    count: int = 0
    level_tuples: list[int] = field(default_factory=list)
    intersection_work: int = 0
    cubes_run: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    build_seconds: float = 0.0
    join_seconds: float = 0.0
    total_seconds: float = 0.0
    failure: str | None = None            # None | "budget" | "crash"
    failure_info: tuple = ()
    spans: list = field(default_factory=list)  # worker-recorded spans

    @property
    def ok(self) -> bool:
        return self.failure is None


def execute_worker_task(task: WorkerTask) -> WorkerTaskResult:
    """Run Leapfrog over every cube of ``task`` (build tries, join, sum).

    Top-level and self-contained on purpose: safe to call through any
    executor backend, including spawned processes.

    When ``task.trace`` asks for tracing and no recording tracer is
    current (a fresh worker process), spans are collected locally and
    shipped home in ``result.spans`` — even when the task fails, so
    crashed tasks still contribute to the merged timeline.  On backends
    sharing the coordinator's process the spans go straight into the
    current tracer instead.
    """
    local = task_tracer(task.trace)
    if not local.enabled:
        return _execute_worker_task(task)
    previous = set_thread_tracer(local)
    try:
        result = _execute_worker_task(task)
    finally:
        set_thread_tracer(previous)
    result.spans = local.export_payload()
    return result


def _execute_worker_task(task: WorkerTask) -> WorkerTaskResult:
    start = time.perf_counter()
    tracer = current_tracer()
    result = WorkerTaskResult(worker=task.worker,
                              level_tuples=[0] * len(task.order))
    try:
        atoms = task.query.atoms
        for refs in task.cubes:
            arrays = tuple(resolve_array_ref(r) for r in refs)
            db = Database(
                Relation(atom.relation, atom.attributes, arr, dedup=False)
                for atom, arr in zip(atoms, arrays))
            remaining = None
            if task.budget is not None:
                remaining = task.budget - result.intersection_work
                if remaining <= 0:
                    raise BudgetExceeded(result.intersection_work,
                                         task.budget)
            cache = None
            if task.kernel == "wcoj" and task.cache_capacity is not None:
                cache = IntersectionCache(task.cache_capacity)
            t0 = time.perf_counter()
            # With a cache, leapfrog builds its own tries (so hit/miss
            # counts equal a plain cached leapfrog_join per cube).
            # Non-wcoj kernels build no tries (and have no cache).
            tries = None
            if task.kernel == "wcoj" and cache is None:
                with tracer.span("build_tries", cat="task",
                                 worker=task.worker):
                    tries = build_tries(task.query, db, task.order)
            t1 = time.perf_counter()
            stats = LeapfrogStats()
            try:
                if task.kernel == "wcoj":
                    with tracer.span("leapfrog", cat="task",
                                     worker=task.worker):
                        join = leapfrog_join(task.query, db, task.order,
                                             tries=tries, cache=cache,
                                             budget=remaining,
                                             stats=stats)
                else:
                    with tracer.span("kernel", cat="task",
                                     worker=task.worker,
                                     kernel=task.kernel):
                        join = create_kernel(task.kernel).execute(
                            task.query, db, task.order,
                            budget=remaining, stats=stats)
            finally:
                # Partial work still counts toward the budget on failure.
                result.intersection_work += stats.intersection_work
                for d in range(len(task.order)):
                    if d < len(stats.level_tuples):
                        result.level_tuples[d] += stats.level_tuples[d]
                result.build_seconds += t1 - t0
                result.join_seconds += time.perf_counter() - t1
                if cache is not None:
                    result.cache_hits += cache.hits
                    result.cache_misses += cache.misses
            result.count += join.count
            result.cubes_run += 1
    except BudgetExceeded as exc:
        result.failure = "budget"
        result.failure_info = (int(exc.work_done), int(exc.budget))
    except Exception as exc:
        result.failure = "crash"
        result.failure_info = (
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(limit=5),
        )
    result.total_seconds = time.perf_counter() - start
    # The whole-task span is synthesized after the fact so it can carry
    # the task's outcome (count, cubes run, failure mode) in its args.
    tracer.add_span("worker_task", time.time() - result.total_seconds,
                    result.total_seconds, cat="task", worker=task.worker,
                    cubes=result.cubes_run, count=result.count,
                    failure=result.failure or "ok")
    return result


@dataclass
class BagTask:
    """Materialize one GHD bag worst-case-optimally (Yannakakis phase 1).

    ``arrays`` holds one entry per atom of ``query`` — a plain array or a
    transport descriptor of the *whole* source relation (bags never
    pre-partition their inputs; under shm the broadcast is zero-copy).
    """

    index: int
    query: JoinQuery
    order: tuple[str, ...]
    arrays: tuple = ()
    budget: int | None = None
    trace: dict | None = None             # obs.tracing trace context
    kernel: str = "wcoj"                  # repro.kernels key for this bag


@dataclass
class BagTaskResult:
    """One materialized bag (or how its task failed)."""

    index: int
    attrs: tuple[str, ...] = ()
    data: np.ndarray | None = None
    work: int = 0
    total_seconds: float = 0.0
    failure: str | None = None            # None | "budget" | "crash"
    failure_info: tuple = ()
    spans: list = field(default_factory=list)  # worker-recorded spans

    @property
    def ok(self) -> bool:
        return self.failure is None


def materialize_bag_task(task: BagTask) -> BagTaskResult:
    """Worst-case-optimally join one bag's atoms (top-level, spawn-safe).

    Trace handling mirrors :func:`execute_worker_task`: a fresh worker
    process records into a local tracer and ships ``result.spans`` home.
    """
    local = task_tracer(task.trace)
    if not local.enabled:
        return _materialize_bag_task(task)
    previous = set_thread_tracer(local)
    try:
        result = _materialize_bag_task(task)
    finally:
        set_thread_tracer(previous)
    result.spans = local.export_payload()
    return result


def _materialize_bag_task(task: BagTask) -> BagTaskResult:
    start = time.perf_counter()
    result = BagTaskResult(index=task.index, attrs=tuple(task.order))
    try:
        relations: dict[str, Relation] = {}
        for atom, ref in zip(task.query.atoms, task.arrays):
            if atom.relation not in relations:
                relations[atom.relation] = Relation(
                    atom.relation, atom.attributes,
                    resolve_array_ref(ref), dedup=False)
        db = Database(relations.values())
        if task.kernel == "wcoj":
            with current_tracer().span("leapfrog", cat="task",
                                       bag=task.index):
                res = leapfrog_join(task.query, db, order=task.order,
                                    materialize=True, budget=task.budget)
        else:
            with current_tracer().span("kernel", cat="task",
                                       bag=task.index, kernel=task.kernel):
                res = create_kernel(task.kernel).execute(
                    task.query, db, task.order, materialize=True,
                    budget=task.budget)
        result.data = res.relation.data
        result.work = res.stats.intersection_work
    except BudgetExceeded as exc:
        result.failure = "budget"
        result.failure_info = (int(exc.work_done), int(exc.budget))
    except Exception as exc:
        result.failure = "crash"
        result.failure_info = (
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(limit=5),
        )
    result.total_seconds = time.perf_counter() - start
    current_tracer().add_span(
        "bag_task", time.time() - result.total_seconds,
        result.total_seconds, cat="task", bag=task.index,
        failure=result.failure or "ok")
    return result


@dataclass
class PartitionJoinTask:
    """One co-partitioned (left, right) pair of a SparkSQL-style step."""

    left: object                           # ndarray | ArrayRef
    left_attrs: tuple[str, ...]
    left_name: str
    right: object
    right_attrs: tuple[str, ...]
    right_name: str


def join_partition_pair_task(task: PartitionJoinTask) -> Relation:
    """Natural-join one co-partitioned pair shipped as descriptors.

    Both sides were hash-partitioned on their shared attributes, so
    partition outputs are disjoint and the coordinator may concatenate
    them without re-deduplication.
    """
    left = Relation(task.left_name, task.left_attrs,
                    resolve_array_ref(task.left), dedup=False)
    right = Relation(task.right_name, task.right_attrs,
                     resolve_array_ref(task.right), dedup=False)
    return hash_join(left, right)
