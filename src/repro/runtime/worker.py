"""The worker-side task: one payload, one result, one task function.

The paper has one unit of distributed work — a worker joins the
fragments it was sent — and so does this module.  A :class:`WorkerTask`
is a localized query, an attribute order and a list of *ref groups*
(one array or descriptor per atom); what the groups are is the
coordinator's business:

- HCube cubes (HCubeJ, HCubeJ+Cache, ADJ, BigJoin): one group per owned
  cube, row-sliced refs, count only;
- a GHD bag (Yannakakis): one group of whole-array refs,
  ``materialize=True``;
- a co-partitioned pair (SparkSQL): one group of two row-sliced refs
  over a two-atom query, ``kernel="binary"``, ``materialize=True``.

For every kernel key the worker makes the same call,
``create_kernel(task.kernel).execute(...)`` — the kernel builds (and
times) whatever index it needs.  HCubeJ+Cache's cache is only an
integer, ``cache_capacity``, handed to that call; hits and misses come
back in the kernel's stats like every other counter.

Everything here must stay pickle-friendly and importable from a fresh
interpreter: process backends ship :class:`WorkerTask` objects to
spawned/forked workers and call :func:`execute_worker_task` by
reference.  Keep it at module scope (no closures, no lambdas, no bound
methods) and keep task fields plain data — that is the spawn-safety
rule documented in docs/runtime.md.

Arrays arrive either as plain ``int64`` matrices (the pickle data plane)
or as :class:`repro.runtime.transport.ArrayRef` descriptors (shm / tcp);
both resolve through :func:`repro.runtime.transport.resolve_array_ref`,
so the worker-side code is transport-agnostic.  A ref with a content
``key`` (tasks minted for a home process) is kept in this process's
:func:`~repro.runtime.residency.resident_cache` once resolved, with the
trie the kernel builds over it; a ``resident`` ref is served from that
cache, and a task whose resident ref misses returns ``failure="miss"``
before any join work (the coordinator re-mints it with published refs).
Such a task reports what the process holds afterwards
(``resident_keys``).

A task deliberately never raises across the process boundary.  A
tripped work budget is encoded in the returned :class:`WorkerTaskResult`
(``failure="budget"``), an evicted resident input as ``failure="miss"``,
anything else as ``failure="crash"`` with a
reason string (OOM is detected at shuffle time, on the coordinator).
:func:`repro.runtime.scheduler.merge_task_results` re-raises the right
:mod:`repro.errors` type in the coordinator, so pickling exotic
exception objects is never needed.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from ..core.optimizer import PlanCache
from ..data.database import Database
from ..data.relation import Relation
from ..errors import BudgetExceeded
from ..kernels import create_kernel
from ..obs.tracing import current_tracer, set_thread_tracer, task_tracer
from ..query.query import JoinQuery
from ..wcoj.leapfrog import LeapfrogStats
from .residency import next_report, resident_cache
from .transport import TaskFetches, resolve_array_ref

__all__ = ["WorkerTask", "WorkerTaskResult", "execute_worker_task"]


@dataclass
class WorkerTask:
    """One worker's share of an epoch: its ref groups, ready to join.

    ``cubes`` holds, per group, one entry per atom of the (localized)
    query: either a plain numpy column batch (pickle data plane) or an
    :class:`~repro.runtime.transport.ArrayRef` descriptor the worker
    resolves locally.  Groups are joined independently and their
    outputs are disjoint (HCube locality; a bag or a partition pair is a
    single group), so counts add up and materialized rows concatenate.

    ``cache_capacity`` (values) runs every group as HCubeJ+Cache's
    CacheTrieJoin with that much cache per chunk
    (:func:`~repro.wcoj.leapfrog.leapfrog_join`); only the integer
    crosses the process boundary, and kernels without a cache ignore it.

    ``sorted_atoms[i]`` says atom ``i``'s slices arrive as lexsorted sets
    whose columns are in the atom's trie order; the worker hands them to
    the kernel as such, so no trie build or join probe sorts them.
    Empty means nothing is known.
    """

    worker: int
    query: JoinQuery                      # localized query (unique names)
    order: tuple[str, ...]
    cubes: list[tuple] = field(default_factory=list)
    budget: int | None = None             # intersection-work cap (total)
    cache_capacity: int | None = None     # CacheTrieJoin values per chunk
    trace: dict | None = None             # obs.tracing trace context
    kernel: str = "wcoj"                  # repro.kernels key (plain str
                                          # so it survives spawn/remote)
    materialize: bool = False             # ship the joined rows home
    sorted_atoms: tuple[bool, ...] = ()   # per atom: slices are sorted sets

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
    build_seconds: float = 0.0            # index build, as the kernel
                                          # reports it
    join_seconds: float = 0.0
    total_seconds: float = 0.0
    failure: str | None = None            # None | "budget" | "miss"
                                          # | "crash"
    failure_info: tuple = ()
    spans: list = field(default_factory=list)  # worker-recorded spans
    #: The joined rows (columns = ``task.order``) of a materializing
    #: task that succeeded; None otherwise.
    rows: np.ndarray | None = None
    #: Residency report of a task with keyed refs (None otherwise): the
    #: keys this process holds after the task, ``(pid, sequence)``
    #: ordering its reports, its resident bytes, and this task's cache
    #: hits, misses and evictions.
    resident_keys: tuple[str, ...] | None = None
    resident_stamp: tuple[int, int] = (0, 0)
    resident_bytes: int = 0
    resident_hits: int = 0
    resident_misses: int = 0
    resident_evictions: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None


def _report_residency(result: WorkerTaskResult, cache: PlanCache,
                      used: dict[str, Relation]) -> None:
    """Size what this task used, evict to the budget, and report."""
    result.resident_evictions = sum(
        cache.put(key, rel, rel.nbytes + rel.index_nbytes)
        for key, rel in used.items())
    result.resident_keys = cache.keys()
    result.resident_stamp = next_report()
    result.resident_bytes = cache.nbytes


def execute_worker_task(task: WorkerTask) -> WorkerTaskResult:
    """Join every ref group of ``task`` with its kernel and sum up.

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


class _ResidentMiss(Exception):
    """A resident ref's key is not held here (evicted or never kept)."""


def _kept_inputs(task: WorkerTask, cache: PlanCache,
                 result: WorkerTaskResult) -> dict[str, Relation]:
    """Every keyed input of ``task`` this process holds, looked up
    before any join work (so a later insertion cannot evict one
    mid-task); a resident ref whose key is not held raises
    :class:`_ResidentMiss`."""
    kept: dict[str, Relation] = {}
    for refs in task.cubes:
        for ref in refs:
            key = getattr(ref, "key", None)
            if key is None or key in kept:
                continue
            rel = cache.get(key)
            if rel is not None:
                kept[key] = rel
                result.resident_hits += 1
            elif ref.kind == "resident":
                result.resident_misses += 1
                raise _ResidentMiss(key)
    return kept


def _input(atom, ref, known: bool, fetches: TaskFetches,
           kept: dict[str, Relation], cache: PlanCache | None
           ) -> Relation:
    """One atom's input relation: kept (renamed, sharing its trie memo)
    or resolved — and kept when the ref names its content."""
    key = getattr(ref, "key", None)
    rel = kept.get(key)
    if rel is not None:
        return rel.rename(dict(zip(rel.attributes, atom.attributes)),
                          name=atom.relation)
    rel = Relation.wrap(atom.relation, atom.attributes,
                        resolve_array_ref(ref, fetches), known)
    if cache is not None and key is not None:
        cache.put(key, rel)
        kept[key] = rel
    return rel


def _execute_worker_task(task: WorkerTask) -> WorkerTaskResult:
    start = time.perf_counter()
    tracer = current_tracer()
    num_levels = len(task.order)
    result = WorkerTaskResult(worker=task.worker,
                              level_tuples=[0] * num_levels)
    rows: list[np.ndarray] = []
    sorted_atoms = task.sorted_atoms or (False,) * len(task.query.atoms)
    # What this task fetched over tcp, and its one connection per store.
    fetches = TaskFetches()
    keyed = any(getattr(ref, "key", None) is not None
                for refs in task.cubes for ref in refs)
    cache = resident_cache() if keyed else None
    kept: dict[str, Relation] = {}
    try:
        if cache is not None:
            kept = _kept_inputs(task, cache, result)
        kernel = create_kernel(task.kernel)
        for refs in task.cubes:
            db = Database(
                _input(atom, ref, known, fetches, kept, cache)
                for atom, ref, known in zip(task.query.atoms, refs,
                                            sorted_atoms))
            remaining = None
            if task.budget is not None:
                remaining = task.budget - result.intersection_work
                if remaining <= 0:
                    raise BudgetExceeded(result.intersection_work,
                                         task.budget)
            stats = LeapfrogStats()
            t0 = time.perf_counter()
            try:
                with tracer.span("kernel", cat="task", worker=task.worker,
                                 kernel=task.kernel):
                    join = kernel.execute(
                        task.query, db, task.order,
                        materialize=task.materialize, budget=remaining,
                        cache_capacity=task.cache_capacity, stats=stats)
            finally:
                # Partial work still counts toward the budget on failure.
                elapsed = time.perf_counter() - t0
                result.intersection_work += stats.intersection_work
                for d, t in enumerate(stats.level_tuples[:num_levels]):
                    result.level_tuples[d] += t
                result.build_seconds += stats.build_seconds
                result.join_seconds += elapsed - stats.build_seconds
                result.cache_hits += stats.cache_hits
                result.cache_misses += stats.cache_misses
            result.count += join.count
            result.cubes_run += 1
            if join.relation is not None:
                rows.append(join.relation.data)
        if task.materialize:
            # A bag or a pair is one group: its rows go home uncopied.
            result.rows = rows[0] if len(rows) == 1 else np.vstack(
                rows or [np.empty((0, num_levels), dtype=np.int64)])
    except BudgetExceeded as exc:
        result.failure = "budget"
        result.failure_info = (int(exc.work_done), int(exc.budget))
    except _ResidentMiss as exc:
        result.failure = "miss"
        result.failure_info = (f"resident input {exc} is not held",)
    except Exception as exc:
        result.failure = "crash"
        result.failure_info = (
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(limit=5),
        )
    finally:
        fetches.close()
        if cache is not None:
            _report_residency(result, cache, kept)
    result.total_seconds = time.perf_counter() - start
    # The whole-task span is synthesized after the fact so it can carry
    # the task's outcome (count, groups run, failure mode) in its args.
    tracer.add_span("worker_task", time.time() - result.total_seconds,
                    result.total_seconds, cat="task", worker=task.worker,
                    cubes=result.cubes_run, count=result.count,
                    failure=result.failure or "ok")
    return result
