"""The routed epoch, and the one-round execution built on it.

:func:`routed_epoch` is the only place the sequence *route → mint →
run* is spelled: :func:`repro.distributed.hcube.hcube_route` assigns
tuples to cubes (assignments only, timed as ``shuffle``),
:func:`repro.runtime.scheduler.iter_routed_tasks` publishes the source
columns through the executor's data-plane transport and streams workers
per-cube descriptors — workers slice their own partitions, so under the
``shm`` transport large arrays never cross the process boundary through
pickle — and :func:`repro.runtime.scheduler.run_epoch` runs, merges and
tears down.  What differs per engine is the grid and the kernel: HCubeJ,
HCubeJ+Cache and ADJ take optimized shares (:func:`one_round_execute`,
which also records what was moved and worked on the ledger), BigJoin
spends the whole share budget on its order's first attribute, SparkSQL
on a step's join key.

One execution path, on every backend: measured wall-clock telemetry and
physical data-plane stats are recorded next to the modeled ledger; with
no executor the same tasks run on a private in-process
``SerialExecutor``.

Intersection caches (HCubeJ+Cache) are worker-local: the coordinator
ships a capacity, each worker builds its own per-cube cache, and the
merged hit/miss counters are the same on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..data.database import Database
from ..distributed.cluster import Cluster
from ..distributed.hcube import HCubeRouting, HypercubeGrid, hcube_route
from ..distributed.metrics import CostLedger, Moved, Work
from ..distributed.partitioner import optimize_shares
from ..kernels import select_kernel
from ..query.query import JoinQuery
from ..runtime.executor import Executor, available_parallelism
from ..runtime.scheduler import MergedOutcome, iter_routed_tasks, run_epoch
from ..runtime.telemetry import RuntimeTelemetry
from .base import _resolve_executor

__all__ = ["OneRoundOutcome", "one_round_execute", "routed_epoch"]


@dataclass
class OneRoundOutcome:
    """Counts and aggregated statistics of one one-round evaluation."""

    count: int
    level_tuples: list[int]
    leapfrog_work: int
    max_worker_tuples: int
    cache_hits: int = 0
    cache_misses: int = 0
    worker_work: dict[int, float] | None = None
    worker_loads: dict[int, int] | None = None
    telemetry: RuntimeTelemetry | None = None
    #: Concrete :mod:`repro.kernels` key the cubes ran with and the
    #: chooser's reason.
    kernel: str | None = None
    kernel_reason: str | None = None
    #: Physical data-plane movement: what the coordinator actually
    #: serialized into task payloads (descriptor bytes under shm, not
    #: full array bytes — the modeled ``ShuffleStats`` are
    #: transport-independent).
    data_plane: dict | None = None


def routed_epoch(query: JoinQuery, db: Database, grid: HypercubeGrid,
                 order: Sequence[str], executor: Executor,
                 telemetry: RuntimeTelemetry, *, impl: str = "pull",
                 memory_tuples: float | None = None,
                 budget: int | None = None,
                 cache_capacity: Callable[[int], int] | None = None,
                 kernel: str = "wcoj", materialize: bool = False
                 ) -> tuple[HCubeRouting, MergedOutcome]:
    """Route ``query`` over ``grid``, mint one task per worker, run them.

    Atoms route on a coordinator thread pool (timed as ``shuffle``);
    tasks then stream, so publishing/slicing later tasks (``publish``)
    overlaps the first workers' execution (``local_join``).  The
    transport epoch is torn down when the run finishes, successfully or
    not.
    """
    with telemetry.measure("shuffle"):
        routing = hcube_route(query, db, grid, impl=impl,
                              memory_tuples=memory_tuples,
                              routing_threads=available_parallelism())
    order = tuple(order)
    merged = run_epoch(
        executor,
        iter_routed_tasks(routing, db, order, budget=budget,
                          transport=executor.transport,
                          cache_capacity=cache_capacity, kernel=kernel,
                          materialize=materialize),
        len(order), budget=budget, telemetry=telemetry)
    return routing, merged


def one_round_execute(query: JoinQuery, db: Database, cluster: Cluster,
                      order: Sequence[str], ledger: CostLedger,
                      impl: str = "push",
                      cache_capacity: Callable[[int], int] | None = None,
                      work_budget: int | None = None,
                      executor: Executor | None = None,
                      kernel: str = "wcoj") -> OneRoundOutcome:
    """Shuffle with HCube, then run Leapfrog on every cube.

    ``cache_capacity(worker_load)`` sizes a per-cube intersection cache
    from the memory left after the shuffle (HCubeJ+Cache); it must be a
    coordinator-side callable returning plain ints so the capacity —
    never the cache object — crosses the process boundary.

    ``executor`` selects the runtime backend for the per-cube Leapfrog
    work (None: a private in-process serial one); its
    :attr:`~repro.runtime.Executor.transport` carries the payloads and
    is torn down (segments released) when the run finishes, successfully
    or not.

    ``kernel`` is a :mod:`repro.kernels` key (``adaptive`` resolves to a
    concrete kernel once, on the coordinator, against the full database
    — every cube then runs the same choice).  ``wcoj`` is pure Leapfrog,
    bit-identical to the seed counters.
    """
    executor = _resolve_executor(executor)
    kernel_choice = select_kernel(kernel, query, db,
                                  scope=f"one_round:{impl}")
    telemetry = RuntimeTelemetry(backend=executor.name,
                                 num_workers=cluster.num_workers)
    sizes = {a.relation: len(db[a.relation]) for a in query.atoms}
    shares = optimize_shares(query, sizes, cluster.num_workers,
                             memory_tuples=cluster.memory_tuples_per_worker)
    grid = HypercubeGrid(query, shares, cluster.num_workers)
    routing, merged = routed_epoch(
        query, db, grid, order, executor, telemetry, impl=impl,
        memory_tuples=cluster.memory_tuples_per_worker, budget=work_budget,
        cache_capacity=cache_capacity, kernel=kernel_choice.key)
    ledger.record(Moved("communication", routing.stats.tuple_copies, impl,
                        blocks=routing.stats.blocks_fetched))
    # Local trie construction (skipped cost-wise by Merge: blocks arrive
    # as pre-built tries and only need merging).
    worker_work = {w: 0.0 for w in range(cluster.num_workers)}
    worker_work.update(merged.worker_work)
    ledger.record(
        Work("computation",
             {w: float(load) for w, load in routing.worker_loads.items()},
             rate="trie_merge" if routing.prebuilt_tries else "trie_build"),
        Work("computation", worker_work))
    return OneRoundOutcome(
        count=merged.count,
        level_tuples=merged.level_tuples,
        leapfrog_work=merged.total_work,
        max_worker_tuples=routing.stats.max_worker_tuples,
        cache_hits=merged.cache_hits,
        cache_misses=merged.cache_misses,
        worker_work=worker_work,
        worker_loads=dict(routing.worker_loads),
        telemetry=telemetry,
        data_plane=merged.data_plane,
        kernel=kernel_choice.key,
        kernel_reason=kernel_choice.reason,
    )
