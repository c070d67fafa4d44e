"""Shared one-round execution: HCube shuffle + per-cube Leapfrog.

Used by HCubeJ, HCubeJ+Cache and ADJ — they differ only in the shuffle
implementation, the attribute order, the presence of an intersection
cache, and (for ADJ) the pre-computed relations in the database.

One execution path, on every backend: compute routing assignments only
(:func:`repro.distributed.hcube.hcube_route`), publish the source
columns through the executor's data-plane transport, and stream workers
per-cube descriptors — workers slice their own partitions, so under the
``shm`` transport large arrays never cross the process boundary through
pickle.  Measured wall-clock telemetry and physical data-plane stats are
recorded next to the modeled ledger.  With no executor the same tasks
run on a private in-process ``SerialExecutor``.

Intersection caches (HCubeJ+Cache) are worker-local: the coordinator
ships a capacity, each worker builds its own per-cube cache, and the
merged hit/miss counters are the same on every backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..data.database import Database
from ..distributed.cluster import Cluster
from ..distributed.hcube import HypercubeGrid, hcube_route
from ..distributed.metrics import CostLedger, ShuffleStats
from ..distributed.partitioner import optimize_shares
from ..kernels import select_kernel
from ..query.query import JoinQuery
from ..runtime.executor import Executor, available_parallelism
from ..runtime.scheduler import iter_routed_tasks, run_epoch
from ..runtime.telemetry import RuntimeTelemetry
from .base import _resolve_executor

__all__ = ["OneRoundOutcome", "one_round_execute"]


@dataclass
class OneRoundOutcome:
    """Counts and aggregated statistics of one one-round evaluation."""

    count: int
    level_tuples: list[int]
    leapfrog_work: int
    shuffled_tuples: int
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
    #: serialized into task payloads.  Under the
    #: shm transport ``data_plane_stats.bytes_copied`` counts descriptor
    #: bytes, not full array bytes — the modeled ``ShuffleStats`` are
    #: transport-independent.
    data_plane: dict | None = None
    data_plane_stats: ShuffleStats | None = None


def one_round_execute(query: JoinQuery, db: Database, cluster: Cluster,
                      order: Sequence[str], ledger: CostLedger,
                      impl: str = "push",
                      cache_capacity: Callable[[int], int] | None = None,
                      work_budget: int | None = None,
                      comm_phase: str = "communication",
                      executor: Executor | None = None,
                      kernel: str = "wcoj") -> OneRoundOutcome:
    """Shuffle with HCube, then run Leapfrog on every cube.

    ``cache_capacity(worker_load)`` sizes a per-cube intersection cache
    from the memory left after the shuffle (HCubeJ+Cache); it must be a
    coordinator-side callable returning plain ints so the capacity —
    never the cache object — crosses the process boundary.
    Communication is charged to ``comm_phase`` so ADJ can book the bag
    shuffles under pre-computing.

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
    # Pipelined epochs: route atoms on a coordinator thread pool, then
    # stream tasks so publish/mint overlaps execution.
    shuffle_start = time.perf_counter()
    routing = hcube_route(query, db, grid, impl=impl,
                          memory_tuples=cluster.memory_tuples_per_worker,
                          routing_threads=available_parallelism())
    telemetry.record("shuffle", time.perf_counter() - shuffle_start)
    ledger.charge_shuffle(routing.stats, impl, phase=comm_phase)
    # Local trie construction (skipped cost-wise by Merge: blocks arrive
    # as pre-built tries and only need merging).
    rate = (cluster.params.trie_merge_rate if routing.prebuilt_tries
            else cluster.params.trie_build_rate)
    ledger.charge_worker_work(
        {w: float(load) for w, load in routing.worker_loads.items()},
        rate=rate, phase="computation")

    order = tuple(order)
    # Workers start on the first tasks while the coordinator is still
    # publishing/slicing later ones.
    merged = run_epoch(
        executor,
        iter_routed_tasks(routing, db, order, budget=work_budget,
                          transport=executor.transport,
                          cache_capacity=cache_capacity,
                          kernel=kernel_choice.key),
        len(order), budget=work_budget, telemetry=telemetry)
    data_plane_stats = ShuffleStats(
        tuple_copies=routing.stats.tuple_copies,
        blocks_fetched=merged.data_plane["shipped_refs"],
        bytes_copied=merged.data_plane["shipped_bytes"],
        max_worker_tuples=routing.stats.max_worker_tuples)
    worker_work = {w: 0.0 for w in range(cluster.num_workers)}
    worker_work.update(merged.worker_work)
    ledger.charge_worker_work(worker_work, phase="computation")
    return OneRoundOutcome(
        count=merged.count,
        level_tuples=merged.level_tuples,
        leapfrog_work=merged.total_work,
        shuffled_tuples=routing.stats.tuple_copies,
        max_worker_tuples=routing.stats.max_worker_tuples,
        cache_hits=merged.cache_hits,
        cache_misses=merged.cache_misses,
        worker_work=worker_work,
        worker_loads=dict(routing.worker_loads),
        telemetry=telemetry,
        data_plane=merged.data_plane,
        data_plane_stats=data_plane_stats,
        kernel=kernel_choice.key,
        kernel_reason=kernel_choice.reason,
    )
