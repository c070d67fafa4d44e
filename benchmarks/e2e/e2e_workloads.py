"""The four pinned workloads, their inputs and their reference counts.

Sizes are pinned here (tuned once, on a 2-core box, so one timed window
holds enough samples — see README.md); ``scale`` shrinks them for the
determinism test only.  Every input is a function of ``seed`` alone,
and the program under test only ever sees the generated arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import RunConfig
from repro.data import Database, Relation
from repro.errors import ConfigError
from repro.data.datasets import (
    generate_erdos_renyi_edges,
    generate_power_law_edges,
    load_dataset,
)
from repro.query import JoinQuery, paper_query
from repro.wcoj import leapfrog_join

#: Simulated workers == pool children: never more than the box's cores.
WORKERS = 2
#: ADJ optimizer sample budget on every ADJ run.
SAMPLES = 50
#: Dense adjacency closed forms are used up to this many nodes.
DENSE_NODE_LIMIT = 1500


# -- independent reference counts --------------------------------------------

def _adjacency(edges: np.ndarray) -> np.ndarray:
    n = int(edges.max()) + 1 if edges.size else 0
    adj = np.zeros((n, n), dtype=np.float64)
    adj[edges[:, 0], edges[:, 1]] = 1.0
    return adj


def reference_count(query_name: str, edges: np.ndarray,
                    query: JoinQuery, db: Database) -> int:
    """The expected result count, computed without the code under test.

    Every atom of a paper query is one edge of a pattern over the same
    graph, so the count is a homomorphism count with a closed form over
    the adjacency matrix ``A`` (``P = A @ A``):

    - Q7 (2-path): sum_b indeg(b) * outdeg(b), via ``np.bincount``;
    - Q1 (triangle): sum(P * A);
    - Q9 (4-cycle): sum(P * P.T);
    - Q11 (tailed triangle): sum_c tri_ending_at(c) * outdeg(c);
    - Q5 (5-cycle + chords (b,e), (b,d)): the three triangles share b,
      so with M = A * P.T and N = A * P: sum(M * (N @ A)).

    float64 holds these integers exactly (all far below 2**53).  Above
    ``DENSE_NODE_LIMIT`` nodes the dense products are too slow and the
    triangle falls back to the serial whole-database ``leapfrog_join``
    (no partitioning, routing, transport or kernel layer involved).
    """
    if query_name == "Q7":
        n = int(edges.max()) + 1
        indeg = np.bincount(edges[:, 1], minlength=n)
        outdeg = np.bincount(edges[:, 0], minlength=n)
        return int(np.dot(indeg.astype(np.int64), outdeg.astype(np.int64)))
    if int(edges.max()) + 1 > DENSE_NODE_LIMIT:
        if query_name != "Q1":
            raise ConfigError(f"no reference for {query_name} at this size")
        return int(leapfrog_join(query, db).count)
    adj = _adjacency(edges)
    paths = adj @ adj
    if query_name == "Q1":
        return int(round(float((paths * adj).sum())))
    if query_name == "Q9":
        return int(round(float((paths * paths.T).sum())))
    if query_name == "Q11":
        ending_at = (paths * adj).sum(axis=0)
        return int(round(float(ending_at @ adj.sum(axis=1))))
    if query_name == "Q5":
        left = adj * paths.T
        right = adj * paths
        return int(round(float((left * (right @ adj)).sum())))
    raise ConfigError(f"no reference for {query_name}")


# -- batch workloads ---------------------------------------------------------

@dataclass
class Case:
    """One (query, database) input with its reference count."""

    query_name: str
    query: JoinQuery
    db: Database
    edges: np.ndarray
    generate_s: float
    reference: int | None = None

    @property
    def input_tuples(self) -> int:
        return sum(len(self.db[a.relation]) for a in self.query.atoms)

    def check(self) -> int:
        if self.reference is None:
            self.reference = reference_count(self.query_name, self.edges,
                                             self.query, self.db)
        return self.reference


#: Pinned sizes.  tri-skew: ~0.3 s per query, >95 % of it Leapfrog in
#: the two pool children.  path-uniform: ~0.5 s, 14 MB published and
#: 19 MB fetched over loopback per query.  adj-cyclic: the paper's `wb`
#: analogue at 2640 edges, ~0.8 s, two thirds of it the ADJ optimizer.
TRI_SKEW_EDGES = 24_000
PATH_UNIFORM_EDGES = 300_000
ADJ_CYCLIC_SCALE = 2e-4


def _tri_skew_edges(seed: int, scale: float) -> np.ndarray:
    m = max(600, int(TRI_SKEW_EDGES * scale))
    return generate_power_law_edges(m, num_nodes=m // 6, exponent=1.7,
                                    seed=seed, symmetric=True)


def _path_uniform_edges(seed: int, scale: float) -> np.ndarray:
    m = max(600, int(PATH_UNIFORM_EDGES * scale))
    return generate_erdos_renyi_edges(m, num_nodes=m, seed=seed,
                                      symmetric=False)


def _adj_cyclic_edges(seed: int, scale: float) -> np.ndarray:
    # Regenerated graphs of this size are not the same workload: Q5's
    # result count swings +-8 % with a handful of hubs, and renaming
    # nodes (so ids stop following degree) swings the optimizer's
    # sampling work 6x and flips its plan.  The graph is therefore the
    # pinned analogue and the seed shuffles the rows the program gets.
    edges = load_dataset("wb", scale=ADJ_CYCLIC_SCALE * scale)
    return edges[np.random.default_rng(seed).permutation(len(edges))]


def graph_database(query: JoinQuery, edges: np.ndarray) -> Database:
    """One relation per atom over one edge array, rows in given order
    (``repro.workloads.graph_database_for`` would sort them)."""
    return Database(Relation(atom.relation, ("src", "dst"), edges,
                             dedup=False) for atom in query.atoms)


@dataclass(frozen=True)
class BatchWorkload:
    """A closed-loop, one-client batch workload through ``JoinSession``."""

    name: str
    query_name: str
    engine: str
    transport: str
    edges: object = field(repr=False)
    #: The twin the service-layer probe runs (same query shape over the
    #: `wb` analogue — the wire front door only resolves named datasets).
    service_scale: float = 1e-3

    def config(self) -> RunConfig:
        return RunConfig(workers=WORKERS, backend="processes",
                         transport=self.transport, samples=SAMPLES)

    def make_case(self, seed: int, scale: float = 1.0) -> Case:
        start = time.perf_counter()
        edges = self.edges(seed, scale)
        query = paper_query(self.query_name)
        db = graph_database(query, edges)
        return Case(self.query_name, query, db, edges,
                    generate_s=time.perf_counter() - start)


BATCH_WORKLOADS = {
    w.name: w for w in (
        BatchWorkload("tri-skew", "Q1", "hcubej", "shm", _tri_skew_edges),
        BatchWorkload("path-uniform", "Q7", "hcubej", "tcp",
                      _path_uniform_edges),
        BatchWorkload("adj-cyclic", "Q5", "adj", "shm", _adj_cyclic_edges,
                      service_scale=6e-5),
    )
}


# -- the service mix ---------------------------------------------------------

@dataclass(frozen=True)
class HotCase:
    """One named test-case the query server resolves by itself."""

    query_name: str
    scale: float
    seed: int | None          # dataset seed; None = the analogue's own
    engine: str = "adj"
    dataset: str = "wb"

    def request(self, scale: float = 1.0) -> dict:
        return {"query": self.query_name, "dataset": self.dataset,
                "engine": self.engine, "scale": self.scale * scale,
                "seed": self.seed}

    def make_case(self, scale: float = 1.0) -> Case:
        start = time.perf_counter()
        edges = load_dataset(self.dataset, scale=self.scale * scale,
                             seed=self.seed)
        query = paper_query(self.query_name)
        db = graph_database(query, edges)
        return Case(self.query_name, query, db, edges,
                    generate_s=time.perf_counter() - start)


#: 4 query shapes x 2 dataset seeds.  The graphs are pinned — the wire
#: protocol names datasets, it does not carry arrays — and the workload
#: seed drives the request schedule.
HOT_CASES = tuple(
    HotCase(name, case_scale, dataset_seed)
    for name, case_scale in (("Q1", 5e-4), ("Q7", 1e-3),
                             ("Q9", 1e-4), ("Q11", 2e-4))
    for dataset_seed in (None, 12))

#: Requests per hot case in one block: 6 served from the cache when
#: warm, 2 forced to execute (``use_cache=False``).  The result cache is
#: invalidated after every block, so the first plain request per case
#: in the next block re-executes and refills.
PLAIN_PER_CASE = 6
BYPASS_PER_CASE = 2
SERVICE_CLIENTS = 2


def service_config() -> RunConfig:
    return RunConfig(workers=WORKERS, backend="processes", transport="shm",
                     samples=SAMPLES)


def block_schedule(num_cases: int, seed: int, block: int
                   ) -> list[tuple[int, bool]]:
    """One block's ``(case index, use_cache)`` requests, seed-shuffled."""
    requests = [(case, True) for case in range(num_cases)
                for _ in range(PLAIN_PER_CASE)]
    requests += [(case, False) for case in range(num_cases)
                 for _ in range(BYPASS_PER_CASE)]
    order = np.random.default_rng([seed, block]).permutation(len(requests))
    return [requests[i] for i in order]


WORKLOAD_NAMES = (*BATCH_WORKLOADS, "service-mix")
