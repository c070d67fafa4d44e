"""HCube: one-round hypercube shuffling (Sec. II and Sec. V).

The output space of a join is divided into ``prod_A p_A`` hypercubes; a
tuple of relation R is routed to every cube whose coordinate matches the
tuple's hash values on attrs(R) (wildcards elsewhere).  Each worker owns
one or more cubes and evaluates them independently — no further exchange
is needed because every output tuple's coordinate is fully determined by
its attribute hashes, so exactly one cube produces it.

Three implementations are modelled after Sec. V (Fig. 9):

- ``push``  — classic map/reduce tuple-at-a-time routing: every
  (tuple, cube) pair is a message.
- ``pull``  — tuples are grouped into blocks keyed by their hash
  signature; each worker pulls each needed block once, so copies are
  counted per (tuple, worker) and per-block latency applies.
- ``merge`` — like pull but blocks are pre-built tries (three arrays),
  which serialize better and spare the worker the local trie build; the
  worker loads are priced at the trie-merge rate instead of the
  trie-build rate.

All three move identical data — the implementations differ only in the
accounted cost, exactly like the paper's Spark prototype.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..errors import OutOfMemory, PlanError
from ..obs.tracing import current_tracer
from ..query.query import Atom, JoinQuery
from .metrics import HCUBE_IMPLS, ShuffleStats
from .partitioner import Shares

__all__ = [
    "mix_hash",
    "modulo_hash",
    "HypercubeGrid",
    "HCubeRouting",
    "HCubeShuffleResult",
    "localized_query",
    "local_atom_name",
    "hcube_route",
    "MEMORY_FOOTPRINT",
]

_MIX = np.int64(0x9E3779B1)

#: Effective memory footprint per received tuple, by implementation.
#: Tuple-at-a-time (Push) shuffling materializes per-tuple headers and
#: spill buffers (the Spark behaviour behind the paper's OK-dataset OOM:
#: "the original HCube implementation shuffles too many tuples, which
#: causes memory-overflow"); block pulls are denser, and Merge ships
#: tries (three flat arrays) with no per-tuple overhead at all.
MEMORY_FOOTPRINT = {"push": 3.0, "pull": 1.2, "merge": 1.0}


def mix_hash(values: np.ndarray, buckets: int, salt: int = 0) -> np.ndarray:
    """Multiplicative mixing hash into ``buckets`` partitions."""
    if buckets == 1:
        return np.zeros(values.shape, dtype=np.int64)
    with np.errstate(over="ignore"):
        mixed = (values + np.int64(salt + 1)) * _MIX
        mixed ^= mixed >> 16
    return np.abs(mixed) % buckets


def modulo_hash(values: np.ndarray, buckets: int, salt: int = 0) -> np.ndarray:
    """The paper's example hash h_i(x) = x % p_i (tests / examples only)."""
    if buckets == 1:
        return np.zeros(values.shape, dtype=np.int64)
    return np.abs(values) % buckets


HashFn = Callable[[np.ndarray, int, int], np.ndarray]


def local_atom_name(atom: Atom, index: int) -> str:
    """Name of atom ``index``'s slice inside a cube-local database."""
    return f"{atom.relation}@{index}"


def localized_query(query: JoinQuery) -> JoinQuery:
    """The query rewritten against cube-local relation names.

    Needed because two atoms may reference the same stored relation under
    different variables (self-joins on a graph); locally each atom owns
    its own hashed slice.
    """
    return JoinQuery(
        [Atom(local_atom_name(a, i), a.attributes)
         for i, a in enumerate(query.atoms)],
        name=query.name,
    )


class HypercubeGrid:
    """The coordinate grid induced by a share vector."""

    def __init__(self, query: JoinQuery, shares: Shares | Mapping[str, int],
                 num_workers: int, hash_fn: HashFn = mix_hash):
        self.query = query
        self.shares: dict[str, int] = (
            shares.as_dict if isinstance(shares, Shares) else dict(shares))
        missing = set(query.attributes) - set(self.shares)
        if missing:
            raise PlanError(f"shares missing for attributes {missing}")
        for attr, p in self.shares.items():
            if p < 1:
                raise PlanError(f"share p_{attr} = {p} must be >= 1")
        if num_workers < 1:
            raise PlanError("need at least one worker")
        self.num_workers = num_workers
        self.hash_fn = hash_fn
        self.order = query.attributes
        self.dims = tuple(self.shares[a] for a in self.order)
        self.num_cubes = int(np.prod(self.dims)) if self.dims else 1

    # -- coordinates -------------------------------------------------------------

    def coordinate_of(self, cube_index: int) -> tuple[int, ...]:
        """Mixed-radix decode of a cube index into its coordinate."""
        coord = []
        rest = cube_index
        for p in reversed(self.dims):
            coord.append(rest % p)
            rest //= p
        return tuple(reversed(coord))

    def cube_index_of(self, coordinate: Sequence[int]) -> int:
        idx = 0
        for c, p in zip(coordinate, self.dims):
            if not (0 <= c < p):
                raise PlanError(f"coordinate {coordinate} out of range")
            idx = idx * p + c
        return idx

    def worker_of_cube(self, cube_index: int) -> int:
        """Round-robin cube-to-worker assignment."""
        return cube_index % self.num_workers

    def cubes_of_worker(self, worker: int) -> list[int]:
        return list(range(worker, self.num_cubes, self.num_workers))

    # -- per-atom block keys -------------------------------------------------------

    def atom_attr_positions(self, atom: Atom) -> list[int]:
        return [self.order.index(a) for a in atom.attributes]

    def tuple_block_ids(self, atom: Atom, data: np.ndarray) -> np.ndarray:
        """Mixed-radix block id per tuple over the atom's hashed columns."""
        ids = np.zeros(data.shape[0], dtype=np.int64)
        for col, attr in enumerate(atom.attributes):
            p = self.shares[attr]
            ids = ids * p + self.hash_fn(data[:, col],
                                         p, self.order.index(attr))
        return ids

    def cube_block_id(self, atom: Atom, coordinate: Sequence[int]) -> int:
        """Block id an atom contributes to a given cube coordinate."""
        block = 0
        for attr in atom.attributes:
            pos = self.order.index(attr)
            block = block * self.shares[attr] + int(coordinate[pos])
        return block


@dataclass
class HCubeRouting:
    """Routing-only outcome of an HCube shuffle: assignments, not copies.

    ``atom_rows[ai][cube]`` holds the row indices of atom ``ai``'s source
    relation that belong to ``cube``.  No tuple is materialized — the
    data plane (:mod:`repro.runtime.transport`) decides whether those
    assignments become pickled partition matrices or shared-memory
    descriptors; :meth:`materialize` copies them into per-cube
    databases for callers that join cubes in-process.
    """

    grid: HypercubeGrid
    impl: str
    atom_rows: list[list[np.ndarray]]
    stats: ShuffleStats
    worker_loads: dict[int, int] = field(default_factory=dict)
    prebuilt_tries: bool = False

    @property
    def local_query(self) -> JoinQuery:
        return localized_query(self.grid.query)

    def materialize(self, db: Database) -> "HCubeShuffleResult":
        """Copy the routed rows into per-cube local databases."""
        query = self.grid.query
        num_cubes = self.grid.num_cubes
        cube_relations: list[list[Relation]] = [[] for _ in range(num_cubes)]
        for ai, atom in enumerate(query.atoms):
            data = db[atom.relation].data
            local_name = local_atom_name(atom, ai)
            for cube in range(num_cubes):
                cube_relations[cube].append(
                    Relation(local_name, atom.attributes,
                             data[self.atom_rows[ai][cube]], dedup=False))
        return HCubeShuffleResult(
            grid=self.grid,
            impl=self.impl,
            cube_databases=[Database(rels) for rels in cube_relations],
            stats=self.stats,
            worker_loads=self.worker_loads,
            prebuilt_tries=self.prebuilt_tries,
        )


@dataclass
class HCubeShuffleResult:
    """Outcome of one (materialized) HCube shuffle."""

    grid: HypercubeGrid
    impl: str
    cube_databases: list[Database]
    stats: ShuffleStats
    worker_loads: dict[int, int] = field(default_factory=dict)
    prebuilt_tries: bool = False

    @property
    def local_query(self) -> JoinQuery:
        return localized_query(self.grid.query)


def _route_atom(grid: HypercubeGrid, atom: Atom, data: np.ndarray,
                impl: str, coords: Sequence[tuple[int, ...]]
                ) -> tuple[list[np.ndarray], int, int, int, dict[int, int]]:
    """Route one atom's tuples: rows per cube plus this atom's counters.

    Self-contained on purpose — atoms route independently, so
    :func:`hcube_route` may fan atoms out over a coordinator thread pool
    (pipelined epochs) and merge the returned counters in atom order,
    keeping stats bit-identical to the serial pass.

    Returns ``(rows_per_cube, tuple_copies, blocks_fetched, bytes_copied,
    worker_load_delta)``.

    Opens a ``route_atom`` span per call; when atoms fan out over the
    routing pool the spans land on distinct thread ids, so the trace
    shows the routing overlap directly.
    """
    with current_tracer().span("route_atom", cat="route",
                               atom=atom.relation,
                               tuples=int(data.shape[0])):
        return _route_atom_body(grid, atom, data, impl, coords)


def _route_atom_body(grid: HypercubeGrid, atom: Atom, data: np.ndarray,
                     impl: str, coords: Sequence[tuple[int, ...]]
                     ) -> tuple[list[np.ndarray], int, int, int,
                                dict[int, int]]:
    block_ids = grid.tuple_block_ids(atom, data)
    order = np.argsort(block_ids, kind="stable")
    sorted_ids = block_ids[order]
    boundaries = np.searchsorted(
        sorted_ids, np.arange(0, 1 + int(sorted_ids.max(initial=0)) + 1))

    def block_rows(block: int) -> np.ndarray:
        if block + 1 >= boundaries.shape[0]:
            return order[0:0]
        return order[boundaries[block]:boundaries[block + 1]]

    rows_per_cube: list[np.ndarray] = []
    tuple_copies = 0
    blocks_fetched = 0
    loads: dict[int, int] = {}
    seen_by_worker: dict[int, set[int]] = {}
    for cube in range(grid.num_cubes):
        block = grid.cube_block_id(atom, coords[cube])
        rows = block_rows(block)
        rows_per_cube.append(rows)
        size = int(rows.shape[0])
        worker = grid.worker_of_cube(cube)
        if impl == "push":
            # Tuple-at-a-time: every (tuple, cube) pair is a message.
            tuple_copies += size
            loads[worker] = loads.get(worker, 0) + size
        else:
            # Block pull: a worker fetches each distinct block once.
            seen = seen_by_worker.setdefault(worker, set())
            if size and block not in seen:
                seen.add(block)
                tuple_copies += size
                blocks_fetched += 1
                loads[worker] = loads.get(worker, 0) + size
    # Bytes move at the relation's actual element width (an older
    # version hardcoded 8, over-counting narrow dtypes).
    bytes_copied = tuple_copies * atom.arity * data.dtype.itemsize
    return rows_per_cube, tuple_copies, blocks_fetched, bytes_copied, loads


def hcube_route(query: JoinQuery, db: Database, grid: HypercubeGrid,
                impl: str = "pull",
                memory_tuples: float | None = None,
                routing_threads: int | None = None) -> HCubeRouting:
    """Compute per-cube routing assignments without copying any tuple.

    The only function that assigns tuples to workers: a hash partition
    on a join key is the grid whose whole share budget sits on that one
    attribute.  Returns row indices per (atom, cube) plus the
    :class:`ShuffleStats` / OOM accounting of the chosen implementation
    — the modeled cluster's data movement does not depend on which
    physical transport later carries it.  Cube-local relation names
    follow :func:`local_atom_name`.

    ``routing_threads`` > 1 routes atoms concurrently on a coordinator
    thread pool (the hashing/argsort work is per-atom independent);
    counters are merged in atom order afterwards, so the result —
    routing assignments *and* stats — is identical to the serial pass.
    """
    if impl not in HCUBE_IMPLS:
        raise PlanError(f"unknown HCube implementation {impl!r}")
    stats = ShuffleStats()
    num_cubes = grid.num_cubes
    atom_rows: list[list[np.ndarray]] = []
    worker_loads: dict[int, int] = {w: 0 for w in range(grid.num_workers)}
    coords = [grid.coordinate_of(c) for c in range(num_cubes)]

    atom_data: list[np.ndarray] = []
    for atom in query.atoms:
        rel = db[atom.relation]
        if rel.arity != atom.arity:
            raise PlanError(f"atom {atom} does not match relation {rel.name}")
        atom_data.append(rel.data)

    threads = int(routing_threads or 1)
    with current_tracer().span("route", cat="route", impl=impl,
                               atoms=len(query.atoms), cubes=num_cubes,
                               threads=threads):
        if threads > 1 and len(query.atoms) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(
                    max_workers=min(threads, len(query.atoms)),
                    thread_name_prefix="repro-route") as pool:
                routed = list(pool.map(
                    _route_atom,
                    (grid for _ in query.atoms), query.atoms, atom_data,
                    (impl for _ in query.atoms),
                    (coords for _ in query.atoms)))
        else:
            routed = [_route_atom(grid, atom, data, impl, coords)
                      for atom, data in zip(query.atoms, atom_data)]

    # Merge in atom order — deterministic regardless of thread timing.
    for rows_per_cube, copies, fetched, nbytes, loads in routed:
        stats.tuple_copies += copies
        stats.blocks_fetched += fetched
        stats.bytes_copied += nbytes
        for worker, load in loads.items():
            worker_loads[worker] += load
        atom_rows.append(rows_per_cube)

    stats.max_worker_tuples = max(worker_loads.values(), default=0)
    if memory_tuples is not None:
        footprint = MEMORY_FOOTPRINT[impl]
        for worker, load in worker_loads.items():
            if load * footprint > memory_tuples:
                raise OutOfMemory(worker, int(load * footprint),
                                  int(memory_tuples))
    return HCubeRouting(
        grid=grid,
        impl=impl,
        atom_rows=atom_rows,
        stats=stats,
        worker_loads=worker_loads,
        prebuilt_tries=(impl == "merge"),
    )

