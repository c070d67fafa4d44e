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
accounted cost, exactly like the paper's Spark prototype.  Pull's blocks
and Merge's pre-built tries are real on every implementation:
:func:`hcube_route` lays each atom's source out grouped by that atom's
block id (:meth:`repro.data.relation.Relation.block_layout`, lexsorted
within a block, in the atom's trie order, memoized on the relation), so
an (atom, cube) slice is one contiguous row range of what is published
and reaches its worker as a sorted set.  Like the paper's test-cases,
where each atom of a query has its own copy of the relation, a
self-join's atoms read separate layouts of one relation.  A
warm query neither hashes nor sorts; a worker copies only its own
ranges, and on home process slots keeps them
(:meth:`HCubeRouting.content_keys` names each selection by content,
:mod:`repro.runtime.residency`), so a warm query moves no rows at all.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..data.database import Database
from ..data.relation import BlockLayout, Relation
from ..errors import OutOfMemory, PlanError
from ..obs.tracing import current_tracer
from ..query.query import Atom, JoinQuery
from ..wcoj.leapfrog import trie_order
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
    """The coordinate grid induced by a share vector.

    ``order`` fixes the grid's attribute order — cube numbering and the
    per-attribute hash salts — and defaults to the query's; a caller
    that relists atom columns passes the original order to keep the
    same cubes.
    """

    def __init__(self, query: JoinQuery, shares: Shares | Mapping[str, int],
                 num_workers: int, hash_fn: HashFn = mix_hash,
                 order: Sequence[str] | None = None):
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
        self.order = query.attributes if order is None else tuple(order)
        if sorted(self.order) != sorted(query.attributes):
            raise PlanError(f"grid order {self.order} is not a permutation "
                            f"of {query.attributes}")
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

    def num_blocks(self, atom: Atom) -> int:
        """How many distinct block ids the atom's tuples can take."""
        return int(np.prod([self.shares[a] for a in atom.attributes]))

    def tuple_block_ids(self, atom: Atom, data: np.ndarray) -> np.ndarray:
        """Mixed-radix block id per tuple over the atom's hashed columns,
        in the narrowest unsigned dtype that holds :meth:`num_blocks` (so
        a stable argsort of them is numpy's radix sort)."""
        ids = np.zeros(data.shape[0], dtype=np.int64)
        for col, attr in enumerate(atom.attributes):
            p = self.shares[attr]
            ids = ids * p + self.hash_fn(data[:, col],
                                         p, self.order.index(attr))
        blocks = self.num_blocks(atom)
        for dtype in (np.uint8, np.uint16, np.uint32):
            if blocks <= np.iinfo(dtype).max + 1:
                return ids.astype(dtype)
        return ids.astype(np.uint64)

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

    ``layouts[ai]`` is atom ``ai``'s block layout of its source relation
    (:meth:`~repro.data.relation.Relation.block_layout`: in the atom's
    trie order, grouped by the atom's block id) and
    ``atom_rows[ai][cube]`` is the contiguous range of the block that
    atom contributes to ``cube``.  ``grid`` is over the query with every
    atom's variables listed in its trie order.  No tuple is copied — the
    data plane (:mod:`repro.runtime.transport`) publishes the layouts
    and ships the ranges; :meth:`materialize` copies them into per-cube
    databases for callers that join cubes in-process.
    """

    grid: HypercubeGrid
    impl: str
    layouts: list[BlockLayout]
    atom_rows: list[list[slice]]
    stats: ShuffleStats
    worker_loads: dict[int, int] = field(default_factory=dict)
    prebuilt_tries: bool = False
    #: Per atom, the block id of each cube's range.
    atom_blocks: list[list[int]] = field(default_factory=list)
    #: :meth:`content_keys`' last answer and the digests it was for.
    _content: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    @property
    def local_query(self) -> JoinQuery:
        return localized_query(self.grid.query)

    def content_keys(self, db: Database) -> list[list[str]] | None:
        """Per (atom, cube), a name for the rows it selects, by content.

        The rows of ``atom_rows[ai][cube]`` are a function of the source
        relation's rows (:attr:`Relation.digest`), the layout's memo key
        and the block id, so the name is a hash of the first two, per
        atom, plus the block id: equal names select equal rows, across
        queries and routings.  No row is hashed here.  None when the
        grid's hash function has no importable name (it could not be
        told from another one).  Memoized on the routing for the digests
        it was asked for, so a routing reused by a warm query (a route
        memo hit) names its selections once.
        """
        digests = tuple(db[a.relation].digest for a in self.grid.query.atoms)
        if self._content is not None and self._content[0] == digests:
            return self._content[1]
        fn = self.grid.hash_fn
        module = sys.modules.get(getattr(fn, "__module__", None) or "")
        keys: list[list[str]] | None = None
        if getattr(module, getattr(fn, "__qualname__", ""), None) is fn:
            fn_name = f"{fn.__module__}.{fn.__qualname__}"

            def named(key):
                return tuple(named(k) for k in key) \
                    if isinstance(key, tuple) \
                    else fn_name if key is fn else key

            keys = []
            for digest, layout, blocks in zip(digests, self.layouts,
                                              self.atom_blocks):
                prefix = hashlib.sha256(repr((
                    digest, named(layout.key))).encode()).hexdigest()[:24]
                keys.append([f"{prefix}:{b}" for b in blocks])
        self._content = (digests, keys)
        return keys

    def rows_of(self, ai: int, cube: int) -> np.ndarray:
        """Atom ``ai``'s rows for ``cube`` (a view of its layout)."""
        return self.layouts[ai].data[self.atom_rows[ai][cube]]

    def materialize(self, db: Database | None = None
                    ) -> "HCubeShuffleResult":
        """Copy the routed rows into per-cube local databases.

        The rows come from the routing's layouts; ``db`` is accepted for
        compatibility and not read.
        """
        query = self.grid.query
        num_cubes = self.grid.num_cubes
        cube_relations: list[list[Relation]] = [[] for _ in range(num_cubes)]
        for ai, atom in enumerate(query.atoms):
            local_name = local_atom_name(atom, ai)
            known = self.layouts[ai].is_sorted_set
            for cube in range(num_cubes):
                cube_relations[cube].append(Relation.wrap(
                    local_name, atom.attributes,
                    self.rows_of(ai, cube).copy(), known))
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


def _block_key(grid: HypercubeGrid, atom: Atom) -> tuple:
    """What an atom's block ids depend on: per column, its share and
    hash salt, plus the hash function."""
    return (tuple((grid.shares[a], grid.order.index(a))
                  for a in atom.attributes), grid.hash_fn)


def _atom_counters(grid: HypercubeGrid, atom: Atom, impl: str,
                   blocks: Sequence[int], selections: Sequence[slice],
                   itemsize: int) -> tuple[int, int, int, dict[int, int]]:
    """One atom's ``(tuple_copies, blocks_fetched, bytes_copied,
    worker_load_delta)`` under ``impl``."""
    tuple_copies = 0
    blocks_fetched = 0
    loads: dict[int, int] = {}
    seen_by_worker: dict[int, set[int]] = {}
    for cube, (block, sel) in enumerate(zip(blocks, selections)):
        size = sel.stop - sel.start
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
    return (tuple_copies, blocks_fetched,
            tuple_copies * atom.arity * itemsize, loads)


def hcube_route(query: JoinQuery, db: Database, grid: HypercubeGrid,
                impl: str = "pull",
                memory_tuples: float | None = None,
                routing_threads: int | None = None,
                order: Sequence[str] | None = None) -> HCubeRouting:
    """Compute per-cube routing assignments without copying any tuple.

    The only function that assigns tuples to workers: a hash partition
    on a join key is the grid whose whole share budget sits on that one
    attribute.  Each atom's source relation is laid out for that atom
    (:meth:`~repro.data.relation.Relation.block_layout`, memoized on the
    relation): columns in the atom's trie order under ``order`` (its own
    column order when ``order`` is None), rows grouped by the atom's
    block id and lexsorted within a block.  A relation keeps the layouts
    its last route read (:meth:`~repro.data.relation.Relation
    .keep_layouts`).  Returns those layouts, a row range per (atom,
    cube), and the :class:`ShuffleStats` / OOM accounting of the chosen
    implementation; the modeled cluster's data movement does not depend
    on the layout or on which physical transport later carries it.  The
    routing's grid keeps ``grid``'s attribute order, so cubes, loads and
    counters are ``grid``'s.  Cube-local relation names follow
    :func:`local_atom_name`.

    ``routing_threads`` is accepted for compatibility and ignored:
    atoms route serially, in atom order (a per-call thread pool measured
    slower than the serial pass on every benchmark workload).
    """
    if impl not in HCUBE_IMPLS:
        raise PlanError(f"unknown HCube implementation {impl!r}")
    stats = ShuffleStats()
    num_cubes = grid.num_cubes
    worker_loads: dict[int, int] = {w: 0 for w in range(grid.num_workers)}
    coords = [grid.coordinate_of(c) for c in range(num_cubes)]
    read: dict[str, tuple[Relation, set]] = {}
    atoms: list[Atom] = []
    layouts: list[BlockLayout] = []
    atom_rows: list[list[slice]] = []
    atom_blocks: list[list[int]] = []
    tracer = current_tracer()
    with tracer.span("route", cat="route", impl=impl,
                     atoms=len(query.atoms), cubes=num_cubes):
        for atom in query.atoms:
            rel = db[atom.relation]
            if rel.arity != atom.arity:
                raise PlanError(
                    f"atom {atom} does not match relation {rel.name}")
            with tracer.span("route_atom", cat="route",
                             atom=atom.relation,
                             tuples=int(rel.data.shape[0])):
                column = dict(zip(atom.attributes, rel.attributes))
                if order is not None:
                    atom = Atom(atom.relation,
                                trie_order(atom.attributes, order))
                layout = rel.block_layout(
                    [column[v] for v in atom.attributes],
                    _block_key(grid, atom),
                    lambda data: grid.tuple_block_ids(atom, data),
                    grid.num_blocks(atom))
                blocks = [grid.cube_block_id(atom, c) for c in coords]
                selections = [layout.block(b) for b in blocks]
            copies, fetched, nbytes, loads = _atom_counters(
                grid, atom, impl, blocks, selections,
                rel.data.dtype.itemsize)
            stats.tuple_copies += copies
            stats.blocks_fetched += fetched
            stats.bytes_copied += nbytes
            for worker, load in loads.items():
                worker_loads[worker] += load
            read.setdefault(atom.relation, (rel, set()))[1].add(layout.key)
            atoms.append(atom)
            layouts.append(layout)
            atom_rows.append(selections)
            atom_blocks.append(blocks)
    for rel, keys in read.values():
        rel.keep_layouts(keys)

    stats.max_worker_tuples = max(worker_loads.values(), default=0)
    if memory_tuples is not None:
        footprint = MEMORY_FOOTPRINT[impl]
        for worker, load in worker_loads.items():
            if load * footprint > memory_tuples:
                raise OutOfMemory(worker, int(load * footprint),
                                  int(memory_tuples))
    if any(a.attributes != b.attributes for a, b in zip(atoms, query.atoms)):
        grid = HypercubeGrid(JoinQuery(atoms, name=query.name), grid.shares,
                             grid.num_workers, grid.hash_fn, order=grid.order)
    return HCubeRouting(
        grid=grid,
        impl=impl,
        layouts=layouts,
        atom_rows=atom_rows,
        stats=stats,
        worker_loads=worker_loads,
        prebuilt_tries=(impl == "merge"),
        atom_blocks=atom_blocks,
    )
