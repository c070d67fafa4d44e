"""The sorted-slice contract of the routed epoch.

Every atom's source relation is laid out once, on the coordinator, in
the atom's trie order and grouped by its block id
(:meth:`Relation.block_layout`, lexsorted within a block, memoized; a
self-join's atoms read separate layouts), so each (atom, cube) slice
arrives as a sorted set and its worker does not sort it again
(``WorkerTask.sorted_atoms``).  Cubes, loads and every counter stay
those of the unsorted routing.  Sources that are not sets are left
unflagged and sort on the worker as before.
"""

import threading

import numpy as np
import pytest

import repro.data.relation as relation_module
import repro.runtime.worker as worker_module
from repro import JoinSession
from repro.data import Database, Relation
from repro.distributed import HypercubeGrid, hcube_route
from repro.engines import registry
from repro.engines.one_round import routed_epoch
from repro.knobs import env
from repro.net import WorkerAgent
from repro.query import Atom, JoinQuery
from repro.runtime import RuntimeTelemetry, SerialExecutor, iter_routed_tasks
from repro.wcoj import leapfrog_reference

ORDER = ("a", "b", "c")


def cycle_case(seed=0, n=300, dom=30, duplicates=0):
    """A directed triangle over one relation, rows shuffled.

    Under ``a < b < c`` the third atom ``E(c, a)`` reads ``E`` in the
    other column order than the first, so it reads its own layout.
    ``duplicates`` repeats that many rows (the source is then no set).
    """
    rng = np.random.default_rng(seed)
    edges = np.unique(rng.integers(0, dom, size=(n, 2)), axis=0)
    edges = np.vstack([edges, edges[:duplicates]])
    edges = edges[rng.permutation(len(edges))]
    query = JoinQuery([Atom("E", ("a", "b")), Atom("E", ("b", "c")),
                       Atom("E", ("c", "a"))], name="cycle")
    return query, Database([Relation("E", ("src", "dst"), edges,
                                     dedup=False)])


def star_case(seed=0, n=60):
    """Three edges out of a low-cardinality hub, one relation each: every
    order the engines pick starts at the hub, so every atom — and every
    binary probe's right side — is in its trie order."""
    rng = np.random.default_rng(seed)
    query = JoinQuery([Atom("S", ("a", "b")), Atom("T", ("a", "c")),
                       Atom("U", ("a", "d"))], name="star")
    rels = []
    for name in ("S", "T", "U"):
        edges = np.unique(np.column_stack(
            [rng.integers(0, 4, n), rng.integers(0, 200, n)]), axis=0)
        rels.append(Relation(name, ("hub", "leaf"),
                             edges[rng.permutation(len(edges))],
                             dedup=False))
    return query, Database(rels)


class WorkerSorts:
    """Counts row sorts made while a worker task runs, on any thread."""

    def __init__(self, monkeypatch):
        self.count = 0
        local = threading.local()
        run_task = worker_module._execute_worker_task
        sort_rows = relation_module._sorted_rows

        def task(t):
            local.inside = True
            try:
                return run_task(t)
            finally:
                local.inside = False

        def sort(arr, dedup):
            if getattr(local, "inside", False):
                self.count += 1
            return sort_rows(arr, dedup)

        monkeypatch.setattr(worker_module, "_execute_worker_task", task)
        monkeypatch.setattr(relation_module, "_sorted_rows", sort)


def _route(query, db, workers=3, order=None):
    grid = HypercubeGrid(query, {"a": 2, "b": 2, "c": 1}, workers)
    return grid, hcube_route(query, db, grid, order=order)


def _one_block(rows):
    return np.zeros(rows.shape[0], dtype=np.uint8)


# -- the pieces ---------------------------------------------------------------

class TestLexsorted:
    """The block layout is the one coordinator-side sort."""

    def test_sorts_once_per_order_and_keeps_duplicates(self):
        rel = Relation("E", ("x", "y"), [[2, 1], [1, 5], [2, 1], [1, 0]],
                       dedup=False)
        flipped = rel.block_layout(("y", "x"), "one", _one_block, 1)
        assert flipped is rel.block_layout(("y", "x"), "one", _one_block, 1)
        assert flipped.data.tolist() == [[0, 1], [1, 2], [1, 2], [5, 1]]
        assert not flipped.is_sorted_set           # (1, 2) twice
        unique = Relation("E", ("x", "y"), [[2, 1], [1, 5]], dedup=False)
        assert unique.block_layout(("x", "y"), "one", _one_block,
                                   1).is_sorted_set
        # Two blocks by parity of y: each block is a lexsorted range.
        parity = rel.block_layout(("x", "y"), "parity",
                                  lambda rows: (rows[:, 1] % 2)
                                  .astype(np.uint8), 2)
        assert parity.data.tolist() == [[1, 0], [1, 5], [2, 1], [2, 1]]
        assert parity.bounds.tolist() == [0, 1, 4]
        assert parity.block(1) == slice(1, 4)

    def test_a_sorted_set_in_that_order_is_itself(self):
        rel = Relation("E", ("x", "y"), [[2, 1], [1, 5]])
        layout = rel.block_layout(("x", "y"), "one", _one_block, 1)
        assert layout.data is rel.data and layout.is_sorted_set

    def test_block_ids_are_narrow(self):
        query, db = cycle_case()
        grid, _ = _route(query, db)
        ids = grid.tuple_block_ids(query.atoms[0], db["E"].data)
        assert ids.dtype == np.uint8 and int(ids.max()) < 4


class TestSortedSources:
    def test_grid_keeps_cubes_and_counters(self):
        _, db = cycle_case()
        # The reversed cycle: its first atom reads E as (dst, src).
        query = JoinQuery([Atom("E", ("b", "a")), Atom("E", ("c", "b")),
                           Atom("E", ("a", "c"))])
        grid, parent = _route(query, db)
        _, routing = _route(query, db, order=ORDER)
        assert routing.stats == parent.stats
        assert routing.worker_loads == parent.worker_loads
        assert routing.grid.order == grid.order
        # Each atom lays E out in its own trie order, and is relisted so.
        assert [layout.attributes for layout in routing.layouts] \
            == [("dst", "src"), ("dst", "src"), ("src", "dst")]
        assert [a.attributes for a in routing.grid.query.atoms] \
            == [("a", "b"), ("b", "c"), ("a", "c")]
        for ai, atom in enumerate(query.atoms):
            relisted = routing.grid.query.atoms[ai].attributes
            columns = [atom.attributes.index(v) for v in relisted]
            for cube in range(grid.num_cubes):
                mine = routing.rows_of(ai, cube)
                theirs = parent.rows_of(ai, cube)
                assert sorted(map(tuple, mine.tolist())) \
                    == sorted(map(tuple, theirs[:, columns].tolist()))
                assert mine.tolist() == sorted(mine.tolist())

    def test_tasks_flag_only_atoms_in_trie_order_over_a_set(self):
        for duplicates, flags in ((0, (True, True, True)),
                                  (25, (False, False, False))):
            query, db = cycle_case(duplicates=duplicates)
            _, routing = _route(query, db, order=ORDER)
            tasks = list(iter_routed_tasks(routing, db, ORDER))
            assert {t.sorted_atoms for t in tasks} == {flags}

    def test_a_source_that_is_not_a_set_counts_as_before(self):
        query, db = cycle_case(duplicates=40)
        grid, parent = _route(query, db)
        with SerialExecutor(3) as ex:
            routing, merged = routed_epoch(
                query, db, grid, ORDER, ex,
                RuntimeTelemetry(backend="serial", num_workers=3))
        assert routing.stats == parent.stats
        assert routing.stats.tuple_copies > sum(
            len(db[a.relation]) for a in query.atoms)
        assert merged.count == len(leapfrog_reference(query, db))


# -- end to end ---------------------------------------------------------------

@pytest.mark.parametrize("transport", ["pickle", "shm", "tcp"])
def test_self_join_in_two_column_orders_agrees_with_reference(transport):
    query, db = cycle_case()
    expected = len(leapfrog_reference(query, db))
    with JoinSession(workers=2, backend="serial", transport=transport,
                     samples=20) as session:
        report = session.query_from(query, db).compare()
    assert {r.engine for r in report.results} \
        == {registry.display_name(k) for k in registry.available()}
    assert report.agreed, report.counts
    assert report.count == expected


def _remote_hosts():
    """``REPRO_HOSTS`` agents when set (``repro serve`` processes), else
    two in-process agents whose tasks still cross the wire."""
    hosts = env("REPRO_HOSTS")
    if hosts:
        return list(hosts), []
    agents = [WorkerAgent(slots=1, mode="inline").start() for _ in range(2)]
    return [f"127.0.0.1:{a.port}" for a in agents], agents


def test_self_join_over_remote_agents_agrees_with_reference():
    query, db = cycle_case()
    hosts, agents = _remote_hosts()
    try:
        with JoinSession(workers=2, backend="remote", transport="tcp",
                         hosts=hosts, samples=20) as session:
            report = session.query_from(query, db).compare()
    finally:
        for agent in agents:
            agent.stop()
    assert report.agreed, report.counts
    assert report.count == len(leapfrog_reference(query, db))


@pytest.mark.parametrize("engine", ["hcubej", "hcubej-cache", "bigjoin",
                                    "adj"])
def test_warm_serial_run_sorts_nothing_on_the_worker_side(engine,
                                                          monkeypatch):
    query, db = star_case()
    sorts = WorkerSorts(monkeypatch)
    with JoinSession(workers=2, backend="serial", samples=20) as session:
        job = session.query_from(query, db)
        first = job.run(engine)
        sorts.count = 0
        second = job.run(engine)
    assert first.ok and second.count == first.count \
        == len(leapfrog_reference(query, db))
    assert sorts.count == 0


def test_flags_cross_the_wire(monkeypatch):
    """In-process agents unpickle the task the coordinator framed; their
    workers sort nothing either."""
    query, db = star_case()
    agents = [WorkerAgent(slots=1, mode="inline").start() for _ in range(2)]
    sorts = WorkerSorts(monkeypatch)
    try:
        with JoinSession(workers=2, backend="remote", transport="tcp",
                         hosts=[f"127.0.0.1:{a.port}" for a in agents],
                         samples=20) as session:
            job = session.query_from(query, db)
            job.run("hcubej")
            sorts.count = 0
            result = job.run("hcubej")
    finally:
        for agent in agents:
            agent.stop()
    assert result.count == len(leapfrog_reference(query, db))
    assert sorts.count == 0
    # The counter is live: slices of a source that is no set sort.
    query, db = cycle_case(duplicates=25)
    with JoinSession(workers=2, backend="serial", samples=20) as session:
        session.query_from(query, db).run("hcubej")
    assert sorts.count > 0
